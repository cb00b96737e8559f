"""Every named tolerance, and the size budget, has one home module and is
read there at call time.

A default argument or a ``from .home import NAME`` binds the value once, at
import, so a later override (``catalyx --tol-override``) would not reach that
use.  This test parses the package source and rejects both forms.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import catalyx
from catalyx import catalysis as cat
from catalyx import hilbert as hl

HOMES = {
    "TOL_UNITARY": "hilbert",
    "TOL_HERM": "hilbert",
    "TOL_PSD": "hilbert",
    "TOL_STATE": "hilbert",
    "TOL_NORM": "hilbert",
    "GROUP_TOL": "hilbert",
    "LEDGER_TOL": "catalysis",
    "MAX_BYTES": "hilbert",
}

SOURCES = sorted(Path(catalyx.__file__).parent.glob("*.py"))


def _names(node):
    """Tolerance names an expression mentions, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in HOMES:
            yield sub.id
        elif isinstance(sub, ast.Attribute) and sub.attr in HOMES:
            yield sub.attr


def _offences(path):
    module = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            for name in (n for d in defaults for n in _names(d)):
                yield f"{module}:{node.lineno} default binds {name}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if HOMES.get(alias.name, module) != module:
                    yield f"{module}:{node.lineno} imports {alias.name} by value"


def test_tolerances_are_read_at_call_time():
    offences = [o for path in SOURCES for o in _offences(path)]
    assert offences == []


def test_each_tolerance_defined_once_in_its_home():
    counts = dict.fromkeys(HOMES, 0)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id in HOMES:
                        assert HOMES[t.id] == path.stem, f"{t.id} assigned in {path.stem}"
                        counts[t.id] += 1
    assert counts == dict.fromkeys(HOMES, 1)


def test_psd_override_moves_kraus_and_recovery_cuts(monkeypatch):
    """A catalyst eigenvalue of 1e-9 is support at the default ``TOL_PSD``
    and zero under 1e-8: the Kraus-rank cut of ``channel_to_kraus`` and the
    full-support test of ``recovery_unitary`` both follow the override."""
    inst = cat.classical_catalysis([1 - 1e-9, 1e-9], [np.eye(2), hl.clock_matrix(2)])
    # the factor is taken once, at the default, so only the Kraus cut can move
    assert inst.sigma.factor().shape == (2, 2)
    assert len(cat.channel_to_kraus(inst).kraus) == 2
    cat.recovery_unitary(inst)

    monkeypatch.setattr(hl, "TOL_PSD", 1e-8)
    assert len(cat.channel_to_kraus(inst).kraus) == 1
    with pytest.raises(cat.CertificationError, match="full-support"):
        cat.recovery_unitary(inst)
