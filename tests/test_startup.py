"""What importing catalyx costs, and what its reports may hold.

Every ``catalyx`` command runs in a fresh interpreter, so the package's
import is paid on each one.  ``dataclasses`` generates and compiles the
methods of each decorated class at import, about 1 ms a class, so the
package uses none: its records are ``typing.NamedTuple`` classes and its
value types plain classes.  ``json`` writes a named tuple as a list, so no
report the CLI hands to ``json.dumps`` may hold one.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catalyx
from catalyx import cli
from catalyx import hilbert as hl

SOURCES = sorted(Path(catalyx.__file__).parent.glob("*.py"))


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    offences = [f"{path.stem} imports {name}" for path in SOURCES
                for name in _imported_modules(path) if name.split(".")[0] == "dataclasses"]
    assert offences == []


def test_a_fresh_cli_import_leaves_dataclasses_unloaded():
    res = subprocess.run(
        [sys.executable, "-c", "import catalyx.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


# one small run of every construct kind, scenario and optimize target, and of
# the commands that read files; FILE names a file the test writes first
KINDS = {
    "construct": {
        "dephasing_degeneracy": ("--r", "1,2"),
        "max_extraction": ("--r", "1,2"),
        "initialization_classical": ("--d", "3"),
        "initialization_masking": ("--m", "2"),
        "double_random": ("--d", "2"),
        "multiparty": ("--d", "2"),
        "conserved_optimal": ("--r", "1,3"),
        "angular_momentum": ("--lM", "1"),
        "thermal_levels": ("--r", "1,2"),
    },
    "scenario": {
        "multiparty": ("--d", "2", "--rounds", "1"),
        "conservation": ("--samples", "2"),
        "depletion": ("--d", "2"),
        "absorption": ("--d", "2", "--samples", "2"),
        "cq_free": ("--d", "2"),
        "initialization": ("--d", "3"),
    },
    "optimize": {
        "ea": ("--channel", "dephasing2"),
        "global": ("--channel", "dephasing2", "--restarts", "1"),
        "local": ("--channel", "dephasing2", "--restarts", "1"),
    },
}
COMMANDS = [(command, kind, *args) for command, kinds in KINDS.items()
            for kind, args in kinds.items()]
COMMANDS += [("verify", "UNITARY", "--sigma-file", "SIGMA"), ("entropy", "SIGMA")]


def test_every_kind_has_a_report_case():
    assert set(KINDS["construct"]) == set(cli.CONSTRUCT)
    assert set(KINDS["scenario"]) == set(cli.SCENARIO)
    assert set(KINDS["optimize"]) == set(cli.OPTIMIZE)


def _tuple_subclasses(obj, path):
    if isinstance(obj, tuple) and type(obj) is not tuple:
        yield f"{path}: {type(obj).__name__}"
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _tuple_subclasses(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _tuple_subclasses(value, f"{path}[{i}]")


@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: ":".join(args[:2]))
def test_no_report_holds_a_named_tuple(args, tmp_path, monkeypatch, capsys):
    files = {"UNITARY": tmp_path / "cnot.json", "SIGMA": tmp_path / "sigma.json"}
    cnot = hl.UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])
    hl.save_json(str(files["UNITARY"]), hl.operator_to_payload(cnot))
    hl.save_json(str(files["SIGMA"]), hl.operator_to_payload(hl.maximally_mixed([2])))
    dumped = []
    dumps = json.dumps

    def checked(obj, *a, **k):
        dumped.append(list(_tuple_subclasses(obj, "report")))
        return dumps(obj, *a, **k)

    monkeypatch.setattr(json, "dumps", checked)
    argv = [str(files.get(a, a)) for a in args]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err
    assert dumped and all(offences == [] for offences in dumped), dumped
