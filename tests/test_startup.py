"""What importing catalyx costs, and what its reports may hold.

Every ``catalyx`` command runs in a fresh interpreter, so the package's
import is paid on each one, and with no cached bytecode each module it loads
is compiled again.  ``import catalyx`` therefore loads nothing: the package
namespace resolves its submodules and re-exported names on first use.  The
CLI loads ``hilbert``, ``entropy`` and ``catalysis``, which every command
needs, and each command imports the other modules it runs, so ``verify`` and
``entropy`` load none of them.  ``dataclasses`` generates and compiles the
methods of each decorated class at import, about 1 ms a class, so the
package uses none: its records are ``typing.NamedTuple`` classes and its
value types plain classes.  ``json`` writes a named tuple as a list, so no
report the CLI hands to ``json.dumps`` may hold one.
"""

import ast
import importlib
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


def _fresh(code, *args):
    """The last stdout line of ``code`` run in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_a_fresh_cli_import_leaves_dataclasses_unloaded():
    assert _fresh("import catalyx.cli, sys; print('dataclasses' in sys.modules)") == "False"


# the loaded catalyx submodules and numpy
LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('catalyx.'))"


def test_a_fresh_package_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import sys, catalyx; print({LOADED})") == "[]"


# what each command adds to the modules every command loads, and its exit code
CLI_MODULES = ["catalysis", "cli", "entropy", "hilbert"]
CLI_LOADS = {
    "verify": (["verify", "{tmp}/cnot.json", "--sigma-file", "{tmp}/sigma.json"], [], 0),
    "entropy": (["entropy", "{tmp}/sigma.json"], [], 0),
    "usage-error": (["scenario", "no_such_scenario"], [], 2),
    # the channel spec is resolved before the optimizer is imported
    "bad-channel": (["optimize", "ea", "--channel", "no_such_channel2"], [], 2),
    "construct": (["construct", "dephasing_degeneracy", "--r", "1,2", "--out", "{tmp}"],
                  ["constructions"], 0),
    "optimize": (["optimize", "ea", "--channel", "dephasing2", "--out", "{tmp}/o.json"],
                 ["optimize"], 0),
    "scenario": (["scenario", "depletion", "--out", "{tmp}/s.json"],
                 ["constructions", "scenarios"], 0),
    "selftest": (["selftest"], ["constructions", "scenarios"], 0),
}


@pytest.mark.parametrize("case", CLI_LOADS)
def test_each_command_loads_only_the_modules_it_runs(case, tmp_path):
    argv, extra, code = CLI_LOADS[case]
    cnot = hl.UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])
    hl.save_json(str(tmp_path / "cnot.json"), hl.operator_to_payload(cnot))
    hl.save_json(str(tmp_path / "sigma.json"), hl.operator_to_payload(hl.maximally_mixed([2])))
    run = f"import sys; from catalyx import cli; print(cli.main(sys.argv[1:]), {LOADED})"
    loaded = sorted(f"catalyx.{m}" for m in CLI_MODULES + extra) + ["numpy"]
    assert _fresh(run, *(arg.format(tmp=tmp_path) for arg in argv)) == f"{code} {loaded}"


# every name the package bound when its import loaded all six submodules
PACKAGE_NAMES = {
    "catalysis": ["CatalysisInstance", "CertificationError", "KrausChannel", "LedgerRecord",
                  "canonical_form", "classical_catalysis", "implement_channel",
                  "is_catalysis_unitary", "ledger", "recovery_unitary",
                  "verify_catalysis_exhaustive"],
    "entropy": ["DegeneracyVector", "EntropyReport", "catalytic_entropy", "catalytic_renyi",
                "entropy_report", "mutual_information", "renyi", "renyi_divergence",
                "von_neumann"],
    "hilbert": ["DensityOperator", "EigenspaceDecomposition", "StateVector",
                "SubsystemLayout", "UnitaryOperator", "canonical_operators",
                "eigenspace_decompose", "haar_unitary", "partial_trace", "partial_transpose",
                "purify", "random_density", "tensor"],
    "constructions": [], "optimize": [], "scenarios": [],
}


@pytest.mark.parametrize("module", PACKAGE_NAMES)
def test_every_package_name_is_its_submodules_own_object(module):
    sub = importlib.import_module(f"catalyx.{module}")
    star: dict = {}
    exec("from catalyx import *", star)
    for name in [module, *PACKAGE_NAMES[module]]:
        want = sub if name == module else getattr(sub, name)
        assert getattr(catalyx, name) is want and star[name] is want, name
        assert name in dir(catalyx), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        catalyx.no_such_name  # noqa: B018


def test_every_tolerance_override_names_a_hilbert_tolerance():
    # main saves, sets and restores each override as a hilbert attribute, so
    # a misspelt name would set a new attribute that no check reads
    from test_tolerance_homes import HOMES

    names = set(cli._TOL_NAMES.values())
    assert all(HOMES.get(name) == "hilbert" and hasattr(hl, name) for name in names), names


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
