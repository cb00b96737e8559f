"""Every marginal of a state is taken through ``hilbert.partial_trace``.

A state built as ``DensityOperator(ptrace_matrix(...))`` outside it is
validated and diagonalized apart from the marginal memo, so the same
spectrum is computed twice.  This test parses the package source and rejects
every such call, and any module that defines a second mutual-information or
subsystem-entropy helper.
"""

import ast
from pathlib import Path

import catalyx

SOURCES = sorted(Path(catalyx.__file__).parent.glob("*.py"))
RAW_MARGINAL_HOMES = {"hilbert.partial_trace"}
DELETED = {"mutual_information_matrix", "subsystem_entropy"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_raw_marginal(node):
    return (isinstance(node, ast.Call) and _name(node.func) == "DensityOperator"
            and bool(node.args) and isinstance(node.args[0], ast.Call)
            and _name(node.args[0].func) == "ptrace_matrix")


def _raw_marginal_sites(path):
    """``module.function`` of each raw marginal, by top-level function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        for node in ast.walk(top):
            if _is_raw_marginal(node):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}"


def test_raw_marginals_only_in_their_homes():
    sites = {s for path in SOURCES for s in _raw_marginal_sites(path)}
    assert sites == RAW_MARGINAL_HOMES


def test_no_second_marginal_entropy_helper():
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in DELETED
    ]
    assert defined == []
