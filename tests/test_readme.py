"""The README's quick tour and command-line block run as written and give
the values their comments state."""

import pathlib
import re
import shlex

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def _command_line() -> list[tuple[list[str], str]]:
    """(argv after ``catalyx``, trailing comment) per command of the block."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1).replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "catalyx"
        commands.append((argv, comment.strip()))
    return commands


def test_quick_tour_runs_and_states_true_values():
    ns: dict = {}
    exec(compile(_quick_tour(), str(README), "exec"), ns)
    cx = ns["cx"]

    verdict = cx.is_catalysis_unitary(ns["cnot"])  # verdict=True, defect=0.0
    assert verdict.verdict and verdict.defect == 0.0
    # the qubit dephasing channel sends |+> to the maximally mixed state
    assert np.abs(ns["out"].matrix - np.eye(2) / 2).max() <= 1e-12
    assert ns["rep"].vn == pytest.approx(1.5, abs=1e-12)
    assert ns["rep"].catalytic_vn == pytest.approx(2.0, abs=1e-12)
    rec = ns["rec"]
    assert rec.delta_i == pytest.approx(2.0, abs=1e-9)
    assert rec.s_in == pytest.approx(0.0, abs=1e-9)
    assert rec.s_out == pytest.approx(2.0, abs=1e-9)
    # the reference factors ride along: τ keeps the input's layout
    assert ns["tau"].layout.dims == ns["res"].input_state.layout.dims + (3,)


def test_command_line_runs_and_prints_its_headlines(tmp_path, monkeypatch, capsys):
    from catalyx import cli

    monkeypatch.chdir(tmp_path)
    commands = _command_line()
    headlines = {comment for _, comment in commands if " = " in comment}
    assert {"S_cat = 3.321928 bits", "C_EA = 1.000000 bits"} <= headlines
    for argv, comment in commands:
        assert cli.main(argv) == 0, argv
        printed = capsys.readouterr().out
        if comment in headlines:
            assert comment in printed, argv
