"""The README's quick tour runs as written and gives the values its comments
state."""

import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


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
