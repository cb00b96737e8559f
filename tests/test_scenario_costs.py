"""Cost guards of the scenario transitions: each transition is evolved once,
inside the ledger, each marginal of a state is diagonalized once (a later
transition or reading takes it from the state's memo), local unitaries are
never embedded at full dimension, and scenario sizes are checked before
anything is allocated."""

import sys
from collections import Counter

import numpy as np
import pytest

from catalyx import catalysis as cat
from catalyx import constructions
from catalyx import hilbert as hl
from catalyx import scenarios as sc
from catalyx.catalysis import initialization_channel, ledger


def _catalyx_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "catalyx"]


def test_ledger_diagonalizes_each_marginal_once(monkeypatch):
    # second use of the depletion protocol at d = 2: A1 = 4, A2 = 4, B = 2
    w = constructions.multiparty_unitary(2)
    fresh = hl.plus_state(4).density()
    inter = hl.DensityOperator(
        hl.evolve(w.matrix, fresh.matrix, hl.maximally_mixed([2]).matrix), [4, 2]
    )
    sizes = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        sizes[m.shape[0]] += 1
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    ledger(w, fresh, inter, 1, on=[0, 2])
    assert sizes == {
        32: 1,  # tau
        16: 1,  # tau_A1A2
        4: 1,  # sigma_A2
        2: 3,  # tau_B, sigma_B and tau_B - sigma_B of the catalyst check
    }


@pytest.mark.parametrize(
    "run, small_dim",
    [
        (lambda: sc.initialization_scenario(5), 125),
        (lambda: sc.multiparty_refuel(2, 4), 8),
        (lambda: sc.depletion_demo(3), 27),
    ],
    ids=["initialization5", "refuel2x4", "depletion3"],
)
def test_scenarios_apply_only_the_small_unitary(monkeypatch, run, small_dim):
    embedded, checked = [], []
    embed, defect = hl.embed_operator, hl.unitarity_defect

    def recording_embed(op, full_dims, positions):
        embedded.append(int(np.prod(full_dims)))
        return embed(op, full_dims, positions)

    def recording_defect(m):
        checked.append(m.shape[0])
        return defect(m)

    for module in _catalyx_modules():
        if hasattr(module, "embed_operator"):
            monkeypatch.setattr(module, "embed_operator", recording_embed)
        if hasattr(module, "unitarity_defect"):
            monkeypatch.setattr(module, "unitarity_defect", recording_defect)
    trace = run()
    assert embedded == []
    assert max(checked) <= small_dim
    assert all(s.ledger.residual <= 1e-8 for s in trace.steps if s.ledger)


@pytest.mark.parametrize(
    "run",
    [
        lambda: sc.multiparty_refuel(2, 4),
        lambda: sc.multiparty_refuel(3, 2, classical=True),
        lambda: sc.depletion_demo(3),
        lambda: sc.cq_free_randomness(3),
        lambda: sc.initialization_scenario(3),
    ],
    ids=["refuel2x4", "refuel3x2-classical", "depletion3", "cq_free3", "initialization3"],
)
def test_each_transition_is_evolved_once_inside_the_ledger(monkeypatch, run):
    calls = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, fn in (("evolve", hl.evolve), ("ledger", cat.ledger)):
        wrapped = counting(name, fn)
        for module in _catalyx_modules():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    run()
    assert calls["evolve"] == calls["ledger"] > 0


def _spectrum_sizes(monkeypatch, run):
    """Run ``run`` and count the Hermitian eigensolver calls by matrix size."""
    sizes = Counter()
    solvers = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def counting(solver):
        def call(m, *args, **kwargs):
            sizes[m.shape[0]] += 1
            return solver(m, *args, **kwargs)
        return call

    for name, solver in solvers.items():
        monkeypatch.setattr(np.linalg, name, counting(solver))
    run()
    return sizes


def test_refuel_diagonalizes_its_128_dimensional_state_once(monkeypatch):
    sizes = _spectrum_sizes(monkeypatch, lambda: sc.multiparty_refuel(2, 4))
    # τ after turn 3, validated in that turn's ledger and reused by turn 4
    assert sizes[128] == 1
    # every spectrum from 64 up once: turn 3's τ_A1A2 (64) is turn 4's σ_A2,
    # read from the marginal memo
    assert {n: c for n, c in sizes.items() if n >= 64} == {64: 1, 128: 1, 256: 1, 512: 1}


def test_depletion_diagonalizes_the_second_output_once(monkeypatch):
    # the ledger's τ_A1A2 (81) is the state of the reported I(A1:A2)
    sizes = _spectrum_sizes(monkeypatch, lambda: sc.depletion_demo(3))
    assert sizes[81] == 1


def test_conservation_never_validates_the_joint_state(monkeypatch):
    run = lambda: sc.conservation_law_check(n_samples=3, dims=(3, 3, 3, 3))
    sizes = _spectrum_sizes(monkeypatch, run)
    assert max(sizes) <= 27
    assert sum(sizes.values()) == 10 * 3


def test_ledger_record_does_not_depend_on_the_marginal_memo():
    # turn 2 of the refuelling protocol at d = 2, on a memo-warm τ and on a
    # cold copy of it
    w = constructions.multiparty_unitary(2)
    fresh = hl.plus_state(4).density()
    _, tau = ledger(w, fresh, hl.maximally_mixed([2]), 0)
    assert tau._marginals  # warmed by the first ledger
    cold = hl.DensityOperator(tau.matrix, tau.layout)
    warm_rec, warm_tau = ledger(w, fresh, tau, 1, on=[0, 2])
    cold_rec, cold_tau = ledger(w, fresh, cold, 1, on=[0, 2])
    assert warm_rec == cold_rec
    assert np.array_equal(warm_tau.matrix, cold_tau.matrix)


def test_scenario_sizes_are_checked_before_allocation(monkeypatch):
    with pytest.raises(ValueError, match="depletion demo needs total dimension 248832"):
        sc.depletion_demo(12)
    with pytest.raises(ValueError, match="multiparty refuelling needs total dimension 729"):
        sc.multiparty_refuel(9, 1)
    sc.multiparty_refuel(9, 1, classical=True)  # 81 fits the refuel cap
    # initialization at d = 5 needs 625; lower the cap instead of allocating
    # the d = 9 state the default cap rejects
    monkeypatch.setattr(constructions, "DIMENSION_CAP", 600)
    with pytest.raises(ValueError, match="initialization scenario needs total dimension 625"):
        sc.initialization_scenario(5)
    # cq_free builds d^3-dimensional operators
    monkeypatch.setattr(constructions, "DIMENSION_CAP", 26)
    with pytest.raises(ValueError, match="cq_free randomness needs total dimension 27"):
        sc.cq_free_randomness(3)


@pytest.mark.parametrize("n", [0, -3])
def test_conservation_needs_a_sample(n):
    with pytest.raises(ValueError, match="n_samples >= 1"):
        sc.conservation_law_check(n_samples=n)


def test_absorption_rejects_negative_samples():
    with pytest.raises(ValueError, match="n_samples >= 0"):
        sc.absorption_check(initialization_channel(2), n_samples=-1)
    # zero samples checks the maximally mixed candidate only
    assert sc.absorption_check(initialization_channel(2), n_samples=0).ok
