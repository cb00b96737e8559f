"""Cost guards of the scenario transitions: each transition is evolved once,
inside the ledger, on the factor of its state, so no spectrum is solved on a
matrix larger than the smaller side of its cut; each marginal of a state is
diagonalized once (a later transition or reading takes it from the state's
memo), local unitaries are never embedded at full dimension, scenario
sizes are checked before anything is allocated, and the absorption check
solves all its candidates as one stack."""

import sys
from collections import Counter

import numpy as np
import pytest
from util import count_eigensolves, count_stinespring

from catalyx import catalysis as cat
from catalyx import constructions
from catalyx import hilbert as hl
from catalyx import scenarios as sc
from catalyx.catalysis import initialization_channel, ledger


def _catalyx_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "catalyx"]


def test_ledger_diagonalizes_each_marginal_once(monkeypatch):
    # second use of the depletion protocol at d = 2: A1 = 4, A2 = 4, B = 2,
    # on the rank-2 intermediate the first use leaves
    w = constructions.multiparty_unitary(2)
    fresh = hl.plus_state(4).density()
    x = hl.evolve(w.matrix, np.kron(fresh.factor(), hl.maximally_mixed([2]).factor()))
    inter = hl.DensityOperator.from_factor(x, [4, 2])
    counts = count_eigensolves(monkeypatch)
    ledger(w, fresh, inter, 1, on=[0, 2])
    assert counts == {
        ("eigvalsh", 4): 2,  # sigma_A2 and tau_A1A2 (16-dimensional, rank 4)
        # tau (32-dimensional, rank 2), tau_B, sigma_B and tau_B - sigma_B of
        # the catalyst check
        ("eigvalsh", 2): 4,
    }


def _record_unitarity_checks(monkeypatch):
    """The dimension of every matrix a unitarity check is run on from now on,
    one entry per matrix of a stack: every check, ``unitarity_defect`` or a
    controlled unitary's block check, forms its products in
    ``hilbert._gram_residual``."""
    sizes = []
    gram = hl._gram_residual

    def recording(m):
        sizes.extend([m.shape[-1]] * int(np.prod(m.shape[:-2])))
        return gram(m)

    monkeypatch.setattr(hl, "_gram_residual", recording)
    return sizes


@pytest.mark.parametrize(
    "run, checked",
    [
        (lambda: sc.cq_free_randomness(5), [5] * 25),
        (lambda: constructions.multiparty_unitary(3), [3] * 9),
        # 18 blocks on the 108-dimensional space, the partial-transpose test
        # of canonical_form (a catalysis criterion on the whole unitary, not
        # a validation) and the catalyst rotation V
        (lambda: constructions.dephasing_catalysis((3, 3)), [6] * 18 + [108] + [6]),
    ],
    ids=["cq_free5", "multiparty3", "dephasing33"],
)
def test_controlled_unitaries_are_validated_block_by_block(monkeypatch, run, checked):
    sizes = _record_unitarity_checks(monkeypatch)
    run()
    assert sizes == checked


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
    checked = _record_unitarity_checks(monkeypatch)
    trace = run()
    # the dense embedding is a test-only reference: no library module has one
    assert [m.__name__ for m in _catalyx_modules() if hasattr(m, "embed_operator")] == []
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


@pytest.mark.parametrize(
    "run, largest",
    [
        # joint states of dimension 512, 625 and 243, of rank at most 2, 25 and 3
        (lambda: sc.multiparty_refuel(2, 4), 32),
        (lambda: sc.initialization_scenario(5), 25),
        (lambda: sc.depletion_demo(3), 9),
    ],
    ids=["refuel2x4", "initialization5", "depletion3"],
)
def test_no_spectrum_is_solved_above_the_smaller_side_of_its_cut(monkeypatch, run, largest):
    counts = count_eigensolves(monkeypatch)
    trace = run()
    assert max(n for _, n in counts) == largest
    assert all(s.ledger.residual <= 1e-8 for s in trace.steps if s.ledger)


def test_conservation_never_validates_the_joint_state():
    for n in (1, 3, 40):
        with pytest.MonkeyPatch.context() as mp:
            counts = count_eigensolves(mp)
            sc.conservation_law_check(n_samples=n, dims=(3, 3, 3, 3))
        assert max(k for _, k in counts) <= 9
        # per sample at most the rank-1 joint state's 1x1 Gram matrix, then
        # S(X), S(Y), S(Z), S(XY), S(YZ), S(WZ) and S(WYZ) once each
        assert sum(counts.values()) <= 8 * n
        # and at most as many solver calls whatever the sample count
        assert counts.calls <= 8


def test_ledger_record_does_not_depend_on_the_marginal_memo():
    # turn 2 of the refuelling protocol at d = 2, on a memo-warm τ and on a
    # cold copy of it
    w = constructions.multiparty_unitary(2)
    fresh = hl.plus_state(4).density()
    _, tau = ledger(w, fresh, hl.maximally_mixed([2]), 0)
    assert tau._marginals  # warmed by the first ledger
    cold = hl.DensityOperator.from_factor(tau.factor(), tau.layout)
    warm_rec, warm_tau = ledger(w, fresh, tau, 1, on=[0, 2])
    cold_rec, cold_tau = ledger(w, fresh, cold, 1, on=[0, 2])
    assert warm_rec == cold_rec
    assert np.array_equal(warm_tau.factor(), cold_tau.factor())
    assert np.array_equal(warm_tau.matrix, cold_tau.matrix)


def test_scenario_sizes_are_checked_before_allocation(monkeypatch):
    with pytest.raises(ValueError, match="depletion demo at total dimension 248832 needs"):
        sc.depletion_demo(12)
    # one refuelling round at d = 17 holds a 4913-dimensional joint state
    with pytest.raises(ValueError, match="multiparty refuelling at total dimension 4913 needs"):
        sc.multiparty_refuel(17, 1)
    sc.multiparty_refuel(17, 1, classical=True)  # 289 fits the budget
    # initialization at d = 5 needs 625² entries; lower the budget instead of
    # allocating the d = 9 state the default budget rejects
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * 600**2)
    with pytest.raises(ValueError, match="initialization scenario at total dimension 625 needs"):
        sc.initialization_scenario(5)
    # cq_free builds d^3-dimensional operators
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * 26**2)
    with pytest.raises(ValueError, match="cq_free randomness at total dimension 27 needs"):
        sc.cq_free_randomness(3)


def test_conservation_samples_are_checked_before_allocation(monkeypatch):
    from catalyx import cli

    # the stack of n rank-1 factors holds n·D complex amplitudes; lower the
    # budget to 100 entries instead of allocating
    monkeypatch.setattr(hl, "MAX_BYTES", 1600)
    sc.conservation_law_check(n_samples=6)  # 96 entries
    with pytest.raises(ValueError, match="with 7 samples .* 1792 bytes > budget of 1600"):
        sc.conservation_law_check(n_samples=7)
    monkeypatch.undo()
    # the default budget holds 2^20 samples at D = 16, as many amplitudes as
    # one 4096×4096 operator has entries
    with pytest.raises(ValueError, match="budget"):
        sc.conservation_law_check(n_samples=2**20 + 1)
    # the CLI refuses 10^8 samples (23.8 GiB of draws) with exit 2 before drawing
    assert cli.main(["scenario", "conservation", "--samples", "100000000"]) == 2


@pytest.mark.parametrize("n", [0, -3])
def test_conservation_needs_a_sample(n):
    with pytest.raises(ValueError, match="n_samples >= 1"):
        sc.conservation_law_check(n_samples=n)


def test_absorption_rejects_negative_samples():
    with pytest.raises(ValueError, match="n_samples >= 0"):
        sc.absorption_check(initialization_channel(2), n_samples=-1)
    # zero samples checks the maximally mixed candidate only
    assert sc.absorption_check(initialization_channel(2), n_samples=0).ok


@pytest.mark.parametrize("n_samples", [0, 4, 32])
def test_absorption_solves_its_candidates_as_one_stack(monkeypatch, n_samples):
    # the input spectra, the output spectra and the worst candidate's
    # complementary spectrum: three eigvalsh calls and one Stinespring GEMM
    # for any sample count, and no eigh for a factor; the input spectra take
    # a fourth call once draws join the maximally mixed candidate, which is
    # exactly real and so goes to the real solver, as it would alone
    chan = cat.random_channel(3, 2, 7)
    counts = count_eigensolves(monkeypatch)
    calls = count_stinespring(monkeypatch)
    sc.absorption_check(chan, n_samples=n_samples, seed=1)
    assert counts.calls == 3 + (n_samples > 0)
    assert set(counts) == {("eigvalsh", 3), ("eigvalsh", 2)}
    assert counts["eigvalsh", 3] == 2 * (n_samples + 1)  # the input and output stacks
    assert calls == [(3, 3 * (n_samples + 1))]  # the candidates side by side


@pytest.mark.parametrize("chunk", [1, 2])
def test_absorption_chunks_match_one_stack(monkeypatch, chunk):
    # one candidate's Stinespring factor holds d_out·d·n = 18 entries
    chan = cat.random_channel(3, 2, 7)
    whole = sc.absorption_check(chan, n_samples=12, seed=2)
    calls = count_stinespring(monkeypatch)
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * 18 * chunk)
    chunked = sc.absorption_check(chan, n_samples=12, seed=2)
    assert len(calls) == -(-13 // chunk)
    assert abs(chunked.max_local_decrease - whole.max_local_decrease) <= 1e-12
    assert abs(chunked.min_global_increase_at_max - whole.min_global_increase_at_max) <= 1e-12
    assert chunked.ok == whole.ok
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * 18 - 1)
    with pytest.raises(ValueError, match="absorption check .* budget"):
        sc.absorption_check(chan, n_samples=0)


def test_absorption_report_holds_python_scalars():
    rep = sc.absorption_check(cat.random_channel(2, 3, 5), n_samples=3, seed=0)
    assert type(rep.max_local_decrease) is float
    assert type(rep.min_global_increase_at_max) is float
    assert type(rep.ok) is bool
