import json
import math

import numpy as np
import pytest
from util import dense_renyi, kron_sum_output

from catalyx import catalysis as cat
from catalyx import hilbert as hl
from catalyx import scenarios as sc
from catalyx.hilbert import DensityOperator, maximally_mixed


# ---------------------------------------------------------------------------
# multi-party refuelling


def test_refuel_two_rounds_d2():
    tr = sc.multiparty_refuel(2, 2, seed=0)
    turn1, turn2 = tr.steps
    assert turn1.actor == "A" and turn2.actor == "B"
    assert turn1.marginals["I(A:C)"] == pytest.approx(2.0, abs=1e-9)
    assert turn2.marginals["I(B:C)"] == pytest.approx(2.0, abs=1e-9)
    assert turn2.marginals["I(A:C)"] <= 1e-9  # refuelled for the idle agent
    assert turn2.marginals["D(tau_AC, mm)"] <= 1e-9  # tau_AC = 1/8
    for s in tr.steps:
        assert s.ledger.residual <= 1e-8


def test_refuel_round_one_only():
    tr = sc.multiparty_refuel(2, 1, seed=0)
    (turn1,) = tr.steps
    assert turn1.marginals["I(A:C)"] == pytest.approx(2.0, abs=1e-9)
    assert "I(B:C)" not in turn1.marginals


def test_refuel_monogamy_bound():
    tr = sc.multiparty_refuel(2, 2, seed=0)
    last = tr.steps[-1].marginals
    s_c = last["S(C)"]
    assert last["I(A:C)"] + last["I(B:C)"] <= 2 * s_c + 1e-9
    # equality at full depletion
    assert last["I(A:C)"] + last["I(B:C)"] == pytest.approx(2 * s_c, abs=1e-9)


def test_refuel_idle_agent_decouples_every_round():
    tr = sc.multiparty_refuel(2, 4, seed=0)
    assert not tr.notices
    for k, step in enumerate(tr.steps, start=1):
        if k < 2:
            continue
        idle = "I(B:C)" if step.actor == "A" else "I(A:C)"
        assert step.marginals[idle] <= 1e-9, (k, step.marginals)
        s_c = step.marginals["S(C)"]
        acting = "I(A:C)" if step.actor == "A" else "I(B:C)"
        assert step.marginals[acting] + step.marginals[idle] <= 2 * s_c + 1e-9


def test_refuel_classical_control_fails_second_use():
    tr = sc.multiparty_refuel(2, 2, seed=0, classical=True)
    joint = tr.steps[-1]
    assert joint.operation == "joint-check"
    assert joint.marginals["D(joint, product)"] > 0.1
    # and the catalyst never refuels for the idle agent
    turn2 = tr.steps[1]
    assert turn2.marginals["I(A:C)"] > 0.5


def test_refuel_dimension_cap_truncates():
    tr = sc.multiparty_refuel(2, 12, seed=0)
    assert tr.notices and "truncated" in tr.notices[0]
    assert len([s for s in tr.steps if s.ledger]) < 12


def test_trace_serialization_shapes():
    tr = sc.multiparty_refuel(2, 2, seed=5)
    blob = json.dumps(tr.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["seed"] == 5
    assert len(parsed["steps"]) == 2
    rows = tr.csv_rows()
    assert rows[0][:5] == ["actor", "operation", "delta_S", "delta_I", "residual"]
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# conservation identity


def test_conservation_product_state_trivial():
    # a product pure state has every term equal to zero
    from catalyx.entropy import mutual_information, von_neumann
    from catalyx.hilbert import ptrace_matrix

    v = np.zeros(16)
    v[0] = 1.0
    rho = np.outer(v, v)
    assert von_neumann(DensityOperator(ptrace_matrix(rho, [2] * 4, [2]), [2])) == 0
    assert mutual_information(DensityOperator(rho, [2] * 4), [1], [2]) == pytest.approx(0.0)


def test_conservation_bell_pairs_hand_value():
    # W X entangled, Y Z entangled: 2 S(Y) = 2 = I(X:Y) + I(Y:WZ) = 0 + 2
    from catalyx.entropy import mutual_information, von_neumann
    from catalyx.hilbert import ptrace_matrix

    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    v = np.kron(bell, bell)
    rho = np.outer(v, v)
    dims = [2, 2, 2, 2]
    s_y = von_neumann(DensityOperator(ptrace_matrix(rho, dims, [2]), [2]))
    state = DensityOperator(rho, dims)
    i_xy = mutual_information(state, [1], [2])
    i_ywz = mutual_information(state, [2], [0, 3])
    assert 2 * s_y == pytest.approx(2.0)
    assert i_xy == pytest.approx(0.0, abs=1e-10)
    assert i_ywz == pytest.approx(2.0)


def test_conservation_haar_sweep():
    rep = sc.conservation_law_check(seed=1, n_samples=100)
    assert rep.max_residual <= 1e-9
    assert rep.max_inequality_violation <= 1e-9


def test_conservation_rejects_large_dims():
    with pytest.raises(ValueError):
        sc.conservation_law_check(dims=(4, 2, 2, 2))


# ---------------------------------------------------------------------------
# depletion


@pytest.mark.parametrize("d", [2, 3])
def test_depletion_bound(d):
    tr = sc.depletion_demo(d, seed=0)
    last = tr.steps[-1].marginals
    assert last["bound"] == pytest.approx(2 * math.log2(d))
    assert last["I(A1:A2)"] >= last["bound"] - 1e-7


def test_depletion_single_use_ledger():
    tr = sc.depletion_demo(2, seed=0)
    first = tr.steps[0]
    assert first.ledger.delta_i == pytest.approx(2.0, abs=1e-9)
    assert first.marginals["S_cat"] == pytest.approx(2.0)


def test_depletion_identity_maps_unobstructed():
    tr = sc.depletion_demo(2, seed=0, identity_maps=True)
    last = tr.steps[-1].marginals
    assert last["bound"] <= 0.0
    assert last["I(A1:A2)"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# absorption


def test_absorption_initialization_map():
    for d in (2, 3):
        rep = sc.absorption_check(cat.initialization_channel(d), n_samples=24, seed=0)
        assert rep.max_local_decrease == pytest.approx(math.log2(d), abs=1e-7)
        assert rep.min_global_increase_at_max == pytest.approx(math.log2(d), abs=1e-7)
        assert rep.ok  # tight saturation of the bound


def test_absorption_unitary_channel():
    from catalyx.hilbert import haar_unitary

    chan = cat.channel_from_unitary(haar_unitary(3, 4).matrix)
    rep = sc.absorption_check(chan, n_samples=16, seed=1)
    assert rep.max_local_decrease == pytest.approx(0.0, abs=1e-9)
    assert rep.min_global_increase_at_max == pytest.approx(0.0, abs=1e-9)
    assert rep.ok


def test_absorption_random_channel_sweep():
    rng = np.random.default_rng(2)
    for i in range(1000):
        d = 2 + i % 2
        k = int(rng.integers(1, 5))
        chan = cat.random_channel(d, k, int(rng.integers(1 << 30)))
        rep = sc.absorption_check(chan, n_samples=4, seed=i)
        assert rep.ok


@pytest.mark.parametrize(
    "chan, seed",
    [(cat.random_channel(3, 2, 7), 0), (cat.dephasing_channel(2), 3),
     (cat.initialization_channel(3), 1), (cat.random_channel(2, 3, 5), 2)],
    ids=["random3x2", "dephasing2", "initialization3", "random2x3"],
)
def test_absorption_matches_the_dense_reference(chan, seed):
    # the same candidates, their outputs as Kronecker sums, and the global
    # increase read from the d²-dimensional output of a purification
    rep = sc.absorption_check(chan, n_samples=12, seed=seed)
    d = chan.dim_in
    rng = hl._rng(seed)
    candidates = [np.eye(d) / d]
    for _ in range(12):
        candidates.append(hl.random_density([d], 1 + int(rng.integers(d)), rng).matrix)
    decs = [dense_renyi(g, 1.0) - dense_renyi(kron_sum_output(chan, g), 1.0) for g in candidates]
    w, v = np.linalg.eigh(candidates[int(np.argmax(decs))])
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    psi = root.T.reshape(-1)  # Σ root[a, c] |c>|a>: the reference first
    inc = dense_renyi(kron_sum_output(chan, np.outer(psi, psi.conj()), d), 1.0)
    assert abs(rep.max_local_decrease - max(decs)) <= 1e-12
    assert abs(rep.min_global_increase_at_max - inc) <= 1e-12


# ---------------------------------------------------------------------------
# free randomness of a known source


def test_cq_free_randomness_values():
    for d, bits in ((2, 1.0), (3, math.log2(3)), (4, 2.0)):
        rep = sc.cq_free_randomness(d)
        assert rep.free_bits == pytest.approx(bits, abs=1e-9)
        assert rep.erasure_deviation <= 1e-9
        assert rep.ledger_record.residual <= 1e-8


def test_free_randomness_uncorrelated():
    inter = maximally_mixed([3, 3])
    assert sc.free_randomness(inter, 1) == pytest.approx(2 * math.log2(3))


# ---------------------------------------------------------------------------
# initialization end-to-end


def test_initialization_scenario_d3():
    tr = sc.initialization_scenario(3, seed=0)
    setup = tr.steps[0]
    assert setup.marginals["I(A':B)"] == pytest.approx(math.log2(3))
    assert setup.marginals["D(sigma_B, mm)"] <= 1e-10

    pure = tr.steps[1]
    assert pure.marginals["I(A':B)"] == pytest.approx(math.log2(3), abs=1e-9)
    assert pure.marginals["D(out_A, |0><0|)"] <= 1e-10

    mixed = tr.steps[2]
    assert mixed.ledger.delta_i == pytest.approx(-math.log2(3), abs=1e-9)
    assert mixed.ledger.s_out - mixed.ledger.s_in == pytest.approx(
        -math.log2(3), abs=1e-9
    )

    entangled = tr.steps[3]
    assert entangled.ledger.delta_i == pytest.approx(math.log2(3), abs=1e-9)

    for s in tr.steps:
        if s.ledger:
            assert s.ledger.residual <= 1e-8


def test_initialization_scenario_rejects_even():
    with pytest.raises(ValueError):
        sc.initialization_scenario(4)


def test_reading_accessor():
    tr = sc.depletion_demo(2, seed=0)
    assert tr.reading("use2", "I(A1:A2)") >= 2 - 1e-7
    with pytest.raises(KeyError):
        tr.reading("use2", "nope")
