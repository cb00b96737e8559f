import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import (
    count_eigensolves,
    dense_renyi,
    embed_operator,
    held_bytes,
    kron_sum_output,
    party_swap,
)

from catalyx import catalysis as cat
from catalyx import hilbert as hl
from catalyx import optimize as opt
from catalyx.catalysis import (
    CertificationError,
    KrausChannel,
    canonical_form,
    channel_to_kraus,
    classical_catalysis,
    decompose_subcatalyses,
    implement_channel,
    is_catalysis_unitary,
    ledger,
    ledger_for_instance,
    recovery_defect,
    recovery_unitary,
    verify_catalysis_exhaustive,
)
from catalyx.entropy import DegeneracyVector
from catalyx.optimize import cost_bound_check, ea_capacity
from catalyx.hilbert import (
    DensityOperator,
    UnitaryOperator,
    clock_matrix,
    haar_unitary,
    maximally_mixed,
    plus_state,
    random_density,
    trace_distance,
)

CNOT = UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])
SWAP2 = UnitaryOperator(hl.swap_matrix(2), [2, 2])
MM2 = maximally_mixed([2])


def cnot_instance():
    return canonical_form(CNOT, MM2)


def controlled_family_instance(d_a, d_b, seed):
    """Control on the catalyst basis applying Haar unitaries to the system."""
    rng = np.random.default_rng(seed)
    u = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for x in range(d_b):
        e = np.zeros((d_b, d_b))
        e[x, x] = 1.0
        u += np.kron(hl.haar_unitary_matrix(d_a, rng), e)
    return canonical_form(UnitaryOperator(u, [d_a, d_b]), maximally_mixed([d_b]))


# ---------------------------------------------------------------------------
# partial-transpose characterization


def test_cnot_is_catalysis_unitary():
    v = is_catalysis_unitary(CNOT)
    assert v.verdict and v.defect <= 1e-12


def test_swap_is_not():
    v = is_catalysis_unitary(SWAP2)
    assert not v.verdict and v.defect > 1.0


def test_haar_generically_fails():
    for seed in range(20):
        u = haar_unitary(16, seed, layout=[4, 4])
        assert not is_catalysis_unitary(u).verdict


def test_bad_partition():
    with pytest.raises(ValueError):
        is_catalysis_unitary(CNOT, cut=[0, 1])
    with pytest.raises(ValueError):
        is_catalysis_unitary(CNOT, cut=[4])


def test_closure_dagger_and_party_swap():
    insts = [cnot_instance(), controlled_family_instance(2, 3, 0)]
    for inst in insts:
        u = inst.unitary
        assert is_catalysis_unitary(u, cut=range(inst.a_count)).verdict
        dag = UnitaryOperator(u.matrix.conj().T, u.layout)
        assert is_catalysis_unitary(dag, cut=range(inst.a_count)).verdict
        swapped = party_swap(u, inst.a_count)
        b_count = len(u.layout.dims) - inst.a_count
        assert is_catalysis_unitary(swapped, cut=range(b_count)).verdict


@st.composite
def cut_unitaries(draw):
    """(U, a_count): 2-4 factors of dimension 1-3, the leading a_count of them
    the system, and U either Haar or a catalysis unitary controlled on a Haar
    basis of the other factors."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    a_count = draw(st.integers(1, len(dims) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_a, d_b = int(np.prod(dims[:a_count])), int(np.prod(dims[a_count:]))
    if draw(st.booleans()):
        m = hl.haar_unitary_matrix(d_a * d_b, rng)
    else:
        family = [hl.haar_unitary_matrix(d_a, rng) for _ in range(d_b)]
        m = hl.controlled(family, hl.haar_unitary_matrix(d_b, rng))
    return UnitaryOperator(m, dims), a_count


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cut_unitaries())
def test_partial_transpose_defect_is_invariant_under_inverse_and_party_swap(case):
    # (U†)^T_A = (U^T_A)† and ||X X† - 1||_F = ||X† X - 1||_F for every square X
    u, a_count = case
    verdict = is_catalysis_unitary(u, cut=range(a_count))
    inverse = is_catalysis_unitary(UnitaryOperator(hl.dagger(u.matrix), u.layout),
                                   cut=range(a_count))
    swapped = is_catalysis_unitary(party_swap(u, a_count),
                                   cut=range(len(u.layout) - a_count))
    for other in (inverse, swapped):
        assert abs(other.defect - verdict.defect) <= 1e-10
        assert other.verdict == verdict.verdict


# ---------------------------------------------------------------------------
# compatibility


def test_cnot_compatible_with_maximally_mixed():
    rep = verify_catalysis_exhaustive(CNOT, MM2)
    assert rep.compatible and abs(rep.entropy_gap) <= 1e-10


def test_cnot_rejects_pure_catalyst():
    rep = verify_catalysis_exhaustive(CNOT, hl.basis_state(2, 0).density())
    assert not rep.compatible and rep.entropy_gap > 0.5


def test_maximally_mixed_always_compatible():
    for inst in (cnot_instance(), controlled_family_instance(3, 2, 1)):
        rep = verify_catalysis_exhaustive(
            inst.unitary, maximally_mixed([inst.b_dim]), a_count=inst.a_count
        )
        assert rep.compatible


def test_compatibility_requires_catalysis_unitary():
    # the swap keeps the maximally mixed catalyst's entropy, but it is no
    # catalysis unitary, and certification says so before the catalyst checks
    assert verify_catalysis_exhaustive(SWAP2, MM2).compatible
    with pytest.raises(CertificationError, match="not a catalysis unitary"):
        canonical_form(SWAP2, MM2)


# ---------------------------------------------------------------------------
# exhaustive verification


def test_exhaustive_on_certified_instance():
    rep = verify_catalysis_exhaustive(CNOT, MM2)
    assert rep.max_deviation <= 1e-9
    assert np.allclose(canonical_form(CNOT, MM2).canonical_v.matrix, np.eye(2), atol=1e-9)


def test_exhaustive_verification_takes_no_eigenvectors(monkeypatch):
    # the rotation onto the output is canonical_form's: the report needs
    # only the output's eigenvalues
    solves = count_eigensolves(monkeypatch)
    verify_catalysis_exhaustive(CNOT, DensityOperator(np.diag([0.75, 0.25]), [2]))
    assert solves.calls_by["eigh"] == 0


def test_compatibility_reads_the_tolerance_in_hilbert(monkeypatch):
    # CNOT mixes diag(0.75, 0.25) to 1/2 at the maximally mixed input: an
    # entropy gap of 1 - h(1/4) ≈ 0.19 bits
    sigma = DensityOperator(np.diag([0.75, 0.25]), [2])
    assert not verify_catalysis_exhaustive(CNOT, sigma).compatible
    with pytest.raises(CertificationError, match="catalyst incompatible"):
        canonical_form(CNOT, sigma)
    monkeypatch.setattr(hl, "COMPAT_ENTROPY_TOL", 1.0)
    assert verify_catalysis_exhaustive(CNOT, sigma).compatible
    with pytest.raises(CertificationError, match="output depends on the input"):
        canonical_form(CNOT, sigma)


def test_exhaustive_on_swap():
    sigma = DensityOperator(np.diag([0.75, 0.25]), [2])
    rep = verify_catalysis_exhaustive(SWAP2, sigma)
    assert rep.max_deviation > 0.1  # swap replaces the catalyst by the input


def test_canonical_form_recovers_dressing():
    sigma = DensityOperator(np.diag([0.6, 0.3, 0.1]), [3])
    base = controlled_family_instance(2, 3, 2)
    # re-certify the base unitary against a nondegenerate diagonal catalyst:
    # control-on-basis unitaries preserve any diagonal catalyst
    u0 = base.unitary
    w = np.diag(np.exp(2j * np.pi * np.array([0.13, 0.42, 0.77])))
    dressed = UnitaryOperator(np.kron(np.eye(2), w) @ u0.matrix, u0.layout)
    inst = canonical_form(dressed, sigma)
    # the recovered rotation agrees with w up to per-eigenspace phases, so
    # v† w commutes with the catalyst
    vw = inst.canonical_v.matrix.conj().T @ w
    assert np.linalg.norm(vw @ sigma.matrix - sigma.matrix @ vw) < 1e-9
    # and the canonical unitary preserves the catalyst exactly
    uc = inst.canonical_unitary()
    for seed in range(5):
        rho = random_density([2], 2, seed)
        full = uc.matrix @ np.kron(rho.matrix, sigma.matrix) @ uc.matrix.conj().T
        out = hl.ptrace_matrix(full, [2, 3], [1])
        assert trace_distance(out, sigma.matrix) <= 1e-10


def test_canonical_form_rejects_incompatible():
    with pytest.raises(CertificationError):
        canonical_form(CNOT, hl.basis_state(2, 0).density())
    with pytest.raises(CertificationError):
        canonical_form(SWAP2, MM2)


# ---------------------------------------------------------------------------
# channel execution and Kraus form


def test_cnot_channel_dephases():
    inst = cnot_instance()
    out = implement_channel(inst, plus_state(2).density())
    assert trace_distance(out, MM2) <= 1e-12


def test_channel_unitality():
    for inst in (cnot_instance(), controlled_family_instance(3, 3, 3)):
        d = inst.a_dim
        out = implement_channel(inst, maximally_mixed([d]))
        assert trace_distance(out, maximally_mixed([d])) <= 1e-10


def test_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        implement_channel(cnot_instance(), maximally_mixed([3]))


def test_kraus_counts_and_agreement():
    inst = cnot_instance()
    chan = channel_to_kraus(inst)
    assert len(chan.kraus) == 2  # qubit dephasing needs two Kraus operators

    # single Kraus operator for a reversible channel (pure catalyst)
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(2)), [2, 2])
    pure = canonical_form(u, hl.basis_state(2, 0).density())
    single = channel_to_kraus(pure)
    assert len(single.kraus) == 1
    assert np.allclose(np.abs(single.kraus[0]), np.abs(had), atol=1e-9)

    for inst in (cnot_instance(), controlled_family_instance(2, 4, 4)):
        chan = channel_to_kraus(inst)
        comp = sum(k.conj().T @ k for k in chan.kraus)
        assert np.linalg.norm(comp - np.eye(inst.a_dim)) <= 1e-9
        for seed in range(50):
            rho = random_density([inst.a_dim], inst.a_dim, seed)
            direct = implement_channel(inst, rho).matrix
            via_kraus = chan.apply_matrix(rho.matrix)
            assert np.abs(direct - via_kraus).max() <= 1e-9


def test_kraus_channel_validation():
    # completeness is checked after the cut, which leaves a zero stack empty
    for ops in (np.zeros((2, 2, 2)), [np.eye(2) * 0.5], np.repeat(np.eye(2)[None], 2, axis=0)):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(ops)


def test_named_channels():
    d = 3
    rho = random_density([d], d, 11).matrix
    assert np.allclose(cat.dephasing_channel(d).apply_matrix(rho), np.diag(np.diag(rho)))
    assert np.allclose(cat.erasure_channel(d).apply_matrix(rho), np.eye(d) / d)
    assert np.allclose(cat.weyl_twirl_channel(d).apply_matrix(rho), np.eye(d) / d)
    out = cat.initialization_channel(d).apply_matrix(rho)
    assert out[0, 0] == pytest.approx(1.0)
    assert np.allclose(cat.identity_channel(d).apply_matrix(rho), rho)


# ---------------------------------------------------------------------------
# sub-catalysis decomposition


def test_decompose_blocks_and_weights():
    sigma = DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    u = np.zeros((6, 6), dtype=complex)
    rng = np.random.default_rng(8)
    # block-diagonal controlled unitary compatible with the eigenspaces
    for x in range(3):
        e = np.zeros((3, 3))
        e[x, x] = 1.0
        u += np.kron(hl.haar_unitary_matrix(2, rng), e)
    inst = canonical_form(UnitaryOperator(u, [2, 3]), sigma)
    blocks = decompose_subcatalyses(inst)
    assert [round(w, 10) for w, _ in blocks] == [0.5, 0.5]
    assert [sub.b_dim for _, sub in blocks] == [1, 2]
    # the convex sum of sub-channels reproduces the channel
    for seed in range(5):
        rho = random_density([2], 2, seed)
        direct = implement_channel(inst, rho).matrix
        mix = sum(w * implement_channel(sub, rho).matrix for w, sub in blocks)
        assert np.abs(direct - mix).max() <= 1e-9


def test_decompose_pure_catalyst_single_block():
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(2)), [2, 2])
    inst = canonical_form(u, hl.basis_state(2, 0).density())
    blocks = decompose_subcatalyses(inst)
    assert len(blocks) == 1 and blocks[0][1].b_dim == 1


def test_decompose_rejects_noncommuting_refinement():
    inst = classical_catalysis([0.5, 0.5], [np.eye(2), clock_matrix(2)])
    plus = np.array([[1.0], [1.0]]) / np.sqrt(2)
    minus = np.array([[1.0], [-1.0]]) / np.sqrt(2)
    with pytest.raises(CertificationError, match="eigenspace 0"):
        decompose_subcatalyses(inst, bases=[plus, minus])


def test_decompose_names_a_restricted_block_that_is_not_unitary():
    inst = classical_catalysis([0.5, 0.5], [np.eye(2), clock_matrix(2)])
    # a scaled basis vector commutes with U but restricts it to 1.01 U_1
    bases = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.01]])]
    with pytest.raises(CertificationError, match="restricted block 1"):
        decompose_subcatalyses(inst, bases=bases)


def test_eigenspace_projections_are_compatible_catalysts():
    sigma = DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    u = np.zeros((6, 6), dtype=complex)
    rng = np.random.default_rng(12)
    for x in range(3):
        e = np.zeros((3, 3))
        e[x, x] = 1.0
        u += np.kron(hl.haar_unitary_matrix(2, rng), e)
    inst = canonical_form(UnitaryOperator(u, [2, 3]), sigma)
    uc = inst.canonical_unitary()
    dec = hl.eigenspace_decompose(sigma)
    for basis, r in zip(dec.bases, dec.multiplicities):
        rep = verify_catalysis_exhaustive(uc, DensityOperator(basis @ basis.conj().T / r, [3]))
        assert rep.compatible


# ---------------------------------------------------------------------------
# classical catalysis


def test_classical_dephasing():
    inst = classical_catalysis([0.5, 0.5], [np.eye(2), clock_matrix(2)])
    assert inst.classical
    out = implement_channel(inst, plus_state(2).density())
    assert trace_distance(out, MM2) <= 1e-12
    assert [sub.b_dim for _, sub in inst.decomposition] == [1, 1]


def test_classical_single_unitary():
    u = hl.haar_unitary_matrix(3, 0)
    inst = classical_catalysis([1.0], [u])
    rho = random_density([3], 2, 1)
    out = implement_channel(inst, rho)
    assert trace_distance(out.matrix, u @ rho.matrix @ u.conj().T) <= 1e-10


def test_classical_pauli_twirl_depolarizes():
    inst = classical_catalysis([0.25] * 4, hl.weyl_set(2))
    for seed in range(5):
        rho = random_density([2], 2, seed)
        out = implement_channel(inst, rho)
        assert trace_distance(out, MM2) <= 1e-10


def test_classical_catalysis_validation():
    with pytest.raises(ValueError):
        classical_catalysis([0.7, 0.7], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        classical_catalysis([0.5, 0.5], [np.eye(2)])


# ---------------------------------------------------------------------------
# ledger


def test_ledger_fresh_dephasing():
    from catalyx.constructions import dephasing_catalysis

    inst = dephasing_catalysis([2])  # 4-level dephasing, 2-level catalyst
    rec = ledger_for_instance(inst, plus_state(4).density())
    assert rec.i_before == pytest.approx(0.0, abs=1e-10)
    assert rec.i_after == pytest.approx(2.0, abs=1e-9)
    assert rec.residual <= 1e-10


def test_ledger_unitary_channel_zero():
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(2)), [2, 2])
    inst = canonical_form(u, hl.basis_state(2, 0).density())
    rec = ledger_for_instance(inst, plus_state(2).density())
    assert rec.i_before == pytest.approx(0.0, abs=1e-10)
    assert rec.i_after == pytest.approx(0.0, abs=1e-9)


def test_ledger_identity_channel():
    u = UnitaryOperator(np.eye(4), [2, 2])
    rec, _ = ledger(u, random_density([2], 2, 3), MM2, 0)
    assert rec.delta_i == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n_a2", [0, 1])
def test_a_ledger_solves_each_entropy_once(monkeypatch, n_a2):
    """S(ρ), S(τ_A), S(τ_B) and S(τ), and with stored correlations S(σ_A2),
    S(σ_B) and S(σ) too: one solve each, and both mutual informations equal
    entropy.mutual_information's bit for bit."""
    from catalyx import entropy as ent

    rho = random_density([2], 2, 1)
    inter = random_density([2, 2], 4, 2) if n_a2 else MM2
    orders = []
    solve = ent._renyi_support

    def counted(q, alpha):
        orders.append(alpha)
        return solve(q, alpha)

    monkeypatch.setattr(ent, "_renyi_support", counted)
    rec, tau = ledger(CNOT, rho, inter, n_a2, on=[0, 1])
    assert orders == [1.0] * (7 if n_a2 else 4)
    n_a = 1 + n_a2
    assert rec.i_after == ent.mutual_information(tau, range(n_a), [n_a])
    if n_a2:
        assert rec.i_before == ent.mutual_information(inter, [0], [1])


def test_ledger_rejects_catalyst_alteration():
    with pytest.raises(CertificationError, match="catalyst altered"):
        ledger(SWAP2, hl.basis_state(2, 0).density(), MM2, 0)


def test_ledger_rejects_n_a2_out_of_range():
    # B must keep at least one of the intermediate's two factors
    u, inter = UnitaryOperator(np.eye(8), [2, 2, 2]), hl.maximally_mixed([2, 2])
    for n_a2 in (-1, 2, 3):
        with pytest.raises(ValueError, match=rf"invalid split n_a2={n_a2} of the intermediate's 2"):
            ledger(u, MM2, inter, n_a2)


# ---------------------------------------------------------------------------
# cost bound


def test_cost_bound_examples():
    from catalyx.constructions import dephasing_catalysis

    rep = cost_bound_check(dephasing_catalysis([2]))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-7)
    assert rep.ok  # tight

    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(2)), [2, 2])
    pure = canonical_form(u, hl.basis_state(2, 0).density())
    rep = cost_bound_check(pure)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)
    assert rep.ok

    inst = classical_catalysis([0.5, 0.5], [np.eye(2), clock_matrix(2)])
    rep = cost_bound_check(inst)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-7)  # classical factor is 1
    assert rep.ok


def test_cost_bound_reads_the_entropy_slack(monkeypatch):
    from catalyx.constructions import dephasing_catalysis

    inst = dephasing_catalysis([2])  # tight: lhs = rhs = 1 bit
    assert cost_bound_check(inst).ok
    monkeypatch.setattr(hl, "ENTROPY_SLACK", -1e-9)
    assert not cost_bound_check(inst).ok


@pytest.mark.parametrize("kind", ["dephasing", "classical", "controlled"])
def test_cost_bound_matches_the_dense_reference(kind):
    from catalyx.constructions import dephasing_catalysis

    if kind == "dephasing":
        inst = dephasing_catalysis([1, 2])
    elif kind == "classical":
        inst = classical_catalysis([0.6, 0.4], [np.eye(2), clock_matrix(2)])
    else:
        u = hl.controlled([haar_unitary(2, 11).matrix, haar_unitary(2, 12).matrix])
        inst = canonical_form(UnitaryOperator(u, [2, 2]), maximally_mixed([2]))
    rep = cost_bound_check(inst)
    chan = channel_to_kraus(inst)
    factor = 1.0 if inst.classical else 0.5
    # the right side is the certified side of the production maximum
    assert rep.certified and rep.rhs == factor * opt.max_entropy_production_global(
        chan, 1.0, restarts=1).upper_bound
    # and lies above the production of every input, here |Γ><Γ|, 1/d² and
    # six Haar states
    da = inst.a_dim
    rng = hl._rng(4)
    gamma = hl.max_entangled(da)
    candidates = [np.outer(gamma, gamma.conj()), np.eye(da * da) / (da * da)]
    for _ in range(6):
        v = hl.haar_state(da * da, rng).amplitudes
        candidates.append(np.outer(v, v.conj()))
    for rho in candidates:
        prod = dense_renyi(kron_sum_output(chan, rho, da), 1.0) - dense_renyi(rho, 1.0)
        assert rep.rhs >= factor * prod - 1e-12


def test_a_check_without_a_certificate_says_so(monkeypatch):
    """Where the optimizer gives no upper bound, the cost bound reads the
    feasible value and does not pass, and the tradeoff reports itself
    uncertified."""
    from catalyx.constructions import dephasing_catalysis

    inst = dephasing_catalysis([2])  # tight and certified: both checks pass
    assert cost_bound_check(inst).ok and opt.tradeoff_check(inst).certified
    for name in ("max_entropy_production_global", "ea_capacity"):
        run = getattr(opt, name)
        monkeypatch.setattr(opt, name, lambda *a, run=run, **k: run(*a, **k)._replace(
            upper_bound=None))
    rep = cost_bound_check(inst)
    assert rep.rhs == pytest.approx(1.0, abs=1e-7)
    assert not rep.ok and not rep.certified
    rep = opt.tradeoff_check(inst)
    assert not rep.certified and rep.ok


# ---------------------------------------------------------------------------
# recovery


def test_recovery_cnot():
    inst = cnot_instance()
    assert recovery_defect(inst) <= 1e-12
    rec = recovery_unitary(inst)
    assert np.allclose(rec.matrix, CNOT.matrix)  # X is symmetric


def test_recovery_trivial_purifier():
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(1)), [2, 1])
    inst = canonical_form(u, DensityOperator(np.eye(1), [1]))
    rec = recovery_unitary(inst)
    assert np.allclose(rec.matrix, u.matrix)


def test_recovery_requires_full_support():
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = UnitaryOperator(np.kron(had, np.eye(2)), [2, 2])
    inst = canonical_form(u, hl.basis_state(2, 0).density())
    with pytest.raises(CertificationError, match="full-support"):
        recovery_unitary(inst)


def test_recovery_dephasing_haar_inputs():
    from catalyx.constructions import dephasing_catalysis

    inst = dephasing_catalysis([2])
    assert recovery_defect(inst) <= 1e-12


def test_recovery_across_certified_instances():
    from catalyx.constructions import dephasing_catalysis, multiparty_instance

    full_support = [
        dephasing_catalysis([1, 2]),
        multiparty_instance(2),
        classical_catalysis([0.5, 0.5], [np.eye(2), clock_matrix(2)]),
        controlled_family_instance(2, 3, 6),
    ]
    for inst in full_support:
        assert recovery_defect(inst) <= 1e-12


def test_recovery_defect_is_exact_for_a_broken_recovery(monkeypatch):
    # a phase e^{i theta} on one system basis state spoils the recovery: R = L D
    inst = controlled_family_instance(3, 2, 4)
    phases = np.ones(inst.a_dim, dtype=complex)
    phases[1] = np.exp(2.0j)
    good = recovery_unitary(inst)
    broken = UnitaryOperator(good.matrix @ np.kron(np.diag(phases), np.eye(inst.b_dim)),
                             good.layout)
    monkeypatch.setattr(cat, "recovery_unitary", lambda _: broken)
    c = phases.sum() / abs(phases.sum())
    defect = recovery_defect(inst)
    assert abs(defect - max(abs(1 - c), abs(phases[1] - c))) <= 1e-12
    # it bounds the trace distance of every input; here, 64 Haar pure ones
    dims = [inst.a_dim, inst.b_dim, inst.b_dim]  # A, B, C
    lhs_op = embed_operator(inst.canonical_unitary().matrix, dims, [0, 1])
    rhs_op = embed_operator(broken.matrix, dims, [0, 2])
    psi = hl.purify(inst.sigma).amplitudes
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(64):
        v = np.kron(hl.haar_state(inst.a_dim, rng).amplitudes, psi)
        overlap = abs(np.vdot(lhs_op @ v, rhs_op @ v))
        worst = max(worst, np.sqrt(max(0.0, 1.0 - overlap**2)))
    assert 0.1 < worst <= defect


def test_empty_cut_rejected():
    u = haar_unitary(4, 0, [2, 2])
    assert is_catalysis_unitary(u, cut=[0]).defect > 1.0
    with pytest.raises(ValueError, match="at least one subsystem"):
        is_catalysis_unitary(u, cut=[])


def test_ledger_enforces_tolerance(monkeypatch):
    monkeypatch.setattr(hl, "LEDGER_TOL", -1.0)
    with pytest.raises(CertificationError, match="information balance"):
        ledger(UnitaryOperator(np.eye(4), [2, 2]), MM2, MM2, 0)


@pytest.mark.parametrize(
    "ops",
    [[], np.eye(2), np.ones((1, 2, 2, 2)), [np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)]],
    ids=["empty", "2-D", "4-D", "mixed-shapes"],
)
def test_kraus_channel_rejects_malformed_stacks(ops):
    with pytest.raises(ValueError, match="equal-shape matrices"):
        KrausChannel(ops)


def test_kraus_channel_stores_one_stack():
    iso = hl.haar_unitary_matrix(4, 2)[:, :3]  # isometry C^3 -> C^2 ⊗ C^2
    chan = KrausChannel(iso.reshape(2, 2, 3))
    assert np.asarray(chan.kraus).shape == (2, 2, 3)
    assert (chan.dim_in, chan.dim_out, len(chan.kraus)) == (3, 2, 2)
    assert not chan.kraus.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: cat.dephasing_channel(3), lambda: cat.erasure_channel(2),
    lambda: cat.random_channel(2, 3, 1), lambda: cat.KrausChannel([hl.clock_matrix(3)]),
], ids=["dephasing", "erasure", "random", "unitary"])
def test_kraus_channel_holds_one_array(build):
    chan = build()
    n, d_out, d_in = chan.kraus.shape
    assert held_bytes(chan) == 16 * n * d_out * d_in
    assert np.shares_memory(chan.kraus, chan._isometry_t)
    assert not chan.kraus.flags.writeable and not chan._isometry_t.flags.writeable


def test_kraus_channel_copies_a_stack_laid_out_as_its_operand():
    chan = cat.random_channel(2, 3, 4)
    n, d_out, d_in = chan.kraus.shape
    ops = np.array(chan._isometry_t).reshape(d_in, d_out, n).transpose(2, 1, 0)
    copy = KrausChannel(ops)
    assert not np.shares_memory(copy.kraus, ops)
    ops[0] = 0.0
    assert np.array_equal(copy.kraus, chan.kraus)


NAMED_CHANNELS = [(build, d) for build in (cat.identity_channel, cat.dephasing_channel,
                                           cat.erasure_channel, cat.weyl_twirl_channel,
                                           cat.initialization_channel, cat.werner_holevo_channel)
                  for d in (2, 3, 4)]


@pytest.mark.parametrize("build, d", NAMED_CHANNELS,
                         ids=[f"{b.__name__[:-8]}{d}" for b, d in NAMED_CHANNELS])
def test_a_minimal_stack_is_kept_byte_for_byte(monkeypatch, build, d):
    """Every named builder passes a minimal stack, which the constructor
    stores as given, and a channel rebuilt from its own ``kraus`` is the
    same stack again."""
    given = []
    init = KrausChannel.__init__

    def recording(self, kraus):
        given.append(np.asarray(kraus, dtype=complex))
        init(self, kraus)

    monkeypatch.setattr(KrausChannel, "__init__", recording)
    chan = build(d)
    assert chan.kraus.shape == given[0].shape
    assert chan.kraus.tobytes() == given[0].tobytes()
    assert KrausChannel(chan.kraus).kraus.tobytes() == chan.kraus.tobytes()


def test_a_redundant_stack_is_cut_to_its_choi_rank():
    chan = cat.dephasing_channel(3)
    split = KrausChannel(np.repeat(chan.kraus, 2, axis=0) / np.sqrt(2))  # each op twice
    assert split.kraus.shape == (3, 3, 3)
    assert np.abs(split.choi() - chan.choi()).max() <= 1e-12
    rho = random_density([3], 3, 5).matrix
    assert np.abs(split.apply_matrix(rho) - chan.apply_matrix(rho)).max() <= 1e-12
    for s in range(3):  # 5 operators on C^2 -> C^2, at most d² = 4 independent
        assert cat.random_channel(2, 5, s).kraus.shape == (4, 2, 2)


def test_the_products_rank_reads_the_minimal_form(monkeypatch):
    wh = cat.werner_holevo_channel(3)
    padded = np.concatenate([wh.kraus, np.zeros((1, 3, 3))])
    chan = KrausChannel(padded)
    ranks = []
    matrix_rank = np.linalg.matrix_rank

    def counting(m, *args, **kwargs):
        ranks.append(m.shape)
        return matrix_rank(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting)
    assert cat.kraus_products_rank(chan) == (9, 3)
    assert ranks == [(9, 9)]  # the k² products only: k is the stack's length


def test_kraus_channels_compare_and_hash_by_identity():
    a, b = cat.dephasing_channel(2), cat.dephasing_channel(2)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def _dephasing_instance():
    from catalyx.constructions import dephasing_catalysis

    return dephasing_catalysis([1, 2])


@pytest.mark.parametrize("build", [
    lambda: UnitaryOperator(np.eye(2), [2]),
    lambda: hl.plus_state(2),
    lambda: hl.eigenspace_decompose(hl.maximally_mixed([2])),
    _dephasing_instance,
    lambda: cat.verify_catalysis_exhaustive(*_dephasing_instance()[:3]),
    lambda: ea_capacity(cat.dephasing_channel(2), seed=0),
], ids=["unitary", "state", "eigenspaces", "instance", "exhaustive", "optimization"])
def test_equal_valued_objects_compare_and_hash_without_raising(build):
    """States, operators, decompositions and the records holding an ndarray
    (an exhaustive report, an optimization result) compare by identity; any
    other record compares element by element, so an instance equals a copy
    holding the same operators and differs from an equal-valued rebuild."""
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    if isinstance(a, cat.CatalysisInstance):
        assert a == a._replace() and hash(a) == hash(a._replace())


@pytest.mark.parametrize("value", [
    lambda: hl.SubsystemLayout([2, 3]),
    lambda: DegeneracyVector([1, 3]),
], ids=["layout", "degeneracy"])
def test_layouts_and_degeneracy_vectors_compare_by_value(value):
    a, b = value(), value()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("build", [
    lambda: hl.SubsystemLayout([2]),
    lambda: hl.maximally_mixed([2]),
    lambda: cat.dephasing_channel(2),
    _dephasing_instance,
], ids=["layout", "state", "channel", "instance"])
def test_values_and_records_are_read_only(build):
    obj = build()
    name = next(iter(vars(obj))) if hasattr(obj, "__dict__") else obj._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_canonical_form_takes_no_classical_flag():
    with pytest.raises(TypeError):
        canonical_form(CNOT, MM2, classical=True)
    assert not canonical_form(CNOT, MM2).classical


def test_classical_catalysis_marks_itself_and_every_sub_instance():
    inst = classical_catalysis([0.5, 0.3, 0.2], [np.eye(2), clock_matrix(2), hl.shift_matrix(2)])
    assert inst.classical and len(inst.decomposition) == 3
    assert all(sub.classical for _, sub in inst.decomposition)
