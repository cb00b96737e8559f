import itertools
import math

import numpy as np
import pytest
from util import count_eigensolves, kron_sum_output

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import entropy as ent
from catalyx import hilbert as hl
from catalyx import optimize as opt
from catalyx.hilbert import (
    DensityOperator,
    maximally_mixed,
    plus_state,
    ptrace_matrix,
    random_density,
    trace_distance,
)


def offdiag_max(m):
    return float(np.abs(m - np.diag(np.diag(m))).max())


# ---------------------------------------------------------------------------
# degeneracy-vector dephasing


def test_dephasing_degenerate_case():
    inst = con.dephasing_catalysis([1])
    assert inst.a_dim == 1 and inst.b_dim == 1
    rho = DensityOperator(np.eye(1), [1])
    assert trace_distance(cat.implement_channel(inst, rho), rho) <= 1e-12


def test_dephasing_single_block_two():
    inst = con.dephasing_catalysis([2])
    assert inst.a_dim == 4 and inst.b_dim == 2
    assert inst.defect <= 1e-9
    assert trace_distance(inst.sigma, maximally_mixed([2])) <= 1e-12
    out = cat.implement_channel(inst, plus_state(4).density())
    assert trace_distance(out, maximally_mixed([4])) <= 1e-10


def test_dephasing_one_three_spectrum():
    inst = con.dephasing_catalysis([1, 3])
    assert inst.a_dim == 10
    vals = sorted(set(np.round(inst.sigma.eigenvalues(), 12)))
    assert vals == pytest.approx([0.1, 0.3])
    dec = con.degeneracy_decomposition([1, 3])
    assert ent.catalytic_entropy(dec) == pytest.approx(math.log2(10))


@pytest.mark.parametrize(
    "r", [(2,), (3,), (1, 2), (1, 3), (2, 2), (1, 1), (1, 2, 3), (4,), (2, 3), (6,), (1, 1, 2)]
)
def test_dephasing_exact_for_small_vectors(r):
    inst = con.dephasing_catalysis(r)
    assert inst.a_dim <= 36
    assert inst.defect <= 1e-9
    for seed in range(3):
        rho = random_density([inst.a_dim], inst.a_dim, seed)
        out = cat.implement_channel(inst, rho)
        assert offdiag_max(out.matrix) <= 1e-10
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-10)


def test_dephasing_production_matches_catalytic_entropy():
    # the unbiased input extracts exactly the imposed-degeneracy entropy
    for r in [(2,), (1, 2), (2, 2)]:
        inst = con.dephasing_catalysis(r)
        rec = cat.ledger_for_instance(inst, plus_state(inst.a_dim).density())
        dec = con.degeneracy_decomposition(r)
        assert rec.delta_i == pytest.approx(ent.catalytic_entropy(dec), abs=1e-9)


# ---------------------------------------------------------------------------
# maximal extraction


EXTRACTION_CATALYSTS = [
    maximally_mixed([2]),
    maximally_mixed([3]),
    DensityOperator(np.diag([0.5, 0.25, 0.25]), [3]),
    DensityOperator(np.diag([1 / 3, 1 / 3, 1 / 6, 1 / 6]), [4]),
]


@pytest.mark.parametrize("sigma", EXTRACTION_CATALYSTS)
def test_max_extraction_achieves_catalytic_entropies(sigma):
    res = con.max_extraction_catalysis(sigma)
    inst = res.instance
    assert inst.defect <= 1e-9
    chan = cat.channel_to_kraus(inst)
    rho = res.input_state.density().matrix
    dec = hl.eigenspace_decompose(sigma)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        prod = opt.global_production(chan, rho, inst.a_dim, alpha)
        assert prod == pytest.approx(ent.catalytic_renyi(dec, alpha), abs=1e-7)


def test_max_extraction_output_spectrum():
    sigma = DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    res = con.max_extraction_catalysis(sigma)
    chan = cat.channel_to_kraus(res.instance)
    out = kron_sum_output(chan, res.input_state.density().matrix, res.instance.a_dim)
    vals = np.linalg.eigvalsh(out)
    vals = vals[vals > 1e-9]
    for v in vals:
        assert min(abs(v - 0.5), abs(v - 0.125)) <= 1e-9


def test_max_extraction_pure_catalyst_trivial():
    res = con.max_extraction_catalysis(hl.basis_state(2, 0).density())
    rec = cat.ledger_for_instance(res.instance, res.input_state.density())
    assert rec.delta_i == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "build, sizes",
    [
        # σ's own eigh, then the two spectra of the canonicalizing rotation
        (lambda: con.max_extraction_catalysis(
            DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])), {3: 3}),
        # the canonicalizing rotation only: the refinement is given as
        # computational basis columns (the size-1 calls certify the blocks)
        (lambda: cat.classical_catalysis([0.4, 0.3, 0.2, 0.1], hl.weyl_set(2)), {4: 2}),
    ],
    ids=["max_extraction", "classical4"],
)
def test_eigenspace_bases_are_never_recomputed(monkeypatch, build, sizes):
    counts = count_eigensolves(monkeypatch)
    build()
    assert {n: c for (solver, n), c in counts.items() if solver == "eigh" and n > 1} == sizes


def test_max_extraction_register_cap():
    # r = (4, 5): register lcm(16, 25) = 400, total dimension 2 * 400 * 9 =
    # 7200, whose unitary is over the one byte budget; refused before the
    # register blocks are allocated
    sigma = con.conserved_optimal_catalyst([4, 5])
    with pytest.raises(
        ValueError, match="maximal-extraction construction at total dimension 7200 .* budget"
    ):
        con.max_extraction_catalysis(sigma)


# ---------------------------------------------------------------------------
# initialization constructions


def test_initialization_classical_rejects_even():
    with pytest.raises(ValueError):
        con.initialization_classical(4)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_initialization_classical_matches_its_loop(d):
    # (a, b, c) -> (c - b, c + k, k), k = (a - b) / 2 mod d
    inv2 = pow(2, -1, d)
    u = np.zeros((d**3, d**3), dtype=complex)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                k = ((a - b) * inv2) % d
                u[(((c - b) % d) * d + (c + k) % d) * d + k, (a * d + b) * d + c] = 1.0
    gen = con.initialization_classical(d)
    assert np.array_equal(gen.unitary.matrix, u)
    inter = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        inter[i * d + i, i * d + i] = 1.0 / d
    assert np.array_equal(gen.intermediate.matrix, inter)


@pytest.mark.parametrize("m", [2, 3])
def test_initialization_masking_matches_its_loop(m):
    # (a, b, p, q, s, t) -> (q, s, b, a + t mod m, p, t)
    def idx(digits):
        return sum(x * m ** (5 - k) for k, x in enumerate(digits))

    u = np.zeros((m**6, m**6), dtype=complex)
    for a, b, p, q, s, t in itertools.product(range(m), repeat=6):
        u[idx((q, s, b, (a + t) % m, p, t)), idx((a, b, p, q, s, t))] = 1.0
    assert np.array_equal(con.initialization_masking(m).unitary.matrix, u)


def test_initialization_classical_d3():
    gen = con.initialization_classical(3)
    u, inter = gen.unitary, gen.intermediate
    dims = list(u.layout.dims)
    e0 = np.zeros((3, 3))
    e0[0, 0] = 1.0
    for seed in range(20):
        rho = random_density([3], 1 + seed % 3, seed)
        out = u.matrix @ np.kron(rho.matrix, inter.matrix) @ u.matrix.conj().T
        assert trace_distance(ptrace_matrix(out, dims, [0]), e0) <= 1e-10
        assert (
            trace_distance(ptrace_matrix(out, dims, [2]), np.eye(3) / 3) <= 1e-10
        )
    i_ab = ent.mutual_information(inter, [0], [1])
    assert i_ab == pytest.approx(math.log2(3))
    sig_b = ptrace_matrix(inter.matrix, [3, 3], [1])
    assert trace_distance(sig_b, np.eye(3) / 3) <= 1e-12


def test_initialization_classical_certified_cut():
    # the full unitary is a generalized catalysis; its partial transpose is
    # unitary over the memory register (and its complement), not the input
    gen = con.initialization_classical(3)
    u = gen.unitary
    assert cat.is_catalysis_unitary(u, cut=[1]).verdict
    assert cat.is_catalysis_unitary(u, cut=[0, 2]).verdict
    assert not cat.is_catalysis_unitary(u, cut=[0]).verdict


@pytest.mark.parametrize("m", [2, 3])
def test_initialization_masking(m):
    gen = con.initialization_masking(m)
    u, inter = gen.unitary, gen.intermediate
    dims = list(u.layout.dims)
    mm = np.eye(m * m) / (m * m)
    target = None
    for seed in range(20 if m == 2 else 6):
        rho = random_density([m, m], 1 + seed % (m * m), seed)
        out = u.matrix @ np.kron(rho.matrix, inter.matrix) @ u.matrix.conj().T
        out_a = ptrace_matrix(out, dims, [0, 1])
        if target is None:
            target = out_a
            assert np.trace(target @ target).real == pytest.approx(1.0)  # pure
        assert trace_distance(out_a, target) <= 1e-10  # fixed
        assert trace_distance(ptrace_matrix(out, dims, [4, 5]), mm) <= 1e-10
    i_ab = ent.mutual_information(inter, [0, 1], [2, 3])
    assert i_ab == pytest.approx(math.log2(m * m))
    sig_b = ptrace_matrix(inter.matrix, [m] * 4, [2, 3])
    assert trace_distance(sig_b, mm) <= 1e-12


def test_initialization_masking_certified_cuts():
    u = con.initialization_masking(2).unitary
    assert cat.is_catalysis_unitary(u, cut=[5]).verdict
    assert cat.is_catalysis_unitary(u, cut=[0, 3]).verdict


# ---------------------------------------------------------------------------
# double random unitary operations


def test_double_random_dephasing():
    z = hl.clock_matrix(2)
    inst = con.double_random(2, [np.eye(2), z], [np.eye(2), z])
    assert inst.defect <= 1e-9
    out = cat.implement_channel(inst, plus_state(2).density())
    assert trace_distance(out, maximally_mixed([2])) <= 1e-10
    # catalyst comes back
    assert trace_distance(inst.sigma, maximally_mixed([2])) <= 1e-12


def test_double_random_identity():
    inst = con.double_random(2, [np.eye(2)] * 2, [np.eye(2)] * 2)
    rho = random_density([2], 2, 0)
    assert trace_distance(cat.implement_channel(inst, rho), rho) <= 1e-10


def test_double_random_channel_is_two_stage_mixture():
    z3 = hl.clock_matrix(3)
    fam = [np.linalg.matrix_power(z3, k) for k in range(3)]
    inst = con.double_random(3, fam, fam)
    rho = random_density([3], 3, 5).matrix
    expected = np.zeros_like(rho)
    for ux in fam:
        for vy in fam:
            w = vy @ ux
            expected += w @ rho @ w.conj().T / 9
    out = cat.implement_channel(inst, DensityOperator(rho, [3]))
    assert np.abs(out.matrix - expected).max() <= 1e-10


def test_double_random_intermediate_marginal():
    z = hl.clock_matrix(2)
    stage1 = con.double_random_stage_one(2, [np.eye(2), z])
    rho = random_density([2], 2, 7)
    full = stage1.matrix @ np.kron(rho.matrix, np.eye(2) / 2) @ stage1.matrix.conj().T
    marg = ptrace_matrix(full, [2, 2], [1])
    assert trace_distance(marg, np.eye(2) / 2) <= 1e-12


def test_double_random_conditional_matrix_uniform():
    for d in (2, 3):
        m = con.fourier_conditional_matrix(d)
        assert np.allclose(m, np.full((d, d), 1 / d))
        assert np.allclose(m.sum(axis=0), 1.0)


def test_double_random_rejects_noncommuting():
    z, x = hl.clock_matrix(2), hl.shift_matrix(2)
    with pytest.raises(ValueError, match=r"U_1, V_1"):
        con.double_random(2, [np.eye(2), z], [np.eye(2), x])


# ---------------------------------------------------------------------------
# shared-catalyst dephasing


def test_multiparty_weyl_orthonormality():
    ws = hl.weyl_set(2)
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            tr = np.trace(wi @ wj.conj().T)
            assert abs(tr - (2.0 if i == j else 0.0)) <= 1e-12


def test_multiparty_depletes_plus_state():
    inst = con.multiparty_instance(2)
    out = cat.implement_channel(inst, plus_state(4).density())
    assert trace_distance(out, maximally_mixed([4])) <= 1e-10
    # full correlation with the catalyst: I(A:C) = 2 bits
    u = inst.unitary.matrix
    full = u @ np.kron(plus_state(4).density().matrix, np.eye(2) / 2) @ u.conj().T
    i_ac = ent.mutual_information(DensityOperator(full, [4, 2]), [0], [1])
    assert i_ac == pytest.approx(2.0, abs=1e-9)
    marg = ptrace_matrix(full, [4, 2], [1])
    assert trace_distance(marg, np.eye(2) / 2) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_multiparty_is_catalysis(d):
    u = con.multiparty_unitary(d)
    v = cat.is_catalysis_unitary(u)
    assert v.verdict and v.defect <= 1e-9


# ---------------------------------------------------------------------------
# conservation-law catalysts


def test_conserved_optimal_examples():
    sigma = con.conserved_optimal_catalyst([1, 3])
    assert np.allclose(np.diag(sigma.matrix).real, [0.1, 0.3, 0.3, 0.3])
    dec = con.degeneracy_decomposition([1, 3])
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert ent.catalytic_renyi(dec, alpha) == pytest.approx(math.log2(10))

    sigma = con.conserved_optimal_catalyst([4])
    assert trace_distance(sigma, maximally_mixed([4])) <= 1e-12

    dec = con.degeneracy_decomposition([1, 1, 1])
    sigma = con.conserved_optimal_catalyst([1, 1, 1])
    assert trace_distance(sigma, maximally_mixed([3])) <= 1e-12
    assert ent.catalytic_entropy(dec) == pytest.approx(math.log2(3))


@pytest.mark.parametrize(
    "l_max, value", [(0, 1), (1, 10), (2, 35), (3, 84)]
)
def test_angular_momentum_catalyst(l_max, value):
    res = con.angular_momentum_catalyst(l_max)
    assert res.sigma.dim == (l_max + 1) ** 2
    assert res.s_cat == pytest.approx(math.log2(value), abs=1e-12)
    r = [2 * l + 1 for l in range(l_max + 1)]
    dec = con.degeneracy_decomposition(r)
    assert res.s_cat == pytest.approx(ent.catalytic_entropy(dec), abs=1e-10)
    if l_max >= 1:
        # the maximally mixed state under the same blocks extracts less
        dim = (l_max + 1) ** 2
        mixed_dec = hl.EigenspaceDecomposition(
            [1 / dim] * len(r), con.degeneracy_decomposition(r).bases
        )
        assert res.s_cat > ent.catalytic_entropy(mixed_dec) + 1e-6


def test_thermal_levels():
    assert con.thermal_levels([1, 2, 4], 3.0) == pytest.approx([3.0, 2.0, 1.0])
    # a flat degeneracy vector produces one level, offset by its log-size
    single = con.thermal_levels([5], 7.5)
    assert len(single) == 1
    assert single == pytest.approx([7.5 - math.log2(5)])
    assert con.thermal_levels([1], 7.5) == pytest.approx([7.5])
    pops = con.gibbs_populations([1, 3], 2.0)
    sigma = con.conserved_optimal_catalyst([1, 3])
    assert np.allclose(pops, np.diag(sigma.matrix).real, atol=1e-12)


@pytest.mark.parametrize("e_inf", [math.nan, math.inf, -math.inf])
def test_thermal_levels_refuse_a_non_finite_offset(e_inf):
    with pytest.raises(ValueError, match="e_inf must be finite"):
        con.thermal_levels([1, 2], e_inf)


def test_dimension_cap():
    with pytest.raises(ValueError, match="budget"):
        con.dephasing_catalysis([17])  # 289 * 17 > 4096
