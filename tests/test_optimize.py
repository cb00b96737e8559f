import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import count_eigensolves, count_evaluations, dense_renyi, kron_sum_output

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import entropy as ent
from catalyx import hilbert as hl
from catalyx import optimize as opt
from catalyx.hilbert import haar_unitary, random_density


# ---------------------------------------------------------------------------
# entanglement-assisted capacity


@pytest.mark.parametrize("d", [2, 3])
def test_ea_identity_channel(d):
    res = opt.ea_capacity(cat.identity_channel(d), seed=1)
    assert res.value == pytest.approx(2 * math.log2(d), abs=1e-5)
    assert res.converged


def test_ea_replacer_channel():
    res = opt.ea_capacity(cat.erasure_channel(2), seed=1)
    assert res.value == pytest.approx(0.0, abs=1e-7)


def test_ea_dephasing_vs_bruteforce_grid():
    chan = cat.dephasing_channel(2)
    res = opt.ea_capacity(chan, seed=1)
    # dephasing commutes with diagonal unitaries and the objective is concave,
    # so a grid over diagonal states brackets the maximum
    grid = 0.0
    for p in np.linspace(0.0, 1.0, 2001):
        rho = np.diag([p, 1 - p]).astype(complex)
        grid = max(grid, opt.ea_objective(chan, rho))
    assert res.value == pytest.approx(1.0, abs=1e-4)
    assert abs(res.value - grid) <= 1e-4


def test_ea_argmax_is_valid_state():
    res = opt.ea_capacity(cat.dephasing_channel(3), seed=0)
    rho = res.argmax
    assert np.linalg.norm(rho - rho.conj().T) < 1e-10
    assert abs(np.trace(rho).real - 1) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    # the reported value is the exact objective of the reported state
    assert opt.ea_objective(cat.dephasing_channel(3), rho) == pytest.approx(
        res.value, abs=1e-9
    )


def test_ea_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    chan = cat.dephasing_channel(3)
    h = 1e-5
    for _ in range(20):
        el = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f0, g = opt.ea_objective_gradient(chan, el)
        dl = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fp, _ = opt.ea_objective_gradient(chan, el + h * dl)
        fm, _ = opt.ea_objective_gradient(chan, el - h * dl)
        fd = (fp - fm) / (2 * h)
        analytic = 2 * np.real(np.vdot(g, dl))
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


def test_ea_gradient_costs_three_eigendecompositions(monkeypatch):
    chan = cat.random_channel(3, 2, 4)
    el = np.eye(3, dtype=complex) + 0.3 * np.ones((3, 3))
    counts = count_eigensolves(monkeypatch)
    opt.ea_objective_gradient(chan, el)
    # on the Gram sides of rho and Phi(rho) (3x3 each) and on the exchange
    # Gram (Kraus rank 2)
    assert counts == {("eigh", 3): 2, ("eigh", 2): 1}


def _objective(target, chan, alpha):
    """The objective the entropy-production ascent hands to ``_ascend``."""
    captured = []

    def first_start_only(value_grad, x0, max_iter, tol_grad):
        captured.append(value_grad)
        return x0 / np.linalg.norm(x0), 0.0, 0, 0.0, True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_ascend", first_start_only)
        getattr(opt, f"max_entropy_production_{target}")(chan, alpha, restarts=1)
    (value_grad,) = captured
    return value_grad


@pytest.mark.parametrize("alpha", opt.SUPPORTED_ALPHAS)
@pytest.mark.parametrize("kind", ["global", "local"])
def test_pure_ascent_evaluation_costs_one_eigendecomposition(monkeypatch, kind, alpha):
    value_grad = _objective(kind, cat.dephasing_channel(3), alpha)
    dim = 9 if kind == "global" else 3  # reference x input
    v = np.arange(1.0, dim + 1) + 0.5j
    counts = count_eigensolves(monkeypatch)
    value_grad(v / np.linalg.norm(v))
    # on the Gram matrix of the Kraus factor: its rank 3 is the smaller side
    # of the output, 3x3 local and 9x9 global
    assert counts == {("eigh", 3): 1}


@st.composite
def _factor_cases(draw, target, side):
    """A random channel whose Kraus rank n is at most ("inner") or above
    ("outer") the output dimension ref d_out of the ascent's objective, and a
    seed for its inputs.  A one-dimensional input has no tangent direction,
    and a single Kraus operator keeps every output pure, so neither occurs."""
    d_in, d_out = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    out = (d_in if target == "global" else 1) * d_out
    n = draw(st.integers(2, out) if side == "inner"
             else st.integers(out + 1, out + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    iso = hl.haar_unitary_matrix(n * d_out, seed)[:, :d_in]
    return cat.KrausChannel(iso.reshape(n, d_out, d_in)), np.random.default_rng(seed)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", ["inner", "outer"])
@pytest.mark.parametrize("target", ["global", "local"])
def test_factor_objective_matches_the_dense_output(target, side, alpha):
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(_factor_cases(target, side))
    def check(case):
        chan, rng = case
        ref = chan.dim_in if target == "global" else 1
        value_grad = _objective(target, chan, alpha)
        v = rng.standard_normal(ref * chan.dim_in) + 1j * rng.standard_normal(ref * chan.dim_in)
        v /= np.linalg.norm(v)
        f, g = value_grad(v)
        dense = kron_sum_output(chan, np.outer(v, v.conj()), ref)
        assert abs(f - dense_renyi(dense, alpha)) <= 1e-12
        # central difference along a random unit tangent direction
        t = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        t -= np.vdot(v, t) * v
        t /= np.linalg.norm(t)
        h = 1e-5
        fd = (value_grad(opt._sphere_retract(v + h * t))[0]
              - value_grad(opt._sphere_retract(v - h * t))[0]) / (2 * h)
        assert abs(fd - np.real(np.vdot(g, t))) <= 1e-6 * np.linalg.norm(g)

    check()


def test_line_search_stops_where_rounding_starts(monkeypatch):
    counts = count_evaluations(monkeypatch)
    res = opt.max_entropy_production_global(cat.dephasing_channel(2), 1.0, restarts=2, seed=0)
    assert res.converged
    assert counts["evaluations"] <= 2 * counts["iterations"]


def _ea_certified_gap(chan, rho):
    """Upper bound on C_EA − I(rho, Phi) at a full-rank rho: the objective is
    concave with gradient G, so C_EA <= f + λ_max(G − Tr(Gρ)·1).  At
    L = √rho, ``ea_objective_gradient`` returns (G − Tr(Gρ)·1) L."""
    w, v = np.linalg.eigh(rho)
    assert w.min() > 1e-3
    el = (v * np.sqrt(w)) @ v.conj().T
    g = opt.ea_objective_gradient(chan, el)[1] @ np.linalg.inv(el)
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).max())


def test_ascent_cost_guard(monkeypatch):
    """Twelve ascents (two starts each) reach their optima within 1e-6 in at
    most 300 objective evaluations in all (the ×1.6/halving step took 714)."""
    counts = count_evaluations(monkeypatch)
    for chan, optimum in [(cat.dephasing_channel(2), 1.0), (cat.erasure_channel(2), 2.0),
                          (cat.weyl_twirl_channel(3), 2 * math.log2(3))]:
        for alpha in (0.5, 1.0, 2.0):
            res = opt.max_entropy_production_global(chan, alpha, restarts=2, seed=0)
            assert res.converged and res.value == pytest.approx(optimum, abs=1e-6)
    for chan, optimum in [(cat.dephasing_channel(3), math.log2(3)),
                          (cat.identity_channel(3), 2 * math.log2(3))]:
        res = opt.ea_capacity(chan, restarts=2, seed=0)
        assert res.converged and res.value == pytest.approx(optimum, abs=1e-6)
    chan = cat.random_channel(3, 2, 7)
    res = opt.ea_capacity(chan, restarts=2, seed=0)
    assert res.converged and 0.0 <= _ea_certified_gap(chan, res.argmax) <= 1e-6
    assert counts["evaluations"] <= 300


# ---------------------------------------------------------------------------
# entropy production


@pytest.mark.parametrize(
    "run",
    [
        lambda chan, n: opt.max_entropy_production_global(chan, restarts=n),
        lambda chan, n: opt.max_entropy_production_local(chan, restarts=n),
        lambda chan, n: opt.ea_capacity(chan, restarts=n),
    ],
    ids=["global", "local", "ea"],
)
@pytest.mark.parametrize("restarts", [0, -1])
def test_an_ascent_needs_a_start(monkeypatch, run, restarts):
    def no_work(*args):
        raise AssertionError("ascent ran")

    monkeypatch.setattr(opt, "_ascend", no_work)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        run(cat.dephasing_channel(2), restarts)


def test_global_dephasing_reaches_log_d():
    res = opt.max_entropy_production_global(cat.dephasing_channel(2), 1.0, seed=0)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_global_erasure_reaches_two_log_d():
    res = opt.max_entropy_production_global(cat.erasure_channel(2), 1.0, seed=0)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_global_unitary_channel_zero():
    chan = cat.channel_from_unitary(haar_unitary(3, 5).matrix)
    res = opt.max_entropy_production_global(chan, 1.0, restarts=4, seed=0)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_local_examples():
    res = opt.max_entropy_production_local(cat.dephasing_channel(2), 1.0,
                                           restarts=8, seed=0)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    res = opt.max_entropy_production_local(cat.erasure_channel(2), 1.0,
                                           restarts=8, seed=0)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    res = opt.max_entropy_production_local(cat.identity_channel(2), 1.0,
                                           restarts=4, seed=0)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_global_dominates_local():
    for chan in (cat.dephasing_channel(2), cat.erasure_channel(2),
                 cat.weyl_twirl_channel(2)):
        for alpha in (0.5, 1.0, 2.0):
            g = opt.max_entropy_production_global(chan, alpha, restarts=4, seed=1)
            l = opt.max_entropy_production_local(chan, alpha, restarts=4, seed=1)
            assert g.value >= l.value - 1e-6


def test_min_entropy_objective_runs():
    res = opt.max_entropy_production_global(cat.dephasing_channel(2), math.inf,
                                            restarts=4, seed=2)
    assert res.value == pytest.approx(1.0, abs=1e-4)


LOCAL_OPTIMA = [
    (cat.dephasing_channel(2), 1.0),
    (cat.dephasing_channel(3), math.log2(3)),
    (cat.erasure_channel(2), 1.0),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chan, optimum", LOCAL_OPTIMA, ids=["dephasing2", "dephasing3", "erasure2"])
def test_local_half_reaches_the_optimum(chan, optimum, seed):
    res = opt.max_entropy_production_local(chan, 0.5, restarts=1, seed=seed)
    assert res.converged and res.iterations <= 200  # cost guard
    assert res.value == pytest.approx(optimum, abs=1e-6)
    assert res.argmax_kind == "pure" and res.argmax.shape == (chan.dim_in,)


@pytest.mark.parametrize("seed", [0, 19])
def test_half_converges_where_every_output_is_pure(seed):
    # the initialization channel keeps every output pure, so the objective is
    # constant; the derivative lives on the output's support, and rounding in
    # the null directions (λ^(-1/2) at λ ~ 1e-17) no longer reads as a gradient
    res = opt.max_entropy_production_local(cat.initialization_channel(3), 0.5,
                                           restarts=2, seed=seed)
    assert res.converged and res.gradient_norm_at_end <= opt._PURE_TOL_GRAD
    assert res.value == 0.0


def test_entropy_pullback_vanishes_off_the_support():
    # XX† = vv† + 1e-18 ww†: the tiny eigenvalue is below the support the
    # value reads, so the pull-back D X has no component along w
    v = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2)
    w = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2)
    x = np.stack([v, 1e-9 * w], axis=1)
    for alpha in (0.5, 1.0, 2.0):
        value, z = opt._pullback(x, alpha)
        assert value == 0.0
        assert np.abs(w.conj() @ z).max() <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_global_min_entropy_weyl_twirl3(seed):
    res = opt.max_entropy_production_global(cat.weyl_twirl_channel(3), math.inf,
                                            restarts=2, seed=seed)
    assert res.value == pytest.approx(2 * math.log2(3), abs=1e-6)


@pytest.mark.parametrize("target", ["global", "local"])
def test_min_entropy_is_read_at_the_collision_argmax(target):
    chan = cat.random_channel(3, 2, 11)
    run = getattr(opt, f"max_entropy_production_{target}")
    inf, two = run(chan, math.inf, restarts=2, seed=5), run(chan, 2.0, restarts=2, seed=5)
    assert np.array_equal(inf.argmax, two.argmax)
    assert (inf.iterations, inf.converged) == (two.iterations, two.converged)
    v = inf.argmax
    out = kron_sum_output(chan, np.outer(v, v.conj()), 3 if target == "global" else 1)
    assert inf.value == pytest.approx(ent.min_entropy(np.linalg.eigvalsh(out)), abs=1e-12)
    assert inf.value <= two.value + 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(2, 4), rank=st.integers(1, 4), mix=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_pure_inputs_dominate_local_production(d, rank, mix, seed):
    """S_a(Phi(rho)) - S_a(rho) <= max_i S_a(Phi(psi_i)) over the eigenvectors
    psi_i of rho: the lemma that confines the local ascent to pure inputs."""
    chan = cat.random_channel(d, rank, seed)
    rho = random_density([d], min(mix, d), seed + 1).matrix
    _, vecs = np.linalg.eigh(rho)
    for alpha in opt.SUPPORTED_ALPHAS:
        mixed = dense_renyi(chan.apply_matrix(rho), alpha) - dense_renyi(rho, alpha)
        best_pure = max(
            dense_renyi(chan.apply_matrix(np.outer(v, v.conj())), alpha) for v in vecs.T
        )
        assert mixed <= best_pure + 1e-12


def test_unsupported_alpha_rejected():
    with pytest.raises(ValueError):
        opt.max_entropy_production_global(cat.dephasing_channel(2), 3.0)
    with pytest.raises(ValueError):
        opt.max_entropy_production_local(cat.dephasing_channel(2), 0.7)


# ---------------------------------------------------------------------------
# min-entropy mixture inequality


def test_min_entropy_mixture_inequality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        parts = [random_density([4], int(rng.integers(1, 5)), rng) for _ in range(n)]
        mix = sum(w * r.matrix for w, r in zip(p, parts))
        s_mix = ent.min_entropy(np.clip(np.linalg.eigvalsh(mix), 0, None))
        for w, r in zip(p, parts):
            s_i = ent.min_entropy(r.eigenvalues())
            assert s_mix - s_i <= -math.log2(w) + 1e-9


# ---------------------------------------------------------------------------
# capacity-randomness tradeoff


def test_tradeoff_dephasing_four_equality():
    inst = con.dephasing_catalysis([2])
    rep = opt.tradeoff_check(inst)
    assert rep.lhs == pytest.approx(2.0, abs=1e-4)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.ok


def test_tradeoff_unitary_channel_pure_catalyst():
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = hl.UnitaryOperator(np.kron(had, np.eye(1)), [2, 1])
    inst = cat.canonical_form(u, hl.DensityOperator(np.eye(1), [1]))
    rep = opt.tradeoff_check(inst)
    assert rep.lhs == pytest.approx(0.0, abs=1e-5)
    assert rep.rhs == pytest.approx(0.0)
    assert rep.ok


def test_tradeoff_classical_depolarizing():
    inst = cat.classical_catalysis([0.25] * 4, hl.weyl_set(2))
    rep = opt.tradeoff_check(inst)
    assert rep.capacity == pytest.approx(0.0, abs=1e-6)
    assert rep.lhs == pytest.approx(2.0, abs=1e-6)
    # the refined (basis-preserving) decomposition gives a tight bound of 2;
    # the unrefined catalyst spectrum alone would give 4
    assert rep.rhs == pytest.approx(2.0)
    assert rep.ok
    merged = ent.catalytic_min_entropy(hl.eigenspace_decompose(inst.sigma))
    assert merged == pytest.approx(4.0)
    assert rep.lhs <= merged + 1e-4


def test_tradeoff_on_construction_suite():
    suite = [
        con.dephasing_catalysis([1, 2]),
        con.multiparty_instance(2),
        cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)]),
        con.double_random(
            2, [np.eye(2), hl.clock_matrix(2)], [np.eye(2), hl.clock_matrix(2)]
        ),
    ]
    for inst in suite:
        rep = opt.tradeoff_check(inst)
        assert rep.ok, rep
        assert rep.ok_vn, rep


def test_tradeoff_minentropy_bound_fails_for_skewed_mixtures():
    """Documented boundary of the min-entropy tradeoff: for the Pauli channel
    0.9 rho + 0.1 Z rho Z the capacity is exactly 2 - H(0.9, 0.1), so the
    left side equals the mean surprisal H(0.9, 0.1), which exceeds the block
    minimum -log2(0.9).  The catalytic-entropy variant still holds."""
    z = hl.clock_matrix(2)
    inst = cat.classical_catalysis([0.9, 0.05, 0.05], [np.eye(2), z, z])
    rep = opt.tradeoff_check(inst)
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert rep.capacity == pytest.approx(2 - h, abs=1e-5)
    assert rep.lhs == pytest.approx(h, abs=1e-5)
    assert rep.rhs == pytest.approx(-math.log2(0.9))
    assert not rep.ok        # the min-entropy bound is genuinely violated
    assert rep.ok_vn         # the catalytic-entropy bound absorbs it
    assert rep.rhs_vn >= rep.lhs - 1e-6


# ---------------------------------------------------------------------------
# converse: no input beats the catalyst's extractable entropy


def test_production_never_exceeds_catalytic_renyi():
    cases = [
        con.dephasing_catalysis([2]),
        con.multiparty_instance(2),
        cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)]),
    ]
    rng = np.random.default_rng(9)
    for inst in cases:
        chan = cat.channel_to_kraus(inst)
        if inst.decomposition:
            bound = {
                a: ent.catalytic_renyi(
                    hl.EigenspaceDecomposition(
                        *_refined(inst)
                    ),
                    a,
                )
                for a in (0.5, 1.0, 2.0, math.inf)
            }
        else:
            dec = hl.eigenspace_decompose(inst.sigma)
            bound = {a: ent.catalytic_renyi(dec, a) for a in (0.5, 1.0, 2.0, math.inf)}
        d = inst.a_dim
        for _ in range(50):
            v = hl.haar_state(d * d, rng).amplitudes
            rho = np.outer(v, v.conj())
            for a in (0.5, 1.0, 2.0, math.inf):
                assert opt.global_production(chan, rho, d, a) <= bound[a] + 1e-7


def _refined(inst):
    """Eigenspace data of the stored refinement (classical catalyses store
    basis blocks in layout order)."""
    values, bases = [], []
    eye = np.eye(inst.b_dim)
    off = 0
    for w, sub in inst.decomposition:
        r = sub.b_dim
        values.append(w / r)
        bases.append(eye[:, off : off + r])
        off += r
    order = np.argsort(values)[::-1]
    return [values[i] for i in order], [bases[i] for i in order]


def test_ea_gradient_matches_finite_differences_on_complex_channels():
    rng = np.random.default_rng(29)
    h = 1e-5
    for seed in range(6):
        chan = cat.random_channel(3, 1 + seed % 3, seed)  # dense complex Kraus operators
        el = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        _, g = opt.ea_objective_gradient(chan, el)
        dl = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fp, _ = opt.ea_objective_gradient(chan, el + h * dl)
        fm, _ = opt.ea_objective_gradient(chan, el - h * dl)
        fd = (fp - fm) / (2 * h)
        assert abs(fd - 2 * np.real(np.vdot(g, dl))) <= 1e-5 * max(1.0, abs(fd))
