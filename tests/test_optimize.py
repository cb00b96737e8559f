import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import (
    count_eigensolves,
    count_evaluations,
    dense_renyi,
    ea_objective,
    held_bytes,
    kron_sum_output,
)

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
        grid = max(grid, ea_objective(chan, rho))
    assert res.value == pytest.approx(1.0, abs=1e-4)
    assert abs(res.value - grid) <= 1e-4


def test_ea_argmax_is_valid_state():
    res = opt.ea_capacity(cat.dephasing_channel(3), seed=0)
    rho = res.argmax
    assert np.linalg.norm(rho - rho.conj().T) < 1e-10
    assert abs(np.trace(rho).real - 1) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    # the reported value is the exact objective of the reported state
    assert ea_objective(cat.dephasing_channel(3), rho) == pytest.approx(
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
        x = x0 / np.linalg.norm(x0)
        return x, 0.0, 0, 0.0, True, value_grad(x)[2]

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
        f, g, _ = value_grad(v)
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
    # the maximally entangled first start is stationary at once; with no
    # certificate ending the run, the two random starts after it exercise the
    # search, the same draws as two random starts at seed 0
    monkeypatch.setattr(opt, "_CERT_GAP", -math.inf)
    counts = count_evaluations(monkeypatch)
    res = opt.max_entropy_production_global(cat.dephasing_channel(2), 1.0, restarts=3, seed=0)
    assert res.converged
    assert counts["evaluations"] <= 2 * counts["iterations"]


def test_ascent_cost_guard(monkeypatch):
    """Twelve ascents (two starts each) reach their optima within 1e-6 in at
    most 200 objective evaluations in all (131 with the maximally entangled
    first start of global production, 189 from two random starts, and the
    ×1.6/halving step took 714).  No certificate ends the restarts, so every
    ascent runs both starts."""
    monkeypatch.setattr(opt, "_CERT_GAP", -math.inf)
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
    assert res.converged and 0.0 <= _dense_ea_gap(chan, res.argmax) <= 1e-6
    assert counts["evaluations"] <= 200


# ---------------------------------------------------------------------------
# certified upper bounds and the early stop

# the 27 random channels of the bound tests: d in {2,3,4}, Kraus rank k in
# {2,3,5}, seed s in {0,1,2}; at d=2, k=5 the Kraus operators are linearly
# dependent, so Phi_c(rho) (5x5, rank at most 4) is singular at every rho
RANDOM_CHANNELS = [(d, k, s) for d in (2, 3, 4) for k in (2, 3, 5) for s in (0, 1, 2)]
_WEIGHTS = {1.0: lambda v: -np.log2(v), 0.5: lambda v: 0.5 / np.sqrt(v), 2.0: lambda v: v}


def _complementary(chan, rho):
    """Phi_c(rho)_ij = Tr[K_i rho K_j†], one Kraus pair at a time."""
    return np.array([[np.trace(ki @ rho @ kj.conj().T) for kj in chan.kraus]
                     for ki in chan.kraus])


def _factor(rho):
    vals, vecs = np.linalg.eigh(rho)
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def _identity_factor(chan):
    return chan.stinespring(np.eye(chan.dim_in, dtype=complex))


def _production_bound_at(chan, rho, alpha):
    """``_production_bound`` at the state rho, with its value S_alpha(Phi_c(rho))."""
    y = chan.stinespring(_factor(rho)).reshape(-1, len(chan.kraus))
    value = dense_renyi(_complementary(chan, rho), alpha)
    return opt._production_bound(chan, _identity_factor(chan), (y, None), alpha, value)


def _matrix_function(m, fn):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * fn(vals)) @ vecs.conj().T


def _dense_adjoint(chan, w_out, w_exch):
    """Phi†(W_out) + Phi_c†(W_exch) from dense Kraus sums:
    sum_i K_i† W_out K_i + sum_ij (W_exch)_ji K_j† K_i."""
    k = chan.kraus
    h = sum(w_exch[j, i] * k[j].conj().T @ k[i] for i in range(len(k)) for j in range(len(k)))
    return h + sum(ki.conj().T @ w_out @ ki for ki in k)


def _dense_production_bound(chan, rho, alpha):
    """The linearization bound of ``_production_bound`` from dense Kraus sums,
    with H = Phi_c†(f(Phi_c(rho)))."""
    g = _complementary(chan, rho)
    vals = np.linalg.eigvalsh(g)
    h = _dense_adjoint(chan, np.zeros((chan.dim_out,) * 2), _matrix_function(g, _WEIGHTS[alpha]))
    lam = np.linalg.eigvalsh(h)
    if alpha == 1.0:
        return dense_renyi(g, 1.0) + lam[-1] - np.trace(h @ rho).real
    if alpha == 0.5:
        return 2 * math.log2(np.sqrt(vals).sum() / 2 + lam[-1])
    return -math.log2(2 * lam[0] - (vals**2).sum())


def _dense_ea_gap(chan, rho):
    """lambda_max(G) - Tr[G rho] for the C_EA gradient
    G = -log2 rho + Phi†(-log2 Phi(rho)) - Phi_c†(-log2 Phi_c(rho)), from
    dense Kraus sums."""
    log = _WEIGHTS[1.0]
    g = _matrix_function(rho, log) + _dense_adjoint(
        chan, _matrix_function(chan.apply_matrix(rho), log),
        -_matrix_function(_complementary(chan, rho), log))
    return np.linalg.eigvalsh(g)[-1] - np.trace(g @ rho).real


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_production_bound_holds_on_random_channels(alpha):
    """The reported global maximum lies under its own bound and under the
    bound linearized at each of 10 random states; the bound agrees with the
    dense Kraus sums wherever it exists.  Validity only, not the gap.  Every
    channel is held in its minimal Kraus form, so every one is certified,
    k > d² too."""
    rng = np.random.default_rng(28)
    for d, k, s in RANDOM_CHANNELS:
        chan = cat.random_channel(d, k, s)
        res = opt.max_entropy_production_global(chan, alpha, restarts=4, seed=s)
        assert res.upper_bound is not None and res.upper_bound >= res.value
        for _ in range(10):
            rho = hl.random_density([d], d, rng).matrix
            bound = _production_bound_at(chan, rho, alpha)
            if alpha != 2.0:  # at alpha=2, None where 2 λ_min(H) <= Tr Y²
                assert bound is not None
            if bound is not None:
                assert bound >= res.value
                dense = _dense_production_bound(chan, rho, alpha)
                assert bound == pytest.approx(dense, abs=1e-9)


def test_ea_bound_holds_on_random_channels():
    rng = np.random.default_rng(29)
    for d, k, s in RANDOM_CHANNELS:
        chan = cat.random_channel(d, k, s)
        res = opt.ea_capacity(chan, seed=s)
        assert res.restarts == 1 and res.upper_bound >= res.value
        for _ in range(10):
            rho = hl.random_density([d], d, rng).matrix
            f = ea_objective(chan, rho)
            evaluation = opt._ea_evaluation(chan, _factor(rho))[2]
            bound = opt._ea_bound(chan, _identity_factor(chan), evaluation, f)
            assert bound >= res.value
            assert bound - f == pytest.approx(_dense_ea_gap(chan, rho), abs=1e-9)


def test_a_certified_start_ends_the_restarts():
    chan = cat.dephasing_channel(2)
    four = opt.max_entropy_production_global(chan, 1.0, restarts=4, seed=0)
    one = opt.max_entropy_production_global(chan, 1.0, restarts=1, seed=0)
    assert four.restarts == 1
    assert (four.value, four.iterations, four.upper_bound) == (one.value, one.iterations,
                                                               one.upper_bound)
    assert np.array_equal(four.argmax, one.argmax)
    assert 0.0 <= four.upper_bound - four.value <= opt._CERT_GAP
    assert four.to_json_dict()["upper_bound"] == four.upper_bound


MAXIMALLY_ENTANGLED_OPTIMA = [cat.dephasing_channel(2), cat.dephasing_channel(3),
                              cat.erasure_channel(2), cat.erasure_channel(3),
                              cat.weyl_twirl_channel(2), cat.weyl_twirl_channel(3)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("chan", MAXIMALLY_ENTANGLED_OPTIMA,
                         ids=["dephasing2", "dephasing3", "erasure2", "erasure3",
                              "weyl_twirl2", "weyl_twirl3"])
def test_global_production_is_certified_at_the_maximally_entangled_start(chan, alpha):
    """The first global start is vec(1), where these channels take their
    maximum: one step certifies it, whatever the seed or the restarts."""
    d = chan.dim_in
    res = opt.max_entropy_production_global(chan, alpha, restarts=16, seed=0)
    assert (res.restarts, res.iterations) == (1, 1) and res.converged
    assert np.array_equal(res.argmax, np.eye(d).reshape(-1) / math.sqrt(d))
    assert 0.0 <= res.upper_bound - res.value <= 1e-12
    for seed, restarts in [(s, n) for s in range(6) for n in (1, 16)]:
        other = opt.max_entropy_production_global(chan, alpha, restarts=restarts, seed=seed)
        assert other.to_json_dict() == res.to_json_dict()


def test_a_certified_first_start_seeds_no_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a random generator was seeded")

    uncertified = cat.initialization_channel(3)  # Phi(rho) is pure at every rho
    monkeypatch.setattr(hl, "_rng", no_generator)
    assert opt.ea_capacity(cat.dephasing_channel(2)).restarts == 1
    assert opt.max_entropy_production_global(cat.erasure_channel(2), 1.0).restarts == 1
    # nor does a run whose only start is the fixed one
    res = opt.ea_capacity(uncertified, restarts=1)
    assert res.upper_bound is None and res.restarts == 1


@pytest.mark.parametrize("seed, dim, count", [(0, 4, 3), (7, 9, 1), (41, 2, 5), (3, 4, 0)])
def test_random_starts_follow_the_seeded_stream(seed, dim, count):
    # the local target and the later starts of both drivers draw from here
    rng = np.random.default_rng(seed)
    starts = list(opt._random_starts(seed, dim, count))
    assert len(starts) == count
    for x in starts:
        assert np.array_equal(x, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def test_the_tightest_bound_of_any_start_is_reported():
    """Every start's bound holds for the maximum, so a result carries the
    tightest one, also where the start that ends the restarts is not the
    best: here the first start is best with a loose bound, the second has
    none, and the third is certified within the gap and ends the run."""
    values, bounds = [1.0, 0.9, 1.0 - 1e-9, 1.0], [1.5, None, 1.0 + 5e-7, 1.0]
    starts = list(np.eye(4, dtype=complex))

    def value_grad(x):  # every start is a critical point: it converges at once
        return values[int(np.argmax(abs(x)))], np.zeros_like(x), x

    x, f, bound, stats = opt._best_ascent(
        value_grad, starts, 10, 1e-9, lambda ev, f: bounds[int(np.argmax(abs(ev)))])
    assert np.array_equal(x, starts[0]) and f == 1.0
    assert bound == 1.0 + 5e-7
    assert stats["restarts"] == 3 and stats["converged"]


@pytest.mark.parametrize(
    "run",
    [
        lambda: opt.max_entropy_production_local(cat.dephasing_channel(2), 1.0,
                                                 restarts=3, seed=0),
        # every output is |0><0|: Phi(rho) is singular at every rho
        lambda: opt.ea_capacity(cat.initialization_channel(3), seed=0, restarts=3),
    ],
    ids=["local", "ea-initialization"],
)
def test_without_a_bound_every_start_runs(run):
    res = run()
    assert res.upper_bound is None and res.restarts == 3
    assert res.to_json_dict()["upper_bound"] is None


# ---------------------------------------------------------------------------
# each optimizer point solved once: the certificate reads the last evaluation


def _solve_totals(counts):
    """Solves by solver name, summed over matrix sizes."""
    return {name: sum(n for (s, _), n in counts.items() if s == name)
            for name in ("eigh", "eigvalsh")}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("chan", [cat.dephasing_channel(3), cat.erasure_channel(2)],
                         ids=["dephasing3", "erasure2"])
def test_a_one_step_global_ascent_solves_its_point_once(monkeypatch, chan, alpha):
    counts = count_eigensolves(monkeypatch)
    res = opt.max_entropy_production_global(chan, alpha)
    assert (res.restarts, res.iterations) == (1, 1)
    # the eigh of Y at vec(1) gives the value, the gradient and the
    # certificate's derivative; the eigvalsh is the certificate's own
    assert _solve_totals(counts) == {"eigh": 1, "eigvalsh": 1}


def test_min_entropy_global_costs_one_certified_step(monkeypatch):
    chan = cat.erasure_channel(2)  # its construction solves its Gram matrix
    counts = count_eigensolves(monkeypatch)
    res = opt.max_entropy_production_global(chan, math.inf)
    assert (res.restarts, res.iterations) == (1, 1)
    # the alpha=2 step and its certificate, then the exact min-entropy readout
    solves = _solve_totals(counts)
    assert solves["eigh"] == 1 and solves["eigvalsh"] <= 2


@pytest.mark.parametrize("chan", [cat.dephasing_channel(3), cat.weyl_twirl_channel(3)],
                         ids=["dephasing3", "weyl_twirl3"])
def test_a_one_step_ea_ascent_solves_only_rho_again(monkeypatch, chan):
    counts = count_eigensolves(monkeypatch)
    res = opt.ea_capacity(chan)
    assert (res.restarts, res.iterations) == (1, 1)
    # three eigh in the evaluation; the pullback of the square factor X took
    # X†X, so the certificate solves rho = XX† once more
    assert _solve_totals(counts) == {"eigh": 4, "eigvalsh": 1}


@pytest.mark.parametrize(
    "chan",
    [cat.dephasing_channel(3), cat.erasure_channel(2), cat.weyl_twirl_channel(3),
     cat.initialization_channel(3), cat.random_channel(3, 2, 0), cat.random_channel(2, 5, 1),
     cat.KrausChannel(np.repeat(cat.dephasing_channel(3).kraus, 2, axis=0) / math.sqrt(2))],
    ids=["dephasing3", "erasure2", "weyl_twirl3", "initialization3", "random3-2",
         "random2-5", "split-dephasing3"],  # the last two are cut to their Choi rank
)
def test_the_identity_factor_is_the_stored_isometry_regrouped(chan):
    eye = chan.identity_factor()
    want = chan.stinespring(np.eye(chan.dim_in, dtype=complex))
    assert eye.shape == want.shape and eye.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_the_carried_bound_is_the_bound_recomputed_at_the_argmax(alpha):
    """With one start, the reported bound comes from its last evaluation; a
    certificate recomputed at the argmax from scratch (its own Stinespring
    factor and eigh of Y = y†y, the identity factor from a GEMM) gives the
    same bits."""
    for d, k, s in RANDOM_CHANNELS:
        chan = cat.random_channel(d, k, s)
        res = opt.max_entropy_production_global(chan, alpha, restarts=1, seed=s)
        y = chan.stinespring(res.argmax[:, None], d)
        bound = opt._production_bound(chan, _identity_factor(chan), (y, None), alpha, res.value)
        assert res.upper_bound == (None if bound is None else max(bound, res.value))


def test_the_carried_ea_bound_agrees_with_the_bound_recomputed_at_the_end(monkeypatch):
    """The C_EA certificate read off the last evaluation, at X = L/||L||,
    agrees within 1e-14 with one recomputed from scratch at X = L, the unit
    end point of the ascent."""
    ends = []
    ascend = opt._ascend

    def recording(*args):
        out = ascend(*args)
        ends.append(out[0])
        return out

    monkeypatch.setattr(opt, "_ascend", recording)
    for d, k, s in RANDOM_CHANNELS:
        chan = cat.random_channel(d, k, s)
        ends.clear()
        res = opt.ea_capacity(chan, seed=s, restarts=1)
        x = ends[0].reshape(d, d)
        y = chan.stinespring(x)
        fresh = opt._ea_bound(chan, _identity_factor(chan),
                              ((x, y, y.reshape(-1, len(chan.kraus))), (None,) * 3), res.value)
        if fresh is None:
            assert res.upper_bound is None
        else:
            assert abs(res.upper_bound - max(fresh, res.value)) <= 1e-14


@pytest.mark.parametrize("chan", MAXIMALLY_ENTANGLED_OPTIMA,
                         ids=["dephasing2", "dephasing3", "erasure2", "erasure3",
                              "weyl_twirl2", "weyl_twirl3"])
def test_min_entropy_global_stops_on_the_collision_bound(chan):
    """alpha=inf runs the alpha=2 ascent, which H_inf <= H_2 lets its alpha=2
    bound certify: one step at vec(1), the alpha=2 run's bound, and the exact
    min-entropy at the argmax."""
    inf = opt.max_entropy_production_global(chan, math.inf, restarts=16, seed=0)
    two = opt.max_entropy_production_global(chan, 2.0, restarts=16, seed=0)
    assert inf.restarts == inf.iterations == 1
    assert inf.upper_bound == two.upper_bound
    v = inf.argmax
    out = kron_sum_output(chan, np.outer(v, v.conj()), chan.dim_in)
    assert inf.value == pytest.approx(ent.min_entropy(np.linalg.eigvalsh(out)), abs=1e-12)


@pytest.mark.parametrize("channel, reached", [((3, 5, 7), 1.7882), ((3, 4, 1), 1.4247),
                                              ((4, 6, 3), 2.0843), ((2, 3, 5), 1.0079)],
                         ids=["3-5-7", "3-4-1", "4-6-3", "2-3-5"])
def test_min_entropy_bound_lies_above_mirror_descent(channel, reached):
    """Mirror descent on lambda_max(Phi_c(rho)) reached these min-entropies
    (ROADMAP item 5), more than the alpha=2 argmax scores; the reported bound
    must still hold above them."""
    res = opt.max_entropy_production_global(cat.random_channel(*channel), math.inf,
                                            restarts=16, seed=0)
    assert res.upper_bound >= reached > res.value


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
    chan = cat.KrausChannel([haar_unitary(3, 5).matrix])
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
        value, z, _ = opt._pullback(x, alpha)
        assert value == 0.0
        assert np.abs(w.conj() @ z).max() <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_global_min_entropy_weyl_twirl3(seed):
    res = opt.max_entropy_production_global(cat.weyl_twirl_channel(3), math.inf,
                                            restarts=2, seed=seed)
    assert res.value == pytest.approx(2 * math.log2(3), abs=1e-6)


@pytest.mark.parametrize("target", ["global", "local"])
def test_min_entropy_is_read_at_the_collision_argmax(monkeypatch, target):
    chan = cat.random_channel(3, 2, 11)
    run = getattr(opt, f"max_entropy_production_{target}")
    # no certificate may end either run, so that both runs take both starts
    # (the global alpha=inf run is the alpha=2 run, certified by its bound)
    monkeypatch.setattr(opt, "_CERT_GAP", -math.inf)
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


# ---------------------------------------------------------------------------
# global production: each input solved once across alpha

ALPHAS = (0.5, 1.0, 2.0, math.inf)


def _mixed(dim, rank, rng):
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _fresh_production(chan, rho, ref, alpha):
    return opt.global_production(cat.KrausChannel(chan.kraus), rho, ref, alpha)


def test_global_production_solves_each_input_once_across_alpha(monkeypatch):
    chan = cat.random_channel(2, 3, 4)
    rho = _mixed(4, 2, np.random.default_rng(4))
    counts = count_eigensolves(monkeypatch)
    for a in ALPHAS:
        opt.global_production(chan, rho, 2, a)
    assert _solve_totals(counts) == {"eigh": 1, "eigvalsh": 1}


def test_global_production_memo_matches_fresh_channels_and_dense_sums():
    """A seeded call sequence with repeats, interleaved inputs, two channels
    and two reference sizes gives, bit for bit, what a channel with an empty
    memo gives, and the dense Kronecker-sum value within 1e-12."""
    rng = np.random.default_rng(31)
    chans = [cat.random_channel(2, 2, 1), cat.random_channel(2, 3, 2)]
    inputs = [(_mixed(2, 2, rng), 1), (_mixed(4, 1, rng), 2), (_mixed(4, 3, rng), 2),
              (_mixed(4, 4, rng), 2)]
    for _ in range(80):
        chan = chans[rng.integers(len(chans))]
        rho, ref = inputs[rng.integers(len(inputs))]
        a = ALPHAS[rng.integers(len(ALPHAS))]
        got = opt.global_production(chan, rho, ref, a)
        assert got == _fresh_production(chan, rho, ref, a)
        want = dense_renyi(kron_sum_output(chan, rho, ref), a) - dense_renyi(rho, a)
        assert abs(got - want) <= 1e-12
    # a reference size that does not fit the input still fails after a hit
    rho, ref = inputs[1]
    opt.global_production(chans[0], rho, ref, 1.0)
    with pytest.raises(ValueError):
        opt.global_production(chans[0], rho, 4, 1.0)


def test_global_production_sees_an_input_changed_in_place():
    chan = cat.random_channel(2, 2, 7)
    rng = np.random.default_rng(7)
    rho = _mixed(4, 1, rng)
    before = opt.global_production(chan, rho, 2, 2.0)
    rho[:] = _mixed(4, 2, rng)
    after = opt.global_production(chan, rho, 2, 2.0)
    assert after == _fresh_production(chan, rho, 2, 2.0)
    assert after != before
    # the same values in another memory order are the same input
    assert opt.global_production(chan, np.asfortranarray(rho), 2, 2.0) == after


def test_global_production_reads_the_psd_tolerance_per_call(monkeypatch):
    """An eigenvalue of 1e-9 is support at the default ``TOL_PSD`` and zero at
    1e-8; the second call must solve again under the new tolerance."""
    chan = cat.random_channel(2, 2, 3)
    vals = np.array([0.6, 0.4 - 1e-9, 1e-9, 0.0])
    u = hl.haar_unitary_matrix(4, 3)
    rho = (u * vals) @ u.conj().T
    default = opt.global_production(chan, rho, 2, 0.5)
    monkeypatch.setattr(hl, "TOL_PSD", 1e-8)
    coarse = opt.global_production(chan, rho, 2, 0.5)
    assert coarse == _fresh_production(chan, rho, 2, 0.5)
    assert coarse != default


def _unit(vals):
    p = np.maximum(vals, 0.0)
    return p / p.sum()


def test_global_production_is_the_renyi_entropy_of_fresh_spectra():
    """Bit for bit ``_renyi_bits`` of the uncut distributions, from an eigh
    of rho and an eigvalsh of its output's smaller Gram side taken here."""
    rng = np.random.default_rng(30)
    for i in range(24):
        d = 2 + i % 2
        chan = cat.random_channel(d, 1 + i % 5, i)
        rho = _mixed(d * d, [1, 2, d * d][i % 3], rng)  # pure and mixed
        vals, vecs = np.linalg.eigh(rho)
        keep = vals > hl.TOL_PSD
        y = chan.stinespring(vecs[:, keep] * np.sqrt(vals[keep]), d)
        p_out, p_in = _unit(np.linalg.eigvalsh(hl.smaller_gram(y)[0])), _unit(vals)
        for a in ALPHAS:
            want = ent._renyi_bits(p_out, a) - ent._renyi_bits(p_in, a)
            assert opt.global_production(chan, rho, d, a) == want


def test_global_production_memo_holds_input_bytes_and_spectra():
    chan = cat.random_channel(3, 2, 5)
    rng = np.random.default_rng(5)
    for rank in (9, 2):
        rho = _mixed(9, rank, rng)
        opt.global_production(chan, rho, 3, 1.0)
        key, q_in, q_out = opt._LAST_SPECTRA[chan]
        assert not any(isinstance(k, np.ndarray) for k in key)
        assert key[-1] == rho.tobytes() and len(key[-1]) == 16 * 9 * 9
        # the spectra cut to their supports: as many entries as rho has rank,
        # and as its output (at most rank x Kraus rank 2), each above TOL_PSD
        assert q_in.shape == (rank,) and q_out.shape == (min(9, 2 * rank),)
        assert q_in.min() > hl.TOL_PSD and q_out.min() > hl.TOL_PSD


def test_global_production_leaves_the_channel_as_built():
    """The memo is the optimizer's: after a run, a channel holds the fields
    and the buffers a fresh one holds, and none of rho's bytes."""
    chan, fresh = cat.random_channel(3, 2, 5), cat.random_channel(3, 2, 5)
    rho = _mixed(9, 9, np.random.default_rng(5))
    opt.global_production(chan, rho, 3, 1.0)
    assert vars(chan).keys() == vars(fresh).keys() == {"_isometry_t", "kraus"}
    assert held_bytes(chan) == held_bytes(fresh)
    assert opt._LAST_SPECTRA[chan][0][-1] == rho.tobytes()


def test_global_production_memo_keeps_no_channel_alive():
    chan = cat.random_channel(2, 2, 1)
    opt.global_production(chan, np.eye(4) / 4, 2, 1.0)
    gone = weakref.ref(chan)
    del chan
    gc.collect()
    assert gone() is None
