"""Property tests of the contraction layer: the Stinespring contraction of a
Kraus channel and its adjoint, the Choi matrix, controlled unitaries, |Γ>,
and evolution and ledgers with a unitary on a subset of the factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import kron_sum_output

from catalyx import constructions
from catalyx import hilbert as hl
from catalyx.catalysis import KrausChannel, ledger

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def channels(draw):
    """A random channel, possibly rectangular, and a seed for its inputs."""
    d_in = draw(st.integers(1, 3))
    d_out = draw(st.integers(1, 3))
    n = draw(st.integers(-(-d_in // d_out), 4))  # Stinespring needs n d_out >= d_in
    seed = draw(st.integers(0, 2**32 - 1))
    iso = hl.haar_unitary_matrix(n * d_out, seed)[:, :d_in]
    return KrausChannel(iso.reshape(n, d_out, d_in)), np.random.default_rng(seed)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@SETTINGS
@given(channels(), st.integers(1, 3), st.integers(1, 3))
def test_adjoint_duality(chan_rng, ref, r):
    chan, rng = chan_rng
    x = _complex(rng, ref * chan.dim_in, r)
    z = _complex(rng, ref * chan.dim_out, r * len(chan.kraus))
    lhs = np.vdot(z, chan.stinespring(x, ref))
    assert abs(lhs - np.vdot(chan.stinespring_adjoint(z, ref), x)) <= 1e-12


@SETTINGS
@given(channels(), st.integers(1, 3), st.integers(1, 3))
def test_stinespring_matches_kron_sum(chan_rng, ref, r):
    chan, rng = chan_rng
    x = _complex(rng, ref * chan.dim_in, r)
    y = chan.stinespring(x, ref)
    assert y.shape == (ref * chan.dim_out, r * len(chan.kraus))
    want = kron_sum_output(chan, x @ hl.dagger(x), ref)
    assert np.abs(y @ hl.dagger(y) - want).max() <= 1e-12
    # the columns (j, i) hold (1 ⊗ K_i) x_j
    for i, k in enumerate(chan.kraus):
        assert np.abs(y[:, i::len(chan.kraus)] - np.kron(np.eye(ref), k) @ x).max() <= 1e-13


@SETTINGS
@given(channels())
def test_choi_reproduces_channel(chan_rng):
    chan, rng = chan_rng
    rho = hl.random_density([chan.dim_in], chan.dim_in, rng).matrix
    j = chan.choi()
    via_choi = hl.ptrace_matrix(
        np.kron(rho.T, np.eye(chan.dim_out)) @ j, [chan.dim_in, chan.dim_out], [1]
    )
    assert np.abs(via_choi - chan.apply_matrix(rho)).max() <= 1e-13


@SETTINGS
@given(channels())
def test_complementary_output_is_kraus_gram(chan_rng):
    chan, rng = chan_rng
    rho = hl.random_density([chan.dim_in], chan.dim_in, rng)
    want = [[np.trace(ki @ rho.matrix @ hl.dagger(kj)) for kj in chan.kraus]
            for ki in chan.kraus]
    w = chan.stinespring(rho.factor()).reshape(-1, len(chan.kraus))
    assert np.abs(hl.dagger(w) @ w - np.array(want).T).max() <= 1e-13


def test_every_channel_output_reads_the_stinespring_factor(monkeypatch):
    from catalyx import optimize as opt
    from catalyx import scenarios as sc
    from catalyx.catalysis import cost_bound_check

    calls = []
    stinespring = KrausChannel.stinespring

    def counting(self, x, ref=1):
        calls.append(ref)
        return stinespring(self, x, ref)

    monkeypatch.setattr(KrausChannel, "stinespring", counting)
    chan = KrausChannel(hl.haar_unitary_matrix(4, 3)[:, :2].reshape(2, 2, 2))
    inst = constructions.dephasing_catalysis([2])
    runs = {
        "global": lambda: opt.max_entropy_production_global(chan, 1.0, restarts=1),
        "local": lambda: opt.max_entropy_production_local(chan, 2.0, restarts=1),
        "ea": lambda: opt.ea_capacity(chan, restarts=1),
        "global_production": lambda: opt.global_production(chan, np.eye(4) / 4, 2, 1.0),
        "absorption": lambda: sc.absorption_check(chan, n_samples=2),
        "cost_bound": lambda: cost_bound_check(inst, n_samples=2),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, name


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_controlled_matches_kron_sum(d, da, seed, fourier):
    us = [hl.haar_unitary_matrix(da, seed + x) for x in range(d)]
    basis = hl.fourier_matrix(d) if fourier else np.eye(d)
    want = sum(
        np.kron(u, np.outer(basis[:, x], basis[:, x].conj())) for x, u in enumerate(us)
    )
    got = hl.controlled(us, basis) if fourier else hl.controlled(us)
    assert got.shape == (da * d, da * d)
    assert got.tobytes() == want.tobytes()
    assert hl.unitarity_defect(got) <= 1e-12
    if fourier:
        with pytest.raises(ValueError, match="control last"):
            hl.controlled(us, basis, control_first=True)
    else:
        first = sum(np.kron(np.outer(e, e), u) for e, u in zip(basis, us))
        assert hl.controlled(us, control_first=True).tobytes() == first.tobytes()


@SETTINGS
@given(st.integers(1, 6))
def test_max_entangled_matches_canonical_operators(d):
    gamma = hl.max_entangled(d)
    assert np.abs(gamma - hl.canonical_operators(d).max_entangled.amplitudes).max() <= 1e-15
    assert abs(np.linalg.norm(gamma) - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# evolution on a subset of the factors


@SETTINGS
@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=4),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_evolve_on_factors_matches_embedding(dims, data, seed):
    n = len(dims)
    on = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    r = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    x = _complex(rng, int(np.prod(dims)), r)
    u = hl.haar_unitary_matrix(int(np.prod([dims[i] for i in on])), rng)
    got = hl.evolve(u, x, dims, on)
    assert np.abs(got - hl.embed_operator(u, dims, on) @ x).max() <= 1e-12
    # a state vector evolves as a one-column factor
    assert np.abs(hl.evolve(u, x[:, 0], dims, on) - got[:, 0]).max() <= 1e-12


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_evolve_without_on_is_the_full_product(dims, seed):
    rng = np.random.default_rng(seed)
    x = _complex(rng, 2 * int(np.prod(dims)), 2)
    u = hl.haar_unitary_matrix(2 * int(np.prod(dims)), rng)
    assert np.array_equal(hl.evolve(u, x), u @ x)
    assert np.array_equal(hl.evolve(u, x, [2] + dims), u @ x)


def _record(rec):
    return np.array([rec.i_before, rec.i_after, rec.s_in, rec.s_out, rec.residual])


def _assert_same_ledger(u, rho, inter, n_a2, on):
    dims = rho.layout.dims + inter.layout.dims
    big = hl.UnitaryOperator(hl.embed_operator(u.matrix, dims, on), dims)
    got, got_tau = ledger(u, rho, inter, n_a2, on=on)
    want, want_tau = ledger(big, rho, inter, n_a2)
    assert np.abs(_record(got) - _record(want)).max() <= 1e-12
    assert got_tau.layout.dims == want_tau.layout.dims == tuple(dims)
    assert np.abs(got_tau.matrix - want_tau.matrix).max() <= 1e-12


@st.composite
def catalytic_transitions(draw):
    """A transition that returns the catalyst B: B is classical in the
    intermediate (Σ_b p_b ω_b ⊗ |b><b|) and the unitary is controlled on B,
    acting on a random subset of the A1/A2 factors, with its own factors in
    a random order."""
    a1 = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    a2 = draw(st.lists(st.integers(1, 3), max_size=1))
    db = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_a = len(a1) + len(a2)
    targets = draw(st.permutations(range(n_a)))[: draw(st.integers(1, n_a))]
    dims = a1 + a2 + [db]
    dt = int(np.prod([dims[i] for i in targets]))
    small = hl.controlled([hl.haar_unitary_matrix(dt, rng) for _ in range(db)])
    small_dims = [dims[i] for i in targets] + [db]
    perm = draw(st.permutations(range(len(small_dims))))
    on = [(list(targets) + [n_a])[k] for k in perm]
    u = hl.UnitaryOperator(
        hl.permute_subsystems(small, small_dims, perm), [small_dims[k] for k in perm]
    )
    da2 = int(np.prod(a2)) if a2 else 1
    p = rng.dirichlet(np.ones(db))
    inter = sum(
        np.kron(pb * hl.random_density([da2], da2, rng).matrix, np.diag(np.eye(db)[b]))
        for b, pb in enumerate(p)
    )
    rho = hl.random_density(a1, int(np.prod(a1)), rng)
    return u, rho, hl.DensityOperator(inter, a2 + [db]), len(a2), on


@SETTINGS
@given(catalytic_transitions())
def test_ledger_on_factors_matches_embedding(transition):
    _assert_same_ledger(*transition)


@pytest.mark.parametrize("d", [2, 3])
def test_ledger_on_factors_matches_embedding_multiparty(d):
    # the second use of the depletion protocol: the catalyst is correlated
    # with the memory register A2 left by the first use
    w = constructions.multiparty_unitary(d)
    fresh = hl.plus_state(d * d).density()
    mm = hl.maximally_mixed([d])
    x = hl.evolve(w.matrix, np.kron(fresh.factor(), mm.factor()))
    inter = hl.DensityOperator.from_factor(x, [d * d, d])
    _assert_same_ledger(w, fresh, inter, 1, [0, 2])


@pytest.mark.parametrize("r", [(1, 2), (2, 1)])
def test_ledger_on_factors_matches_embedding_dephasing(r):
    inst = constructions.dephasing_catalysis(r)
    u, da, db = inst.canonical_unitary(), inst.a_dim, inst.b_dim
    rho = hl.random_density([da], da, 7)
    # an intermediate held as its matrix: the ledger takes its factor from eigh
    first = np.kron(hl.random_density([da], 2, 8).matrix, inst.sigma.matrix)
    inter = hl.DensityOperator(u.matrix @ first @ hl.dagger(u.matrix), [da, db])
    _assert_same_ledger(u, rho, inter, 1, [0, 2])
    # the fresh input on a second factor that the unitary does not touch
    rho2 = hl.random_density([2, da], 3, 9)
    _assert_same_ledger(u, rho2, inst.sigma, 0, [1, 2])


def test_ledger_returns_the_state_it_evolved():
    w = constructions.multiparty_unitary(2)
    fresh = hl.plus_state(4).density()
    mm = hl.maximally_mixed([2])
    _, tau = ledger(w, fresh, mm, 0)
    assert tau.layout.dims == (4, 2)
    want = hl.evolve(w.matrix, np.kron(fresh.factor(), mm.factor()), [4, 2])
    assert np.array_equal(tau.factor(), want)
    _, tau2 = ledger(w, fresh, tau, 1, on=[0, 2])
    assert tau2.layout.dims == (4, 4, 2)
    want = hl.evolve(w.matrix, np.kron(fresh.factor(), tau.factor()), [4, 4, 2], [0, 2])
    assert np.array_equal(tau2.factor(), want)
    # the evolved factor holds the evolved state: U(ρ ⊗ σ)U†
    u = hl.embed_operator(w.matrix, [4, 4, 2], [0, 2])
    dense = u @ np.kron(fresh.matrix, tau.matrix) @ hl.dagger(u)
    assert np.abs(tau2.matrix - dense).max() <= 1e-15


def test_on_mismatching_the_unitary_layout_is_rejected():
    w = constructions.multiparty_unitary(2)  # layout [4, 2]
    fresh = hl.plus_state(4).density()
    inter = hl.maximally_mixed([4, 2])
    with pytest.raises(ValueError, match="does not match"):
        ledger(w, fresh, inter, 1, on=[0, 1])  # dims there are [4, 4]
    with pytest.raises(ValueError, match="does not match"):
        ledger(w, fresh, inter, 1, on=[2, 0])  # [2, 4]: right dims, wrong order
    with pytest.raises(ValueError):
        ledger(w, fresh, inter, 1, on=[0, 0])
    with pytest.raises(ValueError):
        hl.evolve(w.matrix, np.kron(fresh.factor(), inter.factor()), [4, 4, 2], [0, 1])
