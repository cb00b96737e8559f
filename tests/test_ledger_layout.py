"""Property tests of the ledger's one layout rule: the transition acts on ρ's
factors followed by the intermediate's, A1 is exactly ρ's factors, and ``on``
lets any other factor ride along untouched.  Records and evolved states are
checked against a dense numpy reference that shares no code with the
ledger."""

import functools
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyx import catalysis as cat
from catalyx import constructions
from catalyx import hilbert as hl

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

R_VECTORS = [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]
EXTRACTION_SPECTRA = [(0.5, 0.25, 0.25), (0.5, 0.5), (1 / 3, 1 / 3, 1 / 6, 1 / 6)]


# ---------------------------------------------------------------------------
# dense reference


def _dense_evolve(u, state, dims, on):
    """U on the factors ``on`` of ``state``: move those factors to the front
    by transposition, apply U ⊗ 1 as one dense matrix, move them back."""
    n = len(dims)
    order = list(on) + [i for i in range(n) if i not in on]
    d = state.shape[0]
    big = np.kron(u, np.eye(d // u.shape[0]))
    perm = state.reshape(dims + dims).transpose(order + [n + i for i in order])
    out = big @ perm.reshape(d, d) @ big.conj().T
    inverse = list(np.argsort(order))
    shape = [dims[i] for i in order]
    back = out.reshape(shape + shape).transpose(inverse + [n + i for i in inverse])
    return back.reshape(d, d)


def _dense_marginal(m, dims, keep):
    n = len(dims)
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n : 2 * n]
    cols = "".join(rows[i] if i not in keep else cols[i] for i in range(n))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    dk = int(np.prod([dims[i] for i in keep]))
    return np.einsum(f"{rows}{cols}->{out}", m.reshape(dims + dims)).reshape(dk, dk)


def _dense_entropy(m):
    vals = np.linalg.eigvalsh(m)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def _assert_matches_dense(u, rho, inter, n_a2, on=None):
    """Run the ledger and check its record and τ against the reference."""
    rec, tau = cat.ledger(u, rho, inter, n_a2, on=on)
    dims = list(rho.layout.dims + inter.layout.dims)
    n_a = len(rho.layout) + n_a2
    on = list(range(len(dims))) if on is None else list(on)
    want = _dense_evolve(u.matrix, np.kron(rho.matrix, inter.matrix), dims, on)
    assert tau.layout.dims == tuple(dims)
    assert np.abs(tau.matrix - want).max() <= 1e-12

    a, b = list(range(n_a)), list(range(n_a, len(dims)))
    s_a, s_b = (_dense_entropy(_dense_marginal(want, dims, k)) for k in (a, b))
    s_in = _dense_entropy(rho.matrix)
    i_before = 0.0
    if n_a2:
        int_dims = list(inter.layout.dims)
        s_a2 = _dense_entropy(_dense_marginal(inter.matrix, int_dims, range(n_a2)))
        s_in += s_a2
        i_before = (s_a2 + _dense_entropy(_dense_marginal(inter.matrix, int_dims,
                                                          range(n_a2, len(int_dims))))
                    - _dense_entropy(inter.matrix))
    got = np.array([rec.i_before, rec.i_after, rec.s_in, rec.s_out])
    ref = np.array([i_before, s_a + s_b - _dense_entropy(want), s_in, s_a])
    assert np.abs(got - ref).max() <= 1e-9
    assert rec.residual <= cat.LEDGER_TOL
    assert abs(rec.delta_i - (rec.s_out - rec.s_in)) <= cat.LEDGER_TOL
    return rec, tau


# ---------------------------------------------------------------------------
# random certified catalyses


@functools.lru_cache(maxsize=None)
def _dephasing(r):
    return constructions.dephasing_catalysis(r)


@functools.lru_cache(maxsize=None)
def _extraction(spectrum):
    sigma = hl.DensityOperator(np.diag(spectrum), [len(spectrum)])
    return constructions.max_extraction_catalysis(sigma).instance


@st.composite
def certified_catalyses(draw):
    """A classical catalysis (Dirichlet weights, Haar unitaries) or a
    degeneracy-vector dephasing, with an rng for its inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return _dephasing(draw(st.sampled_from(R_VECTORS))), rng
    da, db = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = rng.dirichlet(np.ones(db))
    us = [hl.haar_unitary_matrix(da, rng) for _ in range(db)]
    return cat.classical_catalysis(p, us), rng


def _random_input(dims, rng):
    d = int(np.prod(dims))
    return hl.random_density(dims, int(rng.integers(1, d + 1)), rng)


@SETTINGS
@given(certified_catalyses())
def test_ledger_identity_on_certified_catalyses(inst_rng):
    inst, rng = inst_rng
    u, da = inst.canonical_unitary(), inst.a_dim
    # first use with the fresh catalyst, then a second use whose
    # intermediate is the first output: A2 holds the first input's register
    _, tau = _assert_matches_dense(u, _random_input([da], rng), inst.sigma, 0)
    _assert_matches_dense(u, _random_input([da], rng), tau, 1, on=[0, 2])


@SETTINGS
@given(certified_catalyses(), st.integers(1, 3))
def test_untouched_reference_rides_along(inst_rng, dr):
    inst, rng = inst_rng
    u, da = inst.canonical_unitary(), inst.a_dim
    psi = hl.haar_state(da * dr, rng, [da, dr]).density()  # system ⊗ reference
    rec, tau = _assert_matches_dense(u, psi, inst.sigma, 0, on=[0, 2])
    # the reference's own marginal is untouched
    ref_m = hl.ptrace_matrix(tau.matrix, tau.layout.dims, [1])
    assert np.abs(ref_m - hl.ptrace_matrix(psi.matrix, [da, dr], [1])).max() <= 1e-12
    assert rec.s_in == pytest.approx(0.0, abs=1e-9)


@SETTINGS
@given(st.sampled_from(EXTRACTION_SPECTRA), st.integers(0, 2**32 - 1))
def test_system_given_as_one_factor_or_as_its_factors(spectrum, seed):
    inst = _extraction(spectrum)
    assert inst.a_count == 2
    rho = _random_input([inst.a_dim], np.random.default_rng(seed))
    whole = cat.ledger_for_instance(inst, rho)
    split = cat.ledger_for_instance(inst, hl.DensityOperator(rho.matrix, inst.a_dims))
    assert np.abs(np.array([whole.i_before, whole.i_after, whole.s_in, whole.s_out])
                  - np.array([split.i_before, split.i_after, split.s_in, split.s_out])
                  ).max() <= 1e-12


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 3))
def test_n_a2_must_leave_b_a_factor(inter_dims, da):
    rho = hl.maximally_mixed([da])
    inter = hl.maximally_mixed(inter_dims)
    u = hl.UnitaryOperator(np.eye(rho.dim * inter.dim), [rho.dim * inter.dim])
    cat.ledger(u, rho, inter, len(inter_dims) - 1)  # the largest valid A2
    with pytest.raises(ValueError, match="B must hold at least one"):
        cat.ledger(u, rho, inter, len(inter_dims))
