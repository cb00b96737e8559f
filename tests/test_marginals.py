"""Property tests of the marginal path: the raw partial trace and partial
transpose against einsum references, the marginal memo of
``hilbert.partial_trace``, factor-held states and their marginals against
the dense path, and mutual information between any two groups against a
dense numpy reference."""

import itertools
import string
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyx import hilbert as hl
from catalyx.entropy import mutual_information, von_neumann

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def states(draw):
    """A random density operator on 2-4 factors of dimension 1-3."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    d = int(np.prod(dims))
    rank = draw(st.integers(1, d))
    return hl.random_density(dims, rank, draw(st.integers(0, 2**32 - 1)))


def _subset(draw, n, min_size=0):
    return sorted(draw(st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n)))


def _einsum_ptrace(m, dims, keep):
    n = len(dims)
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n:2 * n]
    cols = "".join(c if i in keep else rows[i] for i, c in enumerate(cols))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    dk = int(np.prod([dims[i] for i in keep]))
    return np.einsum(f"{rows}{cols}->{out}", m.reshape(dims + dims)).reshape(dk, dk)


def _vn(m):
    p = np.linalg.eigvalsh(m)
    p = p[p > hl.TOL_PSD]
    return float(-(p * np.log2(p)).sum())


@SETTINGS
@given(states(), st.data())
def test_ptrace_matches_einsum(rho, data):
    dims = list(rho.layout.dims)
    keep = _subset(data.draw, len(dims))
    want = _einsum_ptrace(rho.matrix, dims, keep)
    assert np.abs(hl.ptrace_matrix(rho.matrix, dims, keep) - want).max() <= 1e-13
    if keep:
        assert np.abs(hl.partial_trace(rho, keep).matrix - want).max() <= 1e-13


@SETTINGS
@given(states(), st.data())
def test_ptranspose_matches_einsum(rho, data):
    dims = list(rho.layout.dims)
    n = len(dims)
    subsystems = _subset(data.draw, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = rho.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n:2 * n]
    out_rows = "".join(cols[i] if i in subsystems else rows[i] for i in range(n))
    out_cols = "".join(rows[i] if i in subsystems else cols[i] for i in range(n))
    want = np.einsum(f"{rows}{cols}->{out_rows}{out_cols}", m.reshape(dims + dims))
    got = hl.ptranspose_matrix(m, dims, subsystems)
    assert np.array_equal(got, want.reshape(d, d))


@SETTINGS
@given(states(), st.data())
def test_partial_trace_keeps_each_marginal_once(rho, data):
    n = len(rho.layout)
    keep = _subset(data.draw, n, min_size=1)
    marginal = hl.partial_trace(rho, keep)
    assert hl.partial_trace(rho, keep[::-1]) is marginal
    assert hl.partial_trace(rho, data.draw(st.permutations(range(n)))) is rho
    assert hl.partial_trace(marginal, range(len(keep))) is marginal


@SETTINGS
@given(states(), st.data())
def test_marginal_of_marginal_matches_direct_marginal(rho, data):
    keep = _subset(data.draw, len(rho.layout), min_size=1)
    inner = _subset(data.draw, len(keep), min_size=1)
    nested = hl.partial_trace(hl.partial_trace(rho, keep), inner)
    direct = hl.partial_trace(rho, [keep[i] for i in inner])
    assert nested.layout == direct.layout
    assert np.abs(nested.matrix - direct.matrix).max() <= 1e-12


@SETTINGS
@given(states(), st.data())
def test_mutual_information_matches_dense_reference(rho, data):
    dims = list(rho.layout.dims)
    n = len(dims)
    x = _subset(data.draw, n, min_size=1)
    rest = [i for i in range(n) if i not in x]
    if not rest:
        x, rest = x[:-1], x[-1:]
    y = sorted(data.draw(st.sets(st.sampled_from(rest), min_size=1)))
    want = (_vn(_einsum_ptrace(rho.matrix, dims, x)) + _vn(_einsum_ptrace(rho.matrix, dims, y))
            - _vn(_einsum_ptrace(rho.matrix, dims, sorted(x + y))))
    assert abs(mutual_information(rho, x, y) - want) <= 1e-9
    assert mutual_information(rho, y, x) == mutual_information(rho, x, y)


@st.composite
def factor_states(draw):
    """A factor-held state of rank 1 to D on 2-4 factors of dimension 1-3."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    d = int(np.prod(dims))
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return hl.DensityOperator.from_factor(x / np.linalg.norm(x), dims)


@SETTINGS
@given(factor_states())
def test_factor_held_marginals_match_the_dense_path(rho):
    dims = list(rho.layout.dims)
    x = rho.factor()
    dense = x @ x.conj().T
    assert np.abs(rho.eigenvalues() - np.linalg.eigvalsh(dense)[::-1]).max() <= 1e-12
    for k in range(1, len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), k):
            want = hl.ptrace_matrix(dense, dims, keep)
            marginal = hl.partial_trace(rho, keep)
            assert np.abs(marginal.matrix - want).max() <= 1e-12
            assert abs(von_neumann(marginal) - _vn(want)) <= 1e-12


@SETTINGS
@given(factor_states(), st.sampled_from([1 + 1e-6, 1 - 1e-6]))
def test_factor_with_trace_off_is_rejected(rho, scale):
    with pytest.raises(ValueError, match="trace"):
        hl.DensityOperator.from_factor(np.sqrt(scale) * rho.factor(), rho.layout)


@SETTINGS
@given(states())
def test_dense_state_factor_reproduces_it_and_is_kept(rho):
    x = rho.factor()
    assert rho.factor() is x
    assert np.abs(x @ x.conj().T - rho.matrix).max() <= 1e-12
    assert x.shape[1] == np.count_nonzero(rho.eigenvalues() > hl.TOL_PSD)


def test_factor_shape_is_checked():
    for bad in (np.ones(4) / 2, np.ones((3, 1)), np.ones((4, 0))):
        with pytest.raises(ValueError, match="factor shape"):
            hl.DensityOperator.from_factor(bad, [2, 2])


def test_dense_factor_reads_the_psd_floor_at_call_time(monkeypatch):
    rho = hl.DensityOperator(np.diag([0.7, 0.2, 0.1]), [3])
    monkeypatch.setattr(hl, "TOL_PSD", 0.15)
    assert rho.factor().shape == (3, 2)


def test_racing_threads_get_the_one_kept_marginal():
    keeps = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            rho = hl.random_density([2, 3, 2], 4, seed)
            results = [[] for _ in range(4)]
            threads = [threading.Thread(target=lambda out=out: out.extend(
                hl.partial_trace(rho, k) for k in keeps)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            kept = [hl.partial_trace(rho, k) for k in keeps]
            for got in results:
                assert len(got) == len(keeps)
                assert all(g is m for g, m in zip(got, kept))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("indices", [[0, 0], [1, 1, 0], [2], [-1]],
                         ids=["duplicate", "duplicate-unsorted", "out-of-range", "negative"])
def test_raw_layout_helpers_validate_indices(indices):
    m = np.eye(4) / 4
    with pytest.raises(ValueError, match="duplicate|out of range"):
        hl.ptrace_matrix(m, [2, 2], indices)
    with pytest.raises(ValueError, match="duplicate|out of range"):
        hl.ptranspose_matrix(m, [2, 2], indices)
    with pytest.raises(ValueError, match="duplicate|out of range"):
        hl.partial_trace(hl.maximally_mixed([2, 2]), indices)
