"""Marginals of a stack of factor-held states through the same helpers
``partial_trace`` uses: ``factor_marginal``, ``smaller_gram``,
``hermitian_eigvalsh`` and the spectrum checks of ``factor_spectrum``, with
the entropies from ``von_neumann_rows``.  Each sample's spectrum and entropy must
equal, bit for bit, what its own ``DensityOperator`` gives, and a bad sample
must raise what ``from_factor`` raises for it alone."""

import itertools

import numpy as np
import pytest

from catalyx import hilbert as hl
from catalyx import scenarios as sc
from catalyx.entropy import shannon, von_neumann, von_neumann_rows
from catalyx.hilbert import DensityOperator, SubsystemLayout, haar_state, partial_trace


def _groups(n):
    """Every non-empty proper subset of n factors, ascending."""
    return [g for k in range(1, n) for g in itertools.combinations(range(n), k)]


def _haar_stack(dims, n, rng):
    states = [haar_state(int(np.prod(dims)), rng, dims) for _ in range(n)]
    return states, np.stack([s.amplitudes for s in states])[..., None]


@pytest.mark.parametrize("seed", range(6))
def test_stacked_marginals_equal_each_sample_alone(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 5))))
    states, x = _haar_stack(dims, int(rng.integers(1, 9)), rng)
    for g in _groups(len(dims)):
        spectra = hl.factor_spectrum(hl.factor_marginal(x, dims, g))
        entropies = von_neumann_rows(spectra)
        for state, spectrum, s in zip(states, spectra, entropies):
            marginal = partial_trace(state.density(), g)
            assert np.array_equal(spectrum, marginal.eigenvalues())
            assert s == von_neumann(marginal)


def _filtered_sum(p):
    """The one-distribution reference: drop the entries at or below TOL_PSD,
    then sum the rest as one array."""
    q = p[p > hl.TOL_PSD]
    return float(-(q * np.log2(q)).sum()) if q.size else 0.0


def test_von_neumann_rows_equal_each_row_alone():
    # ragged supports and long rows: entries at or below TOL_PSD are dropped
    # per row, so rows keep different counts and long rows sum pairwise
    rng = np.random.default_rng(0)
    for k in (1, 2, 7, 8, 9, 17, 128, 129, 512):
        p = rng.dirichlet(np.ones(k), size=12)
        p[rng.random(p.shape) < 0.3] = 0.0
        p[:, 0] += 1.0 - p.sum(-1)
        p[3] = np.eye(k)[0]
        for rows in (p, p[4:6], p[5:6]):  # ragged, and equal counts
            h = von_neumann_rows(rows)
            assert h.shape == rows.shape[:1]
            for hi, row in zip(h, rows):
                assert hi == shannon(row) == _filtered_sum(row)
    assert von_neumann_rows(np.full((2, 3, 4), 0.25)).shape == (2, 3)


def _reference_conservation(seed, n_samples, dims):
    """The check sample by sample, one ``DensityOperator`` per pure state."""
    rng = hl._rng(seed)
    total = int(np.prod(dims))
    worst_res = worst_ineq = 0.0
    groups = ([1], [2], [3], [1, 2], [2, 3], [0, 3], [0, 2, 3])
    for _ in range(n_samples):
        psi = haar_state(total, rng, dims).density()
        s_x, s_y, s_z, s_xy, s_yz, s_wz, s_wyz = (
            von_neumann(partial_trace(psi, g)) for g in groups
        )
        i_xy, i_ywz, i_yz = s_x + s_y - s_xy, s_y + s_wz - s_wyz, s_y + s_z - s_yz
        worst_res = max(worst_res, abs(2 * s_y - i_xy - i_ywz))
        worst_ineq = max(worst_ineq, i_xy + i_yz - 2 * s_y)
    return worst_res, worst_ineq


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3), (3, 2, 2, 1)])
def test_conservation_report_equals_the_sample_by_sample_check(dims):
    # 10 and 20 are the sample counts of selftest and of the benchmark's cli script
    for seed, n in itertools.product(range(4), (1, 10, 20, 40)):
        rep = sc.conservation_law_check(seed=seed, n_samples=n, dims=dims)
        assert (rep.max_residual, rep.max_inequality_violation) == _reference_conservation(
            seed, n, dims
        )


class _Draws:
    """A generator whose ``standard_normal`` returns fixed draws."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z


def _patched_draws(monkeypatch, z):
    monkeypatch.setattr(hl, "_rng", lambda seed: _Draws(z))


def test_non_finite_draw_raises_the_state_vectors_message(monkeypatch):
    z = np.random.default_rng(2).standard_normal((5, 2, 16))
    z[3, 1, 7] = np.nan
    v = z[3, 0] + 1j * z[3, 1]
    _patched_draws(monkeypatch, z)
    # the division by a NaN norm warns before the check refuses the row
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError) as alone:
            hl.StateVector(v / np.linalg.norm(v), [2, 2, 2, 2])
        with pytest.raises(ValueError, match="non-finite entry") as stacked:
            sc.conservation_law_check(n_samples=5)
    assert str(stacked.value) == str(alone.value)


def test_off_norm_draw_raises_the_norm_of_the_first_bad_row(monkeypatch):
    # rows this small lose digits to subnormal squares: their norms, and the
    # norms after the first division, are off by more than 100·TOL_NORM
    z = np.random.default_rng(1).standard_normal((6, 2, 16))
    z[2] *= 1e-161
    z[4] *= 1e-162
    messages = []
    for row in z[2], z[4]:
        v = row[0] + 1j * row[1]
        with pytest.raises(ValueError, match="too far from 1") as alone:
            hl.StateVector(v / np.linalg.norm(v), [2, 2, 2, 2])
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    _patched_draws(monkeypatch, z)
    with pytest.raises(ValueError) as stacked:
        sc.conservation_law_check(n_samples=6)
    assert str(stacked.value) == messages[0]


def test_off_norm_sample_raises_what_from_factor_raises():
    dims, keep = (2, 3, 2), (0, 2)
    _, x = _haar_stack(dims, 5, np.random.default_rng(3))
    x[2] *= 1.01
    f = hl.factor_marginal(x, dims, keep)
    with pytest.raises(ValueError, match="trace") as alone:
        DensityOperator.from_factor(f[2], SubsystemLayout([2, 2]))
    with pytest.raises(ValueError) as stacked:
        hl.factor_spectrum(f)
    assert str(stacked.value) == str(alone.value)


def test_sample_below_the_floor_raises_what_from_factor_raises(monkeypatch):
    dims, keep = (2, 2), (0,)
    _, x = _haar_stack(dims, 4, np.random.default_rng(5))
    x[1, :, 0] = np.kron([0.6, 0.8], [1.0, 0.0])  # a product state: S(A) = 0
    f = hl.factor_marginal(x, dims, keep)
    # lower every eigenvalue by more than the floor: only the product
    # sample's zero eigenvalue falls below it
    eigvalsh = hl.hermitian_eigvalsh
    monkeypatch.setattr(hl, "hermitian_eigvalsh", lambda m: eigvalsh(m) - 20 * hl.TOL_PSD)
    with pytest.raises(ValueError, match="negative eigenvalue") as alone:
        DensityOperator.from_factor(f[1], SubsystemLayout([2]))
    with pytest.raises(ValueError) as stacked:
        hl.factor_spectrum(f)
    assert str(stacked.value) == str(alone.value)


def test_mixed_real_and_complex_factors_each_solve_as_alone():
    # the absorption check's candidates: the exactly real maximally mixed
    # factor stacked with complex ones; each spectrum must be the one its
    # factor gives alone, so the real one goes to the real solver
    rng = np.random.default_rng(3)
    d = 4
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    g[[1, 3]] = rng.standard_normal((2, d, d))  # exactly real factors
    g /= np.linalg.norm(g, axis=(1, 2))[:, None, None]
    x = np.concatenate([np.eye(d)[None] / np.sqrt(d), g])
    spectra = hl.factor_spectrum(x)
    for f, spectrum in zip(x, spectra):
        assert np.array_equal(spectrum, hl.factor_spectrum(f))
