"""Property tests of the contraction layer: Kraus-channel maps and their
adjoints, the Choi matrix, controlled unitaries and |Γ>."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyx import hilbert as hl
from catalyx.catalysis import KrausChannel

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
@given(channels(), st.integers(1, 3))
def test_adjoint_duality(chan_rng, ref_dim):
    chan, rng = chan_rng
    rho = hl.random_density([chan.dim_in], chan.dim_in, rng).matrix
    m = _complex(rng, chan.dim_out, chan.dim_out)
    lhs = np.trace(chan.apply_matrix(rho) @ m)
    assert abs(lhs - np.trace(rho @ chan.adjoint_matrix(m))) <= 1e-12
    rho_ext = hl.random_density([ref_dim * chan.dim_in], ref_dim, rng).matrix
    m_ext = _complex(rng, ref_dim * chan.dim_out, ref_dim * chan.dim_out)
    lhs = np.trace(chan.extended_apply_matrix(rho_ext, ref_dim) @ m_ext)
    rhs = np.trace(rho_ext @ chan.extended_adjoint_matrix(m_ext, ref_dim))
    assert abs(lhs - rhs) <= 1e-12


@SETTINGS
@given(channels(), st.integers(1, 3))
def test_extended_apply_matches_kron_sum(chan_rng, ref_dim):
    chan, rng = chan_rng
    rho = hl.random_density([ref_dim * chan.dim_in], ref_dim, rng).matrix
    eye = np.eye(ref_dim)
    want = sum(np.kron(eye, k) @ rho @ hl.dagger(np.kron(eye, k)) for k in chan.kraus)
    assert np.abs(chan.extended_apply_matrix(rho, ref_dim) - want).max() <= 1e-13


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
    rho = hl.random_density([chan.dim_in], chan.dim_in, rng).matrix
    want = [[np.trace(ki @ rho @ hl.dagger(kj)) for kj in chan.kraus] for ki in chan.kraus]
    assert np.abs(chan.complementary_matrix(rho) - np.array(want)).max() <= 1e-13


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
    assert np.abs(got - want).max() <= 1e-14
    assert hl.unitarity_defect(got) <= 1e-12


@SETTINGS
@given(st.integers(1, 6))
def test_max_entangled_matches_canonical_operators(d):
    gamma = hl.max_entangled(d)
    assert np.abs(gamma - hl.canonical_operators(d).max_entangled.amplitudes).max() <= 1e-15
    assert abs(np.linalg.norm(gamma) - 1.0) <= 1e-14
