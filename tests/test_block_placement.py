"""Catalysis unitaries are built by block placement: every construction
equals, bit for bit, the Kronecker sum it was first written as (kept here as
the reference), and the certification path forms no Kronecker product."""

import numpy as np
import pytest
from util import count_krons

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import hilbert as hl
from catalyx.hilbert import DensityOperator

DEPHASING_R = ((1, 2), (1, 3), (2, 2), (1, 2, 2), (2, 3), (1, 2, 3), (3, 3))
# catalyst spectra as (eigenvalue, multiplicity) blocks
EXTRACTION_BLOCKS = (
    ((0.5, 2),),
    ((1 / 3, 3),),
    ((0.5, 1), (0.25, 2)),
    ((1 / 3, 2), (1 / 6, 2)),
)


def _block_sigma(blocks):
    diag = np.concatenate([np.full(m, w) for w, m in blocks])
    return DensityOperator(np.diag(diag.astype(complex)), [diag.size])


def _kron_controlled(unitaries, basis=None):
    """sum_x U_x ⊗ |b_x><b_x| as a sum of Kronecker products."""
    b = np.eye(len(unitaries)) if basis is None else np.asarray(basis)
    return sum(
        np.kron(np.asarray(ux, dtype=complex), np.outer(b[:, x], b[:, x].conj()))
        for x, ux in enumerate(unitaries)
    )


def _kron_dephasing(r):
    big_d = sum(x * x for x in r)
    b_dim = sum(r)
    z = hl.clock_matrix(big_d)
    zpow = [np.linalg.matrix_power(z, k) for k in range(big_d + max(r) ** 2 + 1)]
    u = np.zeros((big_d * b_dim, big_d * b_dim), dtype=complex)
    s_m = 0
    offset = 0
    for rm in r:
        omega = np.exp(2j * np.pi / rm)
        for i in range(rm):
            for j in range(1, rm + 1):
                dyad = np.zeros((b_dim, b_dim), dtype=complex)
                dyad[offset + i, offset + j - 1] = 1.0
                u += (omega ** (i * j) / np.sqrt(rm)) * np.kron(
                    zpow[(s_m + i * rm + j) % big_d], dyad
                )
        s_m += rm * rm
        offset += rm
    return u


def _kron_extraction(sigma):
    dec = hl.eigenspace_decompose(sigma)
    n = len(dec.eigenvalues)
    big_r = int(np.lcm.reduce([m * m for m in dec.multiplicities]))
    db = sigma.dim
    zn = hl.clock_matrix(n)
    u = np.zeros((n * big_r * db, n * big_r * db), dtype=complex)
    for i, (ri, basis) in enumerate(zip(dec.multiplicities, dec.bases)):
        v_i = np.linalg.matrix_power(zn, i + 1)
        block = big_r // (ri * ri)
        for j, w in enumerate(hl.weyl_set(ri)):
            p_j = np.zeros((big_r, big_r), dtype=complex)
            p_j[j * block : (j + 1) * block, j * block : (j + 1) * block] = np.eye(block)
            u += hl.kron_all([v_i, p_j, basis @ w @ basis.conj().T])
    kernel = np.eye(db) - sum(b @ b.conj().T for b in dec.bases)
    if np.linalg.norm(kernel) > 1e-12:
        u += hl.kron_all([np.eye(n), np.eye(big_r), kernel])
    return u


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("r", DEPHASING_R)
def test_dephasing_unitary_is_the_kron_sum(r):
    assert _bitwise_equal(con.dephasing_catalysis(r).unitary.matrix, _kron_dephasing(r))


@pytest.mark.parametrize("blocks", EXTRACTION_BLOCKS)
def test_extraction_unitary_is_the_kron_sum(blocks):
    sigma = _block_sigma(blocks)
    got = con.max_extraction_catalysis(sigma).instance.unitary.matrix
    assert _bitwise_equal(got, _kron_extraction(sigma))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_double_random_unitary_is_the_kron_sum(d):
    rng = np.random.default_rng(d)
    clock = [np.linalg.matrix_power(hl.clock_matrix(d), k) for k in range(d)]
    phases = [np.diag(np.exp(2j * np.pi * rng.random(d))) for _ in range(d)]
    for us in (clock, phases):
        want = _kron_controlled(clock, hl.fourier_matrix(d)) @ _kron_controlled(us)
        assert _bitwise_equal(con.double_random(d, us, clock).unitary.matrix, want)


@pytest.mark.parametrize("d", [2, 3])
def test_multiparty_unitary_is_the_kron_sum(d):
    want = hl.permute_subsystems(_kron_controlled(hl.weyl_set(d)), [d, d * d], [1, 0])
    assert _bitwise_equal(con.multiparty_unitary(d).matrix, want)


def test_classical_unitary_is_the_kron_sum():
    us = [hl.haar_unitary_matrix(3, s) for s in range(4)]
    inst = cat.classical_catalysis([0.4, 0.3, 0.2, 0.1], us)
    assert _bitwise_equal(inst.unitary.matrix, _kron_controlled(us))


def test_certification_path_forms_no_kron(monkeypatch):
    krons = count_krons(monkeypatch)
    rng = np.random.default_rng(0)
    clock = [np.linalg.matrix_power(hl.clock_matrix(3), k) for k in range(3)]
    insts = [
        con.dephasing_catalysis((3, 3)),
        con.max_extraction_catalysis(_block_sigma(EXTRACTION_BLOCKS[3])).instance,
        con.multiparty_instance(3),
        cat.classical_catalysis([0.5, 0.3, 0.2], [hl.haar_unitary_matrix(2, rng) for _ in range(3)]),
        con.double_random(3, clock, clock),
    ]
    for inst in insts:
        inst.canonical_unitary()
        cat.decompose_subcatalyses(inst)
        cat.channel_to_kraus(inst)
    assert not krons
