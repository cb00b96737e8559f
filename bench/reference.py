"""Independent numpy references the job oracles compare catalyx against.

Nothing here imports catalyx: a reference that went through the code under
test could not catch its mistakes.  The traced run only counts numpy calls
made inside a job, so the oracles below never show up in the layer counts.
"""

from __future__ import annotations

import math

import numpy as np


def entropy_bits(m: np.ndarray, alpha: float = 1.0) -> float:
    """Renyi entropy of a density matrix (von Neumann at alpha = 1), in bits."""
    p = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    p = p[p > 1e-12]
    p = p / p.sum()
    if alpha == 1.0:
        return float(-(p * np.log2(p)).sum())
    if math.isinf(alpha):
        return float(-np.log2(p.max()))
    return float(np.log2((p**alpha).sum()) / (1.0 - alpha))


def catalytic_renyi_bound(weights, mults, alpha: float) -> float:
    """Catalytic Renyi entropy of a catalyst with eigenvalue ``weights[i]``
    on a block of size ``mults[i]``: the converse bound on global production."""
    lam = np.asarray(weights, dtype=float)
    r = np.asarray(mults, dtype=float)
    if alpha == 1.0:
        return float(-(lam * r * np.log2(lam / r)).sum())
    if math.isinf(alpha):
        return float(-np.log2((lam / r).max()))
    return float(np.log2((lam**alpha * r ** (2.0 - alpha)).sum()) / (1.0 - alpha))


def induced_channel(u: np.ndarray, sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr_B U (rho ⊗ sigma) U† for U on A ⊗ B, by one einsum."""
    da, db = rho.shape[0], sigma.shape[0]
    t = u.reshape(da, db, da, db)
    return np.einsum("abxy,xz,yw,cbzw->ac", t, rho, sigma, t.conj(), optimize=True)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    ks = np.asarray(kraus)
    return np.einsum("kij,jl,kml->im", ks, rho, ks.conj(), optimize=True)


def extended_output(kraus, rho: np.ndarray, ref_dim: int) -> np.ndarray:
    """(I ⊗ Phi)(rho) for rho on reference ⊗ input."""
    ks = np.asarray(kraus)
    d = ks.shape[2]
    t = rho.reshape(ref_dim, d, ref_dim, d)
    out = np.einsum("kij,rjsl,kml->rism", ks, t, ks.conj(), optimize=True)
    n = ref_dim * ks.shape[1]
    return out.reshape(n, n)


def pt_unitarity_defect(u: np.ndarray, da: int, db: int) -> float:
    """Frobenius norm of V†V - 1 for V the partial transpose of U over A."""
    v = u.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    return float(np.linalg.norm(v.conj().T @ v - np.eye(da * db)))


def ea_information(kraus, rho: np.ndarray) -> float:
    """Quantum mutual information S(rho) + S(Phi(rho)) - S(exchange)."""
    ks = np.asarray(kraus)
    gram = np.einsum("kij,jl,mil->km", ks, rho, ks.conj(), optimize=True)
    return entropy_bits(rho) + entropy_bits(apply_kraus(ks, rho)) - entropy_bits(gram)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix with Dirichlet weights on Haar vectors."""
    u = haar_unitary(d, rng)
    w = rng.dirichlet(np.ones(d))
    return (u * w) @ u.conj().T


def controlled(unitaries, d_b: int) -> np.ndarray:
    """sum_x U_x ⊗ |x><x| (control on the catalyst side)."""
    da = unitaries[0].shape[0]
    u = np.zeros((da * d_b, da * d_b), dtype=complex)
    for x, ux in enumerate(unitaries):
        e = np.zeros((d_b, d_b))
        e[x, x] = 1.0
        u += np.kron(ux, e)
    return u
