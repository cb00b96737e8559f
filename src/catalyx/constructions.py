"""Explicit catalysis unitaries and optimal catalysts.

Every constructor returns certified objects: unitaries are verified against
the partial-transpose test and catalysts against compatibility at build time.
All constructions are deterministic (no RNG) and check their size against
the one budget, ``hilbert.MAX_BYTES``, before allocating.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import hilbert
from .catalysis import CatalysisInstance, canonical_form
from .entropy import DegeneracyVector
from .hilbert import (
    DensityOperator,
    EigenspaceDecomposition,
    StateVector,
    UnitaryOperator,
    basis_permutation,
    clock_matrix,
    controlled,
    eigenspace_decompose,
    fourier_matrix,
    kron_all,
    max_entangled,
    maximally_mixed,
    weyl_set,
)

def _as_degeneracy(r) -> DegeneracyVector:
    return r if isinstance(r, DegeneracyVector) else DegeneracyVector(r)


# ---------------------------------------------------------------------------
# degeneracy-vector dephasing


def degeneracy_decomposition(r) -> EigenspaceDecomposition:
    """Eigenspace data of the entropy-optimal catalyst for multiplicities r:
    eigenvalue r_i/||r||^2 on a contiguous block of size r_i (blocks reported
    in descending eigenvalue order)."""
    r = _as_degeneracy(r)
    eye = np.eye(sum(r.r))
    starts = np.cumsum((0,) + r.r[:-1])
    blocks = sorted(zip(r.r, starts), key=lambda b: -b[0])
    return EigenspaceDecomposition(
        [ri / r.norm2sq for ri, _ in blocks], [eye[:, s : s + ri] for ri, s in blocks]
    )


def conserved_optimal_catalyst(r) -> DensityOperator:
    """Catalyst maximizing every degeneracy-aware Renyi entropy under the
    multiplicity constraint: eigenvalue r_i/||r||^2 per block, giving
    2 log2 ||r||_2 for all alpha."""
    r = _as_degeneracy(r)
    dim = sum(r.r)
    hilbert.check_size(dim**2, f"conserved-optimal catalyst at dimension {dim}")
    diag = np.concatenate([np.full(ri, ri / r.norm2sq) for ri in r.r])
    return DensityOperator(np.diag(diag.astype(complex)), [len(diag)])


def dephasing_catalysis(r) -> CatalysisInstance:
    """Exact computational-basis dephasing on dimension ||r||^2 driven by a
    catalyst with degeneracy vector r.

    Block m couples clock powers Z^(S_m + i r_m + j) (S_m the cumulative
    square, i in [0, r_m), j in [1, r_m]) to the dyad |m_i><m_j| with the
    coefficient w^(i j), w a primitive r_m-th root of unity.  The i-range is
    chosen so the exponents of block m tile S_m + {1..r_m^2}; together the
    blocks cover every clock power exactly once, which is what makes the
    induced channel the exact dephasing map.
    """
    r = _as_degeneracy(r)
    big_d = r.norm2sq
    b_dim = sum(r.r)
    total = big_d * b_dim
    hilbert.check_size(total**2, f"dephasing construction at total dimension {total}")
    z = clock_matrix(big_d)
    zdiag = [np.diagonal(np.linalg.matrix_power(z, k)) for k in range(big_d)]
    # every term is diagonal on the system, so U = sum_p |p><p| ⊗ M_p with
    # M_p[m_i, m_j] the coefficient times the p-th entry of the clock power
    blocks = np.zeros((big_d, b_dim, b_dim), dtype=complex)
    s_m = 0
    offset = 0
    for rm in r.r:
        omega = np.exp(2j * np.pi / rm)
        for i in range(rm):
            for j in range(1, rm + 1):
                blocks[:, offset + i, offset + j - 1] = (
                    omega ** (i * j) / np.sqrt(rm)
                ) * zdiag[(s_m + i * rm + j) % big_d]
        s_m += rm * rm
        offset += rm
    sigma = conserved_optimal_catalyst(r)
    u = controlled(blocks, control_first=True)
    return canonical_form(UnitaryOperator(u, [big_d, b_dim]), sigma)


# ---------------------------------------------------------------------------
# maximal-extraction construction


class MaxExtractionResult(NamedTuple):
    instance: CatalysisInstance
    input_state: StateVector  # maximally entangled on (A1 A2) x (E1 E2)
    register_dim: int         # R = lcm of the squared multiplicities


def max_extraction_catalysis(sigma: DensityOperator) -> MaxExtractionResult:
    """Catalysis that extracts the full degeneracy-aware entropy of ``sigma``
    when fed the returned maximally entangled input.

    The system splits into an n-dimensional block label and an R-dimensional
    register (R the lcm of the squared multiplicities).  Block i applies the
    i-th clock power on the label, one of r_i^2 register projectors, and the
    matching discrete displacement on the i-th eigenspace of the catalyst.
    The output spectrum is {lambda_i / r_i}, each with multiplicity r_i^2.
    """
    dec = eigenspace_decompose(sigma)
    n = len(dec.eigenvalues)
    big_r = math.lcm(*[m * m for m in dec.multiplicities])
    db = sigma.dim
    total = n * big_r * db
    hilbert.check_size(
        total**2, f"maximal-extraction construction at total dimension {total}"
    )
    zn = clock_matrix(n)
    # every term is diagonal on label ⊗ register, so U has one catalyst block
    # per (label, register) basis state; adding the terms in (i, j) order
    # fixes the rounding of each block
    blocks = np.zeros((n, big_r, db, db), dtype=complex)
    for i, (ri, basis) in enumerate(zip(dec.multiplicities, dec.bases)):
        v_i = np.diagonal(np.linalg.matrix_power(zn, i + 1))
        block = big_r // (ri * ri)
        for j, w in enumerate(weyl_set(ri)):
            w_emb = basis @ w @ basis.conj().T
            blocks[:, j * block : (j + 1) * block] += v_i[:, None, None, None] * w_emb
    # act as the identity on the catalyst's kernel so u is unitary even for
    # rank-deficient catalysts
    kernel = np.eye(db) - sum(b @ b.conj().T for b in dec.bases)
    if np.linalg.norm(kernel) > 1e-12:
        blocks += kernel
    u = controlled(blocks.reshape(n * big_r, db, db), control_first=True)
    inst = canonical_form(UnitaryOperator(u, [n, big_r, db]), sigma, a_count=2)
    psi = StateVector(max_entangled(n * big_r), [n, big_r, n, big_r])
    return MaxExtractionResult(instance=inst, input_state=psi, register_dim=big_r)


# ---------------------------------------------------------------------------
# initialization with correlated intermediates


class GeneralizedCatalysis(NamedTuple):
    """A unitary acting on a fresh input plus an already-correlated
    intermediate, preserving the far-side marginal."""

    unitary: UnitaryOperator
    intermediate: DensityOperator
    n_a2: int  # subsystems of the intermediate on the near side


def initialization_classical(d: int) -> GeneralizedCatalysis:
    """Initialization of a d-level system (d odd) using a maximally correlated
    classical intermediate: the permutation
    (a, b, c) -> (c - b, c + k, k),  k = (a - b) / 2  (mod d),
    which sends every input to |0>, keeps the memory-catalyst mutual
    information at log2 d and returns the catalyst marginal exactly."""
    if d < 3 or d % 2 == 0:
        raise ValueError("initialization with a classical intermediate needs odd d >= 3")
    hilbert.check_size((d**3) ** 2, f"classical initialization at total dimension {d**3}")
    inv2 = pow(2, -1, d)

    def image(a, b, c):
        k = (a - b) * inv2  # every digit is taken mod d
        return c - b, c + k, k

    return GeneralizedCatalysis(
        unitary=UnitaryOperator(basis_permutation([d, d, d], image), [d, d, d]),
        intermediate=DensityOperator(np.diag(np.eye(d).reshape(-1)) / d, [d, d]),
        n_a2=1,
    )


def initialization_masking(m: int) -> GeneralizedCatalysis:
    """Initialization of an m^2-level system using two m-level maximally mixed
    registers and an m-level entangled pair.

    Registers: input halves (Aa, Ab), near-side randomness A1, near half A2 of
    the pair, far half B2, far randomness B1.  The input is swapped into
    (A2, B2), B2 is refreshed by swapping with A1, and A2 is masked by a shift
    twirl controlled on B1.  The far-side marginal (B2, B1) returns to
    maximally mixed exactly and the input register ends in the fixed pure
    entangled state, for every input and every m >= 2.
    """
    if m < 2:
        raise ValueError("masking initialization needs m >= 2")
    hilbert.check_size((m**6) ** 2, f"masking initialization at total dimension {m**6}")
    u = basis_permutation([m] * 6, lambda a, b, p, q, s, t: (q, s, b, a + t, p, t))
    pair = max_entangled(m)
    pair_rho = np.outer(pair, pair.conj())
    # intermediate layout (A1, A2, B2, B1); the pair couples A2 and B2
    inter = kron_all([np.eye(m) / m, pair_rho, np.eye(m) / m])
    return GeneralizedCatalysis(
        unitary=UnitaryOperator(u, [m] * 6),
        intermediate=DensityOperator(inter, [m] * 4),
        n_a2=2,
    )


# ---------------------------------------------------------------------------
# double random unitary operations


def commuting_defect(u_list: Sequence[np.ndarray], v_list: Sequence[np.ndarray]):
    """Largest commutator norm and its index pair across the two families."""
    worst, pair = 0.0, (0, 0)
    for x, ux in enumerate(u_list):
        for y, vy in enumerate(v_list):
            nrm = float(np.linalg.norm(ux @ vy - vy @ ux))
            if nrm > worst:
                worst, pair = nrm, (x, y)
    return worst, pair


def double_random(
    d: int, u_list: Sequence[np.ndarray], v_list: Sequence[np.ndarray]
) -> CatalysisInstance:
    """Two consecutive uniform random unitary operations from one maximally
    mixed d-level catalyst: the first controlled on the computational basis,
    the second on the Fourier basis.  The families must commute pairwise."""
    if len(u_list) != d or len(v_list) != d:
        raise ValueError(f"need exactly {d} unitaries in each family")
    u_list = [np.asarray(u, dtype=complex) for u in u_list]
    v_list = [np.asarray(v, dtype=complex) for v in v_list]
    worst, pair = commuting_defect(u_list, v_list)
    if worst > 1e-9:
        raise ValueError(
            f"families do not commute: [U_{pair[0]}, V_{pair[1]}] has norm {worst:.3e}"
        )
    da = u_list[0].shape[0]
    hilbert.check_size(
        (da * d) ** 2, f"double-random construction at total dimension {da * d}"
    )
    stage1 = double_random_stage_one(d, u_list).matrix
    stage2 = controlled(v_list, fourier_matrix(d))
    return canonical_form(
        UnitaryOperator(stage2 @ stage1, [da, d]), maximally_mixed([d])
    )


def double_random_stage_one(d: int, u_list: Sequence[np.ndarray]) -> UnitaryOperator:
    """First stage alone (computational-basis control), for inspecting the
    intermediate marginal."""
    return UnitaryOperator(controlled(u_list), [np.shape(u_list[0])[0], d])


# ---------------------------------------------------------------------------
# shared-catalyst dephasing of a d^2-level system


def multiparty_unitary(d: int) -> UnitaryOperator:
    """Controlled displacement operators: |i><i| ⊗ W_i with {W_i} the d^2
    orthonormal unitaries X^a Z^b.  Dephases d^2-level inputs using a d-level
    maximally mixed catalyst."""
    if d < 2:
        raise ValueError("need d >= 2")
    hilbert.check_size((d**3) ** 2, f"multiparty unitary at total dimension {d**3}")
    return UnitaryOperator(controlled(weyl_set(d), control_first=True), [d * d, d])


def multiparty_instance(d: int) -> CatalysisInstance:
    return canonical_form(multiparty_unitary(d), maximally_mixed([d]))


# ---------------------------------------------------------------------------
# conservation-law catalysts


class AngularMomentumCatalyst(NamedTuple):
    sigma: DensityOperator
    s_cat: float  # log2[(l+1)(2l+1)(2l+3)/3] at l = l_max


def angular_momentum_catalyst(l_max: int) -> AngularMomentumCatalyst:
    """Optimal catalyst when superpositions across angular momentum sectors
    are forbidden: sector l (size 2l+1) weighted 3(2l+1) / ((l+1)(2l+1)(2l+3))
    per state, evaluated at l = l_max."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    r = DegeneracyVector([2 * l + 1 for l in range(l_max + 1)])
    sigma = conserved_optimal_catalyst(r)
    s_cat = float(np.log2((l_max + 1) * (2 * l_max + 1) * (2 * l_max + 3) / 3))
    return AngularMomentumCatalyst(sigma=sigma, s_cat=s_cat)


def thermal_levels(r, e_inf: float) -> list[float]:
    """Energy levels E_i = E_inf - log2 r_i; the Gibbs state at beta = ln 2
    over these levels, with degeneracy r_i, has the optimal-catalyst weights."""
    if not math.isfinite(e_inf):
        raise ValueError(f"e_inf must be finite, got {e_inf}")
    r = _as_degeneracy(r)
    return [float(e_inf - np.log2(ri)) for ri in r.r]

