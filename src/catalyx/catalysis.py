"""Certification and execution of randomness catalysis.

A bipartite unitary can drive a catalysis (return the ancilla's state exactly,
for every input) precisely when its partial transpose over the system side is
again unitary.  This module certifies that property, checks compatibility of a
given catalyst, rotates the unitary into the canonical catalyst-preserving
form, executes the induced channel, decomposes it into uniform sub-catalyses,
checks the mutual-information ledger of every transition, and builds the
correlation recovery unitary.

Certification is exact and deterministic: no input is sampled.  The catalyst
output is linear in the input, sum_xz rho_xz S[x, z] with the transfer slices
S[x, z] = Tr_A U(|x><z| ⊗ sigma)U† built in one contraction, and it is
input-independent iff S[x, z] = delta_xz ref (ref: the output at the maximally
mixed input); ``max_deviation`` = max_xz ||S[x, z] - delta_xz ref||_1.  One
pass over these slices (:func:`verify_catalysis_exhaustive`) also reads the
compatibility entropy gap S(ref) - S(sigma) and the rotation of sigma onto
ref.  The recovery check is exact too: it evolves one column per system basis
state on each side.

A certified :class:`CatalysisInstance` is immutable and may be shared across
threads.  Module-level mutable state: only the tolerances (``LEDGER_TOL``
here, the rest in :mod:`hilbert`), read at call time and rebound only by the
CLI's ``--tol-override``.  Each ledger record goes back to its caller; none is
kept here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import hilbert
from .entropy import mutual_information, von_neumann
from .hilbert import (
    DensityOperator,
    SubsystemLayout,
    UnitaryOperator,
    controlled,
    dagger,
    eigh_desc,
    evolve,
    haar_state,
    max_entangled,
    maximally_mixed,
    partial_trace,
    permute_subsystems,
    ptrace_matrix,  # unused here; bench/tests traces calls through this binding
    ptranspose_matrix,
    purify,
    trace_distance,
    unitarity_defect,
)

LEDGER_TOL = 1e-8
COMPAT_ENTROPY_TOL = 1e-8  # bits


class CertificationError(Exception):
    """A unitary/catalyst pair failed one of the catalysis checks."""


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class CatalysisVerdict:
    verdict: bool
    defect: float

    def require(self) -> CatalysisVerdict:
        """This verdict, if the partial transpose is unitary; raises
        :class:`CertificationError` otherwise."""
        if not self.verdict:
            raise CertificationError(
                f"not a catalysis unitary: partial-transpose defect {self.defect:.3e}"
            )
        return self


def is_catalysis_unitary(u: UnitaryOperator, cut: Sequence[int] = (0,)) -> CatalysisVerdict:
    """Test whether the partial transpose of ``u`` over the subsystems in
    ``cut`` is unitary; the defect is the Frobenius norm of (U^T)†U^T - 1."""
    cut = u.layout.check_indices(cut)
    if not cut:
        raise ValueError("cut must name at least one subsystem to transpose")
    if len(cut) >= len(u.layout.dims):
        raise ValueError("cut must leave at least one subsystem untransposed")
    pt = ptranspose_matrix(u.matrix, u.layout.dims, cut)
    defect = unitarity_defect(pt)
    return CatalysisVerdict(verdict=defect <= hilbert.TOL_UNITARY, defect=defect)


def party_swap(u: UnitaryOperator, a_count: int) -> UnitaryOperator:
    """Exchange the roles of the two parties: returns the same interaction
    with layout B + A (equals F U F when the two sides have equal dims)."""
    n = len(u.layout.dims)
    perm = list(range(a_count, n)) + list(range(a_count))
    m = permute_subsystems(u.matrix, u.layout.dims, perm)
    return UnitaryOperator(m, [u.layout.dims[p] for p in perm])


# ---------------------------------------------------------------------------
# the catalyst checks: one pass over the transfer tensor


def system_dim(u: UnitaryOperator, sigma: DensityOperator, a_count: int) -> int:
    """Dimension of the system side of ``u``, its leading ``a_count``
    subsystems; raises ValueError unless that split is proper and ``sigma``
    fits the rest."""
    dims = u.layout.dims
    if not 1 <= a_count < len(dims):
        raise ValueError(f"a_count {a_count} invalid for layout {dims}")
    if sigma.dim != int(np.prod(dims[a_count:])):
        raise ValueError("catalyst dimension does not match the B side of u")
    return int(np.prod(dims[:a_count]))


def _transfer_slices(u: np.ndarray, sigma: np.ndarray, da: int, db: int) -> np.ndarray:
    """Transfer tensor S[x, z] = Tr_A U(|x><z| ⊗ sigma)U† as a (da, da, db, db)
    stack, in one contraction; the catalyst output for input rho is
    sum_xz rho_xz S[x, z]."""
    d = da * db
    ut = u.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(d, d)  # [(x, b), (a, y)]
    left = (ut.reshape(d * da, db) @ sigma).reshape(d, d)  # [(x, b), (a, w)]
    return (left @ ut.conj().T).reshape(da, db, da, db).transpose(0, 2, 1, 3)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    uu, _, vv = np.linalg.svd(m)
    return uu @ vv


def _matching_unitary(sigma_m: np.ndarray, xi_m: np.ndarray) -> np.ndarray:
    """Unitary V with V sigma V† = xi, built by matching eigenspaces of equal
    eigenvalue (the full spectrum, zeros included) and fixing each block by the
    polar factor closest to identity."""
    sv, svec = eigh_desc(sigma_m)
    xv, xvec = eigh_desc(xi_m)
    if np.max(np.abs(sv - xv)) > 1e-7:
        raise CertificationError(
            "output spectrum differs from the catalyst spectrum; no canonicalizing V"
        )
    v = np.zeros_like(sigma_m)
    for g in hilbert.group_spectrum(sv):
        b = svec[:, g]
        c = xvec[:, g]
        q = _polar_unitary(dagger(c) @ b)
        v += c @ q @ dagger(b)
    return v


@dataclass(frozen=True)
class ExhaustiveReport:
    max_deviation: float
    entropy_gap: float  # S(output) - S(sigma) in bits
    implied_v: UnitaryOperator | None  # None when the spectra cannot be matched
    output: np.ndarray  # catalyst output, the same for every input when certified

    @property
    def compatible(self) -> bool:
        """The catalyst keeps its entropy at the maximally mixed input."""
        return abs(self.entropy_gap) <= COMPAT_ENTROPY_TOL


def verify_catalysis_exhaustive(
    u: UnitaryOperator,
    sigma: DensityOperator,
    a_count: int = 1,
) -> ExhaustiveReport:
    """Every check on the catalyst, from one transfer tensor.  The B-side
    output does not depend on the input iff ``max_deviation`` =
    max_xz ||S[x, z] - delta_xz ref||_1 over the transfer slices is zero, ref
    the maximally-mixed-input output; for any input the trace distance of its
    output from ref is at most da/2 times it.  The catalyst is compatible iff
    ref has its entropy (``entropy_gap``).  Also returns ref and the unitary
    mapping the catalyst onto it.  Whether ``u`` is a catalysis unitary at
    all is :func:`is_catalysis_unitary`'s question."""
    da = system_dim(u, sigma, a_count)
    s = _transfer_slices(u.matrix, sigma.matrix, da, sigma.dim)
    ref = np.trace(s) / da
    dev = s - np.eye(da)[:, :, None, None] * ref
    max_dev = float(np.linalg.svd(dev, compute_uv=False).sum(axis=-1).max())
    gap = von_neumann(DensityOperator(ref, sigma.layout)) - von_neumann(sigma)
    try:
        v = UnitaryOperator(_matching_unitary(sigma.matrix, ref), u.layout.dims[a_count:])
    except CertificationError:
        v = None
    return ExhaustiveReport(max_deviation=max_dev, entropy_gap=gap, implied_v=v, output=ref)


# ---------------------------------------------------------------------------
# certified instances


@dataclass(frozen=True)
class CatalysisInstance:
    """A certified pair (U, sigma) with its canonicalizing rotation V on the
    catalyst side: (1 ⊗ V†) U preserves sigma exactly."""

    unitary: UnitaryOperator
    sigma: DensityOperator
    a_count: int
    canonical_v: UnitaryOperator
    defect: float
    entropy_gap: float
    max_deviation: float
    seed: int
    classical: bool = False
    decomposition: tuple = ()

    @property
    def a_dims(self) -> tuple[int, ...]:
        return self.unitary.layout.dims[: self.a_count]

    @property
    def b_dims(self) -> tuple[int, ...]:
        return self.unitary.layout.dims[self.a_count :]

    @property
    def a_dim(self) -> int:
        return int(np.prod(self.a_dims))

    @property
    def b_dim(self) -> int:
        return int(np.prod(self.b_dims))

    def canonical_unitary(self) -> UnitaryOperator:
        """(1 ⊗ V†) U, with V† applied to the catalyst rows of U in one GEMM."""
        vdag = dagger(self.canonical_v.matrix)
        m = evolve(vdag, self.unitary.matrix, [self.a_dim, self.b_dim], [1])
        return UnitaryOperator(m, self.unitary.layout)

    def to_bundle(self, unitary_file: str, sigma_file: str, timestamp: str = "") -> dict:
        return {
            "unitary_file": unitary_file,
            "sigma_file": sigma_file,
            "layout": {"a_dims": list(self.a_dims), "b_dims": list(self.b_dims)},
            "certification": {
                "defect": self.defect,
                "entropy_gap": self.entropy_gap,
                "max_deviation": self.max_deviation,
                "timestamp": timestamp,
                "seed": self.seed,
            },
        }


def canonical_form(
    u: UnitaryOperator,
    sigma: DensityOperator,
    a_count: int = 1,
    seed: int = 7,
    classical: bool = False,
) -> CatalysisInstance:
    """Certify (u, sigma) exactly and return the instance carrying the rotation
    V that makes the catalyst exactly preserved; ``seed`` is only recorded."""
    tv = is_catalysis_unitary(u, cut=range(a_count)).require()
    rep = verify_catalysis_exhaustive(u, sigma, a_count=a_count)
    if not rep.compatible:
        raise CertificationError(
            f"catalyst incompatible: entropy gap {rep.entropy_gap:.3e} bits"
        )
    if rep.max_deviation > hilbert.TOL_STATE:
        raise CertificationError(
            f"output depends on the input: max deviation {rep.max_deviation:.3e}"
        )
    if rep.implied_v is None:
        raise CertificationError("output spectrum does not match the catalyst")
    # postcondition: the canonical unitary preserves sigma itself
    v = rep.implied_v.matrix
    if trace_distance(dagger(v) @ rep.output @ v, sigma.matrix) > hilbert.TOL_STATE:
        raise CertificationError("canonical form failed to preserve the catalyst")
    return CatalysisInstance(
        unitary=u, sigma=sigma, a_count=a_count, canonical_v=rep.implied_v,
        defect=tv.defect, entropy_gap=rep.entropy_gap,
        max_deviation=rep.max_deviation, seed=seed, classical=classical,
    )


def implement_channel(inst: CatalysisInstance, rho: DensityOperator) -> DensityOperator:
    """Apply the induced channel: Tr_B U (rho ⊗ sigma) U†."""
    if rho.dim != inst.a_dim:
        raise ValueError(f"input dimension {rho.dim} != system dimension {inst.a_dim}")
    x = evolve(inst.unitary.matrix, np.kron(rho.factor(), inst.sigma.factor()))
    # rows (a, b) of the evolved factor regrouped as (a, (b, k)): Tr_B's factor
    return DensityOperator.from_factor(x.reshape(inst.a_dim, -1), rho.layout)


# ---------------------------------------------------------------------------
# Kraus form


def _choi_vectors(ops: np.ndarray) -> np.ndarray:
    """Rows sum_i |i> ⊗ K|i> of a Kraus stack; the Choi matrix is rows.T @ rows.conj()."""
    return ops.transpose(0, 2, 1).reshape(len(ops), -1)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by its Kraus operators,
    stored as one read-only (n, d_out, d_in) array."""

    kraus: np.ndarray

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops or ops[0].ndim != 2 or any(k.shape != ops[0].shape for k in ops):
            raise ValueError(
                "Kraus operators must form a non-empty (n, d_out, d_in) stack of "
                "equal-shape matrices"
            )
        ops = np.array(ops)
        comp = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
        if np.linalg.norm(comp - np.eye(ops.shape[2])) > 1e-7:
            raise ValueError("Kraus operators do not satisfy completeness")
        object.__setattr__(self, "kraus", hilbert._freeze(ops))
        # the GEMM operands Vᵀ and conj(V) of the isometry V = sum_i K_i ⊗ |i>
        v_t = hilbert._freeze(ops.transpose(2, 1, 0).reshape(ops.shape[2], -1))
        object.__setattr__(self, "_isometry_t", v_t)
        object.__setattr__(self, "_isometry_conj", hilbert._freeze(dagger(v_t)))

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Phi(rho) = sum_i K_i rho K_i† of an operator rho."""
        return (self.kraus @ rho @ self.kraus.conj().transpose(0, 2, 1)).sum(axis=0)

    def stinespring(self, x: np.ndarray, ref: int = 1) -> np.ndarray:
        """Y = [(1_ref ⊗ K_i) X]: the columns (j, i), i fastest, hold
        (1_ref ⊗ K_i) applied to column j of a factor X (ref·d_in × r), in one
        GEMM against the Stinespring isometry.  YY† = (1_ref ⊗ Phi)(XX†), and
        Y regrouped as (ref·d_out·r, n) has the Gram matrix Phi_c(XX†)ᵀ of the
        complementary channel, G_ij = Tr[K_i XX† K_j†]."""
        n, d_out, d_in = self.kraus.shape
        r = x.shape[1]
        rows = x.reshape(ref, d_in, r).transpose(0, 2, 1).reshape(ref * r, d_in)
        y = (rows @ self._isometry_t).reshape(ref, r, d_out, n)
        return y.transpose(0, 2, 1, 3).reshape(ref * d_out, r * n)

    def stinespring_adjoint(self, z: np.ndarray, ref: int = 1) -> np.ndarray:
        """sum_i (1_ref ⊗ K_i†) Z_i for Z shaped as :meth:`stinespring`'s
        output, Z_i its columns (j, i) over j: the adjoint of that map."""
        n, d_out, d_in = self.kraus.shape
        r = z.shape[1] // n
        rows = z.reshape(ref, d_out, r, n).transpose(0, 2, 1, 3).reshape(ref * r, d_out * n)
        x = (rows @ self._isometry_conj).reshape(ref, r, d_in)
        return x.transpose(0, 2, 1).reshape(ref * d_in, r)

    def choi(self) -> np.ndarray:
        """J = sum_ij |i><j| ⊗ Phi(|i><j|), reference factor first."""
        vecs = _choi_vectors(self.kraus)
        return vecs.T @ vecs.conj()


def channel_from_unitary(u: np.ndarray) -> KrausChannel:
    return KrausChannel([u])


def _check_kraus_stack(name: str, n: int, d: int) -> None:
    hilbert.check_size(n * d * d, f"{name} channel with {n} Kraus operators of {d}×{d}")


def identity_channel(d: int) -> KrausChannel:
    _check_kraus_stack("identity", 1, d)
    return KrausChannel([np.eye(d)])


def dephasing_channel(d: int) -> KrausChannel:
    """Kill all off-diagonal elements in the computational basis."""
    _check_kraus_stack("dephasing", d, d)
    return KrausChannel([np.diag(e) for e in np.eye(d)])


def erasure_channel(d: int) -> KrausChannel:
    """Unital erasure rho -> 1/d, with Kraus operators |i><j| / sqrt(d)."""
    _check_kraus_stack("erasure", d * d, d)
    return KrausChannel(np.eye(d * d).reshape(d * d, d, d) / np.sqrt(d))


def weyl_twirl_channel(d: int) -> KrausChannel:
    """Uniform mixture of all d^2 discrete displacement unitaries; completely
    depolarizing."""
    _check_kraus_stack("Weyl-twirl", d * d, d)
    return KrausChannel([w / d for w in hilbert.weyl_set(d)])


def initialization_channel(d: int) -> KrausChannel:
    """Send every input to |0><0|."""
    _check_kraus_stack("initialization", d, d)
    return KrausChannel([np.outer(np.eye(d)[0], e) for e in np.eye(d)])


def werner_holevo_channel(d: int) -> KrausChannel:
    """rho -> (Tr rho - rho^T) / (d - 1), with Kraus operators
    (|i><j| - |j><i|) / sqrt(d - 1) for i < j.  Unital; at d = 3 it is not
    catalytic (``kraus_products_rank``), at d = 2 it is a unitary conjugation."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    _check_kraus_stack("Werner–Holevo", d * (d - 1) // 2, d)
    e = np.eye(d)
    return KrausChannel([(np.outer(e[i], e[j]) - np.outer(e[j], e[i])) / np.sqrt(d - 1)
                         for i in range(d) for j in range(i + 1, d)])


def kraus_products_rank(chan: KrausChannel) -> tuple[int, int]:
    """(dimension of span{K_i† K_j}, Kraus rank k); any Kraus form gives the
    same pair.  A factorizable channel whose K_i† K_j are linearly independent
    is a unitary conjugation (Haagerup–Musat, Commun. Math. Phys. 303, 2011),
    and every catalytic channel is factorizable; so a full span of k² with
    k > 1 proves the channel is not catalytic.  A smaller span decides nothing."""
    ops = chan.kraus
    n = len(ops)
    products = np.einsum("iba,jbc->ijac", ops.conj(), ops).reshape(n * n, -1)
    return (int(np.linalg.matrix_rank(products)),
            int(np.linalg.matrix_rank(ops.reshape(n, -1))))


def random_channel(d: int, kraus_rank: int, seed) -> KrausChannel:
    """Haar-random Stinespring isometry cut into Kraus blocks."""
    big = d * kraus_rank
    hilbert.check_size(big**2, f"random channel from a Haar unitary of {big}×{big}")
    v = hilbert.haar_unitary_matrix(big, seed)[:, :d]
    return KrausChannel(v.reshape(kraus_rank, d, d))


def channel_to_kraus(inst: CatalysisInstance) -> KrausChannel:
    """Minimal Kraus form of the induced channel.

    With σ = Σ_k χ_k χ_k† (the columns χ_k of ``inst.sigma.factor()``, kept on
    the state), the operators <b|U|χ_k> are a Kraus form; stack their Choi
    vectors as the rows of R, so the Choi matrix is R^T R̄.  One ``eigh`` of
    the smaller of RR† and R†R (:func:`hilbert.smaller_gram`) gives the
    minimal form, with one operator per eigenvalue λ > ``hilbert.TOL_PSD``:
    the Choi vector u†R for an eigenvector u of RR†, or √λ v† for an
    eigenvector v of R†R.  Neither divides by anything."""
    da, db = inst.a_dim, inst.b_dim
    chis = inst.sigma.factor()
    d = da * db
    # R[(k, b), (c, a)] = <a, b|U|c, χ_k>: Choi vectors are (in, out)
    raw = (inst.unitary.matrix.reshape(d * da, db) @ chis).reshape(da, db, da, -1)
    r = raw.transpose(3, 1, 2, 0).reshape(-1, da * da)
    gram, inner = hilbert.smaller_gram(r)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > hilbert.TOL_PSD
    if inner:
        choi = np.sqrt(vals[keep])[:, None] * dagger(vecs[:, keep])
    else:
        choi = dagger(vecs[:, keep]) @ r
    return KrausChannel(choi.reshape(-1, da, da).transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# sub-catalysis decomposition


def decompose_subcatalyses(
    inst: CatalysisInstance,
    bases: Sequence[np.ndarray] | None = None,
) -> tuple[tuple[float, CatalysisInstance], ...]:
    """Split a catalysis along orthonormal bases of the catalyst's eigenspaces
    (or of a finer orthogonal family), each a (d, r) matrix, into
    sub-catalyses with uniform catalysts.

    Each block of the canonical unitary must commute with 1 ⊗ V V†; the blocks
    are unitary on their supports and the weights lambda_i r_i sum to one.
    Neither 1 ⊗ V V† nor the isometry 1 ⊗ V is built: V V† acts on the
    catalyst index of the rows and of the columns, and the restriction
    V† U_c V contracts both catalyst indices with V.
    """
    uc = inst.canonical_unitary().matrix
    da, db = inst.a_dim, inst.b_dim
    d = da * db
    by_col_b = uc.reshape(d * da, db)  # rows (a, b, a'), columns b'
    sig = inst.sigma.matrix
    if bases is None:
        bases = hilbert.eigenspace_decompose(inst.sigma).bases
    out = []
    for idx, basis in enumerate(bases):
        basis = np.asarray(basis, dtype=complex)
        pi = basis @ dagger(basis)
        right = (by_col_b @ pi).reshape(d, d)  # U_c (1 ⊗ Π)
        left = evolve(pi, uc, [da, db], [1])   # (1 ⊗ Π) U_c
        if np.linalg.norm(right - left) > 1e-7:
            raise CertificationError(
                f"unitary does not commute with catalyst eigenspace {idx}; "
                "the pair is not a compatible catalysis at this refinement"
            )
        weight = float(np.trace(pi @ sig).real)
        r = basis.shape[1]
        # rows (a, b), columns (a', j) -> rows (a, i), columns (a', j)
        cols = (by_col_b @ basis).reshape(da, db, da * r)
        sub_u = (dagger(basis) @ cols).reshape(da * r, da * r)
        try:
            sub_u = UnitaryOperator(sub_u, list(inst.a_dims) + [r])
        except ValueError as exc:
            raise CertificationError(f"restricted block {idx}: {exc}") from exc
        sub = canonical_form(
            sub_u,
            maximally_mixed([r]),
            a_count=inst.a_count,
            seed=inst.seed + idx + 1,
            classical=inst.classical,
        )
        out.append((weight, sub))
    total = sum(w for w, _ in out)
    if abs(total - 1.0) > 1e-7:
        raise CertificationError(f"sub-catalysis weights sum to {total}, not 1")
    return tuple(out)


def classical_catalysis(
    probs: Sequence[float], unitaries: Sequence[np.ndarray], seed: int = 11
) -> CatalysisInstance:
    """Random unitary operation as a catalysis: U = sum_x U_x ⊗ |x><x| with the
    diagonal catalyst diag(p)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size != len(unitaries):
        raise ValueError("need one unitary per probability")
    if abs(p.sum() - 1.0) > 1e-9 or p.min() < 0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    da = np.shape(unitaries[0])[0]
    db = p.size
    sigma = DensityOperator(np.diag(p.astype(complex)), [db])
    u = UnitaryOperator(controlled(unitaries), [da, db])
    inst = canonical_form(u, sigma, seed=seed, classical=True)
    # the natural refinement: every catalyst basis state is preserved alone
    dec = decompose_subcatalyses(inst, bases=np.split(np.eye(db), db, axis=1))
    return replace(inst, decomposition=dec)


# ---------------------------------------------------------------------------
# the mutual-information ledger


@dataclass(frozen=True)
class LedgerRecord:
    """Before/after mutual information with the catalyst and the entropies of
    the system-side transition; the residual checks the balance identity
    I_after - I_before = S_out - S_in."""

    i_before: float
    i_after: float
    s_in: float
    s_out: float
    residual: float

    @property
    def delta_i(self) -> float:
        return self.i_after - self.i_before

    def to_json_dict(self) -> dict:
        return {
            "I_before": self.i_before,
            "I_after": self.i_after,
            "S_in": self.s_in,
            "S_out": self.s_out,
            "residual": self.residual,
        }


def ledger(
    u: UnitaryOperator,
    rho: DensityOperator,
    intermediate: DensityOperator,
    n_a2: int,
    on: Sequence[int] | None = None,
) -> tuple[LedgerRecord, DensityOperator]:
    """Execute one catalytic transition, record its information balance and
    return the record with the evolved state τ.

    The transition acts on ρ's factors followed by the intermediate's: A1 is
    exactly ρ's factors (the fresh input), the first ``n_a2`` factors of the
    intermediate (A2) carry the stored correlations with the catalyst, and
    the rest (B) is the catalyst itself, whose marginal must come back
    unchanged.  τ has this layout.  Without ``on``, ``u`` acts on the whole
    space; with ``on``, only on those factors (in that order), so the
    embedded operator is never built and any other factor, a reference for
    instance, rides along untouched.

    The transition evolves the factor X_ρ ⊗ X_int (see
    :meth:`DensityOperator.factor`) in one GEMM, and τ comes back held as
    the evolved factor, so no D×D matrix is formed.  Each spectrum, of τ,
    τ_A1A2 and τ_B, comes once from the smaller side of its cut; S(τ) is read
    from the evolved factor's Gram matrix, so the residual checks the
    evolution.  τ comes back validated, spectrum and marginals included, for
    the next transition, whose σ_A2 and σ_B are then read from it.
    """
    dims = rho.layout.dims + intermediate.layout.dims
    if on is not None:
        on = SubsystemLayout(dims).check_indices(on)
        if u.layout.dims != tuple(dims[i] for i in on):
            raise ValueError(
                f"unitary layout {u.layout.dims} does not match dimensions "
                f"{[dims[i] for i in on]} at {list(on)}"
            )
    int_dims = intermediate.layout.dims
    if not 0 <= n_a2 < len(int_dims):
        raise ValueError(
            f"invalid split n_a2={n_a2} of the intermediate's {len(int_dims)} "
            "subsystems: B must hold at least one"
        )
    n_a = len(rho.layout) + n_a2
    b = list(range(n_a, len(dims)))
    b_int = list(range(n_a2, len(int_dims)))

    x = evolve(u.matrix, np.kron(rho.factor(), intermediate.factor()), dims, on)
    tau = DensityOperator.from_factor(x, dims)
    deviation = trace_distance(partial_trace(tau, b), partial_trace(intermediate, b_int))
    if deviation > hilbert.TOL_STATE:
        raise CertificationError(
            "catalyst altered: the transition is not a catalysis "
            f"(deviation {deviation:.3e})"
        )

    s_in = von_neumann(rho)
    i_before = 0.0
    if n_a2:
        s_in += von_neumann(partial_trace(intermediate, range(n_a2)))
        i_before = mutual_information(intermediate, range(n_a2), b_int)
    s_out = von_neumann(partial_trace(tau, range(n_a)))
    i_after = mutual_information(tau, range(n_a), b)

    residual = abs((i_after - i_before) - (s_out - s_in))
    if residual > LEDGER_TOL:
        raise CertificationError(
            f"information balance violated: residual {residual:.3e} > {LEDGER_TOL:.1e}"
        )
    rec = LedgerRecord(i_before=i_before, i_after=i_after, s_in=s_in, s_out=s_out,
                       residual=residual)
    return rec, tau


def ledger_for_instance(inst: CatalysisInstance, rho: DensityOperator) -> LedgerRecord:
    """Ledger of a fresh-catalyst use of a certified instance."""
    return ledger(inst.canonical_unitary(), rho, inst.sigma, 0)[0]


# ---------------------------------------------------------------------------
# entropy cost bound


@dataclass(frozen=True)
class CostBoundReport:
    lhs: float
    rhs: float
    ok: bool


def cost_bound_check(
    inst: CatalysisInstance, n_samples: int = 16, seed: int = 3
) -> CostBoundReport:
    """The catalyst entropy must dominate half the maximal global entropy
    variance of the induced channel (the full variance for a classical
    catalyst)."""
    chan = channel_to_kraus(inst)
    da = inst.a_dim
    rng = hilbert._rng(seed)
    # candidates on reference ⊗ system as factors: |Γ>, 1/da² and Haar states
    candidates = [max_entangled(da)[:, None], np.eye(da * da) / da]
    for _ in range(n_samples):
        candidates.append(haar_state(da * da, rng).amplitudes[:, None])
    best = 0.0
    for x in candidates:
        out = chan.stinespring(x, da)
        prod = abs(von_neumann(hilbert.factor_spectrum(out))
                   - von_neumann(hilbert.factor_spectrum(x)))
        best = max(best, prod)
    factor = 1.0 if inst.classical else 0.5
    lhs = von_neumann(inst.sigma)
    rhs = factor * best
    return CostBoundReport(lhs=lhs, rhs=rhs, ok=lhs >= rhs - 1e-7)


# ---------------------------------------------------------------------------
# correlation recovery


def recovery_unitary(inst: CatalysisInstance) -> UnitaryOperator:
    """Partial transpose of the canonical unitary over the catalyst side,
    acting on system ⊗ purifier: it reproduces the catalysis evolution on
    A ⊗ C, so hidden correlations can always be undone from the purifier."""
    if np.count_nonzero(inst.sigma.eigenvalues() > hilbert.TOL_PSD) < inst.b_dim:
        raise CertificationError(
            "recovery requires a full-support catalyst (purifier padding by "
            "zero eigenvalues is rejected)"
        )
    uc = inst.canonical_unitary()
    b_cut = range(inst.a_count, len(uc.layout.dims))
    m = ptranspose_matrix(uc.matrix, uc.layout.dims, b_cut)
    return UnitaryOperator(m, uc.layout.dims)


def recovery_defect(inst: CatalysisInstance) -> float:
    """Exact recovery check.  The d_A columns |x> ⊗ psi_sigma (psi_sigma the
    purification of the catalyst on B ⊗ C) are evolved once by U on A ⊗ B
    (L) and once by the recovery unitary on A ⊗ C (R).  Returns the operator
    norm ||R - e^{i phi} L||_2 at the phase of Tr L†R (1 when it vanishes):
    it bounds the output trace distance of every input, entangled ones
    included, and is zero exactly when recovery holds."""
    rec = recovery_unitary(inst)
    uc = inst.canonical_unitary()
    da, db = inst.a_dim, inst.b_dim
    cols = np.kron(np.eye(da), purify(inst.sigma).amplitudes[:, None])
    full_dims = [da, db, db]  # A, B, C
    lhs = evolve(uc.matrix, cols, full_dims, [0, 1])
    rhs = evolve(rec.matrix, cols, full_dims, [0, 2])
    overlap = np.vdot(lhs, rhs)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(rhs - phase * lhs, 2))
