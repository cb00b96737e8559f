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
mixed input); ``max_deviation`` = max_xz ||S[x, z] - delta_xz ref||_1.

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
    StateVector,
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
    ptrace_matrix,
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


@dataclass(frozen=True)
class CompatibilityVerdict:
    verdict: bool
    entropy_gap: float


def _require_catalysis_unitary(u: UnitaryOperator, a_count: int) -> CatalysisVerdict:
    tv = is_catalysis_unitary(u, cut=range(a_count))
    if not tv.verdict:
        raise CertificationError(
            f"not a catalysis unitary: partial-transpose defect {tv.defect:.3e}"
        )
    return tv


def _transfer_slices(u: np.ndarray, sigma: np.ndarray, da: int, db: int) -> np.ndarray:
    """Transfer tensor S[x, z] = Tr_A U(|x><z| ⊗ sigma)U† as a (da, da, db, db)
    stack, in one contraction; the catalyst output for input rho is
    sum_xz rho_xz S[x, z]."""
    d = da * db
    ut = u.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(d, d)  # [(x, b), (a, y)]
    left = (ut.reshape(d * da, db) @ sigma).reshape(d, d)  # [(x, b), (a, w)]
    return (left @ ut.conj().T).reshape(da, db, da, db).transpose(0, 2, 1, 3)


def _transfer(
    u: UnitaryOperator, sigma: DensityOperator, a_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer slices of (u, sigma) and their diagonal mean, the catalyst
    output at the maximally mixed input."""
    dims = u.layout.dims
    if not 1 <= a_count < len(dims):
        raise ValueError(f"a_count {a_count} invalid for layout {dims}")
    if sigma.dim != int(np.prod(dims[a_count:])):
        raise ValueError("catalyst dimension does not match the B side of u")
    da = int(np.prod(dims[:a_count]))
    s = _transfer_slices(u.matrix, sigma.matrix, da, sigma.dim)
    return s, np.trace(s) / da


def _compatibility(out: np.ndarray, sigma: DensityOperator) -> CompatibilityVerdict:
    gap = von_neumann(DensityOperator(out, sigma.layout)) - von_neumann(sigma)
    return CompatibilityVerdict(verdict=abs(gap) <= COMPAT_ENTROPY_TOL, entropy_gap=gap)


def check_compatibility(
    u: UnitaryOperator, sigma: DensityOperator, a_count: int = 1
) -> CompatibilityVerdict:
    """A catalyst is compatible with a catalysis unitary iff its entropy is
    preserved for the maximally mixed input.  Raises if ``u`` is not a
    catalysis unitary to begin with."""
    _, out = _transfer(u, sigma, a_count)
    _require_catalysis_unitary(u, a_count)
    return _compatibility(out, sigma)


# ---------------------------------------------------------------------------
# exact verification and the canonicalizing rotation


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
    implied_v: UnitaryOperator | None  # None when the spectra cannot be matched
    output: np.ndarray  # catalyst output, the same for every input when certified


def verify_catalysis_exhaustive(
    u: UnitaryOperator,
    sigma: DensityOperator,
    a_count: int = 1,
) -> ExhaustiveReport:
    """Exact check that the B-side output does not depend on the input:
    ``max_deviation`` = max_xz ||S[x, z] - delta_xz ref||_1 over the transfer
    slices, ref the maximally-mixed-input output; a true catalysis gives zero,
    and for any input the trace distance of its output from ref is at most
    da/2 times it.  Also returns ref and the unitary mapping the catalyst
    onto it."""
    s, ref = _transfer(u, sigma, a_count)
    dev = s - np.eye(len(s))[:, :, None, None] * ref
    max_dev = float(np.linalg.svd(dev, compute_uv=False).sum(axis=-1).max())
    try:
        v = UnitaryOperator(_matching_unitary(sigma.matrix, ref), u.layout.dims[a_count:])
    except CertificationError:
        v = None
    return ExhaustiveReport(max_deviation=max_dev, implied_v=v, output=ref)


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
        da = self.a_dim
        m = np.kron(np.eye(da), dagger(self.canonical_v.matrix)) @ self.unitary.matrix
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
    tv = _require_catalysis_unitary(u, a_count)
    rep = verify_catalysis_exhaustive(u, sigma, a_count=a_count)
    comp = _compatibility(rep.output, sigma)
    if not comp.verdict:
        raise CertificationError(
            f"catalyst incompatible: entropy gap {comp.entropy_gap:.3e} bits"
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
        defect=tv.defect, entropy_gap=comp.entropy_gap,
        max_deviation=rep.max_deviation, seed=seed, classical=classical,
    )


def implement_channel(inst: CatalysisInstance, rho: DensityOperator) -> DensityOperator:
    """Apply the induced channel: Tr_B U (rho ⊗ sigma) U†."""
    if rho.dim != inst.a_dim:
        raise ValueError(f"input dimension {rho.dim} != system dimension {inst.a_dim}")
    full = evolve(inst.unitary.matrix, rho.matrix, inst.sigma.matrix)
    out = ptrace_matrix(full, [inst.a_dim, inst.b_dim], [0])
    return DensityOperator(out, rho.layout)


# ---------------------------------------------------------------------------
# Kraus form


def _sandwich(ops: np.ndarray, m: np.ndarray, ref_dim: int) -> np.ndarray:
    """sum_k (1_ref ⊗ A_k) m (1_ref ⊗ A_k)† for a stack ``ops`` of shape (n, p, q)
    and ``m`` on reference ⊗ q-dimensional space."""
    n, p, q = ops.shape
    left = ops[:, None] @ m.reshape(ref_dim, q, ref_dim * q)
    both = left.reshape(n, ref_dim * p * ref_dim, q) @ ops.conj().transpose(0, 2, 1)
    return both.reshape(n, ref_dim * p, ref_dim * p).sum(axis=0)


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

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        return _sandwich(self.kraus, rho, 1)

    def adjoint_matrix(self, m: np.ndarray) -> np.ndarray:
        """Phi†(m) = sum_k K_k† m K_k."""
        return _sandwich(self.kraus.conj().transpose(0, 2, 1), m, 1)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self.apply_matrix(rho.matrix), [self.dim_out])

    def extended_apply_matrix(self, rho: np.ndarray, ref_dim: int) -> np.ndarray:
        """(I ⊗ Phi)(rho) for rho on reference ⊗ input."""
        return _sandwich(self.kraus, rho, ref_dim)

    def extended_adjoint_matrix(self, m: np.ndarray, ref_dim: int) -> np.ndarray:
        """(I ⊗ Phi†)(m) for m on reference ⊗ output."""
        return _sandwich(self.kraus.conj().transpose(0, 2, 1), m, ref_dim)

    def complementary_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Complementary output G_ij = Tr[K_i rho K_j†]; it shares its spectrum
        with the channel-plus-purification output, so S((Phi x I)(psi_rho)) = S(G)."""
        return np.einsum("iab,jab->ij", self.kraus @ rho, self.kraus.conj())

    def choi(self) -> np.ndarray:
        """J = sum_ij |i><j| ⊗ Phi(|i><j|), reference factor first."""
        vecs = _choi_vectors(self.kraus)
        return vecs.T @ vecs.conj()


def channel_from_unitary(u: np.ndarray) -> KrausChannel:
    return KrausChannel([u])


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel([np.eye(d)])


def dephasing_channel(d: int) -> KrausChannel:
    """Kill all off-diagonal elements in the computational basis."""
    return KrausChannel([np.diag(e) for e in np.eye(d)])


def erasure_channel(d: int) -> KrausChannel:
    """Unital erasure rho -> 1/d, with Kraus operators |i><j| / sqrt(d)."""
    return KrausChannel(np.eye(d * d).reshape(d * d, d, d) / np.sqrt(d))


def weyl_twirl_channel(d: int) -> KrausChannel:
    """Uniform mixture of all d^2 discrete displacement unitaries; completely
    depolarizing."""
    return KrausChannel([w / d for w in hilbert.weyl_set(d)])


def initialization_channel(d: int) -> KrausChannel:
    """Send every input to |0><0|."""
    return KrausChannel([np.outer(np.eye(d)[0], e) for e in np.eye(d)])


def random_channel(d: int, kraus_rank: int, seed) -> KrausChannel:
    """Haar-random Stinespring isometry cut into Kraus blocks."""
    big = hilbert.haar_unitary_matrix(d * kraus_rank, seed)
    v = big[:, :d]
    return KrausChannel(v.reshape(kraus_rank, d, d))


def channel_to_kraus(inst: CatalysisInstance) -> KrausChannel:
    """Minimal Kraus form of the induced channel: the weighted
    <b|U|catalyst-eigenvector> blocks collapse to the Choi rank through one SVD
    of their Choi vectors, whose right singular vectors are the Choi
    eigenvectors."""
    da, db = inst.a_dim, inst.b_dim
    svals, svecs = eigh_desc(inst.sigma.matrix)
    keep = svals > 1e-12
    chis = svecs[:, keep] * np.sqrt(svals[keep])
    um = inst.unitary.matrix.reshape(da, db, da, db)
    raw = np.einsum("abcd,dk->kbac", um, chis).reshape(-1, da, da)  # sqrt(s_k) <b|U|chi_k>
    _, sv, vh = np.linalg.svd(_choi_vectors(raw), full_matrices=False)
    keep = sv**2 > 1e-10
    vecs = vh[keep].reshape(-1, da, da).transpose(0, 2, 1)  # Choi vectors are (in, out)
    return KrausChannel(sv[keep][:, None, None] * vecs)


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
    """
    uc = inst.canonical_unitary().matrix
    da, db = inst.a_dim, inst.b_dim
    sig = inst.sigma.matrix
    if bases is None:
        bases = hilbert.eigenspace_decompose(inst.sigma).bases
    out = []
    eye_a = np.eye(da)
    for idx, basis in enumerate(bases):
        basis = np.asarray(basis, dtype=complex)
        pi = basis @ dagger(basis)
        big = np.kron(eye_a, pi)
        if np.linalg.norm(uc @ big - big @ uc) > 1e-7:
            raise CertificationError(
                f"unitary does not commute with catalyst eigenspace {idx}; "
                "the pair is not a compatible catalysis at this refinement"
            )
        weight = float(np.trace(pi @ sig).real)
        r = basis.shape[1]
        emb = np.kron(eye_a, basis)  # isometry onto A ⊗ span(V)
        sub_u = dagger(emb) @ uc @ emb
        if unitarity_defect(sub_u) > hilbert.TOL_UNITARY:
            raise CertificationError(f"restricted block {idx} is not unitary")
        sub = canonical_form(
            UnitaryOperator(sub_u, list(inst.a_dims) + [r]),
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

    τ, τ_A1A2 and τ_B are each formed and diagonalized once; S(τ) comes from
    the evolved state itself, so the residual checks the evolution, and τ
    comes back validated, spectrum and marginals included, for the next
    transition, whose σ_A2 and σ_B are then read from it.
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

    tau = DensityOperator(evolve(u.matrix, rho.matrix, intermediate.matrix, dims, on), dims)
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
    best = 0.0
    gamma = StateVector(max_entangled(da), [da, da]).density().matrix
    candidates = [gamma, np.eye(da * da) / (da * da)]
    for _ in range(n_samples):
        v = haar_state(da * da, rng).amplitudes
        candidates.append(np.outer(v, v.conj()))
    for rho in candidates:
        out = chan.extended_apply_matrix(rho, da)
        prod = abs(
            von_neumann(DensityOperator(out, [da, da]))
            - von_neumann(DensityOperator(rho, [da, da]))
        )
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
    if np.linalg.matrix_rank(inst.sigma.matrix, tol=1e-10) < inst.b_dim:
        raise CertificationError(
            "recovery requires a full-support catalyst (purifier padding by "
            "zero eigenvalues is rejected)"
        )
    uc = inst.canonical_unitary()
    b_cut = range(inst.a_count, len(uc.layout.dims))
    m = ptranspose_matrix(uc.matrix, uc.layout.dims, b_cut)
    return UnitaryOperator(m, uc.layout.dims)


def recovery_defect(inst: CatalysisInstance, n_samples: int = 8, seed: int = 5) -> float:
    """Max trace distance between evolving kappa ⊗ purification with U on the
    system-catalyst cut and with the recovery unitary on the system-purifier
    cut."""
    rec = recovery_unitary(inst)
    uc = inst.canonical_unitary()
    da, db = inst.a_dim, inst.b_dim
    psi = purify(inst.sigma)
    sigma_bc = np.outer(psi.amplitudes, psi.amplitudes.conj())
    rng = hilbert._rng(seed)
    full_dims = [da, db, db]  # A, B, C
    worst = 0.0
    for _ in range(n_samples):
        v = haar_state(da, rng).amplitudes
        kappa = np.outer(v, v.conj())
        lhs = evolve(uc.matrix, kappa, sigma_bc, full_dims, [0, 1])
        rhs = evolve(rec.matrix, kappa, sigma_bc, full_dims, [0, 2])
        worst = max(worst, trace_distance(lhs, rhs))
    return worst
