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
compatibility entropy gap S(ref) - S(sigma); :func:`canonical_form` then
rotates sigma onto ref.  The recovery check is exact too: it evolves one
column per system basis state on each side.

Every catalyst check has one implementation, written for a stack of
unitaries that share a layout and a catalyst: each step takes one solver call
for the whole stack (an eigenvalue step two, where exactly real and complex
matrices mix), and each check raises at the first matrix that fails it.
:func:`canonical_form` certifies a stack of one, so its checks run in their
order; :func:`decompose_subcatalyses` certifies all the blocks of one rank
in a single pass, and a decomposition that fails is certified again block by
block, so that the error is the lowest failing block's.

A certified :class:`CatalysisInstance` is immutable and may be shared across
threads.  A :class:`KrausChannel` holds one read-only array, its Stinespring
operand, and is immutable, so a channel may be shared across threads too.
Module-level mutable state: none.  The tolerances live in :mod:`hilbert` and
are read there at call time.  Each ledger record goes back to its caller;
none is kept here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import hilbert
from .entropy import _clip_zero, von_neumann, von_neumann_rows
from .hilbert import (
    DensityOperator,
    Frozen,
    SubsystemLayout,
    UnitaryOperator,
    dagger,
    eigh_desc,
    evolve,
    kron,
    maximally_mixed,
    partial_trace,
    ptrace_matrix,  # unused here; bench/tests traces calls through this binding
    ptranspose_matrix,
    purify,
    trace_distance,
    unitarity_defect,
)


class CertificationError(Exception):
    """A unitary/catalyst pair failed one of the catalysis checks."""


# ---------------------------------------------------------------------------
# verdicts


class CatalysisVerdict(NamedTuple):
    verdict: bool
    defect: float

    def require(self) -> CatalysisVerdict:
        """This verdict, if the partial transpose is unitary; raises
        :class:`CertificationError` otherwise."""
        if not self.verdict:
            raise _not_catalysis(self.defect)
        return self


def _not_catalysis(defect: float) -> CertificationError:
    return CertificationError(f"not a catalysis unitary: partial-transpose defect {defect:.3e}")


def _pt_verdicts(m: np.ndarray, layout: SubsystemLayout, cut: Sequence[int]) -> list[CatalysisVerdict]:
    """The partial-transpose verdict of each matrix of a stack (k, d, d) on
    ``layout``, transposed over ``cut``: the defect is the Frobenius norm of
    (U^T)†U^T - 1."""
    cut = layout.check_indices(cut)
    if not cut:
        raise ValueError("cut must name at least one subsystem to transpose")
    if len(cut) >= len(layout.dims):
        raise ValueError("cut must leave at least one subsystem untransposed")
    defects = unitarity_defect(ptranspose_matrix(m, layout.dims, cut))
    return [CatalysisVerdict(verdict=d <= hilbert.TOL_UNITARY, defect=d) for d in defects.tolist()]


def is_catalysis_unitary(u: UnitaryOperator, cut: Sequence[int] = (0,)) -> CatalysisVerdict:
    """Test whether the partial transpose of ``u`` over the subsystems in
    ``cut`` is unitary; the defect is the Frobenius norm of (U^T)†U^T - 1."""
    return _pt_verdicts(u.matrix[None], u.layout, cut)[0]


# ---------------------------------------------------------------------------
# the catalyst checks: one pass over the transfer tensor of a stack


def system_dim(dims: Sequence[int], sigma: DensityOperator, a_count: int) -> int:
    """Dimension of the system side of a unitary on the layout ``dims``, its
    leading ``a_count`` subsystems; raises ValueError unless that split is
    proper and ``sigma`` fits the rest."""
    if not 1 <= a_count < len(dims):
        raise ValueError(f"a_count {a_count} invalid for layout {dims}")
    if sigma.dim != math.prod(dims[a_count:]):
        raise ValueError("catalyst dimension does not match the B side of u")
    return math.prod(dims[:a_count])


def _require(failing, error) -> None:
    """Raise ``error(i)`` at the first matrix i of a stack with ``failing[i]``."""
    for i, bad in enumerate(failing):
        if bad:
            raise error(i)


def _transfer_slices(u: np.ndarray, sigma: np.ndarray, da: int, db: int) -> np.ndarray:
    """Transfer tensor S[x, z] = Tr_A U(|x><z| ⊗ sigma)U† as a (da, da, db, db)
    stack, in one contraction; the catalyst output for input rho is
    sum_xz rho_xz S[x, z].  Leading axes of ``u`` index a stack of
    unitaries, each with its own tensor."""
    d = da * db
    lead = u.shape[:-2]
    # [(x, b), (a, y)]
    ut = u.reshape(lead + (da, db, da, db)).swapaxes(-4, -2).reshape(lead + (d, d))
    left = (ut.reshape(lead + (d * da, db)) @ sigma).reshape(lead + (d, d))  # [(x, b), (a, w)]
    return (left @ dagger(ut)).reshape(lead + (da, db, da, db)).swapaxes(-3, -2)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    uu, _, vv = np.linalg.svd(m)
    return uu @ vv


def _matching_unitary(sigma_m: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each xi of a stack (k, d, d), a unitary V with V sigma V† = xi,
    built by matching eigenspaces of equal eigenvalue (the full spectrum,
    zeros included) and fixing each block by the polar factor closest to
    identity; and whether the spectra match (V means nothing where they do
    not).  The polar factors of all groups of one size take one SVD."""
    sv, svec = eigh_desc(sigma_m)
    xv, xvec = eigh_desc(xi)
    matched = ~(np.max(np.abs(sv - xv), axis=-1) > 1e-7)
    groups = hilbert.group_spectrum(sv)
    v = np.zeros_like(xi)
    if len(groups) == 1:  # one eigenvalue: the whole eigenbases match
        v += xvec @ _polar_unitary(dagger(xvec) @ svec) @ dagger(svec)
        return v, matched
    terms = {}
    for size in {len(g) for g in groups}:
        same = [g for g in groups if len(g) == size]
        idx = np.array(same)
        c = xvec[..., idx].transpose(2, 0, 1, 3)  # (groups, k, d, size)
        b = svec[:, idx].transpose(1, 0, 2)[:, None]  # (groups, 1, d, size)
        terms.update(zip((g[0] for g in same), c @ _polar_unitary(dagger(c) @ b) @ dagger(b)))
    for g in groups:  # summed in spectrum order
        v += terms[g[0]]
    return v, matched


def _compatible(gap):
    """Whether the catalyst keeps its entropy: |gap| within the tolerance
    (of each gap, for an array)."""
    return abs(gap) <= hilbert.COMPAT_ENTROPY_TOL


class ExhaustiveReport(NamedTuple):
    max_deviation: float
    entropy_gap: float  # S(output) - S(sigma) in bits
    output: np.ndarray  # catalyst output, the same for every input when certified

    # element-wise tuple equality raises on the ndarray field: compare and
    # hash by identity, as the value types do
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def compatible(self) -> bool:
        """The catalyst keeps its entropy at the maximally mixed input."""
        return _compatible(self.entropy_gap)


def _outputs(us: np.ndarray, sigma: DensityOperator,
             da: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each unitary of a stack (k, d, d), from one transfer tensor: its
    catalyst output ref at the maximally mixed input, its max deviation
    max_xz ||S[x, z] - delta_xz ref||_1 and its entropy gap S(ref) - S(sigma),
    each step solved for the whole stack at once.  The first output that is
    not a state raises the ValueError its validation raises."""
    s = _transfer_slices(us, sigma.matrix, da, sigma.dim)
    ref = s.trace(axis1=-4, axis2=-3) / da
    dev = s - np.eye(da)[:, :, None, None] * ref[:, None, None]
    max_dev = np.linalg.svd(dev, compute_uv=False).sum(axis=-1).max(axis=(-2, -1))
    gap = von_neumann_rows(hilbert.state_spectrum(ref)) - von_neumann(sigma)
    return ref, max_dev, gap


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
    ref has its entropy (``entropy_gap``).  Also returns ref; the rotation of
    the catalyst onto it is :func:`canonical_form`'s.  Whether ``u`` is a
    catalysis unitary at all is :func:`is_catalysis_unitary`'s question."""
    da = system_dim(u.layout.dims, sigma, a_count)
    ref, max_dev, gap = _outputs(u.matrix[None], sigma, da)
    return ExhaustiveReport(max_deviation=float(max_dev[0]), entropy_gap=float(gap[0]),
                            output=ref[0])


def _certify(us: np.ndarray, layout: SubsystemLayout, a_count: int,
             sigma: DensityOperator) -> list[tuple]:
    """Every check of :func:`canonical_form` on each unitary of a stack
    (k, d, d) on ``layout`` with the catalyst ``sigma``, one check at a time
    over the whole stack; each check raises at the first unitary that fails
    it.  Returns (defect, max deviation, entropy gap, V) for each unitary."""
    verdicts = _pt_verdicts(us, layout, range(a_count))
    _require([not v.verdict for v in verdicts], lambda i: _not_catalysis(verdicts[i].defect))
    dims = layout.dims
    ref, max_dev, gap = _outputs(us, sigma, system_dim(dims, sigma, a_count))
    max_dev, gap = max_dev.tolist(), gap.tolist()
    _require([not _compatible(g) for g in gap], lambda i: CertificationError(
        f"catalyst incompatible: entropy gap {gap[i]:.3e} bits"))
    _require([m > hilbert.TOL_STATE for m in max_dev], lambda i: CertificationError(
        f"output depends on the input: max deviation {max_dev[i]:.3e}"))
    v, matched = _matching_unitary(sigma.matrix, ref)
    _require(~matched, lambda i: CertificationError("output spectrum does not match the catalyst"))
    vs = UnitaryOperator.each(v, dims[a_count:])
    # postcondition: the canonical unitary preserves sigma itself
    moved = trace_distance(dagger(v) @ ref @ v, sigma.matrix) > hilbert.TOL_STATE
    _require(moved, lambda i: CertificationError("canonical form failed to preserve the catalyst"))
    return list(zip([verdict.defect for verdict in verdicts], max_dev, gap, vs))


# ---------------------------------------------------------------------------
# certified instances


class CatalysisInstance(NamedTuple):
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
        return math.prod(self.a_dims)

    @property
    def b_dim(self) -> int:
        return math.prod(self.b_dims)

    def canonical_unitary(self) -> UnitaryOperator:
        """(1 ⊗ V†) U, with V† applied to the catalyst rows of U in one GEMM."""
        return UnitaryOperator(self._canonical_matrix(), self.unitary.layout)

    def _canonical_matrix(self) -> np.ndarray:
        vdag = dagger(self.canonical_v.matrix)
        return evolve(vdag, self.unitary.matrix, [self.a_dim, self.b_dim], [1])


def canonical_form(
    u: UnitaryOperator,
    sigma: DensityOperator,
    a_count: int = 1,
    seed: int = 7,
) -> CatalysisInstance:
    """Certify (u, sigma) exactly and return the instance carrying the rotation
    V that makes the catalyst exactly preserved; ``seed`` is only recorded.
    The checks, in order: the partial transpose is unitary, the catalyst
    output is a state, the catalyst keeps its entropy, the output does not
    depend on the input, the spectra match, and (1 ⊗ V†)U preserves sigma."""
    certified = _certify(u.matrix[None], u.layout, a_count, sigma)
    return _instance(u, sigma, a_count, certified[0], seed)


def _instance(u, sigma, a_count, certified, seed, classical=False) -> CatalysisInstance:
    defect, max_deviation, entropy_gap, v = certified
    return CatalysisInstance(
        unitary=u, sigma=sigma, a_count=a_count, canonical_v=v, defect=defect,
        entropy_gap=entropy_gap, max_deviation=max_deviation, seed=seed, classical=classical,
    )


def implement_channel(inst: CatalysisInstance, rho: DensityOperator) -> DensityOperator:
    """Apply the induced channel: Tr_B U (rho ⊗ sigma) U†."""
    if rho.dim != inst.a_dim:
        raise ValueError(f"input dimension {rho.dim} != system dimension {inst.a_dim}")
    x = evolve(inst.unitary.matrix, kron(rho.factor(), inst.sigma.factor()))
    # rows (a, b) of the evolved factor regrouped as (a, (b, k)): Tr_B's factor
    return DensityOperator.from_factor(x.reshape(inst.a_dim, -1), rho.layout)


# ---------------------------------------------------------------------------
# Kraus form


class KrausChannel(Frozen):
    """Completely positive trace-preserving map, held in a minimal Kraus form.

    The channel holds one read-only array, the GEMM operand Vᵀ (d_in ×
    d_out·n) of its Stinespring isometry V = sum_i K_i ⊗ |i>; ``kraus`` is a
    read-only (n, d_out, d_in) view of it.  n is the Choi rank: a stack whose
    Choi vectors (the rows vec K_i of R, columns (in, out)) are independent
    is kept byte for byte; any other is cut, from one ``eigh`` of the smaller
    of RR† and R†R, to the Choi vectors u†R or √λ v† of its eigenvalues λ >
    ``hilbert.TOL_PSD``.  The builders check n·d_out·d_in against
    ``hilbert.MAX_BYTES``.  Equality is identity, as for ``DensityOperator``.
    Nothing writes to a channel after ``__init__``: it is immutable."""

    kraus: np.ndarray

    def __init__(self, kraus):
        try:
            ops = np.asarray(kraus, dtype=complex)
        except ValueError:  # ragged: matrices of unequal shapes
            ops = np.empty(0)
        if ops.ndim != 3 or not len(ops):
            raise ValueError(
                "Kraus operators must form a non-empty (n, d_out, d_in) stack of "
                "equal-shape matrices"
            )
        hilbert.refuse_non_finite(ops, "Kraus operators")
        n, d_out, d_in = ops.shape
        # a copy even when ops is laid out as R already: the caller keeps ops
        r = np.array(ops.transpose(0, 2, 1), order="C").reshape(n, -1)
        gram, inner = hilbert.smaller_gram(r)
        vals, vecs = np.linalg.eigh(gram)
        keep = vals > hilbert.TOL_PSD
        if np.count_nonzero(keep) < n:
            # + 0.0: no -0.0 from conj, so a GEMM against Vᵀ returns Vᵀ's own bits
            r = (np.sqrt(vals[keep])[:, None] * dagger(vecs[:, keep]) if inner
                 else dagger(vecs[:, keep]) @ r) + 0.0
        v_t = hilbert._freeze(r.T.reshape(d_in, -1))
        if not hilbert.unitarity_defect(v_t.T) <= 1e-7:  # V†V = 1; NaN fails too
            raise ValueError("Kraus operators do not satisfy completeness")
        object.__setattr__(self, "_isometry_t", v_t)
        object.__setattr__(self, "kraus", v_t.reshape(d_in, d_out, -1).transpose(2, 1, 0))

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
        output, Z_i its columns (j, i) over j: the adjoint of that map, one
        GEMM against conj(V) copied C-ordered from Vᵀ (against Vᵀ itself, a
        third of the products move in their last bits)."""
        n, d_out, d_in = self.kraus.shape
        r = z.shape[1] // n
        rows = z.reshape(ref, d_out, r, n).transpose(0, 2, 1, 3).reshape(ref * r, d_out * n)
        conj_v = self._isometry_t.T.copy()
        np.conjugate(conj_v, out=conj_v)
        x = (rows @ conj_v).reshape(ref, r, d_in)
        return x.transpose(0, 2, 1).reshape(ref * d_in, r)

    def identity_factor(self) -> np.ndarray:
        """:meth:`stinespring` of 1_{d_in} bit for bit: Vᵀ regrouped, no GEMM."""
        n, d_out, d_in = self.kraus.shape
        return self._isometry_t.reshape(d_in, d_out, n).transpose(1, 0, 2).reshape(d_out, -1)

    def choi(self) -> np.ndarray:
        """J = sum_ij |i><j| ⊗ Phi(|i><j|), reference factor first: GG† for
        the stored Vᵀ regrouped as G (d_in·d_out × n)."""
        g = self._isometry_t.reshape(-1, len(self.kraus))
        return g @ dagger(g)


def _check_kraus_stack(name: str, n: int, d: int) -> None:
    """Check that d is at least 1 and the one array a ``KrausChannel`` keeps
    of n Kraus operators of d×d against the budget."""
    hilbert.check_dim(d, f"{name} channel")
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
    """(dimension of span{K_i† K_j}, Kraus rank k = ``len(chan.kraus)``).  A
    factorizable channel whose K_i† K_j are linearly independent is a unitary
    conjugation (Haagerup–Musat, Commun. Math. Phys. 303, 2011), and every
    catalytic channel is factorizable; so a full span of k² with k > 1 proves
    the channel is not catalytic.  A smaller span decides nothing."""
    ops = chan.kraus
    k = len(ops)
    products = np.einsum("iba,jbc->ijac", ops.conj(), ops).reshape(k * k, -1)
    return int(np.linalg.matrix_rank(products)), k


def random_channel(d: int, kraus_rank: int, seed) -> KrausChannel:
    """Haar-random Stinespring isometry cut into ``kraus_rank`` Kraus blocks,
    which the constructor cuts to d² when ``kraus_rank`` > d²; the budget
    check of the Haar unitary, (d·k)² entries, covers the stack's k·d²."""
    big = d * kraus_rank
    hilbert.check_size(big**2, f"random channel from a Haar unitary of {big}×{big}")
    v = hilbert.haar_unitary_matrix(big, seed)[:, :d]
    return KrausChannel(v.reshape(kraus_rank, d, d))


def channel_to_kraus(inst: CatalysisInstance) -> KrausChannel:
    """Minimal Kraus form of the induced channel: with σ = Σ_k χ_k χ_k† (the
    columns χ_k of ``inst.sigma.factor()``, kept on the state), the operators
    <b|U|χ_k> are a Kraus form, which :class:`KrausChannel` cuts to the Choi
    rank."""
    da, db = inst.a_dim, inst.b_dim
    chis = inst.sigma.factor()
    # raw[a, b, c, k] = <a, b|U|c, χ_k>: operator (k, b) has entry (a, c)
    raw = (inst.unitary.matrix.reshape(da * db * da, db) @ chis).reshape(da, db, da, -1)
    return KrausChannel(raw.transpose(3, 1, 0, 2).reshape(-1, da, da))


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
    ``hilbert.REFINEMENT_TOL`` bounds both misses: the Frobenius norm of the
    commutator and the distance of the weight sum from one.
    Neither 1 ⊗ V V† nor the isometry 1 ⊗ V is built: V V† acts on the
    catalyst index of the rows and of the columns, and the restriction
    V† U_c V contracts both catalyst indices with V.

    The blocks of one rank r are certified in one stacked pass: their
    commutators, weights and restrictions come from batched GEMMs, and every
    check of :func:`canonical_form` (with the catalyst 1/r) runs once over
    the stack of restrictions.  Only the objects are built block by block.
    Each check raises at the first block of the stack that fails it, so a
    failing decomposition is certified again block by block, in index order:
    the error is that of the lowest failing block, at its first failing check.
    """
    uc = inst._canonical_matrix()  # a product of unitaries: no second validation
    da, db = inst.a_dim, inst.b_dim
    d = da * db
    by_col_b = uc.reshape(d * da, db)  # rows (a, b, a'), columns b'
    if bases is None:
        bases = hilbert.eigenspace_decompose(inst.sigma).bases
    bases = [np.asarray(b, dtype=complex) for b in bases]
    by_rank: dict[int, list[int]] = {}
    for idx, basis in enumerate(bases):
        by_rank.setdefault(basis.shape[1], []).append(idx)

    def certify(members: list[int]) -> list[tuple[float, CatalysisInstance]]:
        """(weight, sub-instance) of each block named in ``members``, all of
        one rank, from one stacked pass."""
        b = np.stack([bases[i] for i in members])  # (k, d_B, r)
        r = b.shape[-1]
        pi = b @ dagger(b)
        right = (by_col_b @ pi).reshape(-1, d, d)  # U_c (1 ⊗ Π)
        left = (pi[:, None] @ uc.reshape(da, db, d)).reshape(-1, d, d)  # (1 ⊗ Π) U_c
        _require(np.linalg.norm(right - left, axis=(-2, -1)) > hilbert.REFINEMENT_TOL,
                 lambda j: CertificationError(
                     f"unitary does not commute with catalyst eigenspace {members[j]}; "
                     "the pair is not a compatible catalysis at this refinement"))
        weights = np.trace(pi @ inst.sigma.matrix, axis1=-2, axis2=-1).real
        # rows (a, b), columns (a', j) -> rows (a, i), columns (a', j)
        cols = (by_col_b @ b).reshape(-1, da, db, da * r)
        restricted = (dagger(b)[:, None] @ cols).reshape(-1, da * r, da * r)
        layout = SubsystemLayout(list(inst.a_dims) + [r])
        try:
            subs = UnitaryOperator.each(restricted, layout)
        except ValueError as error:
            raise CertificationError(f"restricted block {members[error.index]}: {error}") from None
        sigma = maximally_mixed([r])
        certified = _certify(restricted, layout, inst.a_count, sigma)
        return [(float(w), _instance(sub, sigma, inst.a_count, values, inst.seed + idx + 1,
                                     inst.classical))
                for idx, w, sub, values in zip(members, weights, subs, certified)]

    out = [None] * len(bases)
    try:
        for members in by_rank.values():
            for idx, pair in zip(members, certify(members)):
                out[idx] = pair
    except (CertificationError, ValueError):
        # the stack raised at its first block failing some check; the lowest
        # failing block is the first to raise alone
        for idx in range(len(bases)):
            certify([idx])
        raise
    total = sum(w for w, _ in out)
    if abs(total - 1.0) > hilbert.REFINEMENT_TOL:
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
    u = UnitaryOperator.controlled(unitaries, [da, db])
    inst = canonical_form(u, sigma, seed=seed)._replace(classical=True)
    # the natural refinement: every catalyst basis state is preserved alone
    dec = decompose_subcatalyses(inst, bases=np.eye(db, dtype=complex)[:, :, None])
    return inst._replace(decomposition=dec)


# ---------------------------------------------------------------------------
# the mutual-information ledger


class LedgerRecord(NamedTuple):
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
    τ_A1A2 and τ_B, comes once from the smaller side of its cut, and each
    entropy is solved once; S(τ) is read from the evolved factor's Gram
    matrix, so the residual checks the evolution.  τ comes back validated,
    spectrum and marginals included, for the next transition, whose σ_A2 and
    σ_B are then read from it.
    """
    if on is not None:
        dims = rho.layout.dims + intermediate.layout.dims
        on = SubsystemLayout(dims).check_indices(on)
        if u.layout.dims != tuple(dims[i] for i in on):
            raise ValueError(
                f"unitary layout {u.layout.dims} does not match dimensions "
                f"{[dims[i] for i in on]} at {list(on)}"
            )
    return _ledger(u.matrix, rho, intermediate, n_a2, on)


def _ledger(
    u: np.ndarray,
    rho: DensityOperator,
    intermediate: DensityOperator,
    n_a2: int,
    on: Sequence[int] | None,
) -> tuple[LedgerRecord, DensityOperator]:
    """:func:`ledger` of the matrix ``u`` of a unitary its caller has
    certified, acting on the checked factors ``on`` (all when None)."""
    dims = rho.layout.dims + intermediate.layout.dims
    int_dims = intermediate.layout.dims
    if not 0 <= n_a2 < len(int_dims):
        raise ValueError(
            f"invalid split n_a2={n_a2} of the intermediate's {len(int_dims)} "
            "subsystems: B must hold at least one"
        )
    n_a = len(rho.layout) + n_a2
    b = list(range(n_a, len(dims)))
    b_int = list(range(n_a2, len(int_dims)))

    x = evolve(u, kron(rho.factor(), intermediate.factor()), dims, on)
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
        s_a2 = von_neumann(partial_trace(intermediate, range(n_a2)))
        s_in += s_a2
        i_before = _mutual_information(s_a2, intermediate, b_int)
    s_out = von_neumann(partial_trace(tau, range(n_a)))
    i_after = _mutual_information(s_out, tau, b)

    residual = abs((i_after - i_before) - (s_out - s_in))
    if residual > hilbert.LEDGER_TOL:
        raise CertificationError(
            f"information balance violated: residual {residual:.3e} > {hilbert.LEDGER_TOL:.1e}"
        )
    rec = LedgerRecord(i_before=i_before, i_after=i_after, s_in=s_in, s_out=s_out,
                       residual=residual)
    return rec, tau


def _mutual_information(s_x: float, state: DensityOperator, y: list[int]) -> float:
    """I(X:Y) of a state on X ⊗ Y whose S(X) is known, the arithmetic of
    :func:`entropy.mutual_information` without solving S(X) again."""
    return _clip_zero(s_x + von_neumann(partial_trace(state, y)) - von_neumann(state))


def ledger_for_instance(inst: CatalysisInstance, rho: DensityOperator) -> LedgerRecord:
    """Ledger of a fresh-catalyst use of a certified instance: the record of
    ``ledger(inst.canonical_unitary(), rho, inst.sigma, 0)``, from (1 ⊗ V†)U
    without checking again that this product of certified unitaries is one."""
    return _ledger(inst._canonical_matrix(), rho, inst.sigma, 0, None)[0]


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
    cols = kron(np.eye(da), purify(inst.sigma).amplitudes[:, None])
    full_dims = [da, db, db]  # A, B, C
    lhs = evolve(uc.matrix, cols, full_dims, [0, 1])
    rhs = evolve(rec.matrix, cols, full_dims, [0, 2])
    overlap = np.vdot(lhs, rhs)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(rhs - phase * lhs, 2))
