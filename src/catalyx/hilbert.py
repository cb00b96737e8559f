"""Dense multipartite linear algebra: tensor bookkeeping, partial trace and
transpose, spectral analysis, purification, canonical operators and seeded
random sampling.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call concurrently.  A density
operator keeps what is computed from it (the marginals :func:`partial_trace`
has taken of it, its factor or its matrix) in private memos written once
each: two racing threads compute equal values, so no lock is needed.
Randomness enters only through explicit seeds.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Numerical tolerances used across the package.  Double precision leaves at
# least six digits of headroom at total dimension <= ~100.  This is their only
# definition: every use reads them (as ``hilbert.X`` outside this module) at
# call time, so rebinding one here, as ``--tol-override`` does, reaches all.
TOL_UNITARY = 1e-9     # Frobenius norm of U†U - 1
TOL_HERM = 1e-9        # Frobenius norm of M - M†
TOL_PSD = 1e-10        # eigenvalue floor; smaller magnitudes count as zero
TOL_STATE = 1e-9       # trace distance between states
TOL_NORM = 1e-10       # trace / vector-norm deviation
GROUP_TOL = 1e-8       # relative gap below which eigenvalues merge
ENTROPY_SLACK = 1e-7   # bits an entropy inequality may miss by and still hold
REFINEMENT_TOL = 1e-7  # a catalyst refinement: ||[U, 1 ⊗ Π]||_F and |Σ weights - 1|
LEDGER_TOL = 1e-8      # bits the information balance of a transition may miss by
COMPAT_ENTROPY_TOL = 1e-8  # bits a compatible catalyst's entropy may move by

# The one size budget: every function that allocates from a size its caller
# gives passes the complex entries of the largest object it defines to
# ``check_size`` before allocating (D² for a state or operator of total
# dimension D, dense or factor-held).  Read at call time, like the tolerances.
MAX_BYTES = 2**28      # one complex 4096×4096 operator


def within_budget(entries: int) -> bool:
    """Whether ``entries`` complex numbers fit in ``MAX_BYTES``."""
    return 16 * entries <= MAX_BYTES


def check_size(entries: int, what: str) -> None:
    """Refuse, before anything is allocated, to build ``what`` when its
    ``entries`` complex numbers exceed the budget ``MAX_BYTES``."""
    if not within_budget(entries):
        raise ValueError(
            f"{what} needs {16 * entries} bytes > budget of {MAX_BYTES} bytes "
            "(hilbert.MAX_BYTES)"
        )


def check_dim(d: int, what: str) -> None:
    """Refuse to build ``what`` at a dimension ``d`` below one."""
    if d < 1:
        raise ValueError(f"{what} needs d >= 1, got {d}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(m: np.ndarray):
    """``np.linalg.norm(m)``, a float; for a stack (..., d, d), an array of
    the norm of each matrix, bit for bit, in one pass.  The norm's formula
    is sqrt(re·re + im·im) over the flattened entries, each product one
    BLAS dot; a stack of (1, n) @ (n, 1) matmuls takes those same dots."""
    if m.ndim == 2:
        return float(np.linalg.norm(m))
    if m.size == m.shape[-2] * m.shape[-1]:  # a stack of one
        norm = np.empty(m.shape[:-2])
        norm[...] = np.linalg.norm(m)
        return norm
    flat = m.reshape(m.shape[:-2] + (1, m.shape[-2] * m.shape[-1]))
    sq = flat.real @ flat.real.swapaxes(-1, -2)
    if flat.dtype.kind == "c":
        sq = sq + flat.imag @ flat.imag.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def unitarity_defect(m: np.ndarray):
    """Frobenius norm of m†m - 1; for a stack (..., d, d), of each matrix
    (see :func:`frobenius`)."""
    return frobenius(dagger(m) @ m - np.eye(m.shape[-1]))


def refuse_non_finite(x: np.ndarray, what: str) -> None:
    """Refuse ``x`` before any arithmetic reads it when an entry is NaN or
    infinite, or so large that its square overflows: ||x||_F² from one
    ``np.vdot``, which warns on nothing, is then not finite."""
    if not math.isfinite(np.vdot(x, x).real):
        raise ValueError(f"non-finite entry (NaN, infinity or too large to square) in {what}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Frozen:
    """Read-only after construction: ``__init__`` writes each field with
    ``object.__setattr__``, and no field may be assigned or deleted later.
    Equality and hashing are identity unless a subclass says otherwise."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({fields})"


class SubsystemLayout(Frozen):
    """Ordered subsystem dimensions tagging an operator; equal layouts
    compare and hash equal."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dims == other.dims
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def check_indices(self, indices: Sequence[int]) -> tuple[int, ...]:
        idx = tuple(int(i) for i in indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate subsystem indices: {idx}")
        for i in idx:
            if not 0 <= i < len(self.dims):
                raise ValueError(f"subsystem index {i} out of range for {self.dims}")
        return idx

    def select(self, indices: Sequence[int]) -> "SubsystemLayout":
        return SubsystemLayout([self.dims[i] for i in self.check_indices(indices)])

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        return SubsystemLayout(self.dims + other.dims)


def _as_layout(layout) -> SubsystemLayout:
    if isinstance(layout, SubsystemLayout):
        return layout
    return SubsystemLayout(layout)


class StateVector(Frozen):
    """Normalized pure state with a subsystem layout."""

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def __init__(self, amplitudes, layout):
        layout = _as_layout(layout)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != layout.total_dim:
            raise ValueError(
                f"amplitude length {amps.shape[0]} != layout dimension {layout.total_dim}"
            )
        refuse_non_finite(amps, "state vector")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 100 * TOL_NORM:
            raise ValueError(f"state vector norm {norm} too far from 1")
        object.__setattr__(self, "amplitudes", _freeze(amps / norm))
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityOperator":
        """|v><v|, held as its rank-1 factor."""
        return DensityOperator.from_factor(self.amplitudes[:, None], self.layout)


class DensityOperator(Frozen):
    """Hermitian, PSD, trace-one matrix with a subsystem layout.

    A state is held either as its matrix or, through :meth:`from_factor`, as
    a factor X (D×r) with ρ = XX†.  A factor-held state never forms its D×D
    matrix unless ``.matrix`` is read (it is then built once and kept): its
    spectrum comes from the smaller of X†X and XX†, and its marginals are
    factor-held too.  Everything computed from a state is kept on it, written
    once: the spectrum, the marginals, and the factor or matrix it was not
    given as.
    """

    layout: SubsystemLayout

    def __init__(self, matrix, layout):
        layout = _as_layout(layout)
        m = _operator_shaped(matrix, layout)
        self._keep(layout, state_spectrum(m), m, None)

    @classmethod
    def from_factor(cls, factor, layout) -> "DensityOperator":
        """The state XX† held as its factor X, a (D, r) matrix."""
        layout = _as_layout(layout)
        x = np.asarray(factor, dtype=complex)
        d = layout.total_dim
        if x.ndim != 2 or x.shape[0] != d or x.shape[1] < 1:
            raise ValueError(f"factor shape {x.shape} is not (D, r) for layout dim {d}")
        op = object.__new__(cls)
        op._keep(layout, factor_spectrum(x), None, x)
        return op

    def _keep(self, layout, spectrum, matrix, factor) -> None:
        """Keep a validated spectrum with the form the state was given in."""
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_matrix", None if matrix is None else _freeze(matrix))
        object.__setattr__(self, "_factor", None if factor is None else _freeze(factor))
        object.__setattr__(self, "_factor_held", factor is not None)
        object.__setattr__(self, "_spectrum", _freeze(spectrum))
        object.__setattr__(self, "_marginals", {})

    @property
    def matrix(self) -> np.ndarray:
        """The D×D matrix (read-only); a factor-held state builds it on first
        read and keeps it."""
        if self._matrix is None:
            x = self._factor
            object.__setattr__(self, "_matrix", _freeze(x @ dagger(x)))
        return self._matrix

    def factor(self) -> np.ndarray:
        """A factor X with ρ = XX† (read-only).  A state held as its matrix
        computes it once, as :func:`psd_factor`'s."""
        if self._factor is None:
            object.__setattr__(self, "_factor", _freeze(psd_factor(self._matrix)[1]))
        return self._factor

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending, clipped at zero (read-only; kept
        from validation)."""
        return self._spectrum


def _operator_shaped(matrix, layout: SubsystemLayout, lead: int = 0) -> np.ndarray:
    """``matrix`` as a complex array of (D, D) operators, D the dimension of
    ``layout``, behind ``lead`` stack axes, with every entry finite."""
    m = np.asarray(matrix, dtype=complex)
    d = layout.total_dim
    if m.ndim != lead + 2 or m.shape[lead:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
    refuse_non_finite(m, "matrix")
    return m


def _unitary_fault(defect: float) -> str | None:
    return None if defect <= TOL_UNITARY else f"matrix is not unitary: defect {defect}"


class UnitaryOperator(Frozen):
    """Unitary matrix with a subsystem layout."""

    matrix: np.ndarray
    layout: SubsystemLayout

    def __init__(self, matrix, layout):
        layout = _as_layout(layout)
        m = _operator_shaped(matrix, layout)
        fault = _unitary_fault(unitarity_defect(m))
        if fault:
            raise ValueError(fault)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "layout", layout)

    @classmethod
    def each(cls, matrices, layout) -> list["UnitaryOperator"]:
        """Validate a stack (k, d, d) of matrices in one pass: an operator for
        each matrix.  The first that is not unitary raises the ValueError it
        raises alone, with its stack position as ``index``."""
        layout = _as_layout(layout)
        ms = _freeze(_operator_shaped(matrices, layout, 1))
        ops = []
        for i, (m, defect) in enumerate(zip(ms, unitarity_defect(ms).tolist())):
            fault = _unitary_fault(defect)
            if fault:
                error = ValueError(fault)
                error.index = i
                raise error
            op = object.__new__(cls)
            object.__setattr__(op, "matrix", m)
            object.__setattr__(op, "layout", layout)
            ops.append(op)
        return ops

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class EigenspaceDecomposition(Frozen):
    """Distinct eigenvalues, each with an orthonormal basis of its eigenspace:
    a read-only (d, r_i) matrix whose columns span it.

    ``eigenspace_decompose`` always produces strictly descending eigenvalues;
    decompositions imposed by a conservation law may repeat an eigenvalue
    across orthogonal blocks, so only non-increasing order is enforced here.
    """

    eigenvalues: tuple[float, ...]
    bases: tuple[np.ndarray, ...]

    def __init__(self, eigenvalues, bases):
        vals = tuple(float(v) for v in eigenvalues)
        bases = tuple(_freeze(np.asarray(b, dtype=complex)) for b in bases)
        if not bases or len(vals) != len(bases):
            raise ValueError("need at least one eigenvalue, each with one eigenspace basis")
        if any(b.ndim != 2 or b.shape[1] < 1 for b in bases):
            raise ValueError("each eigenspace basis must be a (d, r) matrix with r >= 1")
        if any(vals[i] < vals[i + 1] - 1e-12 for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be non-increasing")
        stacked = np.hstack(bases)  # raises unless every basis has d rows
        refuse_non_finite(stacked, "eigenspace bases")
        d, rank = stacked.shape
        if not np.linalg.norm(dagger(stacked) @ stacked - np.eye(rank)) <= 1e-7:
            raise ValueError("eigenspace bases are not orthonormal")
        total = sum(v * b.shape[1] for v, b in zip(vals, bases))
        # eigenvalues at or below TOL_PSD count as zero, so the space the
        # bases leave out may hold up to TOL_PSD per dimension
        missing = (d - rank) * TOL_PSD
        if not -1e-7 - missing <= total - 1.0 <= 1e-7:
            raise ValueError(f"sum of eigenvalue*multiplicity = {total} != 1")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "bases", bases)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.bases)


# ---------------------------------------------------------------------------
# tensor structure


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two vectors or of two matrices, the one in
    the package: one broadcast multiply, which forms the element-wise products
    numpy's ``kron`` forms, with the same ufunc, so it equals that bit for bit
    (dtype and shape included) without its generic dispatch."""
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    (m, n), (p, q) = a.shape, b.shape  # any other pair of ranks fails to unpack
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def tensor(a, b):
    """Kronecker product of two states or two operators; layouts concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(kron(a.amplitudes, b.amplitudes), a.layout.concat(b.layout))
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("cannot tensor a state with an operator")
    kinds = (DensityOperator, UnitaryOperator)
    if not (isinstance(a, kinds) and isinstance(b, kinds)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    m = kron(a.matrix, b.matrix)
    layout = a.layout.concat(b.layout)
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(m, layout)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(m, layout)
    raise TypeError("cannot tensor a density operator with a unitary")


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = kron(out, m)
    return out


def controlled(
    unitaries: Sequence[np.ndarray],
    basis: np.ndarray | None = None,
    control_first: bool = False,
) -> np.ndarray:
    """Sum_x U_x ⊗ |b_x><b_x| with the control factor last (first, as
    Sum_x |x><x| ⊗ U_x, with ``control_first``); the columns of ``basis`` are
    the control vectors (the computational basis if omitted).

    No Kronecker product is formed.  In the computational basis each block
    U_x is written into its place; another basis adds the entries
    U_x[i, j] (|b_x><b_x|)[k, l] one x after another.  Both add into zeros,
    so the result equals the Kronecker sum bit for bit (a signed zero comes
    out as 0.0)."""
    us = np.asarray(unitaries, dtype=complex)
    n, d = us.shape[:2]
    out = np.zeros((d * n, d * n), dtype=complex)
    if basis is None:
        x = np.arange(n)
        if control_first:
            out.reshape(n, d, n, d)[x, :, x] += us
        else:
            out.reshape(d, n, d, n)[:, x, :, x] += us
        return out
    if control_first:
        raise ValueError("a control basis other than the computational one needs the control last")
    t = out.reshape(d, n, d, n)
    for ux, bx in zip(us, np.asarray(basis).T):
        t += ux[:, None, :, None] * np.outer(bx, bx.conj())[None, :, None, :]
    return out


def evolve(
    u: np.ndarray,
    x: np.ndarray,
    dims: Sequence[int] | None = None,
    on: Sequence[int] | None = None,
) -> np.ndarray:
    """(U ⊗ 1) X with ``u`` acting on the factors ``on`` of ``dims`` (every
    factor, in order, when ``on`` is omitted), for a state vector or a factor
    X (D×r, ρ = XX†); evolving the factor evolves ρ to UρU†.

    The embedded operator is never built: rows are permuted to (on, rest),
    so ``u`` acts in one GEMM of D·r·d_u flops, and the inverse permutation
    restores the layout.
    """
    d = x.shape[0]
    dims = [d] if dims is None else [int(k) for k in dims]
    n = len(dims)
    on = list(range(n)) if on is None else list(SubsystemLayout(dims).check_indices(on))
    du = math.prod(dims[i] for i in on)
    if math.prod(dims) != d or u.shape != (du, du):
        raise ValueError(f"operator of shape {u.shape} does not act on the factors {on} "
                         f"of dims {dims} (state dimension {d})")
    rest = [i for i in range(n) if i not in on]
    axes = on + rest + [n]
    shape = dims + [-1]
    t = x.reshape(shape).transpose(axes).reshape(du, -1)
    t = (u @ t).reshape([dims[i] for i in on + rest] + [-1])
    return t.transpose(sorted(range(n + 1), key=axes.__getitem__)).reshape(x.shape)


def ptrace_matrix(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a raw matrix, keeping subsystems ``keep`` in layout order."""
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = sorted(SubsystemLayout(dims).check_indices(keep))
    drop = [i for i in range(n) if i not in keep]
    t = m.reshape(dims + dims)
    for offset, i in enumerate(drop):
        ax = i - offset
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(dk, dk)


def factor_marginal(x: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """A factor of the marginal on the subsystems ``keep`` (ascending) of the
    state XX† on ``dims`` held as its factor X (D×r): X with its rows
    regrouped as (keep, rest) and reshaped to (d_keep, d_rest·r).  Leading
    axes of ``x`` index a stack of factors, each traced alone."""
    b = x.ndim - 2
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    axes = list(range(b)) + [b + i for i in (*keep, *rest)] + [b + n]
    t = x.reshape(x.shape[:b] + tuple(dims) + (-1,)).transpose(axes)
    return t.reshape(x.shape[:b] + (math.prod(dims[i] for i in keep), -1))


def partial_trace(op: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Marginal of ``op`` on the subsystems in ``keep`` (original order kept).

    The marginal of a factor-held state is factor-held: X reshaped and
    transposed to (d_keep, d_rest·r), so its spectrum comes from the smaller
    side of the cut.  Each marginal is built and validated once and kept on
    ``op``; a later call with the same subsystems returns it, and ``keep``
    naming every factor returns ``op`` itself."""
    keep = tuple(sorted(op.layout.check_indices(keep)))
    if len(keep) == len(op.layout):
        return op
    memo = op._marginals
    if keep not in memo:
        dims = op.layout.dims
        layout = op.layout.select(keep)
        # the form the state was given in picks the path, so a state given as
        # its matrix keeps exact dense marginals after its factor is computed
        if op._factor_held:
            m = DensityOperator.from_factor(factor_marginal(op._factor, dims, keep), layout)
        else:
            m = DensityOperator(ptrace_matrix(op.matrix, dims, keep), layout)
        memo.setdefault(keep, m)  # write once: a racing thread's equal value may win
    return memo[keep]


def ptranspose_matrix(m: np.ndarray, dims: Sequence[int], subsystems: Sequence[int]) -> np.ndarray:
    """Transpose applied only on the index pairs of the chosen subsystems;
    leading axes of ``m`` index a stack of operators on ``dims``."""
    dims = [int(d) for d in dims]
    n = len(dims)
    lead = m.shape[:-2]
    t = m.reshape(lead + tuple(dims + dims))
    perm = list(range(2 * n))
    for s in SubsystemLayout(dims).check_indices(subsystems):
        perm[s], perm[n + s] = perm[n + s], perm[s]
    d = math.prod(dims)
    return t.transpose(list(range(len(lead))) + [len(lead) + p for p in perm]).reshape(lead + (d, d))


def partial_transpose(op, subsystems: Sequence[int]) -> np.ndarray:
    """Partial transpose of a tagged operator; the result is a raw matrix
    since it is in general neither unitary nor PSD."""
    if isinstance(op, (DensityOperator, UnitaryOperator)):
        return ptranspose_matrix(op.matrix, op.layout.dims, subsystems)
    raise TypeError(f"cannot partial-transpose {type(op).__name__}")


def permute_subsystems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of an operator so factor ``perm[k]`` moves to slot ``k``."""
    dims = [int(d) for d in dims]
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"invalid permutation {perm}")
    t = m.reshape(dims + dims)
    axes = perm + [n + p for p in perm]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


# ---------------------------------------------------------------------------
# spectral analysis


def eigh_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with eigenvalues sorted descending; of
    each matrix of a stack (k, n, n) in one solver call."""
    if m.ndim == 3 and len(m) == 1:
        vals, vecs = eigh_desc(m[0])
        return vals[None], vecs[None]
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[..., ::-1]
    if m.ndim == 2:
        return vals[order], vecs[:, order]
    rows = np.arange(len(m))[:, None]  # a stack (k, n, n): row-wise fancy indexing
    vecs = vecs.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    return vals[rows, order], np.ascontiguousarray(vecs)  # laid out as one matrix's


def group_spectrum(vals: np.ndarray) -> list[list[int]]:
    """Index groups of a descending spectrum: adjacent eigenvalues closer than
    ``GROUP_TOL * vals[0]`` fall into one group."""
    gap = GROUP_TOL * vals[0]
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[groups[-1][-1]] - vals[i] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def eigenspace_decompose(op: DensityOperator) -> EigenspaceDecomposition:
    """Group the spectrum of ``op`` into eigenspaces.

    Eigenvalues at or below ``TOL_PSD`` are dropped; the rest group as in
    :func:`group_spectrum`.  Floating-point spectra of structurally
    degenerate states need this deliberate grouping.
    """
    vals, vecs = eigh_desc(op.matrix)
    keep = vals > TOL_PSD
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size == 0:
        raise ValueError("state has no support above the zero tolerance")
    groups = group_spectrum(vals)
    return EigenspaceDecomposition(
        [float(np.mean(vals[g])) for g in groups], [vecs[:, g] for g in groups]
    )


def purify(sigma: DensityOperator) -> StateVector:
    """Canonical purification (sqrt(sigma) ⊗ 1)|Γ⟩ on B ⊗ C with C a copy of B."""
    d = sigma.dim
    vals, vecs = eigh_desc(sigma.matrix)
    vals = np.maximum(vals, 0.0)
    root = vecs @ np.diag(np.sqrt(vals)) @ dagger(vecs)
    # (root ⊗ 1) |Γ⟩ has amplitudes root[b, c] at basis index b*d + c
    amps = root.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return StateVector(amps, [d, d])


def smaller_gram(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """The smaller of X†X and XX† (X†X on a tie), which share their nonzero
    spectrum, and whether it is X†X.  Leading axes of ``x`` index a stack of
    factors of one shape, each with its own Gram matrix."""
    inner = x.shape[-1] <= x.shape[-2]
    xh = x.conj().swapaxes(-1, -2)
    return (xh @ x if inner else x @ xh), inner


def hermitian_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack (..., k, k), bit for bit what that matrix gives alone, in at most
    two solver calls.  A matrix whose imaginary part is exactly zero (as kron
    and matmul of real data leave it) goes to the real symmetric solver, about
    4x faster than the complex one at D = 625; in a stack, those matrices go
    to it together and the rest to the complex one."""
    if m.dtype.kind == "c":
        if not np.count_nonzero(m.imag):
            m = m.real
        elif m.ndim > 2:
            real = ~m.imag.any(axis=(-2, -1))
            if real.any():
                vals = np.empty(m.shape[:-1])
                vals[real] = np.linalg.eigvalsh(m[real].real)
                vals[~real] = np.linalg.eigvalsh(m[~real])
                return vals
    return np.linalg.eigvalsh(m)


def density_fault(m: np.ndarray, vals: np.ndarray):
    """Why the matrix ``m``, with ascending eigenvalues ``vals``, is not a
    density matrix, or None: the first of its checks it fails, Hermitian
    within ``TOL_HERM``, trace one within 100·``TOL_NORM`` and no eigenvalue
    below -10·``TOL_PSD``; NaN fails each.  For a stack (k, d, d), the list
    of the k answers, from one pass over the stack."""
    if m.ndim == 2:
        return _density_fault(np.linalg.norm(m - dagger(m)), m.trace(), vals[0])
    if len(m) == 1:
        return [density_fault(m[0], vals[0])]
    herm = frobenius(m - dagger(m)).tolist()
    traces = m.trace(axis1=-2, axis2=-1).tolist()
    return [_density_fault(*checks) for checks in zip(herm, traces, vals[:, 0].tolist())]


def _density_fault(herm: float, trace: complex, low: float) -> str | None:
    if not herm <= TOL_HERM:
        return "density matrix is not Hermitian within tolerance"
    if not abs(trace.real - 1.0) <= 100 * TOL_NORM:
        return f"density matrix trace {trace} != 1"
    return _negative_fault(low)


def _negative_fault(low: float) -> str | None:
    if not low >= -10 * TOL_PSD:
        return f"density matrix has negative eigenvalue {low}"
    return None


def state_spectrum(m: np.ndarray) -> np.ndarray:
    """The validated spectrum (:func:`_validated_spectrum`) of the matrix
    ``m``, or of each of a stack (k, d, d); the first that is not a density
    matrix raises the ValueError of its :func:`density_fault`."""
    vals = hermitian_eigvalsh(m)
    faults = density_fault(m, vals)
    for fault in [faults] if m.ndim == 2 else faults:
        if fault:
            raise ValueError(fault)
    return _validated_spectrum(vals, m.shape[-1])


def _validated_spectrum(vals: np.ndarray, dim: int) -> np.ndarray:
    """The spectrum of a state of dimension ``dim`` from its ascending
    eigenvalues ``vals`` (zeros beyond them are implied), checked against the
    PSD floor and returned padded, descending and clipped at zero.  Leading
    axes index a stack of spectra, each checked alone."""
    fault = _negative_fault(min(vals[..., 0].flat))
    if fault:
        raise ValueError(fault)
    spectrum = np.zeros(vals.shape[:-1] + (dim,))
    spectrum[..., : vals.shape[-1]] = np.maximum(vals[..., ::-1], 0.0)
    return spectrum


def factor_spectrum(x: np.ndarray) -> np.ndarray:
    """The validated spectrum (see :func:`_validated_spectrum`) of the state
    XX† held as its factor X (D×r), from the smaller Gram side of X after
    refusing a non-finite entry and checking that its trace ||X||_F^2 is one.
    Leading axes of ``x`` index a stack of factors: one solver call gives all
    their spectra."""
    refuse_non_finite(x, "density factor")
    gram, _ = smaller_gram(x)
    for trace in gram.trace(axis1=-2, axis2=-1).real.flat:  # = ||X||_F^2
        if not abs(trace - 1.0) <= 100 * TOL_NORM:
            raise ValueError(f"density matrix trace {trace} != 1")
    return _validated_spectrum(hermitian_eigvalsh(gram), x.shape[-2])


def psd_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues of the PSD matrix ``m``, from one ``eigh``,
    and its factor X: the eigenvectors whose eigenvalues exceed ``TOL_PSD``,
    each scaled by the root of its eigenvalue, so XX† is ``m`` cut there."""
    vals, vecs = np.linalg.eigh(m)
    keep = vals > TOL_PSD
    return vals, vecs[:, keep] * np.sqrt(vals[keep])


def trace_distance(a: DensityOperator | np.ndarray, b: DensityOperator | np.ndarray):
    """Half the trace norm of the difference, a float; for stacks of
    matrices (..., d, d), an array holding the float each pair gives alone
    (see :func:`hermitian_eigvalsh`)."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b)
    dist = 0.5 * np.abs(hermitian_eigvalsh(ma - mb)).sum(-1)
    return float(dist) if dist.ndim == 0 else dist


# ---------------------------------------------------------------------------
# canonical operators


def basis_state(d: int, i: int, layout=None) -> StateVector:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return StateVector(v, layout if layout is not None else [d])


def plus_state(d: int) -> StateVector:
    """Uniform superposition (1/sqrt(d)) sum_i |i⟩."""
    check_dim(d, "plus state")
    return StateVector(np.full(d, 1 / np.sqrt(d), dtype=complex), [d])


def maximally_mixed(dims) -> DensityOperator:
    layout = _as_layout(dims)
    d = layout.total_dim
    return DensityOperator(np.eye(d) / d, layout)


def clock_matrix(d: int) -> np.ndarray:
    check_dim(d, "clock matrix")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def basis_permutation(dims: Sequence[int], image) -> np.ndarray:
    """Permutation unitary sum_x |image(x)><x| on the product basis of ``dims``.

    ``image`` takes one digit array per factor (all basis states at once, in
    layout order) and returns the image digits, each reduced mod its factor's
    dimension."""
    dims = tuple(int(d) for d in dims)
    digits = np.indices(dims).reshape(len(dims), -1)
    dst = np.ravel_multi_index(tuple(image(*digits)), dims, mode="wrap")
    u = np.zeros((dst.size, dst.size), dtype=complex)
    u[dst, np.arange(dst.size)] = 1.0
    if np.count_nonzero(u.any(axis=1)) != dst.size:
        raise ValueError("image is not a permutation of the basis")
    return u


def shift_matrix(d: int) -> np.ndarray:
    check_dim(d, "shift matrix")
    return basis_permutation([d], lambda k: (k + 1,))


def weyl_set(d: int) -> list[np.ndarray]:
    """X^a Z^b at index a d + b; the d^2 of them are orthogonal: Tr(W†W') = d δ."""
    check_dim(d, "Weyl set")
    x, z = shift_matrix(d), clock_matrix(d)
    xs = [np.linalg.matrix_power(x, a) for a in range(d)]
    zs = [np.linalg.matrix_power(z, b) for b in range(d)]
    return [xa @ zb for xa in xs for zb in zs]


def swap_matrix(d: int) -> np.ndarray:
    check_dim(d, "swap matrix")
    return basis_permutation([d, d], lambda i, j: (j, i))


def fourier_matrix(d: int) -> np.ndarray:
    check_dim(d, "Fourier matrix")
    n, m = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * n * m / d) / np.sqrt(d)


def max_entangled(d: int) -> np.ndarray:
    """Amplitudes of |Γ> = (1/sqrt(d)) sum_i |i>|i> on a d x d layout."""
    check_dim(d, "maximally entangled state")
    gamma = np.zeros(d * d, dtype=complex)
    gamma[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return gamma


class CanonicalOperators(NamedTuple):
    clock: UnitaryOperator
    shift: UnitaryOperator
    swap: UnitaryOperator
    max_entangled: StateVector
    fourier: UnitaryOperator


def canonical_operators(d: int) -> CanonicalOperators:
    """Clock Z, shift X, swap F, maximally entangled state and Fourier matrix."""
    check_dim(d, "canonical operators")
    return CanonicalOperators(
        clock=UnitaryOperator(clock_matrix(d), [d]),
        shift=UnitaryOperator(shift_matrix(d), [d]),
        swap=UnitaryOperator(swap_matrix(d), [d, d]),
        max_entangled=StateVector(max_entangled(d), [d, d]),
        fourier=UnitaryOperator(fourier_matrix(d), [d]),
    )


# ---------------------------------------------------------------------------
# seeded sampling


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_from_normals(g: np.ndarray) -> np.ndarray:
    """The Haar unitary of a pair g = (real, imaginary) of d×d standard
    normal draws, shape (2, d, d): Q·diag(phases of R's diagonal) from the QR
    of the Ginibre matrix (g[0] + i·g[1])/√2.  Leading axes of ``g`` index a
    stack of pairs, all taken in one QR call, which equals the per-matrix QR
    bit for bit."""
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    ph = ph / np.abs(ph)
    return q * ph[..., None, :]


def haar_unitary_matrix(d: int, seed) -> np.ndarray:
    return haar_from_normals(_rng(seed).standard_normal((2, d, d)))


def haar_unitary(d: int, seed, layout=None) -> UnitaryOperator:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    triangular factor's diagonal phases fixed.  Deterministic per seed."""
    return UnitaryOperator(haar_unitary_matrix(d, seed), layout if layout is not None else [d])


def haar_state(d: int, seed, layout=None) -> StateVector:
    rng = _rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(v / np.linalg.norm(v), layout if layout is not None else [d])


def random_density_draws(d: int, rank: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`random_density` draws, in stream order: the normal pair
    whose Haar unitary (:func:`haar_from_normals`) gives the eigenvectors,
    then ``rank`` uniform-simplex weights."""
    rng = _rng(seed)
    return rng.standard_normal((2, d, d)), rng.dirichlet(np.ones(rank))


def random_density(dims, rank: int, seed) -> DensityOperator:
    """Random density operator of the given rank: Haar orthonormal vectors
    combined with uniform-simplex weights."""
    layout = _as_layout(dims)
    d = layout.total_dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range for dimension {d}")
    g, w = random_density_draws(d, rank, seed)
    vecs = haar_from_normals(g)[:, :rank]
    m = (vecs * w) @ dagger(vecs)
    return DensityOperator(m, layout)


# ---------------------------------------------------------------------------
# JSON interchange

_OPERATOR_KEYS = {"dims", "re", "im"}
_STATE_KEYS = {"dims", "amps_re", "amps_im"}


def operator_to_payload(op) -> dict:
    m = op.matrix if isinstance(op, (DensityOperator, UnitaryOperator)) else np.asarray(op)
    return {
        "dims": list(op.layout.dims) if hasattr(op, "layout") else [m.shape[0]],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _finite_parts(payload: dict, keys: Sequence[str], what: str) -> list[np.ndarray]:
    """The float arrays of ``payload`` under ``keys``, refused if one holds NaN or inf."""
    parts = [np.asarray(payload[k], dtype=float) for k in keys]
    if not all(np.isfinite(p).all() for p in parts):
        raise ValueError(f"{what} payload has a non-finite entry (NaN or infinity)")
    return parts


def payload_to_matrix(payload: dict) -> tuple[np.ndarray, SubsystemLayout]:
    if not _OPERATOR_KEYS.issubset(payload):
        raise ValueError(f"operator payload must contain keys {sorted(_OPERATOR_KEYS)}")
    layout = SubsystemLayout(payload["dims"])
    re, im = _finite_parts(payload, ("re", "im"), "operator")
    if re.shape != im.shape:
        raise ValueError("re and im blocks have different shapes")
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise ValueError(f"operator payload is not square: shape {re.shape}")
    if re.shape[0] != layout.total_dim:
        raise ValueError(
            f"matrix side {re.shape[0]} does not match dims product {layout.total_dim}"
        )
    return re + 1j * im, layout


def state_to_payload(state: StateVector) -> dict:
    return {
        "dims": list(state.layout.dims),
        "amps_re": state.amplitudes.real.tolist(),
        "amps_im": state.amplitudes.imag.tolist(),
    }


def payload_to_state(payload: dict) -> StateVector:
    if not _STATE_KEYS.issubset(payload):
        raise ValueError(f"state payload must contain keys {sorted(_STATE_KEYS)}")
    layout = SubsystemLayout(payload["dims"])
    re, im = _finite_parts(payload, ("amps_re", "amps_im"), "state")
    if re.shape != im.shape or re.ndim != 1:
        raise ValueError("state payload amplitudes malformed")
    if re.shape[0] != layout.total_dim:
        raise ValueError("amplitude length does not match dims product")
    return StateVector(re + 1j * im, layout)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` unchanged (no newline translation) to a temp file, then
    rename it over ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_json(path: str, payload: dict) -> None:
    """Atomic JSON write; NaN and infinities are refused, not written."""
    _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
