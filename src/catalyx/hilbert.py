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
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m†m - 1."""
    d = m.shape[0]
    return float(np.linalg.norm(dagger(m) @ m - np.eye(d)))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions tagging an operator."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

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


@dataclass(frozen=True)
class StateVector:
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
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 100 * TOL_NORM:
            raise ValueError(f"state vector norm {norm} too far from 1")
        object.__setattr__(self, "amplitudes", _freeze(amps / norm))
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityOperator":
        """|v><v|, held as its rank-1 factor."""
        return DensityOperator.from_factor(self.amplitudes[:, None], self.layout)


@dataclass(frozen=True, eq=False)
class DensityOperator:
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
        m = np.asarray(matrix, dtype=complex)
        d = layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
        if np.linalg.norm(m - dagger(m)) > TOL_HERM:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > 100 * TOL_NORM:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        self._keep(layout, _validated_spectrum(hermitian_eigvalsh(m), d), m, None)

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
        computes it once, from ``eigh``, as the eigenvectors whose eigenvalues
        exceed ``TOL_PSD``, each scaled by the root of its eigenvalue."""
        if self._factor is None:
            vals, vecs = np.linalg.eigh(self._matrix)
            keep = vals > TOL_PSD
            object.__setattr__(self, "_factor", _freeze(vecs[:, keep] * np.sqrt(vals[keep])))
        return self._factor

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending, clipped at zero (read-only; kept
        from validation)."""
        return self._spectrum


@dataclass(frozen=True)
class UnitaryOperator:
    """Unitary matrix with a subsystem layout."""

    matrix: np.ndarray
    layout: SubsystemLayout

    def __init__(self, matrix, layout):
        layout = _as_layout(layout)
        m = np.asarray(matrix, dtype=complex)
        d = layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dim {d}")
        defect = unitarity_defect(m)
        if defect > TOL_UNITARY:
            raise ValueError(f"matrix is not unitary: defect {defect}")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenspaceDecomposition:
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
        d, rank = stacked.shape
        if np.linalg.norm(dagger(stacked) @ stacked - np.eye(rank)) > 1e-7:
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


def tensor(a, b):
    """Kronecker product of two states or two operators; layouts concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.layout.concat(b.layout))
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("cannot tensor a state with an operator")
    kinds = (DensityOperator, UnitaryOperator)
    if not (isinstance(a, kinds) and isinstance(b, kinds)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    m = np.kron(a.matrix, b.matrix)
    layout = a.layout.concat(b.layout)
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(m, layout)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(m, layout)
    raise TypeError("cannot tensor a density operator with a unitary")


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
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
    """Transpose applied only on the index pairs of the chosen subsystems."""
    dims = [int(d) for d in dims]
    n = len(dims)
    t = m.reshape(dims + dims)
    perm = list(range(2 * n))
    for s in SubsystemLayout(dims).check_indices(subsystems):
        perm[s], perm[n + s] = perm[n + s], perm[s]
    d = int(np.prod(dims))
    return t.transpose(perm).reshape(d, d)


def partial_transpose(op, subsystems: Sequence[int]) -> np.ndarray:
    """Partial transpose of a tagged operator; the result is a raw matrix
    since it is in general neither unitary nor PSD."""
    if isinstance(op, (DensityOperator, UnitaryOperator)):
        return ptranspose_matrix(op.matrix, op.layout.dims, subsystems)
    raise TypeError(f"cannot partial-transpose {type(op).__name__}")


def embed_operator(op: np.ndarray, full_dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """Embed ``op`` acting on the subsystems at ``positions`` into the full space."""
    full_dims = [int(d) for d in full_dims]
    n = len(full_dims)
    positions = [int(p) for p in positions]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions")
    op_dims = [full_dims[p] for p in positions]
    if op.shape[0] != int(np.prod(op_dims)):
        raise ValueError("operator does not match the dimensions at positions")
    rest = [i for i in range(n) if i not in positions]
    rest_dim = int(np.prod([full_dims[i] for i in rest])) if rest else 1
    big = np.kron(op, np.eye(rest_dim, dtype=complex))
    # big is ordered [positions..., rest...]; permute back to layout order
    order = positions + rest
    inv = np.argsort(order)
    dims_in_order = [full_dims[i] for i in order]
    t = big.reshape(dims_in_order + dims_in_order)
    perm = list(inv) + [n + i for i in inv]
    d = int(np.prod(full_dims))
    return t.transpose(perm).reshape(d, d)


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
    """Hermitian eigendecomposition with eigenvalues sorted descending."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


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
    vals = np.clip(vals, 0.0, None)
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
    stack (..., k, k) in one solver call.  A matrix, or a whole stack, whose
    imaginary part is exactly zero (as kron and matmul of real data leave it)
    goes to the real symmetric solver, about 4x faster than the complex one
    at D = 625."""
    if m.dtype.kind == "c" and not np.count_nonzero(m.imag):
        m = m.real
    return np.linalg.eigvalsh(m)


def _validated_spectrum(vals: np.ndarray, dim: int) -> np.ndarray:
    """The spectrum of a state of dimension ``dim`` from its ascending
    eigenvalues ``vals`` (zeros beyond them are implied), checked against the
    PSD floor and returned padded, descending and clipped at zero.  Leading
    axes index a stack of spectra, each checked alone."""
    low = min(vals[..., 0].flat)
    if low < -10 * TOL_PSD:
        raise ValueError(f"density matrix has negative eigenvalue {low}")
    spectrum = np.zeros(vals.shape[:-1] + (dim,))
    spectrum[..., : vals.shape[-1]] = np.clip(vals[..., ::-1], 0.0, None)
    return spectrum


def factor_spectrum(x: np.ndarray) -> np.ndarray:
    """The validated spectrum (see :func:`_validated_spectrum`) of the state
    XX† held as its factor X (D×r), from the smaller Gram side of X after
    checking that its trace ||X||_F^2 is one.  Leading axes of ``x`` index a
    stack of factors: one solver call gives all their spectra."""
    gram, _ = smaller_gram(x)
    for trace in gram.trace(axis1=-2, axis2=-1).real.flat:  # = ||X||_F^2
        if abs(trace - 1.0) > 100 * TOL_NORM:
            raise ValueError(f"density matrix trace {trace} != 1")
    return _validated_spectrum(hermitian_eigvalsh(gram), x.shape[-2])


def trace_distance(a: DensityOperator | np.ndarray, b: DensityOperator | np.ndarray) -> float:
    """Half the trace norm of the difference."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b)
    vals = hermitian_eigvalsh(ma - mb)
    return float(0.5 * np.abs(vals).sum())


# ---------------------------------------------------------------------------
# canonical operators


def basis_state(d: int, i: int, layout=None) -> StateVector:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return StateVector(v, layout if layout is not None else [d])


def plus_state(d: int) -> StateVector:
    """Uniform superposition (1/sqrt(d)) sum_i |i⟩."""
    return StateVector(np.full(d, 1 / np.sqrt(d), dtype=complex), [d])


def maximally_mixed(dims) -> DensityOperator:
    layout = _as_layout(dims)
    d = layout.total_dim
    return DensityOperator(np.eye(d) / d, layout)


def clock_matrix(d: int) -> np.ndarray:
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
    return basis_permutation([d], lambda k: (k + 1,))


def weyl_set(d: int) -> list[np.ndarray]:
    """X^a Z^b at index a d + b; the d^2 of them are orthogonal: Tr(W†W') = d δ."""
    x, z = shift_matrix(d), clock_matrix(d)
    xs = [np.linalg.matrix_power(x, a) for a in range(d)]
    zs = [np.linalg.matrix_power(z, b) for b in range(d)]
    return [xa @ zb for xa in xs for zb in zs]


def swap_matrix(d: int) -> np.ndarray:
    return basis_permutation([d, d], lambda i, j: (j, i))


def fourier_matrix(d: int) -> np.ndarray:
    n, m = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * n * m / d) / np.sqrt(d)


def max_entangled(d: int) -> np.ndarray:
    """Amplitudes of |Γ> = (1/sqrt(d)) sum_i |i>|i> on a d x d layout."""
    gamma = np.zeros(d * d, dtype=complex)
    gamma[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return gamma


@dataclass(frozen=True)
class CanonicalOperators:
    clock: UnitaryOperator
    shift: UnitaryOperator
    swap: UnitaryOperator
    max_entangled: StateVector
    fourier: UnitaryOperator


def canonical_operators(d: int) -> CanonicalOperators:
    """Clock Z, shift X, swap F, maximally entangled state and Fourier matrix."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
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


def haar_unitary_matrix(d: int, seed) -> np.ndarray:
    rng = _rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    ph = ph / np.abs(ph)
    return q * ph


def haar_unitary(d: int, seed, layout=None) -> UnitaryOperator:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    triangular factor's diagonal phases fixed.  Deterministic per seed."""
    return UnitaryOperator(haar_unitary_matrix(d, seed), layout if layout is not None else [d])


def haar_state(d: int, seed, layout=None) -> StateVector:
    rng = _rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(v / np.linalg.norm(v), layout if layout is not None else [d])


def random_density(dims, rank: int, seed) -> DensityOperator:
    """Random density operator of the given rank: Haar orthonormal vectors
    combined with uniform-simplex weights."""
    layout = _as_layout(dims)
    d = layout.total_dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range for dimension {d}")
    rng = _rng(seed)
    u = haar_unitary_matrix(d, rng)
    vecs = u[:, :rank]
    w = rng.dirichlet(np.ones(rank))
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


def payload_to_matrix(payload: dict) -> tuple[np.ndarray, SubsystemLayout]:
    if not _OPERATOR_KEYS.issubset(payload):
        raise ValueError(f"operator payload must contain keys {sorted(_OPERATOR_KEYS)}")
    layout = SubsystemLayout(payload["dims"])
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
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
    re = np.asarray(payload["amps_re"], dtype=float)
    im = np.asarray(payload["amps_im"], dtype=float)
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
