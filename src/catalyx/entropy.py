"""Entropy and divergence family, including the catalytic entropies that
account for eigenvalue degeneracy.

Everything is reported in bits (log base 2).  The alpha parameter of the
Renyi quantities dispatches explicitly at 0, 1 and infinity; values within
1e-9 of a limit snap to it to avoid cancellation in 1/(1-alpha).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import hilbert
from .hilbert import (
    DensityOperator,
    EigenspaceDecomposition,
    Frozen,
    eigenspace_decompose,
    partial_trace,
)

_ALPHA_SNAP = 1e-9


def _spectrum(state) -> np.ndarray:
    """Probability vector of a density operator, spectrum list or
    distribution, the last two checked: no entry below -1e-9 and a sum
    within 1e-7 of one."""
    if isinstance(state, DensityOperator):
        return state.eigenvalues()
    p = np.asarray(state, dtype=float).reshape(-1)
    if p.size and p.min() < -1e-9:
        raise ValueError("negative probabilities")
    if abs(p.sum() - 1.0) > 1e-7:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


def _clip_zero(v: float) -> float:
    # entropies are nonnegative; remove float noise like -3e-16 (and -0.0)
    return 0.0 if -1e-9 < v <= 0.0 else v


def _shannon_bits(p: np.ndarray) -> np.ndarray:
    """-Σ q log2 q over the entries q > ``TOL_PSD`` of each distribution
    along the last axis of a stack ``p`` (an array of floats).

    The kept entries of a distribution are summed in order as one run, so a
    stack gives, bit for bit, what :func:`shannon` gives each distribution;
    summing whole rows with zeros left in would group the pairwise summation
    of a long spectrum differently.  When every distribution of a stack
    keeps equally many entries, one reduction serves them all."""
    keep = p > hilbert.TOL_PSD
    q = p[keep]
    terms = q * np.log2(q)
    if p.size == p.shape[-1]:  # a stack of one distribution
        return np.reshape(_clip_zero(float(-terms.sum())), p.shape[:-1])
    counts = keep.sum(-1).reshape(-1)
    if (counts == counts[0]).all():
        sums = terms.reshape(counts.size, counts[0]).sum(-1)
    else:
        ends = np.cumsum(counts)
        sums = np.array([terms[end - m : end].sum() for m, end in zip(counts, ends)])
    h = -sums
    h[(-1e-9 < h) & (h <= 0.0)] = 0.0  # _clip_zero, row by row
    return h.reshape(p.shape[:-1])


def shannon(p) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    return _renyi_bits(_spectrum(p), 1.0)


def von_neumann(rho: DensityOperator | Sequence[float]) -> float:
    """-Tr[rho log2 rho] from the spectrum."""
    return shannon(rho)


def von_neumann_rows(spectra: np.ndarray) -> np.ndarray:
    """The von Neumann entropies in bits of a stack (..., d) of spectra
    already validated as states' (``hilbert.factor_spectrum``, or stacked
    ``DensityOperator.eigenvalues()``): each, bit for bit, what
    :func:`von_neumann` gives its state, which checks nothing again either."""
    return _shannon_bits(spectra)


def _check_order(alpha: float) -> None:
    if not alpha >= 0:  # NaN too
        raise ValueError(f"alpha must be nonnegative, got {alpha}")


def renyi(state, alpha: float) -> float:
    """Renyi entropy H_alpha in bits; alpha=1 is von Neumann, alpha=inf is
    -log2 max p, alpha=0 is log2 of the support size."""
    _check_order(alpha)
    return _renyi_bits(_spectrum(state), alpha)


def _renyi_bits(p: np.ndarray, alpha: float) -> float:
    """H_alpha in bits of a distribution ``p`` already known to be one, at an
    order alpha >= 0, for callers whose ``p`` is valid by construction:
    :func:`renyi` without its checks, ``_renyi_support`` of ``p``'s support."""
    return _renyi_support(p[p > hilbert.TOL_PSD], alpha)


def _renyi_support(q: np.ndarray, alpha: float) -> float:
    """H_alpha in bits of a distribution given by its support: ``q`` holds its
    entries above ``TOL_PSD`` and no others, so nothing is cut again."""
    if abs(alpha - 1.0) <= _ALPHA_SNAP:
        return _clip_zero(float(-(q * np.log2(q)).sum()))
    if q.size == 0:
        return 0.0
    if math.isinf(alpha):
        return _clip_zero(float(-np.log2(q.max())))
    if alpha <= _ALPHA_SNAP:
        return float(np.log2(q.size))
    return _clip_zero(float(np.log2((q**alpha).sum()) / (1.0 - alpha)))


def min_entropy(state) -> float:
    return renyi(state, math.inf)


def max_entropy(state) -> float:
    return renyi(state, 0.0)


def mutual_information(rho: DensityOperator, part_x: Sequence[int], part_y: Sequence[int]) -> float:
    """I(X:Y) = S(X) + S(Y) - S(XY) between two disjoint, non-empty groups of
    subsystems; subsystems outside both groups are traced out first."""
    x = rho.layout.check_indices(part_x)
    y = rho.layout.check_indices(part_y)
    if not x or not y:
        raise ValueError(f"parts must be non-empty: {x} and {y}")
    if set(x) & set(y):
        raise ValueError(f"parts overlap: {x} and {y}")
    keep = sorted(x + y)
    xy = partial_trace(rho, keep)
    pos = {k: i for i, k in enumerate(keep)}
    s_x, s_y = (von_neumann(partial_trace(xy, [pos[i] for i in part])) for part in (x, y))
    # nonnegative by subadditivity: clip float noise as the entropies do
    return _clip_zero(s_x + s_y - von_neumann(xy))


def renyi_divergence(p, q, alpha: float) -> float:
    """D_alpha(p||q) = (1/(alpha-1)) log2 sum p^alpha q^(1-alpha) in bits."""
    _check_order(alpha)
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal length")
    support = p > hilbert.TOL_PSD
    if np.any(q[support] <= hilbert.TOL_PSD):
        raise ValueError("q must be positive on the support of p")
    ps, qs = p[support], q[support]
    if math.isinf(alpha):
        return float(np.log2((ps / qs).max()))
    if abs(alpha - 1.0) <= _ALPHA_SNAP:
        return float((ps * np.log2(ps / qs)).sum())
    if alpha <= _ALPHA_SNAP:
        return float(-np.log2(qs.sum()))
    return float(np.log2((ps**alpha * qs ** (1.0 - alpha)).sum()) / (alpha - 1.0))


# ---------------------------------------------------------------------------
# degeneracy-aware (catalytic) quantities


class DegeneracyVector(Frozen):
    """Eigenspace multiplicities (r_1, ..., r_n), e.g. imposed by a
    conservation law; equal vectors compare and hash equal."""

    r: tuple[int, ...]

    def __init__(self, r: Sequence[int]):
        rr = tuple(int(x) for x in r)
        if not rr or any(x < 1 for x in rr):
            raise ValueError(f"multiplicities must be positive integers, got {r}")
        object.__setattr__(self, "r", rr)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.r == other.r
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.r)

    @property
    def norm2sq(self) -> int:
        return sum(x * x for x in self.r)

    def __len__(self) -> int:
        return len(self.r)


def _as_decomposition(sigma) -> EigenspaceDecomposition:
    if isinstance(sigma, EigenspaceDecomposition):
        return sigma
    if isinstance(sigma, DensityOperator):
        return eigenspace_decompose(sigma)
    raise TypeError(f"expected DensityOperator or EigenspaceDecomposition, got {type(sigma)}")


def average_degeneracy(dec) -> float:
    """Delta = sum_i lambda_i r_i log2 r_i, the degeneracy bonus in bits."""
    dec = _as_decomposition(dec)
    return float(
        sum(v * r * np.log2(r) for v, r in zip(dec.eigenvalues, dec.multiplicities))
    )


def _catalytic_bits(eigenvalues, multiplicities, alpha: float) -> float:
    """H_alpha^cat in bits of blocks of eigenvalue lambda_i on r_i
    dimensions, at an order alpha >= 0: the one formula of the catalytic
    family.  Blocks with lambda_i <= ``TOL_PSD`` add nothing (0 log 0 = 0),
    as in :func:`renyi`; alpha=1 sums its terms in block order."""
    lam = np.asarray(eigenvalues, dtype=float)
    keep = lam > hilbert.TOL_PSD
    lam, r = lam[keep], np.asarray(multiplicities, dtype=float)[keep]
    if abs(alpha - 1.0) <= _ALPHA_SNAP:
        return _clip_zero(float(-sum(v * m * np.log2(v / m) for v, m in zip(lam, r))))
    if math.isinf(alpha):
        return _clip_zero(float(-np.log2((lam / r).max())))
    if alpha <= _ALPHA_SNAP:
        return float(np.log2((r**2).sum()))
    return _clip_zero(float(np.log2((lam**alpha * r ** (2.0 - alpha)).sum()) / (1.0 - alpha)))


def catalytic_entropy(dec) -> float:
    """S_cat = -sum_i lambda_i r_i log2(lambda_i / r_i) = S + Delta."""
    dec = _as_decomposition(dec)
    return _catalytic_bits(dec.eigenvalues, dec.multiplicities, 1.0)


def catalytic_renyi(dec, alpha: float) -> float:
    """(1/(1-alpha)) log2 sum_i lambda_i^alpha r_i^(2-alpha), with the limits
    alpha->1 (catalytic entropy), alpha->inf (-max log2 lambda_i/r_i) and
    alpha->0 (log2 sum r_i^2), each over the blocks with lambda_i above
    ``TOL_PSD``."""
    _check_order(alpha)
    dec = _as_decomposition(dec)
    return _catalytic_bits(dec.eigenvalues, dec.multiplicities, alpha)


def catalytic_min_entropy(dec) -> float:
    return catalytic_renyi(dec, math.inf)


def catalytic_max_entropy(dec) -> float:
    return catalytic_renyi(dec, 0.0)


class DivergenceFormResult(NamedTuple):
    value: float
    residual: float


def catalytic_renyi_divergence_form(dec, alpha: float) -> DivergenceFormResult:
    """Catalytic Renyi entropy computed as 2 log2 ||r||_2 minus the Renyi
    divergence between (lambda_i r_i) and t_i = r_i^2 / ||r||_2^2, together
    with the residual against the direct formula."""
    dec = _as_decomposition(dec)
    lam = np.asarray(dec.eigenvalues)
    r = np.asarray(dec.multiplicities, dtype=float)
    n2sq = float((r**2).sum())
    p = lam * r
    t = r**2 / n2sq
    value = float(np.log2(n2sq) - renyi_divergence(p, t, alpha))
    residual = abs(value - catalytic_renyi(dec, alpha))
    return DivergenceFormResult(value=value, residual=residual)


# ---------------------------------------------------------------------------
# report


class EntropyReport(NamedTuple):
    """Plain and catalytic entropy families of one state, in bits."""

    vn: float
    renyi: Mapping[float, float]
    min: float
    max: float
    catalytic_vn: float
    catalytic_renyi: Mapping[float, float]
    catalytic_min: float
    catalytic_max: float
    avg_degeneracy: float

    def to_json_dict(self) -> dict:
        return {
            "vn": self.vn,
            "renyi": {str(a): v for a, v in self.renyi.items()},
            "min": self.min,
            "max": self.max,
            "catalytic_vn": self.catalytic_vn,
            "catalytic_renyi": {str(a): v for a, v in self.catalytic_renyi.items()},
            "catalytic_min": self.catalytic_min,
            "catalytic_max": self.catalytic_max,
            "avg_degeneracy": self.avg_degeneracy,
        }


def entropy_report(sigma: DensityOperator, alphas: Sequence[float] = (0.5, 2.0)) -> EntropyReport:
    dec = eigenspace_decompose(sigma)
    return EntropyReport(
        vn=von_neumann(sigma),
        renyi={a: renyi(sigma, a) for a in alphas},
        min=min_entropy(sigma),
        max=max_entropy(sigma),
        catalytic_vn=catalytic_entropy(dec),
        catalytic_renyi={a: catalytic_renyi(dec, a) for a in alphas},
        catalytic_min=catalytic_min_entropy(dec),
        catalytic_max=catalytic_max_entropy(dec),
        avg_degeneracy=average_degeneracy(dec),
    )
