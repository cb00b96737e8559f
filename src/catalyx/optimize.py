"""Numerical maximization of entropy-production functionals and of the
entanglement-assisted classical capacity.

Reported optima are certified feasible lower bounds: the argmax is an explicit
state and the value is its exact objective.  Restarts run independently and
reduce deterministically (max value, ties to the lowest restart index).

Entropy production is maximized on the pure face only.  For rho = sum_i p_i
psi_i and the cq state omega = sum_i p_i |i><i| x Phi(psi_i), at every
alpha in {1/2, 1, 2, inf}: S_alpha(Phi(rho)) <= S_alpha(omega) <= S_alpha(p)
+ max_i S_alpha(Phi(psi_i)), and S_alpha(rho) = S_alpha(p), so the production
of rho never exceeds that of its best eigenvector.  The ascent therefore runs
over unit vectors, where the input entropy vanishes.  The min-entropy
objective is not smooth: at alpha=inf the smooth alpha=2 ascent runs and the
exact min-entropy of its argmax is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import hilbert
from .catalysis import CatalysisInstance, KrausChannel, channel_to_kraus
from .entropy import catalytic_entropy, catalytic_min_entropy, renyi
from .hilbert import dagger, eigenspace_decompose

_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
SUPPORTED_ALPHAS = (0.5, 1.0, 2.0, math.inf)
# iteration budget and gradient-norm stop of the pure-input and capacity ascents
_PURE_MAX_ITER, _PURE_TOL_GRAD = 2000, 1e-9
_EA_MAX_ITER, _EA_TOL_GRAD = 4000, 1e-7
# a move is accepted when it gains more than _ACCEPT_GAIN; a restart replaces
# the best so far when it is higher by more than _TIE_MARGIN
_ACCEPT_GAIN, _TIE_MARGIN = 1e-16, 1e-15
_TRADEOFF_SLACK = 1e-4


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    argmax: np.ndarray
    argmax_kind: str  # "pure" (state vector) or "mixed" (density matrix)
    iterations: int
    restarts: int
    converged: bool
    gradient_norm_at_end: float

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax_kind": self.argmax_kind,
            "argmax_re": self.argmax.real.tolist(),
            "argmax_im": self.argmax.imag.tolist(),
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "gradient_norm_at_end": self.gradient_norm_at_end,
        }


def _check_alpha(alpha: float) -> float:
    if alpha not in SUPPORTED_ALPHAS:
        raise ValueError(f"alpha must be one of {SUPPORTED_ALPHAS}, got {alpha}")
    return float(alpha)


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def _renyi_of_factor(x: np.ndarray, alpha: float) -> float:
    """S_alpha(XX†), normalized to unit trace, from the smaller Gram side of
    the factor X."""
    vals = np.clip(np.linalg.eigvalsh(hilbert.smaller_gram(x)[0]), 0.0, None)
    return renyi(vals / vals.sum(), alpha)


def _pullback(x: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """S_alpha(XX†) and its gradient D X in the factor X, with D the Hermitian
    dS_alpha/d(XX†) (so dS = 2 Re⟨D X, dX⟩), from one ``eigh`` of the smaller
    of X†X and XX†.  D lives on the support the value reads (eigenvalues
    above ``hilbert.TOL_PSD``), and zero eigenvalues add nothing to its trace
    normalization, so either Gram side gives the same D X."""
    gram, inner = hilbert.smaller_gram(x)
    vals, vecs = np.linalg.eigh(gram)
    p = np.clip(vals, 0.0, None)
    value = renyi(p / p.sum(), alpha)
    keep = vals > hilbert.TOL_PSD
    diag = np.zeros_like(vals)
    if alpha == 1.0:
        diag[keep] = -(np.log2(vals[keep]) + 1.0 / _LN2)
    else:
        tr = (p**alpha).sum()
        diag[keep] = (alpha / ((1.0 - alpha) * _LN2 * tr)) * vals[keep] ** (alpha - 1.0)
    dmat = (vecs * diag) @ dagger(vecs)
    return value, (x @ dmat if inner else dmat @ x)


def global_production(
    chan: KrausChannel, rho_ra: np.ndarray, ref_dim: int, alpha: float
) -> float:
    """S_alpha((I x Phi)(rho)) - S_alpha(rho) for a state on reference x input.
    One ``eigh`` of rho gives S_alpha(rho) and the factor X (the eigenvectors
    above ``hilbert.TOL_PSD``, scaled by the roots of their eigenvalues) whose
    Stinespring factor holds the output."""
    vals, vecs = np.linalg.eigh(rho_ra)
    keep = vals > hilbert.TOL_PSD
    y = chan.stinespring(vecs[:, keep] * np.sqrt(vals[keep]), ref_dim)
    p = np.clip(vals, 0.0, None)
    return _renyi_of_factor(y, alpha) - renyi(p / p.sum(), alpha)


# ---------------------------------------------------------------------------
# shared ascent loop


def _sphere_retract(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _ascend(
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iter: int,
    tol_grad: float,
) -> tuple[np.ndarray, float, int, float, bool]:
    """Backtracking gradient ascent on the unit sphere from x0.

    After an accepted move s = x' − x, with gradient change y = g' − g, the
    next trial step is the Barzilai–Borwein ratio ‖s‖² / (−Re⟨s, y⟩); a move
    that shows no curvature (−Re⟨s, y⟩ <= 0) grows the step by 1.6 instead.
    The line search halves the step until a move gains, and stops (a stall)
    once the first-order gain step·‖g‖² is at or below the rounding of f,
    where a gain could not be told from noise.  The ascent converges when
    ‖g‖ <= tol_grad, or when it stalls with ‖g‖ <= 1e3·tol_grad."""
    x = _sphere_retract(x0)
    f, g = value_grad(x)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_grad:
            return x, f, it, gnorm, True
        rounding = 4.0 * _EPS * max(1.0, abs(f))
        while step * gnorm**2 > rounding:
            cand = _sphere_retract(x + step * g)
            fc, gc = value_grad(cand)
            if fc > f + _ACCEPT_GAIN:
                s = cand - x
                curv = -np.vdot(s, gc - g).real
                step = np.vdot(s, s).real / curv if curv > 0 else 1.6 * step
                x, f, g = cand, fc, gc
                break
            step *= 0.5
        else:
            return x, f, it, gnorm, gnorm <= 1e3 * tol_grad
    return x, f, it, float(np.linalg.norm(g)), False


def _best_ascent(
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    starts: Iterable[np.ndarray],
    max_iter: int,
    tol_grad: float,
) -> tuple[np.ndarray, float, int, float, bool]:
    """Ascend from each start and keep the best (strictly better by
    _TIE_MARGIN, ties to the lowest index); iterations are summed over the
    starts."""
    best = None
    total_iter = 0
    for x0 in starts:
        x, f, its, gnorm, conv = _ascend(value_grad, x0, max_iter, tol_grad)
        total_iter += its
        if best is None or f > best[1] + _TIE_MARGIN:
            best = (x, f, gnorm, conv)
    x, f, gnorm, conv = best
    return x, f, total_iter, gnorm, conv


def _project_tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - (np.vdot(v, g)) * v


# ---------------------------------------------------------------------------
# entropy production


def _pure_ascent(
    chan: KrausChannel, ref: int, alpha: float, restarts: int, seed: int
) -> OptimizationResult:
    """Maximize S_alpha((1_ref x Phi)(psi psi†)) over unit vectors psi on
    reference x input; at alpha=inf the alpha=2 ascent runs and its argmax is
    scored exactly.

    Each evaluation takes the entropy of the output YY† and its pull-back
    Z = f'(YY†) Y from the Stinespring factor Y of psi (:func:`_pullback`);
    the gradient is 2 ``chan.stinespring_adjoint(Z)``."""
    alpha = _check_alpha(alpha)
    _check_restarts(restarts)
    smooth = 2.0 if math.isinf(alpha) else alpha

    def value_grad(v: np.ndarray):
        s, z = _pullback(chan.stinespring(v[:, None], ref), smooth)
        g = 2.0 * chan.stinespring_adjoint(z, ref)[:, 0]
        return s, _project_tangent(v, g)

    rng = hilbert._rng(seed)
    dim = ref * chan.dim_in
    starts = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(restarts))
    v, f, total_iter, gnorm, conv = _best_ascent(
        value_grad, starts, _PURE_MAX_ITER, _PURE_TOL_GRAD
    )
    if math.isinf(alpha):
        f = _renyi_of_factor(chan.stinespring(v[:, None], ref), alpha)
    return OptimizationResult(
        value=f, argmax=v, argmax_kind="pure", iterations=total_iter,
        restarts=restarts, converged=conv, gradient_norm_at_end=gnorm,
    )


def max_entropy_production_global(
    chan: KrausChannel, alpha: float = 1.0, restarts: int = 16, seed: int = 0
) -> OptimizationResult:
    """Maximize S_alpha((I x Phi)(psi)) over pure psi on reference x input
    with matching dimensions (pure inputs suffice for the maximum, and a
    reference of the input dimension exhausts the Schmidt rank)."""
    return _pure_ascent(chan, chan.dim_in, alpha, restarts, seed)


def max_entropy_production_local(
    chan: KrausChannel, alpha: float = 1.0, restarts: int = 16, seed: int = 0
) -> OptimizationResult:
    """Maximize S_alpha(Phi(rho)) - S_alpha(rho) over input states; pure
    inputs suffice (module docstring), so the argmax is a state vector."""
    return _pure_ascent(chan, 1, alpha, restarts, seed)


# ---------------------------------------------------------------------------
# entanglement-assisted classical capacity


def ea_objective(chan: KrausChannel, rho: np.ndarray) -> float:
    """Quantum mutual information I(rho, Phi) = S(rho) + S(Phi(rho)) - S_E,
    with S_E the entropy of the complementary output: the value of
    :func:`ea_objective_gradient` at a factor L of rho (LL† = rho)."""
    vals, vecs = np.linalg.eigh(rho)
    return ea_objective_gradient(chan, vecs * np.sqrt(np.clip(vals, 0.0, None)))[0]


def ea_objective_gradient(chan: KrausChannel, el: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and Wirtinger gradient of the capacity objective in the factor
    parameterization rho = L L† / Tr(L L†).  With X = L / ||L|| and Y its
    Stinespring factor, rho = XX†, Phi(rho) = YY† and Y regrouped as (·, n)
    holds the complementary output; the three entropies are pulled back to X,
    and the gradient in L is the part of their sum orthogonal to X, / ||L||."""
    t = np.sqrt(np.vdot(el, el).real)
    x = el / t
    y = chan.stinespring(x)
    s_in, z_in = _pullback(x, 1.0)
    s_out, z_out = _pullback(y, 1.0)
    s_exch, z_exch = _pullback(y.reshape(-1, len(chan.kraus)), 1.0)
    g = z_in + chan.stinespring_adjoint(z_out - z_exch.reshape(y.shape))
    return s_in + s_out - s_exch, (g - np.vdot(x, g).real * x) / t


def ea_capacity(chan: KrausChannel, seed: int = 0, restarts: int = 4) -> OptimizationResult:
    """Maximize the quantum mutual information over input states.  The
    objective is concave in rho, so ascent from a full-rank start converges to
    the global maximum; the value is still certified as a feasible point."""
    _check_restarts(restarts)
    d = chan.dim_in

    def value_grad(v: np.ndarray):
        el = v.reshape(d, d)
        f, g = ea_objective_gradient(chan, el)
        return f, g.reshape(-1)

    rng = hilbert._rng(seed)
    starts = [np.eye(d, dtype=complex).reshape(-1)]
    for _ in range(restarts - 1):
        starts.append(rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d))
    v, f, total_iter, gnorm, conv = _best_ascent(value_grad, starts, _EA_MAX_ITER, _EA_TOL_GRAD)
    el = v.reshape(d, d)
    rho = el @ dagger(el)
    rho = rho / np.trace(rho).real
    return OptimizationResult(
        value=f, argmax=rho, argmax_kind="mixed", iterations=total_iter,
        restarts=len(starts), converged=conv, gradient_norm_at_end=gnorm,
    )


# ---------------------------------------------------------------------------
# capacity-randomness tradeoff


@dataclass(frozen=True)
class TradeoffReport:
    lhs: float
    rhs: float          # catalytic min-entropy of the catalyst
    rhs_vn: float       # catalytic (von Neumann) entropy of the catalyst
    capacity: float
    ok: bool            # lhs <= rhs + slack
    ok_vn: bool         # lhs <= rhs_vn + slack


def tradeoff_check(inst: CatalysisInstance, seed: int = 0) -> TradeoffReport:
    """Check 2 log2 d - C_EA(Phi) <= catalytic min-entropy of the catalyst.

    The capacity is a certified lower bound, making the left side an upper
    bound; the check is therefore conservative.  A stored sub-catalysis
    decomposition (a refinement imposed by a conservation law) sharpens the
    right side.

    The min-entropy bound holds whenever the catalyst's block ratios
    lambda_i/r_i are flat (conserved-optimal and maximally mixed catalysts)
    or the block weights are uniform, and is tight on the dephasing family.
    For non-uniform mixtures the single-letter capacity can undershoot it
    (e.g. 0.9 rho + 0.1 Z rho Z has 2 - C_EA = H(0.9, 0.1) > -log2 0.9), so
    the report also carries the weaker bound against the full catalytic
    entropy, which held on every catalysis probed.
    """
    chan = channel_to_kraus(inst)
    cap = ea_capacity(chan, seed=seed).value
    lhs = 2 * math.log2(inst.a_dim) - cap
    if inst.decomposition:
        lam_r = [(w / (sub.b_dim**2), sub.b_dim) for w, sub in inst.decomposition]
        rhs = -max(math.log2(lr) for lr, _ in lam_r)
        rhs_vn = -sum(lr * r * r * math.log2(lr) for lr, r in lam_r)
    else:
        dec = eigenspace_decompose(inst.sigma)
        rhs = catalytic_min_entropy(dec)
        rhs_vn = catalytic_entropy(dec)
    return TradeoffReport(
        lhs=lhs, rhs=rhs, rhs_vn=rhs_vn, capacity=cap,
        ok=lhs <= rhs + _TRADEOFF_SLACK, ok_vn=lhs <= rhs_vn + _TRADEOFF_SLACK,
    )
