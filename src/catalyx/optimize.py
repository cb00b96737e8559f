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
_EIG_FLOOR = 1e-18
SUPPORTED_ALPHAS = (0.5, 1.0, 2.0, math.inf)
# iteration budget and gradient-norm stop of the pure-input and capacity ascents
_PURE_MAX_ITER, _PURE_TOL_GRAD = 2000, 1e-9
_EA_MAX_ITER, _EA_TOL_GRAD = 4000, 1e-7
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


def _renyi_of_matrix(m: np.ndarray, alpha: float) -> float:
    vals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return renyi(vals / vals.sum(), alpha)


def _renyi_and_derivative(m: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """S_alpha(M) and the Hermitian D with dS_alpha = Tr[D dM], both from one
    eigendecomposition; eigenvalues are floored for the logs of D."""
    vals, vecs = np.linalg.eigh(m)
    p = np.clip(vals, 0.0, None)
    value = renyi(p / p.sum(), alpha)
    vals = np.clip(vals, _EIG_FLOOR, None)
    if alpha == 1.0:
        diag = -(np.log2(vals) + 1.0 / _LN2)
    else:
        tr = (vals**alpha).sum()
        diag = (alpha / ((1.0 - alpha) * _LN2 * tr)) * vals ** (alpha - 1.0)
    return value, (vecs * diag) @ dagger(vecs)


def global_production(
    chan: KrausChannel, rho_ra: np.ndarray, ref_dim: int, alpha: float
) -> float:
    """S_alpha((I x Phi)(rho)) - S_alpha(rho) for a state on reference x input."""
    out = chan.extended_apply_matrix(rho_ra, ref_dim)
    return _renyi_of_matrix(out, alpha) - _renyi_of_matrix(rho_ra, alpha)


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
    """Backtracking gradient ascent on the unit sphere from x0."""
    x = _sphere_retract(x0)
    f, g = value_grad(x)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_grad:
            return x, f, it, gnorm, True
        moved = False
        for _ in range(40):
            cand = _sphere_retract(x + step * g)
            fc, gc = value_grad(cand)
            if fc > f + 1e-16:
                x, f, g = cand, fc, gc
                step *= 1.6
                moved = True
                break
            step *= 0.5
            if step < 1e-14:
                break
        if not moved:
            gnorm = float(np.linalg.norm(g))
            return x, f, it, gnorm, gnorm <= 1e3 * tol_grad
    return x, f, it, float(np.linalg.norm(g)), False


def _best_ascent(
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    starts: Iterable[np.ndarray],
    max_iter: int,
    tol_grad: float,
) -> tuple[np.ndarray, float, int, float, bool]:
    """Ascend from each start and keep the best (strictly better by 1e-15,
    ties to the lowest index); iterations are summed over the starts."""
    best = None
    total_iter = 0
    for x0 in starts:
        x, f, its, gnorm, conv = _ascend(value_grad, x0, max_iter, tol_grad)
        total_iter += its
        if best is None or f > best[1] + 1e-15:
            best = (x, f, gnorm, conv)
    x, f, gnorm, conv = best
    return x, f, total_iter, gnorm, conv


def _project_tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - (np.vdot(v, g)) * v


# ---------------------------------------------------------------------------
# entropy production


def _pure_ascent(
    apply: Callable[[np.ndarray], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    dim: int,
    alpha: float,
    restarts: int,
    seed: int,
) -> OptimizationResult:
    """Maximize S_alpha(apply(psi psi†)) over unit vectors psi of length dim;
    at alpha=inf the alpha=2 ascent runs and its argmax is scored exactly."""
    alpha = _check_alpha(alpha)
    _check_restarts(restarts)
    smooth = 2.0 if math.isinf(alpha) else alpha

    def value_grad(v: np.ndarray):
        s, dmat = _renyi_and_derivative(apply(np.outer(v, v.conj())), smooth)
        g = 2.0 * adjoint(dmat) @ v
        return s, _project_tangent(v, g)

    rng = hilbert._rng(seed)
    starts = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(restarts))
    v, f, total_iter, gnorm, conv = _best_ascent(
        value_grad, starts, _PURE_MAX_ITER, _PURE_TOL_GRAD
    )
    if math.isinf(alpha):
        f = _renyi_of_matrix(apply(np.outer(v, v.conj())), alpha)
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
    d = chan.dim_in
    return _pure_ascent(
        lambda m: chan.extended_apply_matrix(m, d),
        lambda m: chan.extended_adjoint_matrix(m, d),
        d * d, alpha, restarts, seed,
    )


def max_entropy_production_local(
    chan: KrausChannel, alpha: float = 1.0, restarts: int = 16, seed: int = 0
) -> OptimizationResult:
    """Maximize S_alpha(Phi(rho)) - S_alpha(rho) over input states; pure
    inputs suffice (module docstring), so the argmax is a state vector."""
    return _pure_ascent(
        chan.apply_matrix, chan.adjoint_matrix,
        chan.dim_in, alpha, restarts, seed,
    )


# ---------------------------------------------------------------------------
# entanglement-assisted classical capacity


def ea_objective(chan: KrausChannel, rho: np.ndarray) -> float:
    """Quantum mutual information I(rho, Phi) = S(rho) + S(Phi(rho)) - S_E,
    with S_E the entropy of the complementary output."""
    s_in = _renyi_of_matrix(rho, 1.0)
    s_out = _renyi_of_matrix(chan.apply_matrix(rho), 1.0)
    s_exch = _renyi_of_matrix(chan.complementary_matrix(rho), 1.0)
    return s_in + s_out - s_exch


def ea_objective_gradient(chan: KrausChannel, el: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and Wirtinger gradient of the capacity objective in the factor
    parameterization rho = L L† / Tr(L L†)."""
    d = chan.dim_in
    t = np.trace(el @ dagger(el)).real
    rho = (el @ dagger(el)) / t
    s_in, d_in = _renyi_and_derivative(rho, 1.0)
    s_out, d_out = _renyi_and_derivative(chan.apply_matrix(rho), 1.0)
    s_exch, d_exch = _renyi_and_derivative(chan.complementary_matrix(rho), 1.0)
    f = s_in + s_out - s_exch
    # -sum_ij D_G[i, j] K_i† K_j: minus the adjoint of the complementary map
    grad_exch = -np.einsum("ij,ioa,job->ab", d_exch, chan.kraus.conj(), chan.kraus)
    gmat = d_in + chan.adjoint_matrix(d_out) + grad_exch
    gmat = 0.5 * (gmat + dagger(gmat))
    grad_l = ((gmat - np.trace(gmat @ rho).real * np.eye(d)) @ el) / t
    return f, grad_l


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
