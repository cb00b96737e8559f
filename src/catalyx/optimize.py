"""Numerical maximization of entropy-production functionals and of the
entanglement-assisted classical capacity.

Every reported optimum is a feasible lower bound: the argmax is an explicit
state and the value is its exact objective.  Where the problem is concave in
the input state (global production at alpha in {1/2, 1, 2}, and C_EA) one
ascent runs from a fixed start, since a second start could only reach the
same maximum: global production starts at the maximally entangled input
vec(1), C_EA at the maximally mixed state.  The optimum is then bracketed:
``upper_bound`` is a certified upper bound on the maximum, from one
linearization of the objective at the argmax, which reads the ascent's last
evaluation, or None where the objective is not differentiable there on the
face its outputs live on.  Local production is not concave: its starts are
random, drawn from the seed, run one after the other and reduce
deterministically (max value, ties to the lowest restart index).

Entropy production is maximized on the pure face only.  For rho = sum_i p_i
psi_i and the cq state omega = sum_i p_i |i><i| x Phi(psi_i), at every
alpha in {1/2, 1, 2, inf}: S_alpha(Phi(rho)) <= S_alpha(omega) <= S_alpha(p)
+ max_i S_alpha(Phi(psi_i)), and S_alpha(rho) = S_alpha(p), so the production
of rho never exceeds that of its best eigenvector.  The ascent therefore runs
over unit vectors, where the input entropy vanishes.  The min-entropy
objective is not smooth: at alpha=inf the alpha=2 ascent runs (globally
certified by its alpha=2 bound, as H_inf <= H_2 at every point) and the
exact min-entropy of its argmax is reported.

For a pure psi on reference x input with input marginal rho,
(1 x Phi)(psi psi†) and Phi_c(rho) share their nonzero spectrum, so the
global maximum is max_rho S_alpha(Phi_c(rho)): concave in rho at alpha <= 1,
and at alpha=2 the minimum of the convex Tr Phi_c(rho)^2.

The paper checks read these brackets and take no seed:
:func:`cost_bound_check` the upper side of the global alpha=1 production
maximum, so its pass holds for every input, and :func:`tradeoff_check` the
C_EA value, a lower side; each report says whether its run was certified.

Module-level state: ``_LAST_SPECTRA``, the memo of :func:`global_production`,
with one entry per live channel; a channel itself is never written.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import hilbert
from .catalysis import CatalysisInstance, KrausChannel, channel_to_kraus
from .entropy import _catalytic_bits, _check_order, _renyi_bits, _renyi_support, von_neumann
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
_LAST_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class OptimizationResult(NamedTuple):
    value: float
    argmax: np.ndarray
    argmax_kind: str  # "pure" (state vector) or "mixed" (density matrix)
    iterations: int
    restarts: int
    converged: bool
    gradient_norm_at_end: float
    # certified upper bound on the maximum; None for local production and
    # where no certificate holds at the argmax (a singular output, say)
    upper_bound: float | None = None

    # element-wise tuple equality raises on the ndarray field: compare and
    # hash by identity, as the value types do
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

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
            "upper_bound": self.upper_bound,
        }


def _check_alpha(alpha: float) -> float:
    if alpha not in SUPPORTED_ALPHAS:
        raise ValueError(f"alpha must be one of {SUPPORTED_ALPHAS}, got {alpha}")
    return float(alpha)


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def _support(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues clipped at zero, normalized to unit sum and cut to the
    entries above ``hilbert.TOL_PSD``, all that the entropies read."""
    p = np.maximum(vals, 0.0)
    p = p / p.sum()
    return p[p > hilbert.TOL_PSD]


def _factor_support(x: np.ndarray) -> np.ndarray:
    """The support of the spectrum of XX†, normalized to unit trace, from the
    smaller Gram side of the factor X."""
    return _support(np.linalg.eigvalsh(hilbert.smaller_gram(x)[0]))


def _entropy_derivative(
    m: np.ndarray, alpha: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """S_alpha of the PSD matrix M normalized to unit trace, the Hermitian
    D = dS_alpha/dM up to a multiple of the identity, and the eigenvalues of M
    with those of D on the same eigenvectors, from one ``eigh``.  D lives on
    the support the value reads (eigenvalues above ``hilbert.TOL_PSD``)."""
    vals, vecs = np.linalg.eigh(m)
    p = np.maximum(vals, 0.0)
    value = _renyi_bits(p / p.sum(), alpha)
    keep = vals > hilbert.TOL_PSD
    diag = np.zeros_like(vals)
    if alpha == 1.0:
        diag[keep] = -(np.log2(vals[keep]) + 1.0 / _LN2)
    else:
        tr = (p**alpha).sum()
        diag[keep] = (alpha / ((1.0 - alpha) * _LN2 * tr)) * vals[keep] ** (alpha - 1.0)
    return value, (vecs * diag) @ dagger(vecs), vals, diag


def _pullback(x: np.ndarray, alpha: float) -> tuple[float, np.ndarray, tuple]:
    """S_alpha(XX†) and its gradient D X in the factor X, with D the Hermitian
    dS_alpha/d(XX†) (so dS = 2 Re⟨D X, dX⟩), from one ``eigh`` of the smaller
    of X†X and XX†.  D lives on the support the value reads, and zero
    eigenvalues add nothing to its trace normalization, so either Gram side
    gives the same D X.  Last comes (the side solved is X†X, its
    ``_entropy_derivative`` tuple), for ``_gram_derivative``."""
    gram, inner = hilbert.smaller_gram(x)
    side = _entropy_derivative(gram, alpha)
    return side[0], (x @ side[1] if inner else side[1] @ x), (inner, side)


def _gram_derivative(x: np.ndarray, solved: tuple | None, inner: bool, alpha: float) -> tuple:
    """``_entropy_derivative`` of X†X (``inner``) or XX†: from ``solved`` (the
    last item of X's ``_pullback``) where it solved that side, else one ``eigh``."""
    if solved is not None and solved[0] == inner:
        return solved[1]
    return _entropy_derivative(dagger(x) @ x if inner else x @ dagger(x), alpha)


def global_production(
    chan: KrausChannel, rho_ra: np.ndarray, ref_dim: int, alpha: float
) -> float:
    """S_alpha((I x Phi)(rho)) - S_alpha(rho) for a state on reference x input.
    One ``eigh`` of rho (``hilbert.psd_factor``) gives its spectrum and the
    factor X whose Stinespring factor holds the output; one ``eigvalsh`` of
    the smaller Gram side of that factor gives the output spectrum.

    Neither spectrum depends on alpha, so ``_LAST_SPECTRA`` keeps the
    supports of both (``_support``, read through ``_renyi_support``) of the
    last input of each channel, as one tuple (key, input support, output
    support), held weakly: an entry goes with its channel.  The key is
    (ref_dim, ``hilbert.TOL_PSD``, shape, dtype, rho's C-ordered bytes): the
    same rho at another alpha skips all three solves, and a rho changed in
    place, or a changed tolerance, solves again.  An entry holds rho's D²
    entries and the two supports; it is read once and replaced whole, so a
    channel may be shared across threads."""
    _check_order(alpha)
    rho = np.asarray(rho_ra)
    key = (ref_dim, hilbert.TOL_PSD, rho.shape, rho.dtype, rho.tobytes())
    last = _LAST_SPECTRA.get(chan)
    if last is None or last[0] != key:
        vals, x = hilbert.psd_factor(rho)
        last = (key, _support(vals), _factor_support(chan.stinespring(x, ref_dim)))
        _LAST_SPECTRA[chan] = last
    _, q_in, q_out = last
    return _renyi_support(q_out, alpha) - _renyi_support(q_in, alpha)


# ---------------------------------------------------------------------------
# shared ascent loop


def _sphere_retract(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _ascend(
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray, object]],
    x0: np.ndarray,
    max_iter: int,
    tol_grad: float,
) -> tuple[np.ndarray, float, int, float, bool, object, object]:
    """Backtracking gradient ascent on the unit sphere from x0.  ``value_grad``
    gives f, its gradient and its evaluation, returned at the end point and,
    last, at x0.

    After an accepted move s = x' − x, with gradient change y = g' − g, the
    next trial step is the Barzilai–Borwein ratio ‖s‖² / (−Re⟨s, y⟩); a move
    that shows no curvature (−Re⟨s, y⟩ <= 0) grows the step by 1.6 instead.
    The line search halves the step until a move gains, and stops (a stall)
    once the first-order gain step·‖g‖² is at or below the rounding of f,
    where a gain could not be told from noise.  The ascent converges when
    ‖g‖ <= tol_grad, or when it stalls with ‖g‖ <= 1e3·tol_grad."""
    x = _sphere_retract(x0)
    f, g, ev = value_grad(x)
    start, step = ev, 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_grad:
            return x, f, it, gnorm, True, ev, start
        rounding = 4.0 * _EPS * max(1.0, abs(f))
        while step * gnorm**2 > rounding:
            cand = _sphere_retract(x + step * g)
            fc, gc, evc = value_grad(cand)
            if fc > f + _ACCEPT_GAIN:
                s = cand - x
                curv = -np.vdot(s, gc - g).real
                step = np.vdot(s, s).real / curv if curv > 0 else 1.6 * step
                x, f, g, ev = cand, fc, gc, evc
                break
            step *= 0.5
        else:
            return x, f, it, gnorm, gnorm <= 1e3 * tol_grad, ev, start
    return x, f, it, float(np.linalg.norm(g)), False, ev, start


def _maximize(value_grad: Callable, starts: Iterable[np.ndarray], max_iter: int,
              tol_grad: float, certify: Callable | None = None) -> tuple[np.ndarray, float, dict]:
    """Ascend from each start in turn (``_ascend``) and keep the best: a later
    start must be higher by more than _TIE_MARGIN, so ties go to the lowest
    index.  The one driver of every maximization.  Returns the best end
    point, its value and the ``OptimizationResult`` fields: iterations summed
    over the starts, their count, the best start's convergence and
    ``upper_bound``, ``certify(start, end, f)`` of the best start's two
    evaluations and its value (an upper bound on the maximum, at least f as
    each bound clips its gap at zero, or None), or None without ``certify``."""
    best = None
    total_iter = runs = 0
    for x0 in starts:
        run = _ascend(value_grad, x0, max_iter, tol_grad)
        total_iter += run[2]
        runs += 1
        if best is None or run[1] > best[1] + _TIE_MARGIN:
            best = run
    x, f, _, gnorm, conv, end, start = best
    return x, f, {"iterations": total_iter, "restarts": runs, "converged": conv,
                  "gradient_norm_at_end": gnorm,
                  "upper_bound": None if certify is None else certify(start, end, f)}


def _random_starts(seed, dim: int, count: int) -> Iterator[np.ndarray]:
    """``count`` complex standard normal vectors of length ``dim``, drawn in
    turn from ``hilbert._rng(seed)``: the starts of local production."""
    rng = hilbert._rng(seed)
    for _ in range(count):
        yield rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# ---------------------------------------------------------------------------
# certified upper bounds of the concave problems


def _rank(side: tuple) -> int:
    """The eigenvalues above ``hilbert.TOL_PSD`` in an ``_entropy_derivative``
    tuple.  Every state σ <= 1, so every output lies in the face of PSD
    matrices on supp Φ(1), resp. supp Φ_c(1), where an entropy is
    differentiable at each point of full face rank, with D cut to the
    support as its derivative.  At a concave ascent's fixed start, input
    1/d, this reads the face ranks: d, rank Φ(1) and rank Φ_c(1)."""
    return int(np.count_nonzero(side[2] > hilbert.TOL_PSD))


def _input_operator(
    chan: KrausChannel, eye: np.ndarray, w_out: np.ndarray | None, w_exch: np.ndarray
) -> np.ndarray:
    """The d_in×d_in H with Tr[Hρ] = Tr[W_out Φ(ρ)] + Tr[W_exch Y†Y] for every
    ρ = XX†, where Y is the Stinespring factor of X regrouped as (·, n), so
    Y†Y = Φ_c(ρ)ᵀ: Φ†(W_out) plus the complementary part (W_out None: that
    part alone).  Read off ``eye`` = ``chan.identity_factor()`` (an ascent
    takes it once for all its certificates) and one adjoint, as
    ``ea_objective_gradient`` pulls back at X = 1."""
    z = (eye.reshape(-1, len(chan.kraus)) @ w_exch).reshape(eye.shape)
    return chan.stinespring_adjoint(z if w_out is None else w_out @ eye + z)


def _production_bound(
    chan: KrausChannel, eye: np.ndarray, evaluation: tuple, alpha: float, value: float, face: int
) -> float | None:
    """Certified upper bound on the global production maximum
    max_σ S_alpha(Φ_c(σ)) at alpha in {1/2, 1, 2}, from one linearization at
    a state ρ.  ``evaluation`` is (y, ``_pullback(y)[2]`` or None), y the
    Stinespring factor of a unit-trace factor of ρ regrouped as (·, n) (for
    a pure ψ on reference x input, ``chan.stinespring(ψ, ref)``, ρ its input
    marginal), so its n×n Gram matrix Y = y†y is Φ_c(ρ)ᵀ; ``value`` is
    S_alpha(Y); ``eye`` is as in ``_input_operator``.

    With D = dS_alpha/dY (``_entropy_derivative``) and H = Φ_c†(D), the gap
    g = λ_max(H) − Tr[DY] is at least ⟨D, Φ_c(σ) − Y⟩ for every state σ.
    S is concave at alpha=1, and Tr Y^alpha is concave at alpha=1/2 and
    convex at alpha=2, so S_alpha(Φ_c(σ)) <= value + g at alpha=1 and
    <= value + log₂(1 + (1−alpha)·ln2·g)/(1−alpha) otherwise: at alpha=1/2,
    2·log₂(Tr√Y/2 + λ_max(Φ_c†(Y^{−1/2}/2))), and at alpha=2,
    −log₂(2·λ_min(Φ_c†(Y)) − Tr Y²).  g >= 0 at every ρ, and is clipped
    there against rounding.  At alpha=2 the part of D cut off the support
    is a positive multiple of −Y on eigenvalues at or below ``TOL_PSD``;
    cutting it can only raise g, apart from n²·TOL_PSD² in Tr[DY].

    None at alpha in {1/2, 1} where Y has fewer eigenvalues above
    ``hilbert.TOL_PSD`` than ``face``, the rank of Φ_c(1) (``_rank``), and
    at alpha=2 where the logarithm's argument is not positive."""
    side = _gram_derivative(*evaluation, True, alpha)
    _, dmat, vals, diag = side
    if alpha != 2.0 and _rank(side) < face:
        return None
    h = _input_operator(chan, eye, None, dmat)
    gap = max(float(np.linalg.eigvalsh(h)[-1] - diag @ vals), 0.0)
    if alpha == 1.0:
        return value + gap
    step = 1.0 + (1.0 - alpha) * _LN2 * gap
    return value + math.log2(step) / (1.0 - alpha) if step > 0 else None


def _ea_bound(
    chan: KrausChannel, eye: np.ndarray, evaluation: tuple, value: float, faces: Iterable[int]
) -> float | None:
    """Certified upper bound on C_EA from one linearization of the concave
    I(ρ) = S(ρ) + S(Φ(ρ)) − S(Φ_c(ρ)) at ρ = XX† (X of unit Frobenius norm),
    whose value is ``value``: C_EA <= value + λ_max(G) − Tr[Gρ], with
    G = D_in + Φ†(D_out) − Φ_c†(D_exch) and the D the derivatives of the
    three entropies (``_entropy_derivative``; the multiples of the identity
    they leave out cancel in the difference, which is clipped at zero
    against rounding); ``eye`` is as in ``_input_operator``; ``evaluation``
    is the last item of ``_ea_evaluation`` at X.  None where ρ, Φ(ρ) or
    Φ_c(ρ) has fewer eigenvalues above ``hilbert.TOL_PSD`` than its face
    rank in ``faces`` (``_rank``): the first such spectrum ends the work."""
    parts = []
    # ρ = XX†, Φ(ρ) = YY† and Φ_c(ρ)ᵀ = Y†Y of Y regrouped as (·, n)
    for m, solved, inner, face in zip(*evaluation, (False, False, True), faces):
        parts.append(_gram_derivative(m, solved, inner, 1.0))
        if _rank(parts[-1]) < face:
            return None
    (_, d_in, v_in, w_in), (_, d_out, v_out, w_out), (_, d_exch, v_exch, w_exch) = parts
    g = d_in + _input_operator(chan, eye, d_out, -d_exch)
    tr_g_rho = w_in @ v_in + w_out @ v_out - w_exch @ v_exch
    return value + max(float(np.linalg.eigvalsh(g)[-1] - tr_g_rho), 0.0)


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
        y = chan.stinespring(v[:, None], ref)
        s, z, solved = _pullback(y, smooth)
        g = 2.0 * chan.stinespring_adjoint(z, ref)[:, 0]
        return s, g - np.vdot(v, g) * v, (y, solved)  # g on the sphere's tangent

    if ref == chan.dim_in:
        # the global problem, max_rho S_alpha(Phi_c(rho)) (module docstring)
        eye = chan.identity_factor()
        starts, certify = [np.eye(ref, dtype=complex).reshape(-1)], (
            lambda start, end, f: _production_bound(chan, eye, end, smooth, f, _rank(start[1][1])))
    else:
        starts, certify = _random_starts(seed, ref * chan.dim_in, restarts), None
    v, f, stats = _maximize(value_grad, starts, _PURE_MAX_ITER, _PURE_TOL_GRAD, certify)
    if math.isinf(alpha):
        f = _renyi_support(_factor_support(chan.stinespring(v[:, None], ref)), alpha)
    return OptimizationResult(value=f, argmax=v, argmax_kind="pure", **stats)


def max_entropy_production_global(
    chan: KrausChannel, alpha: float = 1.0, restarts: int = 16, seed: int = 0
) -> OptimizationResult:
    """Maximize S_alpha((I x Phi)(psi)) over pure psi on reference x input
    with matching dimensions (pure inputs suffice for the maximum, and a
    reference of the input dimension exhausts the Schmidt rank), from vec(1)
    alone (module docstring), by ``_maximize`` with ``_production_bound`` as
    its certificate: ``restarts`` is checked (>= 1), and it and ``seed`` are
    otherwise unused."""
    return _pure_ascent(chan, chan.dim_in, alpha, restarts, seed)


def max_entropy_production_local(
    chan: KrausChannel, alpha: float = 1.0, restarts: int = 16, seed: int = 0
) -> OptimizationResult:
    """Maximize S_alpha(Phi(rho)) - S_alpha(rho) over input states from
    ``restarts`` random starts; pure inputs suffice (module docstring), so
    the argmax is a state vector."""
    return _pure_ascent(chan, 1, alpha, restarts, seed)


# ---------------------------------------------------------------------------
# entanglement-assisted classical capacity


def ea_objective_gradient(chan: KrausChannel, el: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and Wirtinger gradient of the capacity objective in the factor
    parameterization rho = L L† / Tr(L L†).  With X = L / ||L|| and Y its
    Stinespring factor, rho = XX†, Phi(rho) = YY† and Y regrouped as (·, n)
    holds the complementary output; the three entropies are pulled back to X,
    and the gradient in L is the part of their sum orthogonal to X, / ||L||."""
    return _ea_evaluation(chan, el)[:2]


def _ea_evaluation(chan: KrausChannel, el: np.ndarray) -> tuple[float, np.ndarray, tuple]:
    """:func:`ea_objective_gradient` at L, or at L flattened (the gradient
    takes L's shape), then what ``_ea_bound`` reads: the factors X, Y and Y
    regrouped as (·, n), and the last items of their pullbacks."""
    t = np.sqrt(np.vdot(el, el).real)
    x = el.reshape(chan.dim_in, -1) / t
    y = chan.stinespring(x)
    factors = (x, y, y.reshape(-1, len(chan.kraus)))
    pulled = [_pullback(m, 1.0) for m in factors]
    (s_in, z_in, _), (s_out, z_out, _), (s_exch, z_exch, _) = pulled
    g = z_in + chan.stinespring_adjoint(z_out - z_exch.reshape(y.shape))
    g = ((g - np.vdot(x, g).real * x) / t).reshape(el.shape)
    return s_in + s_out - s_exch, g, (factors, [p[2] for p in pulled])


def ea_capacity(chan: KrausChannel, seed: int = 0, restarts: int = 4) -> OptimizationResult:
    """Maximize the quantum mutual information, concave in the input state,
    from the maximally mixed state alone, by ``_maximize``, the driver of
    every maximization: ``restarts`` is checked (>= 1), and it and ``seed``
    are otherwise unused.  The value is that of the feasible argmax, and
    ``upper_bound`` (``_ea_bound``, the certificate) bounds the capacity above."""
    _check_restarts(restarts)
    d = chan.dim_in
    eye = chan.identity_factor()
    v, f, stats = _maximize(
        lambda v: _ea_evaluation(chan, v), [np.eye(d, dtype=complex).reshape(-1)],
        _EA_MAX_ITER, _EA_TOL_GRAD,
        lambda start, end, f: _ea_bound(chan, eye, end, f, [_rank(side) for _, side in start[1]]))
    el = v.reshape(d, d)
    rho = el @ dagger(el)
    rho = rho / np.trace(rho).real
    return OptimizationResult(value=f, argmax=rho, argmax_kind="mixed", **stats)


# ---------------------------------------------------------------------------
# paper checks: the entropy cost bound and the capacity-randomness tradeoff


class CostBoundReport(NamedTuple):
    lhs: float          # entropy of the catalyst
    rhs: float          # factor x the certified maximal variance (its value without one)
    ok: bool            # certified and lhs >= rhs - slack
    certified: bool     # the production maximum carries an upper bound


def cost_bound_check(inst: CatalysisInstance) -> CostBoundReport:
    """The catalyst entropy must dominate half the maximal global entropy
    variance of the induced channel (all of it for a classical catalyst).
    The channel is factorizable, so unital: 1 x Phi never lowers entropy and
    that variance is the global alpha=1 production maximum, whose certified
    upper bound the right side reads, so a pass holds for every input.
    Without a bound the right side reads the value and the check fails."""
    res = max_entropy_production_global(channel_to_kraus(inst), 1.0)
    certified = res.upper_bound is not None
    rhs = (1.0 if inst.classical else 0.5) * (res.upper_bound if certified else res.value)
    lhs = von_neumann(inst.sigma)
    return CostBoundReport(lhs, rhs, certified and lhs >= rhs - hilbert.ENTROPY_SLACK, certified)


class TradeoffReport(NamedTuple):
    lhs: float
    rhs: float          # catalytic min-entropy of the catalyst
    rhs_vn: float       # catalytic (von Neumann) entropy of the catalyst
    capacity: float
    ok: bool            # lhs <= rhs + slack
    ok_vn: bool         # lhs <= rhs_vn + slack
    certified: bool     # the capacity carries an upper bound


def tradeoff_check(inst: CatalysisInstance) -> TradeoffReport:
    """Check 2 log2 d - C_EA(Phi) <= catalytic min-entropy of the catalyst.

    The capacity is the value of :func:`ea_capacity`, a lower bound, so
    the left side is an upper bound and a pass is sound; where the
    run is ``certified`` its ``upper_bound`` brackets it from above too, so a
    fail by more than that bracket is sound as well.  A stored sub-catalysis
    decomposition (a refinement imposed by a conservation law) sharpens the
    right side: block i, of weight w_i on a catalyst of dimension r_i, is an
    eigenvalue w_i/r_i of multiplicity r_i.  Either way the right side reads
    the catalytic family from ``entropy._catalytic_bits``, where a block of
    weight zero adds nothing.

    The min-entropy bound holds whenever the catalyst's block ratios
    lambda_i/r_i are flat (conserved-optimal and maximally mixed catalysts)
    or the block weights are uniform, and is tight on the dephasing family.
    For non-uniform mixtures the single-letter capacity can undershoot it
    (e.g. 0.9 rho + 0.1 Z rho Z has 2 - C_EA = H(0.9, 0.1) > -log2 0.9), so
    the report also carries the weaker bound against the full catalytic
    entropy, which held on every catalysis probed.
    """
    res = ea_capacity(channel_to_kraus(inst))
    lhs = 2 * math.log2(inst.a_dim) - res.value
    if inst.decomposition:
        blocks = ([w / sub.b_dim for w, sub in inst.decomposition],
                  [sub.b_dim for _, sub in inst.decomposition])
    else:
        dec = eigenspace_decompose(inst.sigma)
        blocks = (dec.eigenvalues, dec.multiplicities)
    rhs, rhs_vn = (_catalytic_bits(*blocks, alpha) for alpha in (math.inf, 1.0))
    return TradeoffReport(
        lhs=lhs, rhs=rhs, rhs_vn=rhs_vn, capacity=res.value,
        ok=lhs <= rhs + _TRADEOFF_SLACK, ok_vn=lhs <= rhs_vn + _TRADEOFF_SLACK,
        certified=res.upper_bound is not None,
    )
