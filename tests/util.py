"""Shared helpers for the test suite."""

import math
import sys
from collections import Counter

import numpy as np

from catalyx import constructions, entropy, hilbert, optimize
from catalyx.entropy import DegeneracyVector
from catalyx.hilbert import (
    EigenspaceDecomposition,
    UnitaryOperator,
    fourier_matrix,
    permute_subsystems,
)


def embed_operator(op, full_dims, positions):
    """Embed ``op`` acting on the subsystems at ``positions`` into the full
    space, as a dense Kronecker product: the reference for ``hilbert.evolve``,
    which never builds it."""
    full_dims = [int(d) for d in full_dims]
    positions = [int(p) for p in positions]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions")
    if op.shape[0] != math.prod(full_dims[p] for p in positions):
        raise ValueError("operator does not match the dimensions at positions")
    rest = [i for i in range(len(full_dims)) if i not in positions]
    big = np.kron(op, np.eye(math.prod(full_dims[i] for i in rest), dtype=complex))
    # big is ordered [positions..., rest...]; permute back to layout order
    order = positions + rest
    return permute_subsystems(big, [full_dims[i] for i in order], np.argsort(order))


def random_decomposition(rng):
    """Random eigenspace data with contiguous blocks; eigenvalues may repeat
    across blocks (as for conservation-law refinements)."""
    n = int(rng.integers(1, 5))
    mult = [int(rng.integers(1, 4)) for _ in range(n)]
    weights = rng.dirichlet(np.ones(n))
    pairs = sorted(
        ((w / r, r) for w, r in zip(weights, mult)), key=lambda t: -t[0]
    )
    eye = np.eye(sum(r for _, r in pairs))
    bases, off = [], 0
    for _, r in pairs:
        bases.append(eye[:, off : off + r])
        off += r
    return EigenspaceDecomposition([v for v, _ in pairs], bases)


def _count_solves(monkeypatch, names, key):
    """Count every later call of the ``np.linalg`` solvers ``names`` in the
    returned ``Counter``, keyed by ``key(name, m)``: a call on a stack
    (..., m, n) counts as one solve per matrix.  The number of solver calls
    is kept in its ``calls`` attribute, and per solver in ``calls_by``."""
    counts = Counter()
    counts.calls = 0
    counts.calls_by = Counter()

    def counting(name, solver):
        def call(m, *args, **kwargs):
            counts[key(name, m)] += math.prod(m.shape[:-2])
            counts.calls += 1
            counts.calls_by[name] += 1
            return solver(m, *args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def count_eigensolves(monkeypatch):
    """Count every later Hermitian eigensolve by ``np.linalg.eigh`` or
    ``np.linalg.eigvalsh``, keyed by (solver, matrix size) k: a call on a
    stack (..., k, k) counts as one solve of size k per matrix (see
    ``_count_solves`` for ``calls`` and ``calls_by``)."""
    return _count_solves(monkeypatch, ("eigh", "eigvalsh"), lambda name, m: (name, m.shape[-1]))


def count_svds(monkeypatch):
    """Count every later ``np.linalg.svd``, keyed by ("svd", (m, n)): a call
    on a stack (..., m, n) counts as one solve per matrix (see
    ``_count_solves`` for ``calls`` and ``calls_by``)."""
    return _count_solves(monkeypatch, ("svd",), lambda name, m: (name, m.shape[-2:]))


def count_stinespring(monkeypatch):
    """Record the factor shape of every later ``KrausChannel.stinespring``
    call in the returned list."""
    from catalyx.catalysis import KrausChannel

    calls = []
    stinespring = KrausChannel.stinespring

    def counting(self, x, ref=1):
        calls.append(x.shape)
        return stinespring(self, x, ref)

    monkeypatch.setattr(KrausChannel, "stinespring", counting)
    return calls


def held_bytes(obj):
    """The bytes of the distinct buffers behind the ndarray attributes of
    ``obj``: views of one buffer count it once."""
    buffers = {}
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            buffers[id(value)] = value.nbytes
    return sum(buffers.values())


def count_evaluations(monkeypatch):
    """Count the objective evaluations and the iterations of every later
    ``optimize._ascend`` call, in the returned ``Counter`` under
    "evaluations" and "iterations"."""
    counts = Counter()
    ascend = optimize._ascend

    def counting(value_grad, x0, max_iter, tol_grad):
        def counted(x):
            counts["evaluations"] += 1
            return value_grad(x)

        out = ascend(counted, x0, max_iter, tol_grad)
        counts["iterations"] += out[2]
        return out

    monkeypatch.setattr(optimize, "_ascend", counting)
    return counts


def count_krons(monkeypatch):
    """Count every later Kronecker product, ``np.kron`` or ``hilbert.kron``
    through any package module's binding of it, in the returned ``Counter``,
    keyed by the shapes of its two operands."""
    counts = Counter()

    def counting(kron):
        def counted(a, b):
            counts[np.shape(a), np.shape(b)] += 1
            return kron(a, b)
        return counted

    monkeypatch.setattr(np, "kron", counting(np.kron))
    kron = hilbert.kron
    for name, module in list(sys.modules.items()):
        if name.startswith("catalyx") and getattr(module, "kron", None) is kron:
            monkeypatch.setattr(module, "kron", counting(kron))
    return counts


def kron_sum_output(chan, rho, ref=1):
    """(1_ref ⊗ Phi)(rho) as the dense sum Σ_i (1 ⊗ K_i) rho (1 ⊗ K_i)† of
    Kronecker products: a reference that shares no code with the channel's
    own contractions."""
    eye = np.eye(ref)
    return sum(np.kron(eye, k) @ rho @ np.kron(eye, k).conj().T for k in chan.kraus)


def dense_renyi(m, alpha):
    """S_alpha in bits of the PSD matrix ``m`` normalized to unit trace, from
    all its eigenvalues."""
    vals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return entropy.renyi(vals / vals.sum(), alpha)


def party_swap(u, a_count):
    """Exchange the roles of the two parties: returns the same interaction
    with layout B + A (equals F U F when the two sides have equal dims)."""
    n = len(u.layout.dims)
    perm = list(range(a_count, n)) + list(range(a_count))
    m = permute_subsystems(u.matrix, u.layout.dims, perm)
    return UnitaryOperator(m, [u.layout.dims[p] for p in perm])


def fourier_conditional_matrix(d):
    """Pr(Y=y | X=x) = |F_yx|^2 for the Fourier-basis second stage of the
    double-random construction."""
    return np.abs(fourier_matrix(d)) ** 2


def gibbs_populations(r, e_inf):
    """Per-state populations of the thermal state at beta = ln 2 over
    ``constructions.thermal_levels``."""
    r = DegeneracyVector(r)
    energies = constructions.thermal_levels(r, e_inf)
    weights = np.concatenate([np.full(ri, 2.0**-e) for ri, e in zip(r.r, energies)])
    return weights / weights.sum()


def ea_objective(chan, rho):
    """Quantum mutual information I(rho, Phi) = S(rho) + S(Phi(rho)) - S_E,
    with S_E the entropy of the complementary output: the value of
    ``optimize.ea_objective_gradient`` at a factor L of rho (LL† = rho)."""
    vals, vecs = np.linalg.eigh(rho)
    return optimize.ea_objective_gradient(chan, vecs * np.sqrt(np.maximum(vals, 0.0)))[0]
