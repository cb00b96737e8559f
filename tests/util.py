"""Shared helpers for the test suite."""

import math
from collections import Counter

import numpy as np

from catalyx import entropy, optimize
from catalyx.hilbert import EigenspaceDecomposition


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
    """Count every later ``np.kron`` call in the returned ``Counter``, keyed
    by the shapes of its two operands."""
    counts = Counter()
    kron = np.kron

    def counting(a, b):
        counts[np.shape(a), np.shape(b)] += 1
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counting)
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
