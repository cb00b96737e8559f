"""Shared helpers for the test suite."""

import numpy as np

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
