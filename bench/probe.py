"""The machine probe: a fixed kernel that times the host, not catalyx."""

from __future__ import annotations

import numpy as np

from child import cpu_seconds


def machine_probe_ms() -> float:
    """A fixed numpy-and-Python kernel with no catalyx code in it, about 20 ms
    on a 2-core x86-64 host.  Its time moves only with the host, so run.py
    scales job times by it to take host speed drift out of the metrics."""
    small = np.arange(64.0).reshape(8, 8) / 64.0
    small = small + small.T
    big = np.arange(96.0 * 96).reshape(96, 96) / 9216.0
    big = big + big.T
    eye = np.eye(3)
    t0 = cpu_seconds()
    for _ in range(300):
        np.linalg.eigh(small)
        np.kron(eye, eye)
    for _ in range(8):
        np.linalg.eigvalsh(big)
    sum(i * i for i in range(30_000))
    return (cpu_seconds() - t0) * 1e3
