"""Desk-scale numerical laboratory for one-shot catalytic quantum randomness:
constructing and certifying catalysis unitaries, degeneracy-aware entropies,
correlation-ledger scenarios and entropy-production optimization.

The package namespace is lazy: ``catalyx.<submodule>`` and the names below
import their module on first use, so each ``catalyx`` command pays only for
the modules it runs."""

import importlib as _importlib
import os as _os

# Honor the thread cap before any numerical library spins up its pools.
_threads = _os.environ.get("CATALYX_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

# each submodule and the names the package re-exports from it
_EXPORTS = {
    "catalysis": ("CatalysisInstance", "CertificationError", "KrausChannel", "LedgerRecord",
                  "canonical_form", "classical_catalysis", "implement_channel",
                  "is_catalysis_unitary", "ledger", "recovery_unitary",
                  "verify_catalysis_exhaustive"),
    "entropy": ("DegeneracyVector", "EntropyReport", "catalytic_entropy", "catalytic_renyi",
                "entropy_report", "mutual_information", "renyi", "renyi_divergence",
                "von_neumann"),
    "hilbert": ("DensityOperator", "EigenspaceDecomposition", "StateVector", "SubsystemLayout",
                "UnitaryOperator", "canonical_operators", "eigenspace_decompose",
                "haar_unitary", "partial_trace", "partial_transpose", "purify",
                "random_density", "tensor"),
    "constructions": (),
    "optimize": (),
    "scenarios": (),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOMES]


def __getattr__(name):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        # not cached, so a name always reads its module's current binding
        return getattr(_importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
