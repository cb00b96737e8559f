"""Desk-scale numerical laboratory for one-shot catalytic quantum randomness:
constructing and certifying catalysis unitaries, degeneracy-aware entropies,
correlation-ledger scenarios and entropy-production optimization."""

import os as _os

# Honor the thread cap before any numerical library spins up its pools.
_threads = _os.environ.get("CATALYX_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import catalysis, constructions, entropy, hilbert, optimize, scenarios
from .catalysis import (
    CatalysisInstance,
    CertificationError,
    KrausChannel,
    LedgerRecord,
    canonical_form,
    classical_catalysis,
    implement_channel,
    is_catalysis_unitary,
    ledger,
    recovery_unitary,
    verify_catalysis_exhaustive,
)
from .entropy import (
    DegeneracyVector,
    EntropyReport,
    catalytic_entropy,
    catalytic_renyi,
    entropy_report,
    mutual_information,
    renyi,
    renyi_divergence,
    von_neumann,
)
from .hilbert import (
    DensityOperator,
    EigenspaceDecomposition,
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    canonical_operators,
    eigenspace_decompose,
    haar_unitary,
    partial_trace,
    partial_transpose,
    purify,
    random_density,
    tensor,
)

__version__ = "0.1.0"
