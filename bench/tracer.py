"""Outside-in tracing of catalyx: wrap each layer's functions, keep spans in
memory, and reduce them to the per-layer metrics.

``from .hilbert import ptrace_matrix`` copies the binding into every module
that imports it, so a wrapper is installed in every catalyx namespace that
binds the same function object; methods are wrapped on their class, and the
numpy kernels (``kron``, ``eigh``, ``eigvalsh``) on the numpy modules.  A
span is ``[name, layer, start, end, parent, extra]``; spans are only opened
while ``recording`` is set, which the job runner does around each timed call
so that set-up and oracles stay out of the counts.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("hilbert", "entropy", "catalysis", "constructions", "scenarios", "optimize", "cli")

# private helpers that carry the hot paths named by the per-layer metrics
PRIVATE = {
    "catalysis": ("_catalysis_output", "_matching_unitary"),
    "scenarios": ("_evolve",),
    "optimize": ("_adjoint_apply", "_extended_adjoint", "_ascend", "_polish_pure",
                 "_exchange_gram", "_renyi_of_matrix", "_entropy_derivative"),
}

KRAUS = {"catalysis.KrausChannel.apply_matrix", "catalysis.KrausChannel.extended_apply_matrix",
         "optimize._adjoint_apply", "optimize._extended_adjoint"}
VALIDATE = {"hilbert.DensityOperator.__init__", "hilbert.UnitaryOperator.__init__",
            "hilbert.StateVector.__init__"}
PTRACE = {"hilbert.ptrace_matrix", "hilbert.partial_trace"}
LAYOUT = {"hilbert.ptranspose_matrix", "hilbert.partial_transpose", "hilbert.embed_operator",
          "hilbert.permute_subsystems"}
EIG = {"numpy.linalg.eigh", "numpy.linalg.eigvalsh"}
IO = {"hilbert.save_json", "hilbert.load_json"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, extra=None, prepare=None):
        """``extra(args, result)`` stores a value on the span; ``prepare``
        may rewrite the positional arguments (used to count objective
        evaluations passed into the ascent loop)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if prepare is not None:
                args = prepare(args)
            span = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import catalyx

        mods = {layer: getattr(catalyx, layer) for layer in LAYERS}
        namespaces = [catalyx] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in PRIVATE.get(layer, ())):
                    wrapped = self.wrap(obj, f"{layer}.{attr}", layer, **self._hooks(layer, attr))
                    for ns in namespaces:
                        for name, bound in list(vars(ns).items()):
                            if bound is obj:
                                self._set(ns, name, wrapped)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (not mname.startswith("_")
                                                         or mname == "__init__"):
                            self._set(obj, mname,
                                      self.wrap(meth, f"{layer}.{attr}.{mname}", layer))
        kron_bytes = lambda args, out: out.nbytes
        self._set(np, "kron", self.wrap(np.kron, "numpy.kron", "numpy", extra=kron_bytes))
        n_cubed = lambda args, out: np.shape(args[0])[-1] ** 3
        for fname in ("eigh", "eigvalsh"):
            self._set(np.linalg, fname, self.wrap(getattr(np.linalg, fname),
                                                  f"numpy.linalg.{fname}", "numpy",
                                                  extra=n_cubed))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hooks(self, layer: str, attr: str) -> dict:
        if layer == "optimize" and attr in ("_ascend", "_polish_pure"):
            def prepare(args):
                objective = args[0]

                def counted(*a, **k):
                    self.counts["optimize.evals"] += 1
                    return objective(*a, **k)

                return (counted,) + tuple(args[1:])

            # _ascend returns (x, f, iterations, gradient norm, converged)
            extra = (lambda args, out: (out[2], bool(out[4]))) if attr == "_ascend" else None
            return {"prepare": prepare, "extra": extra}
        if layer == "catalysis" and attr == "canonical_form":
            return {"extra": lambda args, out: True}  # only set when it returned
        if layer == "hilbert" and attr in ("save_json", "load_json"):
            return {"extra": lambda args, out: os.path.getsize(args[0])}  # bytes of the file
        return {}

    # -- reduction ----------------------------------------------------------

    def _outermost(self, names: set) -> list[list]:
        """Spans in ``names`` with no ancestor in ``names``."""
        spans = self.spans
        out = []
        for s in spans:
            if s[0] not in names:
                continue
            p = s[4]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                out.append(s)
        return out

    def metrics(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self_s = Counter()
        for i, s in enumerate(spans):
            self_s[s[1]] += (s[3] - s[2]) - child_time[i]

        def named(names):
            return [s for s in spans if s[0] in names]

        def total(ss):
            return sum(s[3] - s[2] for s in ss)

        certs = named({"catalysis.canonical_form"})
        ascents = [s[5] for s in named({"optimize._ascend"}) if s[5] is not None]
        iterations = sum(it for it, _ in ascents)
        evals = self.counts["optimize.evals"]
        eigs = named(EIG)
        krons = named({"numpy.kron"})
        entropy_entries = [s for s in spans if s[1] == "entropy"
                           and (s[4] < 0 or spans[s[4]][1] != "entropy")]
        io = named(IO)
        return {
            "numpy.kron_calls": len(krons),
            "numpy.kron_mb": sum(s[5] or 0 for s in krons) / 1e6,
            "numpy.kron_s": total(krons),
            "numpy.eig_calls": len(eigs),
            "numpy.eig_n3": sum(s[5] or 0 for s in eigs),
            "numpy.eig_s": total(eigs),
            "catalysis.kraus_calls": len(named(KRAUS)),
            "catalysis.kraus_s": total(self._outermost(KRAUS)),
            "catalysis.certify_calls": len(certs),
            "catalysis.certify_s": total(self._outermost({"catalysis.canonical_form"})),
            "catalysis.verify_s": total(self._outermost({"catalysis.verify_catalysis_exhaustive"})),
            "catalysis.accept_ratio": (sum(1 for s in certs if s[5]) / len(certs)) if certs else 0.0,
            "catalysis.ledger_calls": len(named({"catalysis.ledger"})),
            "catalysis.ledger_s": total(self._outermost({"catalysis.ledger"})),
            "hilbert.validate_calls": len(named(VALIDATE)),
            "hilbert.validate_s": total(self._outermost(VALIDATE)),
            "hilbert.ptrace_s": total(self._outermost(PTRACE)),
            "hilbert.layout_s": total(self._outermost(LAYOUT)),
            "hilbert.self_s": self_s["hilbert"],
            "entropy.calls": len(entropy_entries),
            "entropy.self_s": self_s["entropy"],
            "constructions.self_s": self_s["constructions"],
            "scenarios.self_s": self_s["scenarios"],
            "optimize.iterations": iterations,
            "optimize.evals": evals,
            "optimize.evals_per_iter": evals / iterations if iterations else 0.0,
            "optimize.converged_ratio": (sum(1 for _, c in ascents if c) / len(ascents))
            if ascents else 0.0,
            "optimize.self_s": self_s["optimize"],
            "cli.main_s": total(self._outermost({"cli.main"})),
            "cli.io_s": total(self._outermost(IO)),
            "cli.json_mb": sum(s[5] or 0 for s in io) / 1e6,
        }

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, start and end relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, layer, start, end, parent, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "extra": extra}) + "\n")
