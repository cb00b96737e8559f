"""One workload process: set up, warm up, then run the timed loop or the
traced passes (or, on ``cli``, time fresh imports as its set-up).  Started by
``run.py`` with the thread-pinning environment; speaks a two-line protocol on
stdout: ``BENCH-READY <CPU seconds of set-up>`` once set-up is done, then
``BENCH-RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

os.environ["CATALYX_THREADS"] = "1"  # before numpy or catalyx load

import numpy as np  # noqa: E402
from child import cpu_seconds, run_child  # noqa: E402
from probe import machine_probe_ms  # noqa: E402

# A machine probe before catalyx loads and the probes after set-up bracket
# the set-up time; the probe's own CPU time is taken out of it.
_t0 = cpu_seconds()
PROBE_BEFORE_SETUP_MS = machine_probe_ms()
PROBE_CPU_S = cpu_seconds() - _t0

import workloads  # noqa: E402  (imports catalyx)
from tracer import Tracer  # noqa: E402

# With n >= 101 distinct job times, at least ten lie beyond the 90th
# percentile (interpolated between closest ranks).
MIN_JOBS = 101
# The host switches between fast and slow states over seconds, and the probe
# tracks them only when it runs close to the jobs it scales.
PROBE_EVERY_S = 0.5


def build(workload: str, seed: int, work: str, inprocess_cli: bool, pass_index: int = 0):
    """The jobs of one pass.  Each pass draws fresh inputs from its own seed,
    ``seed * 10000 + pass_index``, so a run averages over many inputs."""
    seed = seed * 10_000 + pass_index
    if workload == "cli":
        if inprocess_cli:
            return workloads.cli_inprocess_jobs(seed, work)
        return workloads.cli_jobs(seed, work, dict(os.environ))
    return workloads.WORKLOADS[workload](seed)


def warm_up(jobs) -> None:
    """One untimed call of the first job of each kind."""
    seen, ctx = set(), {}
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            workloads.run_job(job, ctx)


def run_pass(jobs, tracer=None):
    ctx = {}
    return [workloads.run_job(job, ctx, tracer) for job in jobs]


def timed(first_jobs, make_jobs, seconds: float, shuffle_seed: int | None = None) -> dict:
    """Whole passes until ``seconds`` have gone by and at least ``MIN_JOBS``
    jobs have run, so every run attempts each job equally often and at least
    ten job times lie beyond the 90th percentile.  The machine probe runs
    before the first job and after every job that ends ``PROBE_EVERY_S`` or
    more after the last probe, so the job times come in chunks, each between
    two probes.  With ``shuffle_seed`` each pass runs its jobs in its own
    seeded order, so that jobs of one kind, which sit next to each other in
    the list, do not all share the scale of one or two chunks."""
    outcomes, chunks, chunk, probes = [], [], [], [machine_probe_ms()]
    start = last_probe = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < seconds or len(outcomes) < MIN_JOBS:
        ctx = {}
        jobs = make_jobs(passes) if passes else first_jobs
        if shuffle_seed is not None:
            order = np.random.default_rng(shuffle_seed * 10_000 + passes).permutation(len(jobs))
            jobs = [jobs[i] for i in order]
        for job in jobs:
            outcomes.append(workloads.run_job(job, ctx))
            chunk.append(outcomes[-1].seconds)
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(machine_probe_ms())
                chunks.append(chunk)
                chunk, last_probe = [], time.perf_counter()
        passes += 1
    if chunk:
        probes.append(machine_probe_ms())
        chunks.append(chunk)
    return {
        "elapsed_s": time.perf_counter() - start,
        "passes": passes,
        "latencies_s": chunks,
        "probes_ms": probes,
        "failures": [[o.name, o.failure, o.known_failure] for o in outcomes if o.failure],
    }


def fresh_imports(count: int) -> dict:
    """The set-up of ``cli``: ``count`` fresh ``python -c "import catalyx"``
    processes, one at a time, with a machine probe before the first and after
    each.  Returns their CPU seconds and the probes."""
    used, probes = [], [machine_probe_ms()]
    for _ in range(count):
        t0 = cpu_seconds()
        status, _ = run_child([sys.executable, "-c", "import catalyx"], dict(os.environ), 60)
        used.append(cpu_seconds() - t0)
        if status != 0:
            raise SystemExit(f"import catalyx exited with code {status}")
        probes.append(machine_probe_ms())
    return {"imports_s": used, "probes_ms": probes}


def traced(make_jobs, passes: int, spans_path: str | None) -> dict:
    """The same fixed passes untraced and then traced: the counts repeat
    exactly for a seed, and the CPU-time ratio is the tracing overhead."""
    plain = with_trace = 0.0
    for k in range(passes):
        jobs = make_jobs(k)
        t0 = cpu_seconds()
        run_pass(jobs)
        plain += cpu_seconds() - t0
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        for k in range(passes):
            jobs = make_jobs(k)
            t0 = cpu_seconds()
            outcomes += run_pass(jobs, tracer)
            with_trace += cpu_seconds() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = with_trace / plain - 1.0
    if spans_path:
        tracer.write(spans_path)
    return {
        "metrics": metrics,
        "spans": len(tracer.spans),
        "attempted": len(outcomes),
        "failures": [[o.name, o.failure, o.known_failure] for o in outcomes if o.failure],
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace", "imports"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    def make_jobs(k):
        return build(args.workload, args.seed, args.work, args.mode == "trace", k)

    if args.mode == "imports":
        print("BENCH-READY 0", flush=True)
        print("BENCH-RESULT " + json.dumps(fresh_imports(args.count)), flush=True)
        return 0
    jobs = make_jobs(0)
    warm_up(jobs)
    print(f"BENCH-READY {cpu_seconds() - PROBE_CPU_S!r}", flush=True)
    if args.mode == "setup":
        result = {"probes_ms": [machine_probe_ms() for _ in range(3)]}
    elif args.mode == "run":
        shuffle = args.seed if args.workload in workloads.SHUFFLED else None
        result = timed(jobs, make_jobs, args.seconds, shuffle)
    else:
        result = traced(make_jobs, args.passes, args.spans)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["jobs_per_pass"] = len(jobs)
    result["numpy"] = np.__version__
    result["probe_before_setup_ms"] = PROBE_BEFORE_SETUP_MS
    print("BENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
