"""catalyx benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 bench/run.py --workload certify --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout.  Every workload process is a fresh
interpreter with BLAS pinned to one thread (CATALYX_THREADS=1 and the
OpenMP/OpenBLAS/MKL variables), and all of them run on one CPU.  Times are
CPU seconds, scaled by a machine probe to a reference host speed.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the metric table, the environment and every failed job.  ``failed``
counts the unexpected failures only: a job that hits one of the named known
defects of catalyx is reported on its own line and lowers ``ok_frac``, but it
is not a failed operation of the benchmark.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from child import run_child, watched

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "optimize", "scenario", "cli")
SETUP_REPEATS = 9  # set-up samples per run; setup_s is their median
TRACE_PASSES = {"certify": 2, "optimize": 1, "scenario": 2, "cli": 1}
MIN_BEYOND_P90 = 10  # job times that must lie beyond job_p90_ms
RUN_LIMIT_S = 170  # every process this run starts is killed by then
# The machine probe's CPU time (probe.machine_probe_ms) on the reference host:
# a 2-core x86-64 VM, Python 3.11.7, numpy 2.4.6.  Times are scaled to it.
PROBE_REF_MS = 20.0
THREAD_VARS = ("CATALYX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def bench_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> list[int]:
    """Keep this process and every process it starts on one CPU, so that the
    machine probe and the work it scales feel the same core; return the CPUs
    this process may use."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def time_left() -> float:
    left = RUN_LIMIT_S - (time.perf_counter() - START)
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def spawn(args: list[str], env: dict, cwd: str) -> tuple[float, dict | None]:
    """Start a worker; return (its CPU seconds up to BENCH-READY, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    ready, result = None, None
    with watched(cmd, env, time_left(), cwd, stdout=subprocess.PIPE, stderr=None) as proc:
        for line in proc.stdout:
            if line.startswith("BENCH-READY"):
                ready = float(line.split()[1])
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line[len("BENCH-RESULT "):])
        proc.wait()
    wants_result = "setup" not in args
    if proc.returncode != 0 or ready is None or (wants_result and result is None):
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, result


def import_seconds(env: dict) -> float:
    """CPU seconds of the ``import catalyx`` statement in a fresh process."""
    code = ("import time; t = time.process_time(); import catalyx; "
            "print(time.process_time() - t)")
    status, out = run_child([sys.executable, "-c", code], env, time_left(), cwd=ROOT,
                           capture=True)
    if status != 0:
        raise BenchError(f"import catalyx exited with code {status}")
    return float(out)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, env: dict, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "cpus": env["BENCH_CPUS"],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def unexpected(failures) -> int:
    """Failed jobs that are not one of the known defects."""
    return sum(1 for _, _, known in failures if not known)


def correct(failures) -> bool:
    """True unless a job failed that is not one of the known defects."""
    return unexpected(failures) == 0


def summarize_failures(failures) -> list[str]:
    """One line per failed job name and cause, with its count."""
    counts = Counter((name, f"known failure ({known})" if known else f"UNEXPECTED: {reason}")
                     for name, reason, known in failures)
    return [f"failed job {name} x{n}: {tag}" for (name, tag), n in sorted(counts.items())]


def time_metrics(setups: list[float], latencies: list[float]) -> dict:
    p90 = percentile(latencies, 90)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_p90_ms": p90 * 1e3,
    }


def untraced(args, env: dict, work: str) -> tuple[dict, dict, dict, dict]:
    """End-to-end metrics, with every time scaled to the reference host speed
    by the machine probes around it: a job by the mean of the probes before
    and after its chunk, a set-up sample by the mean of the probe before it
    (run before catalyx loads) and the probes after it.  Returns the scaled
    metrics, the raw times too."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    run = common + ["--mode", "run", "--seconds", str(args.seconds)]
    if args.workload == "cli":
        _, out = spawn(common + ["--mode", "imports", "--count", str(SETUP_REPEATS)], env, ROOT)
        raw_setups, p = out["imports_s"], out["probes_ms"]
        setup_probes = [(p[i] + p[i + 1]) / 2 for i in range(len(raw_setups))]
        _, res = spawn(run, env, ROOT)
    else:
        setups = [spawn(common + ["--mode", "setup"], env, ROOT)
                  for _ in range(SETUP_REPEATS - 1)]
        ready, res = spawn(run, env, ROOT)
        raw_setups = [r for r, _ in setups] + [ready]
        setup_probes = [(out["probe_before_setup_ms"] + statistics.median(out["probes_ms"])) / 2
                        for _, out in setups]
        setup_probes.append((res["probe_before_setup_ms"] + res["probes_ms"][0]) / 2)
    chunk_probes = res["probes_ms"]
    raw_lat, lat = [], []
    for k, chunk in enumerate(res["latencies_s"]):
        scale = PROBE_REF_MS / ((chunk_probes[k] + chunk_probes[k + 1]) / 2)
        raw_lat += chunk
        lat += [t * scale for t in chunk]
    n, failed = len(lat), len(res["failures"])
    metrics = time_metrics([s * PROBE_REF_MS / p for s, p in zip(raw_setups, setup_probes)], lat)
    metrics["ok_frac"] = (n - failed) / n
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    p90 = percentile(lat, 90)
    samples = {
        "setup_s": len(raw_setups), "jobs_per_s": n, "job_p50_ms": n, "job_p90_ms": n,
        "job_p90_beyond": sum(1 for x in lat if x > p90), "ok_frac": n,
        "peak_rss_mb": 1, "passes": res["passes"], "jobs_per_pass": res["jobs_per_pass"],
        "elapsed_s": round(res["elapsed_s"], 3),
        "machine_probe_ms": {"median": round(statistics.median(chunk_probes), 2),
                             "min": round(min(chunk_probes), 2),
                             "max": round(max(chunk_probes), 2),
                             "count": len(chunk_probes)},
    }
    if samples["job_p90_beyond"] < MIN_BEYOND_P90:
        raise BenchError(f"only {samples['job_p90_beyond']} job times lie beyond job_p90_ms")
    res["attempted"] = n
    return metrics, samples, res, time_metrics(raw_setups, raw_lat)


def traced(args, env: dict, work: str) -> tuple[dict, dict, dict, dict]:
    spans_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    passes = TRACE_PASSES[args.workload]
    _, res = spawn(["--workload", args.workload, "--seed", str(args.seed), "--work", work,
                    "--mode", "trace", "--passes", str(passes), "--spans", spans], env, ROOT)
    imports = [import_seconds(env) for _ in range(3)]
    metrics = dict(res["metrics"])
    metrics["cli.import_s"] = statistics.median(imports)
    samples = {"passes": passes, "spans": res["spans"], "jobs": res["attempted"],
               "cli.import_s": len(imports), "spans_file": os.path.relpath(spans, ROOT)}
    return metrics, samples, res, {}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "catalyx", "__init__.py")):
        print(f"error: no catalyx source under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    env = bench_env()
    env["BENCH_CPUS"] = ",".join(map(str, pin_to_one_cpu()))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        units = declared_units(args.trace)
        metrics, samples, res, raw = (traced if args.trace else untraced)(args, env, work)
        if set(metrics) != set(units):
            raise BenchError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                             "do not match BENCHMARK.json")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = res["attempted"], res["failures"]
    print(f"# catalyx benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(args, env, res["numpy"]), sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    if not args.trace:
        failed_frac = len(failures) / attempted
        print(f"{'failed_frac':<26} {failed_frac:>14.6g} ratio  (n={attempted}: "
              f"{len(failures) - unexpected(failures)} known defects, "
              f"{unexpected(failures)} unexpected)")
    for name in sorted(metrics):
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:<26} {metrics[name]:>14.6g} {units[name]}{unscaled}")
    for line in summarize_failures(failures):
        print(line)
    print(json.dumps({
        "correct": correct(failures),
        "attempted": attempted,
        "failed": unexpected(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
