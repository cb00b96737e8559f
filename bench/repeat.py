"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/repeat.py --workloads certify,optimize --seeds 0-9
    python3 bench/repeat.py --workloads all --seeds 0,1            # seed check
    python3 bench/repeat.py --workloads all --seeds 0-9 --compare .bench_out/repeat-a.json
    python3 bench/repeat.py --workloads all --seeds 0,0 --trace 1  # counts repeat?

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
inter-quartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json.  With exactly two seeds it also prints how far the second
run is from the first, against the same bound.  Every run must be correct,
with no unexpected failure (the ``failed`` of the result line).  ``--compare``
adds how much worse each median is than in an earlier result file.  With
``--trace 1`` it reports, per metric, whether every run gave the same value.  Results are saved under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse_by(new: float, old: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", default=None, help="earlier repeat result file")
    p.add_argument("--tag", default=None, help="name of the result file")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {}
    for w in workloads:
        results[w] = []
        for s in seeds:
            t0 = time.perf_counter()
            r = run_once(w, s, seconds, args.trace)
            r["seed"], r["wall_s"] = s, time.perf_counter() - t0
            results[w].append(r)
            print(f"ran {w} seed={s} in {r['wall_s']:.1f} s: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tag = args.tag or f"repeat-{int(time.time())}"
    path = os.path.join(ROOT, ".bench_out", f"{tag}.json")
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "trace": args.trace, "results": results}, fh, indent=1)
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)["results"]

    ok = True
    for w, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            ok = False
        print(f"\n== {w}: {len(runs)} runs, unexpected failures {failed}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            if args.trace:
                print(f"  {name:<26} {'same' if len(set(vals)) == 1 else 'differs':<8} "
                      f"{statistics.median(vals):.6g}")
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            bound = e2e[name]["bound"]
            line = (f"  {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:6.3f}  bound {bound:.2f}")
            if len(vals) == 2:  # seed check: the second seed against the first
                diff = abs(vals[1] - vals[0]) / vals[0]
                line += f"  seeds differ by {diff:.3f}"
                if diff > bound:
                    line += " OVER BOUND"
                    ok = False
            if spread > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            elif spread > bound / 3:
                line += "  (over a third of the bound)"
            if old is not None and w in old:
                old_med = statistics.median(r["metrics"][name]["value"] for r in old[w])
                worse = worse_by(med, old_med, e2e[name]["better"])
                line += f"  worse by {worse:+.3f} vs compare"
                if worse > bound:
                    line += " OVER BOUND"
                    ok = False
            print(line)
    print(f"\nresults saved to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
