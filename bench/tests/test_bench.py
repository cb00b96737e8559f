"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads as W
import worker
from catalyx import catalysis as cat
from catalyx import optimize as opt
from tracer import Tracer

from conftest import BENCH, ROOT


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_call_through_catalysis_binding_counts_under_hilbert(tracer):
    assert hasattr(cat.ptrace_matrix, "__wrapped__")  # the catalysis binding is wrapped
    tracer.recording = True
    cat.ptrace_matrix(np.eye(4) / 4, [2, 2], [0])
    tracer.recording = False
    assert [(s[0], s[1]) for s in tracer.spans] == [("hilbert.ptrace_matrix", "hilbert")]
    assert tracer.metrics()["hilbert.ptrace_s"] > 0


def test_uninstall_restores_every_binding():
    before = (cat.ptrace_matrix, np.kron, np.linalg.eigh, cat.KrausChannel.apply_matrix)
    t = Tracer()
    t.install()
    assert cat.ptrace_matrix is not before[0]
    t.uninstall()
    assert (cat.ptrace_matrix, np.kron, np.linalg.eigh,
            cat.KrausChannel.apply_matrix) == before


def test_nothing_is_recorded_outside_a_job(tracer):
    np.kron(np.eye(2), np.eye(2))
    cat.ptrace_matrix(np.eye(4) / 4, [2, 2], [0])
    assert tracer.spans == []


def test_traced_metrics_are_the_per_layer_list():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(Tracer().metrics()) | {"trace.overhead_frac", "cli.import_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


def ea_identity2(expected: float) -> W.Job:
    return W.Job("ea:identity2", "ea",
                 lambda ctx: opt.ea_capacity(cat.identity_channel(2), restarts=1),
                 W._ascent_check(expected))


def test_oracle_given_a_wrong_value_marks_the_job_failed():
    assert W.run_job(ea_identity2(2.0), {}).failure is None  # C_EA = 2 log2 2
    wrong = W.run_job(ea_identity2(1.5), {})
    assert wrong.failure and "optimum" in wrong.failure


def test_raising_job_is_counted_not_raised():
    def boom(ctx):
        raise ValueError("bad input")

    out = W.run_job(W.Job("boom", "boom", boom, lambda v: None), {})
    assert out.failure == "raised ValueError: bad input"


def test_known_failure_counts_only_its_named_defect():
    def miss(ctx):
        return "missed"

    def boom(ctx):
        raise RuntimeError("ascent crashed")

    def known_job(call):
        return W.Job("local:dephasing2:alpha=0.5", "local", call,
                     lambda v: "optimum = 0.9, expected 1.0", "local ascent stops",
                     ("optimum", "not converged"))

    miss_out = W.run_job(known_job(miss), {})
    assert miss_out.known_failure == "local ascent stops"
    crash_out = W.run_job(known_job(boom), {})
    assert crash_out.failure.startswith("raised") and crash_out.known_failure == ""
    failures = [[o.name, o.failure, o.known_failure] for o in (miss_out, crash_out)]
    assert run.correct(failures[:1]) and not run.correct(failures)
    # the result line's ``failed`` counts only the unexpected failure
    assert run.unexpected(failures[:1]) == 0 and run.unexpected(failures) == 1
    assert any("UNEXPECTED" in line for line in run.summarize_failures(failures))


def test_known_failure_without_prefixes_is_unexpected():
    job = W.Job("j", "k", lambda ctx: None, lambda v: "optimum off", "some defect")
    assert W.run_job(job, {}).known_failure == ""


def test_negative_control_that_certifies_is_a_failure():
    cnot = cat.UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])
    job = W._rejected("cnot_mixed", cnot, cat.maximally_mixed([2]))  # a true catalysis
    assert W.run_job(job, {}).failure == "mismatched pair was certified"


def small_jobs(seed):
    certify = W.certify_jobs(seed)[:8]
    optimize = [j for j in W.optimize_jobs(seed)
                if j.kind in ("ea", "converse") or j.name == "global:dephasing2:alpha=1"]
    return certify + optimize


def test_two_traced_runs_on_one_seed_repeat_the_counts():
    keys = ("numpy.eig_calls", "numpy.kron_calls", "optimize.iterations",
            "catalysis.certify_calls", "optimize.evals", "hilbert.validate_calls")
    runs = [worker.traced(small_jobs, passes=2, spans_path=None)["metrics"] for _ in range(2)]
    assert runs[0]["catalysis.certify_calls"] > 0 and runs[0]["optimize.iterations"] > 0
    assert {k: runs[0][k] for k in keys} == {k: runs[1][k] for k in keys}


def test_timed_loop_runs_enough_jobs_for_p90():
    jobs = [W.Job(f"j{k}", "j", lambda ctx, k=k: sum(range(2000 * (k + 1))), lambda v: None)
            for k in range(7)]
    res = worker.timed(jobs, lambda k: jobs, seconds=0.0)
    times = [t for chunk in res["latencies_s"] for t in chunk]
    assert len(times) >= worker.MIN_JOBS and len(times) % len(jobs) == 0
    assert len(res["probes_ms"]) == len(res["latencies_s"]) + 1
    p90 = run.percentile(times, 90)
    assert sum(t > p90 for t in times) >= run.MIN_BEYOND_P90


def test_shuffled_passes_run_every_job_in_a_seeded_order():
    calls = []
    jobs = [W.Job(f"j{k}", "j", lambda ctx, k=k: calls.append(k), lambda v: None)
            for k in range(40)]
    orders = []
    for _ in range(2):
        calls.clear()
        worker.timed(jobs, lambda k: jobs, seconds=0.0, shuffle_seed=3)
        orders.append(list(calls))
    passes = [orders[0][i:i + len(jobs)] for i in range(0, len(orders[0]), len(jobs))]
    assert orders[0] == orders[1]
    assert all(sorted(p) == list(range(len(jobs))) for p in passes)
    assert passes[0] != list(range(len(jobs))) and passes[0] != passes[1]


def test_jobs_depend_on_the_seed_only():
    a = [j.name for j in W.certify_jobs(5)]
    assert a == [j.name for j in W.certify_jobs(5)]
    r1 = worker.run_pass(W.scenario_jobs(5)[-2:])
    r2 = worker.run_pass(W.scenario_jobs(6)[-2:])
    assert all(o.failure is None for o in r1 + r2)


def test_run_prints_the_contract_line(tmp_path):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                          "scenario", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert last["correct"] and last["failed"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
