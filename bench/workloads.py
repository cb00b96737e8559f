"""Seeded job lists for the four workloads, each job with its own oracle.

A job is one call into catalyx (or, on ``cli``, one command).  Its oracle
runs after the timed call and returns ``None`` when the output is right or a
one-line reason when it is not.  ``run_job`` turns a raise, a wrong verdict
or an off-reference value into a counted failure instead of an exception.

Jobs listed with a ``known_failure`` reason are defects of the program that
the benchmark keeps visible on purpose: they stay in the timed loop and lower
``ok_frac``, and ``run.py`` names them, but only an unexpected failure counts
in the ``failed`` of its result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from catalyx import catalysis as cat
from catalyx import cli
from catalyx import constructions as con
from catalyx import hilbert as hl
from catalyx import optimize as opt
from catalyx import scenarios as sc
from catalyx.catalysis import CertificationError
from catalyx.hilbert import DensityOperator, UnitaryOperator, maximally_mixed

import reference as ref
from child import cpu_seconds, run_child

LOG2 = math.log2
ALPHAS = (0.5, 1.0, 2.0, math.inf)
LEDGER_TOL = 1e-8
CERT_TOL = 1e-9
OPT_TOL = 1e-6  # bits; every ascent optimum below is known in closed form
# Converse batches per certified channel.  With 8 (and erasure3 at alpha=0.5
# among the ascents), the median job of an ``optimize`` pass lies well inside
# the band of converse jobs, not at its upper edge next to a 30 % gap.
CONVERSE_BATCHES = 8


@dataclass
class Job:
    name: str
    kind: str
    call: Callable[[dict], object]
    check: Callable[[object], str | None]
    known_failure: str = ""  # the defect this job is known to hit
    # only failures whose reason starts with one of these are that defect;
    # any other failure, a raise included, is unexpected
    known_prefixes: tuple[str, ...] = ()


@dataclass
class Outcome:
    name: str
    seconds: float
    failure: str | None
    known_failure: str


def run_job(job: Job, ctx: dict, tracer=None) -> Outcome:
    """Time ``job.call`` alone, then judge its output with the oracle.

    ``ctx`` is shared by the jobs of one pass, so follow-up jobs can use an
    instance certified earlier in the same pass.
    """
    if tracer is not None:
        tracer.recording = True
    t0 = cpu_seconds()
    try:
        out = job.call(ctx)
        failure = None
    except Exception as exc:  # a raising job is a failed job, not a crash
        out, failure = None, f"raised {type(exc).__name__}: {exc}"
    seconds = cpu_seconds() - t0
    if tracer is not None:
        tracer.recording = False
    if failure is None:
        try:
            failure = job.check(out)
        except Exception as exc:
            failure = f"oracle raised {type(exc).__name__}: {exc}"
    known = job.known_failure if failure and failure.startswith(job.known_prefixes) else ""
    return Outcome(job.name, seconds, failure, known)


def near(value: float, expected: float, tol: float, what: str) -> str | None:
    if abs(value - expected) <= tol:
        return None
    return f"{what} = {value!r}, expected {expected!r} within {tol:g}"


def first_failure(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# certify: many small certifications, accepted and rejected


DEPHASING_R = ((1, 2), (1, 3), (2, 2), (1, 2, 2), (2, 3), (1, 2, 3), (3, 3))
# catalyst spectra as (eigenvalue, multiplicity) blocks, as in criterion 04
EXTRACTION_BLOCKS = (
    ((0.5, 2),),
    ((1 / 3, 3),),
    ((0.5, 1), (0.25, 2)),
    ((1 / 3, 2), (1 / 6, 2)),
)


def _block_sigma(blocks) -> DensityOperator:
    diag = np.concatenate([np.full(m, w) for w, m in blocks])
    return DensityOperator(np.diag(diag.astype(complex)), [diag.size])


def _nondegenerate_blocks(d: int, rng) -> tuple:
    while True:
        p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        if np.min(np.abs(np.diff(p))) >= 1e-3:
            return tuple((float(w), 1) for w in p)


def _extraction_a_dim(blocks) -> int:
    return len(blocks) * math.lcm(*[m * m for _, m in blocks])


def _cert_check(a_dim: int):
    def check(inst) -> str | None:
        return first_failure(
            None if inst.defect <= CERT_TOL else f"defect {inst.defect:.3e}",
            None if inst.max_deviation <= CERT_TOL else f"deviation {inst.max_deviation:.3e}",
            None if ref.pt_unitarity_defect(inst.unitary.matrix, a_dim, inst.b_dim) <= CERT_TOL
            else "reference partial-transpose test rejects the accepted unitary",
        )
    return check


def _follow_ups(label: str, rho: DensityOperator, rho_ledger: DensityOperator) -> list[Job]:
    key = f"inst:{label}"

    def implement(ctx):
        inst = ctx[key]
        return inst, cat.implement_channel(inst, rho)

    def check_implement(res):
        inst, out = res
        want = ref.induced_channel(inst.unitary.matrix, inst.sigma.matrix, rho.matrix)
        err = float(np.abs(out.matrix - want).max())
        return None if err <= 1e-10 else f"channel output off by {err:.3e}"

    def ledger(ctx):
        return cat.ledger_for_instance(ctx[key], rho_ledger)

    def check_ledger(rec):
        return first_failure(
            None if rec.residual <= LEDGER_TOL else f"ledger residual {rec.residual:.3e}",
            near(rec.s_in, ref.entropy_bits(rho_ledger.matrix), 1e-9, "S_in"),
        )

    def kraus(ctx):
        inst = ctx[key]
        return inst, cat.channel_to_kraus(inst)

    def check_kraus(res):
        inst, chan = res
        want = ref.induced_channel(inst.unitary.matrix, inst.sigma.matrix, rho.matrix)
        err = float(np.abs(ref.apply_kraus(chan.kraus, rho.matrix) - want).max())
        return None if err <= 1e-9 else f"Kraus form off by {err:.3e}"

    return [
        Job(f"implement:{label}", "implement", implement, check_implement),
        Job(f"ledger:{label}", "ledger", ledger, check_ledger),
        Job(f"kraus:{label}", "kraus", kraus, check_kraus),
    ]


def _certified(label: str, a_dim: int, build, rng) -> list[Job]:
    def call(ctx):
        inst = build()
        ctx[f"inst:{label}"] = inst
        return inst

    rho = DensityOperator(ref.random_state(a_dim, rng), [a_dim])
    rho_ledger = DensityOperator(ref.random_state(a_dim, rng), [a_dim])
    return [Job(f"certify:{label}", "certify", call, _cert_check(a_dim))] + _follow_ups(
        label, rho, rho_ledger
    )


def _rejected(label: str, u: UnitaryOperator, sigma: DensityOperator) -> Job:
    def call(ctx):
        try:
            cat.canonical_form(u, sigma)
        except CertificationError:
            return "rejected"
        return "accepted"

    return Job(f"reject:{label}", "reject", call,
               lambda v: None if v == "rejected" else "mismatched pair was certified")


def certify_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for r in DEPHASING_R:
        jobs += _certified(f"dephasing{r}", sum(x * x for x in r),
                           lambda r=r: con.dephasing_catalysis(r), rng)
    for k in range(6):
        d_a, n = 2 + k % 2, 2 + k % 3
        p = rng.dirichlet(np.ones(n))
        us = [ref.haar_unitary(d_a, rng) for _ in range(n)]
        s = _seed(rng) % 1000
        jobs += _certified(f"classical{k}", d_a,
                           lambda p=p, us=us, s=s: cat.classical_catalysis(p, us, seed=s), rng)
    blocks = list(EXTRACTION_BLOCKS) + [_nondegenerate_blocks(d, rng) for d in (2, 3)]
    for k, b in enumerate(blocks):
        sigma = _block_sigma(b)
        jobs += _certified(f"extraction{k}", _extraction_a_dim(b),
                           lambda sigma=sigma: con.max_extraction_catalysis(sigma).instance, rng)
    for d in (2, 3, 4):
        us = [np.diag(np.exp(2j * np.pi * rng.random(d))) for _ in range(d)]
        vs = [np.linalg.matrix_power(hl.clock_matrix(d), k) for k in range(d)]
        jobs += _certified(f"double_random{d}", d,
                           lambda d=d, us=us, vs=vs: con.double_random(d, us, vs), rng)
    for d in (2, 3):
        jobs += _certified(f"multiparty{d}", d * d, lambda d=d: con.multiparty_instance(d), rng)
    for k in range(6):
        d_a, d_b = 2 + k % 2, 2 + k % 3
        u = UnitaryOperator(ref.controlled([ref.haar_unitary(d_a, rng) for _ in range(d_b)], d_b),
                            [d_a, d_b])
        s = _seed(rng) % 1000
        jobs += _certified(
            f"controlled{k}", d_a,
            lambda u=u, d_b=d_b, s=s: cat.canonical_form(u, maximally_mixed([d_b]), seed=s), rng)

    # negative controls: Haar unitaries and the mismatched pairs of criterion 02
    cnot = UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])
    plusminus = 0.75 * hl.plus_state(2).density().matrix + 0.25 * np.array(
        [[0.5, -0.5], [-0.5, 0.5]])
    jobs += [
        _rejected("swap2", UnitaryOperator(hl.swap_matrix(2), [2, 2]),
                  DensityOperator(np.diag([0.75, 0.25]), [2])),
        _rejected("swap3", UnitaryOperator(hl.swap_matrix(3), [3, 3]), maximally_mixed([3])),
        _rejected("cnot_pure", cnot, hl.basis_state(2, 0).density()),
        _rejected("cnot_0.7", cnot, DensityOperator(np.diag([0.7, 0.3]), [2])),
        _rejected("cnot_0.6", cnot, DensityOperator(np.diag([0.6, 0.4]), [2])),
    ]
    for k in range(2):
        jobs.append(_rejected(f"haar16_{k}", UnitaryOperator(ref.haar_unitary(16, rng), [4, 4]),
                              maximally_mixed([4])))
    for k in range(4):
        jobs.append(_rejected(f"haar4_{k}", UnitaryOperator(ref.haar_unitary(4, rng), [2, 2]),
                              maximally_mixed([2])))
    for k in range(2):
        u = ref.controlled([ref.haar_unitary(2, rng) for _ in range(2)], 2)
        jobs.append(_rejected(f"plusminus_{k}", UnitaryOperator(u, [2, 2]),
                              DensityOperator(plusminus, [2])))
    return jobs


# ---------------------------------------------------------------------------
# optimize: iterative ascents and the converse sampling loop


CHANNELS = {
    "dephasing": cat.dephasing_channel,
    "erasure": cat.erasure_channel,
    "weyl_twirl": cat.weyl_twirl_channel,
    "identity": cat.identity_channel,
}


def _optimum(kind: str, d: int, target: str) -> float:
    """Closed-form optima.  Global production: a dephasing caps the output
    rank at d (log2 d), erasure and the Weyl twirl reach 2 log2 d with the
    maximally entangled input, at every alpha.  Local production: log2 d
    from a pure unbiased input.  C_EA: identity 2 log2 d, dephasing log2 d,
    erasure and Weyl twirl 0."""
    if target == "global":
        return LOG2(d) if kind == "dephasing" else 2 * LOG2(d)
    if target == "local":
        return LOG2(d)
    return {"identity": 2 * LOG2(d), "dephasing": LOG2(d)}.get(kind, 0.0)


def _ascent_check(expected: float):
    def check(res) -> str | None:
        return first_failure(
            near(res.value, expected, OPT_TOL, "optimum"),
            None if res.converged else f"not converged after {res.iterations} iterations",
        )
    return check


def optimize_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    chans = {f"{k}{d}": b(d) for k, b in CHANNELS.items() for d in (2, 3, 4)}
    jobs: list[Job] = []

    def ascent(target, kind, d, alpha, restarts, s=None, known="", prefixes=()):
        chan = chans[f"{kind}{d}"]
        s = _seed(rng) if s is None else s
        if target == "global":
            fn = lambda ctx: opt.max_entropy_production_global(chan, alpha, restarts=restarts, seed=s)
        elif target == "local":
            fn = lambda ctx: opt.max_entropy_production_local(chan, alpha, restarts=restarts, seed=s)
        else:
            fn = lambda ctx: opt.ea_capacity(chan, seed=s, restarts=restarts)
        name = f"{target}:{kind}{d}" + ("" if target == "ea" else f":alpha={alpha:g}")
        jobs.append(Job(name, target, fn, _ascent_check(_optimum(kind, d, target)),
                        known, prefixes))

    for kind in ("dephasing", "erasure", "weyl_twirl"):
        for alpha in ALPHAS:
            ascent("global", kind, 2, alpha, restarts=2)
    ascent("global", "dephasing", 3, 1.0, restarts=2)
    ascent("global", "dephasing", 3, 2.0, restarts=2)
    for alpha in (0.5, 1.0, 2.0):
        ascent("global", "weyl_twirl", 3, alpha, restarts=2)
    for alpha in (0.5, 1.0, 2.0):
        ascent("global", "erasure", 3, alpha, restarts=2)
    # The min-entropy polish lands below the optimum on weyl_twirl3 for most
    # restart seeds (5 of 6 probed) while reporting convergence; its seed is
    # pinned to one that misses so the defect shows on every benchmark seed.
    ascent("global", "weyl_twirl", 3, math.inf, restarts=2, s=0,
           known="min-entropy polish misses the optimum on weyl_twirl3",
           prefixes=("optimum",))
    # At alpha=0.5 the local ascent stops without converging on every restart
    # seed and on dephasing also misses the optimum.  At alpha=1 and 2 it
    # reaches the optimum, but about one call in 600 still reports no
    # convergence: only that outcome counts as the same known defect there.
    for kind, d in (("dephasing", 2), ("dephasing", 3), ("erasure", 2)):
        for alpha in (1.0, 2.0, 0.5):
            ascent("local", kind, d, alpha, restarts=1,
                   known="local ascent stops without converging",
                   prefixes=("optimum", "not converged") if alpha == 0.5
                   else ("not converged",))
    for kind in CHANNELS:
        for d in (2, 3, 4):
            ascent("ea", kind, d, None, restarts=2)
    for rank in (2, 3):
        chan = cat.random_channel(3, rank, _seed(rng))
        s = _seed(rng)

        def check(res, chan=chan):
            return first_failure(
                None if res.value <= 2 * LOG2(3) + 1e-9 else f"C_EA {res.value} above 2 log2 3",
                None if res.value >= ref.ea_information(chan.kraus, np.eye(3) / 3) - 1e-9
                else "C_EA below the maximally mixed input",
                near(res.value, ref.ea_information(chan.kraus, res.argmax), 1e-8, "C_EA at argmax"),
                None if res.converged else "not converged",
            )

        jobs.append(Job(f"ea:random3_rank{rank}", "ea",
                        lambda ctx, chan=chan, s=s: opt.ea_capacity(chan, seed=s, restarts=2),
                        check))

    # converse: sampled global productions of certified channels never beat
    # the catalytic Renyi entropy of their catalyst (the loop of criterion 04)
    sources = []
    for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        u = ref.controlled([ref.haar_unitary(d_a, rng) for _ in range(d_b)], d_b)
        inst = cat.canonical_form(UnitaryOperator(u, [d_a, d_b]), maximally_mixed([d_b]))
        sources.append((f"controlled{d_a}x{d_b}", inst, [1.0 / d_b], [d_b]))
    p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
    inst = cat.classical_catalysis(p, [ref.haar_unitary(3, rng) for _ in range(3)])
    sources.append(("classical3", inst, list(p), [1, 1, 1]))
    sources.append(("multiparty2", con.multiparty_instance(2), [0.5], [2]))
    for label, inst, lam, mult in sources:
        chan = cat.channel_to_kraus(inst)
        d = inst.a_dim
        bounds = {a: ref.catalytic_renyi_bound(lam, mult, a) for a in ALPHAS}
        for b in range(CONVERSE_BATCHES):
            vs = [ref.haar_unitary(d * d, rng)[:, 0] for _ in range(8)]
            rhos = [np.outer(v, v.conj()) for v in vs]

            def call(ctx, chan=chan, rhos=rhos, d=d):
                return [opt.global_production(chan, r, d, a) for r in rhos for a in ALPHAS]

            def check(vals, chan=chan, rhos=rhos, d=d, bounds=bounds):
                k = 0
                for r in rhos:
                    out = ref.extended_output(chan.kraus, r, d)
                    for a in ALPHAS:
                        if vals[k] > bounds[a] + 1e-7:
                            return f"production {vals[k]} beats the bound {bounds[a]} at alpha={a}"
                        want = ref.entropy_bits(out, a) - ref.entropy_bits(r, a)
                        if abs(vals[k] - want) > 1e-8:
                            return f"production {vals[k]} != reference {want} at alpha={a}"
                        k += 1
                return None

            jobs.append(Job(f"converse:{label}:{b}", "converse", call, check))
    return jobs


# ---------------------------------------------------------------------------
# scenario: few protocol runs on fully built Kronecker products


def _steps_check(trace, last: dict, tol: float = 1e-9) -> str | None:
    bad = [s.ledger.residual for s in trace.steps
           if s.ledger is not None and s.ledger.residual > LEDGER_TOL]
    if bad:
        return f"ledger residual {max(bad):.3e}"
    for (op, key), want in last.items():
        r = near(trace.reading(op, key), want, tol, f"{op} {key}")
        if r:
            return r
    return None


def scenario_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for d, rounds in ((2, 4), (3, 2), (2, 2)):
        last = f"turn{rounds}"
        want = {(last, "I(A:C)"): 0.0, (last, "D(tau_AC, mm)"): 0.0,
                (last, "I(B:C)"): 2 * LOG2(d)}
        jobs.append(Job(f"refuel:d={d}:rounds={rounds}", "refuel",
                        lambda ctx, d=d, r=rounds: sc.multiparty_refuel(d, r),
                        lambda t, want=want: _steps_check(t, want)))
    jobs.append(Job("refuel:classical:d=2:rounds=3", "refuel",
                    lambda ctx: sc.multiparty_refuel(2, 3, classical=True),
                    lambda t: _steps_check(t, {("joint-check", "D(joint, product)"): 0.5})))
    for d in (5, 3):
        want = {("intermediate", "I(A':B)"): LOG2(d), ("pure-input", "I(A':B)"): LOG2(d),
                ("pure-input", "D(out_A, |0><0|)"): 0.0, ("mixed-input", "delta_I"): -LOG2(d),
                ("mixed-input", "D(out_A, |0><0|)"): 0.0, ("entangled-input", "delta_I"): LOG2(d)}
        jobs.append(Job(f"initialization:d={d}", "initialization",
                        lambda ctx, d=d: sc.initialization_scenario(d),
                        lambda t, want=want: _steps_check(t, want)))
    for d in (3, 2):
        jobs.append(Job(f"depletion:d={d}", "depletion", lambda ctx, d=d: sc.depletion_demo(d),
                        lambda t, d=d: _steps_check(t, {("use2", "I(A1:A2)"): 2 * LOG2(d)})))
    for d in (5, 3):
        jobs.append(Job(
            f"cq_free:d={d}", "cq_free", lambda ctx, d=d: sc.cq_free_randomness(d),
            lambda rep, d=d: first_failure(
                near(rep.free_bits, LOG2(d), 1e-9, "free_bits"),
                None if rep.erasure_deviation <= 1e-9 else f"erasure {rep.erasure_deviation:.3e}",
                None if rep.ledger_record.residual <= LEDGER_TOL else "ledger residual")))
    for dims in ((3, 3, 3, 3), (2, 2, 2, 2)):
        s = _seed(rng)
        jobs.append(Job(
            f"conservation:dims={dims}", "conservation",
            lambda ctx, s=s, dims=dims: sc.conservation_law_check(seed=s, n_samples=40, dims=dims),
            lambda rep: first_failure(
                None if rep.max_residual <= 1e-9 else f"residual {rep.max_residual:.3e}",
                None if rep.max_inequality_violation <= 1e-9 else "inequality violated")))
    init4 = cat.initialization_channel(4)
    rand3 = cat.random_channel(3, 2, _seed(rng))
    for label, chan, decrease in (("initialization4", init4, 2.0), ("random3", rand3, None)):
        s = _seed(rng)

        def check(rep, decrease=decrease):
            return first_failure(
                None if rep.ok else "absorption bound violated",
                near(rep.max_local_decrease, decrease, 1e-9, "decrease") if decrease else None)

        jobs.append(Job(f"absorption:{label}", "absorption",
                        lambda ctx, chan=chan, s=s: sc.absorption_check(chan, n_samples=32, seed=s),
                        check))
    return jobs


# ---------------------------------------------------------------------------
# cli: a fixed script of commands, each a fresh process


def cli_script(seed: int, work: str) -> list[tuple[str, list[str], int, Callable | None]]:
    """(label, argv after ``python -m catalyx``, expected exit code, check of
    the JSON report written to --out)."""
    w = lambda name: os.path.join(work, name)
    s = ["--seed", str(seed)]

    def value(expected):
        return lambda rep: near(rep["result"]["value"], expected, OPT_TOL, "value")

    def passed(rep):
        return None if rep.get("pass") else "report does not pass"

    return [
        ("selftest", ["selftest"] + s, 0, None),
        ("construct:dephasing", ["construct", "dephasing_degeneracy", "--r", "1,2",
                                 "--out", w("c")] + s, 0,
         lambda rep: None if rep["certification"]["defect"] <= CERT_TOL else "defect"),
        ("construct:max_extraction", ["construct", "max_extraction", "--r", "1,2",
                                      "--out", w("c")] + s, 0, None),
        ("construct:angular_momentum", ["construct", "angular_momentum", "--lM", "2",
                                        "--out", w("c")] + s, 0,
         lambda rep: near(rep["s_cat"], LOG2(35), 1e-12, "s_cat")),
        ("verify:dephasing", ["verify", w("c/dephasing_degeneracy_unitary.json"), "--sigma-file",
                              w("c/dephasing_degeneracy_sigma.json"), "--out", w("v1.json")] + s,
         0, passed),
        ("entropy:dephasing", ["entropy", w("c/dephasing_degeneracy_sigma.json"),
                               "--out", w("e1.json")] + s, 0,
         lambda rep: near(rep["catalytic_vn"], LOG2(5), 1e-9, "catalytic_vn")),
        ("verify:max_extraction", ["verify", w("c/max_extraction_unitary.json"), "--cut", "0,1",
                                   "--sigma-file", w("c/max_extraction_sigma.json"),
                                   "--out", w("v2.json")] + s, 0, passed),
        ("entropy:angular_momentum", ["entropy", w("c/angular_momentum_sigma.json"),
                                      "--out", w("e2.json")] + s, 0,
         lambda rep: near(rep["catalytic_vn"], LOG2(35), 1e-9, "catalytic_vn")),
        ("scenario:multiparty", ["scenario", "multiparty", "--d", "2", "--rounds", "2",
                                 "--out", w("s1.json")] + s, 0, passed),
        ("scenario:depletion", ["scenario", "depletion", "--d", "2", "--out", w("s2.json")] + s,
         0, passed),
        ("scenario:conservation", ["scenario", "conservation", "--samples", "20",
                                   "--out", w("s3.json")] + s, 0, passed),
        ("optimize:ea", ["optimize", "ea", "--channel", "dephasing2",
                         "--out", w("o1.json")] + s, 0, value(1.0)),
        ("optimize:local", ["optimize", "local", "--channel", "dephasing2", "--restarts", "2",
                            "--out", w("o2.json")] + s, 0, value(1.0)),
        ("optimize:global", ["optimize", "global", "--channel", "erasure2", "--restarts", "2",
                             "--out", w("o3.json")] + s, 0, value(2.0)),
        ("error:missing_file", ["verify", w("missing.json")] + s, 2, None),
        ("error:even_d", ["construct", "initialization_classical", "--d", "4",
                          "--out", w("x")] + s, 2, None),
        ("error:haar_verify", ["verify", w("haar.json")] + s, 1, None),
    ]


def _out_path(argv: list[str]) -> str:
    """The JSON report a command wrote: ``--out`` itself, or for ``construct``
    the report file inside the ``--out`` directory."""
    out = argv[argv.index("--out") + 1]
    return os.path.join(out, f"{argv[1]}_report.json") if argv[0] == "construct" else out


def cli_setup(seed: int, work: str) -> None:
    """Write the seeded inputs the script reads: a Haar unitary that must fail
    verification."""
    rng = np.random.default_rng(seed)
    os.makedirs(work, exist_ok=True)
    u = ref.haar_unitary(4, rng)
    hl.save_json(os.path.join(work, "haar.json"),
                 {"dims": [2, 2], "re": u.real.tolist(), "im": u.imag.tolist()})


def _cli_check(argv, expected_rc, check):
    def judge(rc) -> str | None:
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}"
        if check is None:
            return None
        with open(_out_path(argv)) as fh:
            return check(json.load(fh))
    return judge


def cli_jobs(seed: int, work: str, env: dict) -> list[Job]:
    """Each command runs as a fresh ``python -m catalyx`` process."""
    cli_setup(seed, work)
    jobs = []
    for label, argv, rc, check in cli_script(seed, work):
        def call(ctx, argv=argv):
            return run_child([sys.executable, "-m", "catalyx"] + argv, env, limit_s=120)[0]
        jobs.append(Job(f"cli:{label}", label.split(":")[0], call, _cli_check(argv, rc, check)))
    return jobs


def cli_inprocess_jobs(seed: int, work: str) -> list[Job]:
    """The same script through ``catalyx.cli.main`` in this process, for the
    traced run: a child process cannot be traced from here."""
    cli_setup(seed, work)
    jobs = []
    for label, argv, rc, check in cli_script(seed, work):
        def call(ctx, argv=argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    return exc.code
        jobs.append(Job(f"cli:{label}", label.split(":")[0], call, _cli_check(argv, rc, check)))
    return jobs


# Workloads whose jobs do not depend on each other, so that a timed pass may
# run them in any order (``worker.timed``).
SHUFFLED = {"optimize"}

WORKLOADS = {
    "certify": certify_jobs,
    "optimize": optimize_jobs,
    "scenario": scenario_jobs,
}
