"""Command-line front end: construct, certify, run scenarios, optimize and
emit reports.

Each command, and each construct kind, scenario and optimize target, accepts
only the flags it reads (``catalyx construct max_extraction --help`` lists
them); any other flag is a usage error.  Exit codes: 0 success, 1 semantic
failure (a certification or inequality check failed), 2 usage or parse
error.  Reports echo the seed; identical configurations and seeds give
byte-identical JSON up to the timestamp field.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

# constructions, optimize and scenarios are imported by the commands that
# run them, so verify, entropy and a usage error never load them
from . import catalysis, entropy, hilbert
from .catalysis import CertificationError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2

# each override name and the tolerance it rebinds in hilbert, their one
# home, which every use reads at call time
_TOL_NAMES = {
    "unitary": "TOL_UNITARY",
    "herm": "TOL_HERM",
    "psd": "TOL_PSD",
    "state": "TOL_STATE",
    "norm": "TOL_NORM",
    "group": "GROUP_TOL",
    "entropy": "ENTROPY_SLACK",
    "refinement": "REFINEMENT_TOL",
    "ledger": "LEDGER_TOL",
}


class RunConfig(NamedTuple):
    command: str
    parameters: dict
    seed: int
    output_path: str | None
    format: str

    def echo(self) -> dict:
        return {
            "command": self.command,
            "parameters": {k: v for k, v in sorted(self.parameters.items())},
            "seed": self.seed,
            "format": self.format,
        }


def _config(args, parameters: dict) -> RunConfig:
    # only the trace scenarios read --format; every other report is JSON
    return RunConfig(args.command, parameters, args.seed, args.out,
                     getattr(args, "format", "json"))


def _apply_tol_overrides(pairs: list[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"tolerance override must be name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        name = name.strip().lower()
        if name not in _TOL_NAMES:
            raise ValueError(
                f"unknown tolerance {name!r}; valid: {sorted(_TOL_NAMES)}"
            )
        value = float(raw)
        if math.isnan(value):
            raise ValueError(f"tolerance {name!r} must be a number, got {raw!r}")
        setattr(hilbert, _TOL_NAMES[name], value)


def _write_and_print(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        hilbert._write_atomic(cfg.output_path, text)
    print(text, end="")


def _emit(report: dict, cfg: RunConfig) -> None:
    report = {"config": cfg.echo(), "timestamp": _timestamp(), **report}
    _write_and_print(json.dumps(report, indent=1, sort_keys=True, allow_nan=False) + "\n", cfg)


def _emit_csv(rows: list[list[str]], cfg: RunConfig) -> None:
    import csv
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_and_print(buf.getvalue(), cfg)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_operator(path: str) -> tuple[np.ndarray, hilbert.SubsystemLayout]:
    return hilbert.payload_to_matrix(hilbert.load_json(path))


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _flag(*names: str, **spec) -> tuple[tuple[str, ...], dict]:
    """One argparse argument: its names and its ``add_argument`` keywords."""
    return names, spec


class _OneOf(NamedTuple):
    """Flags that exclude each other; one of them must be given if
    ``required``.  argparse sees a flag as given only when its value is not
    its default object, so an optional member needs ``default=None``."""

    flags: tuple
    required: bool = True


OUT = _flag("--out", default=None)
SIGMA_FILE = _flag("--sigma-file", default=None)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _config(args, {"unitary": args.unitary_file, "cut": args.cut})
    m, layout = _load_operator(args.unitary_file)
    if args.layout:
        layout = hilbert.SubsystemLayout(_parse_ints(args.layout))
    u = hilbert.UnitaryOperator(m, layout)
    cut = _parse_ints(args.cut)
    verdict = catalysis.is_catalysis_unitary(u, cut)
    report = {"is_catalysis_unitary": verdict.verdict,
              "partial_transpose_defect": verdict.defect}
    ok = verdict.verdict
    if args.sigma_file:
        sigma = hilbert.DensityOperator(*_load_operator(args.sigma_file))
        # the catalysis checks take the system side as the leading subsystems
        dims = u.layout.dims
        front = cut + [i for i in range(len(dims)) if i not in cut]
        u = hilbert.UnitaryOperator(hilbert.permute_subsystems(u.matrix, dims, front),
                                    [dims[i] for i in front])
        # a catalyst of the wrong size is a usage error, whatever the verdict
        catalysis.system_dim(u.layout.dims, sigma, len(cut))
        try:
            verdict.require()
        except CertificationError as exc:
            # compatibility is not evaluated for a unitary that fails the test
            report.update({"compatible": None, "error": str(exc)})
        else:
            rep = catalysis.verify_catalysis_exhaustive(u, sigma, len(cut))
            report.update({"compatible": rep.compatible, "entropy_gap_bits": rep.entropy_gap,
                           "max_deviation": rep.max_deviation})
            ok = rep.compatible and rep.max_deviation <= hilbert.TOL_STATE
    report["pass"] = ok
    _emit(report, cfg)
    print(f"verify: {'PASS' if ok else 'FAIL'} defect = {verdict.defect:.3e}")
    return EXIT_OK if ok else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# entropy


def cmd_entropy(args) -> int:
    cfg = _config(args, {"state": args.state_file})
    payload = hilbert.load_json(args.state_file)
    if "amps_re" in payload:
        rho = hilbert.payload_to_state(payload).density()
    else:
        m, layout = hilbert.payload_to_matrix(payload)
        rho = hilbert.DensityOperator(m, layout)
    alphas = [float(a) for a in args.alpha.replace(",", " ").split()]
    report = entropy.entropy_report(rho, alphas).to_json_dict()
    _emit(report, cfg)
    print(f"entropy: vn = {report['vn']:.6f} bits, "
          f"catalytic_vn = {report['catalytic_vn']:.6f} bits")
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct: kind(args, constructions) -> (object, report fields, headline)


def _dephasing_degeneracy(args, constructions):
    r = _parse_ints(args.r)
    inst = constructions.dephasing_catalysis(r)
    s = entropy.catalytic_entropy(constructions.degeneracy_decomposition(r))
    return inst, {"system_dim": inst.a_dim, "catalyst_dim": inst.b_dim}, f"S_cat = {s:.6f} bits"


def _max_extraction(args, constructions):
    if args.sigma_file:
        sigma = hilbert.DensityOperator(*_load_operator(args.sigma_file))
    else:
        sigma = constructions.conserved_optimal_catalyst(_parse_ints(args.r))
    res = constructions.max_extraction_catalysis(sigma)
    s = entropy.catalytic_entropy(hilbert.eigenspace_decompose(sigma))
    return res.instance, {"register_dim": res.register_dim}, f"S_cat = {s:.6f} bits"


def _initialization_classical(args, constructions):
    gen = constructions.initialization_classical(args.d)
    return gen, {"d": args.d}, f"I = {math.log2(args.d):.6f} bits"


def _initialization_masking(args, constructions):
    gen = constructions.initialization_masking(args.m)
    return gen, {"m": args.m}, f"I = {math.log2(args.m ** 2):.6f} bits"


def _double_random(args, constructions):
    hilbert.check_size(args.d**3, f"clock family of {args.d} operators of {args.d}×{args.d}")
    z = hilbert.clock_matrix(args.d)
    family = [np.linalg.matrix_power(z, k) for k in range(args.d)]
    inst = constructions.double_random(args.d, family, family)
    return inst, {"d": args.d}, f"defect = {inst.defect:.3e}"


def _multiparty(args, constructions):
    inst = constructions.multiparty_instance(args.d)
    return inst, {"d": args.d}, f"defect = {inst.defect:.3e}"


def _conserved_optimal(args, constructions):
    r = _parse_ints(args.r)
    sigma = constructions.conserved_optimal_catalyst(r)
    s = entropy.catalytic_entropy(constructions.degeneracy_decomposition(r))
    return sigma, {"r": r}, f"S_cat = {s:.6f} bits"


def _angular_momentum(args, constructions):
    res = constructions.angular_momentum_catalyst(args.lM)
    return res.sigma, {"lM": args.lM, "s_cat": res.s_cat}, f"S_cat = {res.s_cat:.6f} bits"


def _thermal_levels(args, constructions):
    r = _parse_ints(args.r)
    levels = constructions.thermal_levels(r, args.e_inf)
    headline = "levels = " + ", ".join(f"{e:.6f}" for e in levels)
    return levels, {"r": r, "e_inf": args.e_inf}, headline


R = _flag("--r", default="", help="degeneracy vector, e.g. 1,3")
D3 = _flag("--d", type=int, default=3)

# kind -> (handler, the flags it reads); a _OneOf holds flags that exclude each other
CONSTRUCT = {
    "dephasing_degeneracy": (_dephasing_degeneracy, (R,)),
    "max_extraction": (_max_extraction, (_OneOf((R, SIGMA_FILE)),)),
    "initialization_classical": (_initialization_classical, (D3,)),
    "initialization_masking": (_initialization_masking, (_flag("--m", type=int, default=2),)),
    "double_random": (_double_random, (D3,)),
    "multiparty": (_multiparty, (D3,)),
    "conserved_optimal": (_conserved_optimal, (R,)),
    "angular_momentum": (_angular_momentum, (_flag("--lM", type=int, default=1),)),
    "thermal_levels": (_thermal_levels, (R, _flag("--e-inf", type=float, default=0.0))),
}


def cmd_construct(args, handler) -> int:
    from . import constructions
    obj, extra, headline = handler(args, constructions)
    report: dict = {"kind": args.kind, **extra}
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)

    def path(part: str) -> str:
        return os.path.join(outdir, f"{args.kind}{part}.json")

    if isinstance(obj, catalysis.CatalysisInstance):
        hilbert.save_json(path("_unitary"), hilbert.operator_to_payload(obj.unitary))
        hilbert.save_json(path("_sigma"), hilbert.operator_to_payload(obj.sigma))
        report["certification"] = {"defect": obj.defect, "entropy_gap": obj.entropy_gap,
                                   "max_deviation": obj.max_deviation}
        hilbert.save_json(path("_instance"), {
            "unitary_file": path("_unitary"), "sigma_file": path("_sigma"),
            "layout": {"a_dims": list(obj.a_dims), "b_dims": list(obj.b_dims)},
            "certification": {**report["certification"], "timestamp": _timestamp(),
                              "seed": args.seed}})
    elif isinstance(obj, constructions.GeneralizedCatalysis):
        hilbert.save_json(path("_unitary"), hilbert.operator_to_payload(obj.unitary))
        hilbert.save_json(path("_intermediate"), hilbert.operator_to_payload(obj.intermediate))
    elif isinstance(obj, hilbert.DensityOperator):
        hilbert.save_json(path("_sigma"), hilbert.operator_to_payload(obj))
    else:  # plain data (thermal levels)
        hilbert.save_json(path(""), {"values": obj})
    cfg = RunConfig("construct", {"kind": args.kind}, args.seed, path("_report"), "json")
    _emit(report, cfg)
    print(headline)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenario: name(args, scenarios) -> (trace or report fields, pass, headline)


def _multiparty_scenario(args, scenarios):
    trace = scenarios.multiparty_refuel(args.d, args.rounds, classical=args.classical)
    turns = [s for s in trace.steps if s.ledger is not None]
    print(f"{'turn':>4} {'actor':>5} {'I(A:C)':>10} {'I(B:C)':>10} {'S(C)':>8}")
    for k, s in enumerate(turns, start=1):
        i_a = s.marginals.get("I(A:C)", 0.0)
        i_b = s.marginals.get("I(B:C)", 0.0)
        print(f"{k:>4} {s.actor:>5} {i_a:>10.6f} {i_b:>10.6f} "
              f"{s.marginals['S(C)']:>8.4f}")
    # quantum turns leave C maximally mixed, fully correlated with the actor
    # and uncorrelated with the idle agent (once it holds a register, and so
    # a reading); the classical construction claims no identity
    log_d = math.log2(args.d)
    ok = args.classical or all(
        abs(s.marginals.get(key, value) - value) <= hilbert.ENTROPY_SLACK
        for s in turns for key, value in (
            ("S(C)", log_d), (f"I({s.actor}:C)", 2 * log_d),
            (f"I({'B' if s.actor == 'A' else 'A'}:C)", 0.0)))
    return trace, ok, (f"I(A:C) = {turns[-1].marginals.get('I(A:C)', float('nan')):.6f} "
                       f"bits after round {len(turns)}")


def _conservation(args, scenarios):
    rep = scenarios.conservation_law_check(seed=args.seed, n_samples=args.samples)
    fields = {"max_residual": rep.max_residual,
              "max_inequality_violation": rep.max_inequality_violation,
              "samples": rep.samples}
    return {"report": fields}, rep.ok, f"conservation: max residual = {rep.max_residual:.3e}"


def _depletion(args, scenarios):
    trace = scenarios.depletion_demo(args.d)
    i_val = trace.reading("use2", "I(A1:A2)")
    bound = trace.reading("use2", "bound")
    ok = i_val >= bound - hilbert.ENTROPY_SLACK
    return trace, ok, f"I(A1:A2) = {i_val:.6f} bits >= bound {bound:.6f}"


def _absorption(args, scenarios):
    chan = _named_channel(args.channel or f"initialization{2 if args.d is None else args.d}")
    rep = scenarios.absorption_check(chan, n_samples=args.samples, seed=args.seed)
    fields = {"max_local_decrease": rep.max_local_decrease,
              "min_global_increase_at_max": rep.min_global_increase_at_max}
    return fields, rep.ok, (f"absorption: decrease {rep.max_local_decrease:.6f} <= "
                            f"increase {rep.min_global_increase_at_max:.6f}")


def _cq_free(args, scenarios):
    rep = scenarios.cq_free_randomness(args.d)
    fields = {"free_bits": rep.free_bits,
              "erasure_deviation": rep.erasure_deviation,
              "ledger": rep.ledger_record.to_json_dict()}
    ok = rep.erasure_deviation <= hilbert.TOL_STATE
    return fields, ok, f"cq_free: free_bits = {rep.free_bits:.6f}"


def _initialization_scenario(args, scenarios):
    trace = scenarios.initialization_scenario(args.d)
    log_d = math.log2(args.d)
    want = {("intermediate", "I(A':B)"): log_d, ("pure-input", "I(A':B)"): log_d,
            ("pure-input", "D(out_A, |0><0|)"): 0.0, ("mixed-input", "D(out_A, |0><0|)"): 0.0,
            ("mixed-input", "delta_I"): -log_d, ("entangled-input", "delta_I"): log_d}
    ok = all(abs(trace.reading(*key) - value) <= hilbert.ENTROPY_SLACK
             for key, value in want.items())
    i_ab = trace.reading("intermediate", "I(A':B)")
    return trace, ok, f"I(A':B) = {i_ab:.6f} bits"


D2 = _flag("--d", type=int, default=2)
SAMPLES = _flag("--samples", type=int, default=50)
# a trace is the only report that --format csv changes
FORMAT = _flag("--format", choices=("json", "csv"), default="json")

SCENARIO = {
    "multiparty": (_multiparty_scenario, (
        D2, _flag("--rounds", type=int, default=2), _flag("--classical", action="store_true"),
        FORMAT)),
    "conservation": (_conservation, (SAMPLES,)),
    "depletion": (_depletion, (D2, FORMAT)),
    "absorption": (_absorption, (SAMPLES, _OneOf((
        _flag("--d", type=int, default=None, help="default 2, for initialization<d>"),
        _flag("--channel", default=None, help="default initialization<d>")), required=False))),
    "cq_free": (_cq_free, (D2,)),
    "initialization": (_initialization_scenario, (D3, FORMAT)),
}


def cmd_scenario(args, handler) -> int:
    from . import scenarios
    cfg = _config(args, {"name": args.name})
    result, ok, headline = handler(args, scenarios)
    if cfg.format == "csv":
        _emit_csv(result.csv_rows(), cfg)
    else:
        if isinstance(result, scenarios.ScenarioTrace):
            result = {"trace": result.to_json_dict()}
        _emit({**result, "pass": ok}, cfg)
    print(headline)
    return EXIT_OK if ok else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# optimize: target(args, channel, optimize) -> (headline label, result)


_CHANNEL_RE = re.compile(r"^([a-z_]+?)_?(\d+)$")


def _named_channel(spec: str) -> catalysis.KrausChannel:
    if spec.endswith(".json"):
        return catalysis.KrausChannel([_load_operator(spec)[0]])
    match = _CHANNEL_RE.match(spec)
    if not match:
        raise ValueError(f"cannot parse channel spec {spec!r}")
    name, d = match.group(1), int(match.group(2))
    builders = {
        "dephasing": catalysis.dephasing_channel,
        "erasure": catalysis.erasure_channel,
        "identity": catalysis.identity_channel,
        "initialization": catalysis.initialization_channel,
        "weyl_twirl": catalysis.weyl_twirl_channel,
        "depolarizing": catalysis.weyl_twirl_channel,
    }
    if name not in builders:
        raise ValueError(f"unknown channel {name!r}; valid: {sorted(builders)}")
    return builders[name](d)


def _ascent_options(args) -> dict:
    # without --restarts the ascents keep their own default
    runs = {} if args.restarts is None else {"restarts": args.restarts}
    return {"alpha": args.alpha, "seed": args.seed, **runs}


def _ea(args, chan, optimize):
    return "C_EA", optimize.ea_capacity(chan)


def _global(args, chan, optimize):
    return "S_prod_global", optimize.max_entropy_production_global(chan, **_ascent_options(args))


def _local(args, chan, optimize):
    return "S_prod_local", optimize.max_entropy_production_local(chan, **_ascent_options(args))


ASCENT = (_flag("--alpha", type=float, default=1.0, help="Renyi order, default 1"),
          _flag("--restarts", type=int, default=None,
                help="local: this many random starts drawn from the seed (default 16); global "
                     "is concave and runs one start, the maximally entangled input, whatever "
                     "this says (at least 1)"))
OPTIMIZE = {"ea": (_ea, ()), "global": (_global, ASCENT), "local": (_local, ASCENT)}


def cmd_optimize(args, handler) -> int:
    parameters = {"target": args.target, "channel": args.channel}
    for name in ("alpha", "restarts"):  # the ascent flags global and local were given
        value = getattr(args, name, None)
        if value is not None:  # JSON has no infinity: alpha=inf is echoed as "inf"
            parameters[name] = str(value) if math.isinf(value) else value
    cfg = _config(args, parameters)
    chan = _named_channel(args.channel)
    from . import optimize  # after the channel: a bad spec loads no optimizer
    label, res = handler(args, chan, optimize)
    _emit({"result": res.to_json_dict()}, cfg)
    print(f"{label} = {res.value:.6f} bits")
    return EXIT_OK if res.converged else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    from . import constructions, scenarios
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    ops = hilbert.canonical_operators(3)
    check("clock-order",
          np.allclose(np.linalg.matrix_power(ops.clock.matrix, 3), np.eye(3), atol=1e-12))
    diag = hilbert.DensityOperator(np.diag([0.5, 0.25, 0.25]).astype(complex), [3])
    dec = hilbert.eigenspace_decompose(diag)
    check("catalytic-entropy", abs(entropy.catalytic_entropy(dec) - 2.0) < 1e-10,
          f"{entropy.catalytic_entropy(dec):.12f}")
    inst = constructions.dephasing_catalysis([1, 2])
    check("dephasing-defect", inst.defect <= 1e-9, f"{inst.defect:.3e}")
    plus = hilbert.plus_state(inst.a_dim).density()
    out = catalysis.implement_channel(inst, plus)
    off = float(np.abs(out.matrix - np.diag(np.diag(out.matrix))).max())
    check("dephasing-exact", off <= 1e-10, f"{off:.3e}")
    rep = scenarios.conservation_law_check(seed=args.seed, n_samples=10)
    check("conservation", rep.ok, f"{rep.max_residual:.3e}")
    rec = catalysis.ledger_for_instance(inst, plus)
    check("ledger", rec.residual <= hilbert.LEDGER_TOL, f"{rec.residual:.3e}")
    wh = catalysis.werner_holevo_channel(3)
    unital = np.abs(wh.apply_matrix(np.eye(3)) - np.eye(3)).max() <= 1e-12
    span, k = catalysis.kraus_products_rank(wh)
    check("unital-not-catalytic", unital and k > 1 and span == k * k,
          f"rank {span} of {k * k}")

    ok_all = True
    for name, ok, detail in checks:
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} {detail}")
        ok_all &= ok
    return EXIT_OK if ok_all else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# parser


class Command(NamedTuple):
    """A command and the flags it reads; with kinds, every kind reads ``flags``
    too, and ``run(args, handler)`` imports the family's module once and
    passes it to the kind's handler."""

    help: str
    run: Callable
    flags: tuple = ()
    kinds: dict | None = None
    dest: str = ""  # the attribute that names the kind: kind, name or target


COMMANDS = {
    "verify": Command("certify a unitary (and catalyst) pair", cmd_verify, (
        _flag("unitary_file"),
        _flag("--layout", default=None, help="comma-separated dims override"),
        _flag("--cut", default="0", help="comma-separated system-side indices"),
        SIGMA_FILE, OUT)),
    "entropy": Command("entropy families of a state file", cmd_entropy, (
        _flag("state_file"), _flag("--alpha", default="0.5,2"), OUT)),
    "construct": Command("build a certified construction", cmd_construct, (
        _flag("--out", default=None, help="directory for the written files, default ."),),
        CONSTRUCT, "kind"),
    "scenario": Command("run a protocol experiment", cmd_scenario, (OUT,), SCENARIO, "name"),
    "optimize": Command("entropy production / capacity ascent", cmd_optimize, (
        _flag("--channel", required=True,
              help="named channel like dephasing2 or a unitary JSON file"), OUT),
        OPTIMIZE, "target"),
    "selftest": Command("quick identity battery", cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--tol-override", action="append", default=[],
                        metavar="NAME=VALUE")

    def add(sub, name: str, flags, func, **kw) -> None:
        sp = sub.add_parser(name, parents=[shared], **kw)
        for flag in flags:
            if isinstance(flag, _OneOf):
                group = sp.add_mutually_exclusive_group(required=flag.required)
                for names, spec in flag.flags:
                    group.add_argument(*names, **spec)
            else:
                sp.add_argument(*flag[0], **flag[1])
        sp.set_defaults(func=func)

    p = argparse.ArgumentParser(prog="catalyx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        if cmd.kinds is None:
            add(sub, name, cmd.flags, cmd.run, help=cmd.help)
            continue
        kinds = sub.add_parser(name, help=cmd.help).add_subparsers(dest=cmd.dest, required=True)
        for kind, (handler, flags) in cmd.kinds.items():
            add(kinds, kind, cmd.flags + flags, partial(cmd.run, handler=handler))
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: usage error, or --help
        return exc.code
    # overrides last for this run only, also when main is called in-process
    saved = {name: getattr(hilbert, name) for name in _TOL_NAMES.values()}
    try:
        _apply_tol_overrides(args.tol_override)
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        for name, value in saved.items():
            setattr(hilbert, name, value)


if __name__ == "__main__":
    sys.exit(main())
