"""Command-line front end: construct, certify, run scenarios, optimize and
emit reports.

Exit codes: 0 success, 1 semantic failure (a certification or inequality
check failed), 2 usage or parse error.  Reports echo the seed; identical
configurations and seeds give byte-identical JSON up to the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import catalysis, constructions, entropy, hilbert, optimize, scenarios
from .catalysis import CertificationError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2

# each tolerance has one home, which every use reads at call time
_TOL_NAMES = {
    "unitary": (hilbert, "TOL_UNITARY"),
    "herm": (hilbert, "TOL_HERM"),
    "psd": (hilbert, "TOL_PSD"),
    "state": (hilbert, "TOL_STATE"),
    "norm": (hilbert, "TOL_NORM"),
    "group": (hilbert, "GROUP_TOL"),
    "ledger": (catalysis, "LEDGER_TOL"),
}


@dataclass(frozen=True)
class RunConfig:
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
        setattr(*_TOL_NAMES[name], float(raw))


def _write_and_print(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        hilbert._write_atomic(cfg.output_path, text)
    print(text, end="")


def _emit(report: dict, cfg: RunConfig) -> None:
    report = {"config": cfg.echo(), "timestamp": _timestamp(), **report}
    _write_and_print(json.dumps(report, indent=1, sort_keys=True) + "\n", cfg)


def _emit_csv(rows: list[list[str]], cfg: RunConfig) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_and_print(buf.getvalue(), cfg)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_operator(path: str) -> tuple[np.ndarray, hilbert.SubsystemLayout]:
    return hilbert.payload_to_matrix(hilbert.load_json(path))


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = RunConfig("verify", {"unitary": args.unitary_file, "cut": args.cut},
                    args.seed, args.out, args.format)
    m, layout = _load_operator(args.unitary_file)
    if args.layout:
        layout = hilbert.SubsystemLayout(_parse_ints(args.layout))
    u = hilbert.UnitaryOperator(m, layout)
    cut = _parse_ints(args.cut)
    verdict = catalysis.is_catalysis_unitary(u, cut)
    report = {
        "is_catalysis_unitary": verdict.verdict,
        "partial_transpose_defect": verdict.defect,
    }
    ok = verdict.verdict
    if args.sigma_file:
        sm, slayout = _load_operator(args.sigma_file)
        sigma = hilbert.DensityOperator(sm, slayout)
        # the catalysis checks take the system side as the leading subsystems
        dims = u.layout.dims
        front = cut + [i for i in range(len(dims)) if i not in cut]
        u = hilbert.UnitaryOperator(hilbert.permute_subsystems(u.matrix, dims, front),
                                    [dims[i] for i in front])
        try:
            comp = catalysis.check_compatibility(u, sigma, a_count=len(cut))
            rep = catalysis.verify_catalysis_exhaustive(u, sigma, a_count=len(cut))
            report.update(
                {
                    "compatible": comp.verdict,
                    "entropy_gap_bits": comp.entropy_gap,
                    "max_deviation": rep.max_deviation,
                }
            )
            ok = ok and comp.verdict and rep.max_deviation <= hilbert.TOL_STATE
        except CertificationError as exc:
            report.update({"compatible": False, "error": str(exc)})
            ok = False
    report["pass"] = ok
    _emit(report, cfg)
    print(f"verify: {'PASS' if ok else 'FAIL'} defect = {verdict.defect:.3e}")
    return EXIT_OK if ok else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# entropy


def cmd_entropy(args) -> int:
    cfg = RunConfig("entropy", {"state": args.state_file}, args.seed, args.out,
                    args.format)
    payload = hilbert.load_json(args.state_file)
    if "amps_re" in payload:
        rho = hilbert.payload_to_state(payload).density()
    else:
        m, layout = hilbert.payload_to_matrix(payload)
        rho = hilbert.DensityOperator(m, layout)
    alphas = [float(a) for a in args.alpha.replace(",", " ").split()]
    report = entropy.entropy_report(rho, alphas).to_json_dict()
    _emit(report, cfg)
    print(
        f"entropy: vn = {report['vn']:.6f} bits, "
        f"catalytic_vn = {report['catalytic_vn']:.6f} bits"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _construct_dispatch(args):
    kind = args.kind
    if kind == "dephasing_degeneracy":
        inst = constructions.dephasing_catalysis(_parse_ints(args.r))
        return inst, {"system_dim": inst.a_dim, "catalyst_dim": inst.b_dim}, (
            f"S_cat = {entropy.catalytic_entropy(constructions.degeneracy_decomposition(_parse_ints(args.r))):.6f} bits"
        )
    if kind == "max_extraction":
        sigma = _sigma_from_args(args)
        res = constructions.max_extraction_catalysis(sigma)
        dec = hilbert.eigenspace_decompose(sigma)
        return res.instance, {"register_dim": res.register_dim}, (
            f"S_cat = {entropy.catalytic_entropy(dec):.6f} bits"
        )
    if kind == "initialization_classical":
        gen = constructions.initialization_classical(args.d)
        return gen, {"d": args.d}, f"I = {math.log2(args.d):.6f} bits"
    if kind == "initialization_masking":
        gen = constructions.initialization_masking(args.m)
        return gen, {"m": args.m}, f"I = {math.log2(args.m ** 2):.6f} bits"
    if kind == "double_random":
        z = hilbert.clock_matrix(args.d)
        family = [np.linalg.matrix_power(z, k) for k in range(args.d)]
        inst = constructions.double_random(args.d, family, family)
        return inst, {"d": args.d}, f"defect = {inst.defect:.3e}"
    if kind == "multiparty":
        inst = constructions.multiparty_instance(args.d)
        return inst, {"d": args.d}, f"defect = {inst.defect:.3e}"
    if kind == "conserved_optimal":
        r = _parse_ints(args.r)
        sigma = constructions.conserved_optimal_catalyst(r)
        s = entropy.catalytic_entropy(constructions.degeneracy_decomposition(r))
        return sigma, {"r": r}, f"S_cat = {s:.6f} bits"
    if kind == "angular_momentum":
        res = constructions.angular_momentum_catalyst(args.lM)
        return res.sigma, {"lM": args.lM, "s_cat": res.s_cat}, (
            f"S_cat = {res.s_cat:.6f} bits"
        )
    # argparse admits only CONSTRUCTION_KINDS, so this is thermal_levels
    r = _parse_ints(args.r)
    levels = constructions.thermal_levels(r, args.e_inf)
    return levels, {"r": r, "e_inf": args.e_inf}, (
        "levels = " + ", ".join(f"{e:.6f}" for e in levels)
    )


CONSTRUCTION_KINDS = (
    "dephasing_degeneracy",
    "max_extraction",
    "initialization_classical",
    "initialization_masking",
    "double_random",
    "multiparty",
    "conserved_optimal",
    "angular_momentum",
    "thermal_levels",
)


def _sigma_from_args(args) -> hilbert.DensityOperator:
    if args.sigma_file:
        m, layout = _load_operator(args.sigma_file)
        return hilbert.DensityOperator(m, layout)
    if args.r:
        return constructions.conserved_optimal_catalyst(_parse_ints(args.r))
    raise ValueError("need --sigma-file or --r")


def cmd_construct(args) -> int:
    obj, extra, headline = _construct_dispatch(args)
    report: dict = {"kind": args.kind, **extra}
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if isinstance(obj, catalysis.CatalysisInstance):
        ufile = os.path.join(outdir, f"{args.kind}_unitary.json")
        sfile = os.path.join(outdir, f"{args.kind}_sigma.json")
        hilbert.save_json(ufile, hilbert.operator_to_payload(obj.unitary))
        hilbert.save_json(sfile, hilbert.operator_to_payload(obj.sigma))
        bundle = obj.to_bundle(ufile, sfile, timestamp=_timestamp())
        bundle["certification"]["seed"] = args.seed
        hilbert.save_json(os.path.join(outdir, f"{args.kind}_instance.json"), bundle)
        report["certification"] = {
            "defect": obj.defect,
            "entropy_gap": obj.entropy_gap,
            "max_deviation": obj.max_deviation,
        }
    elif isinstance(obj, constructions.GeneralizedCatalysis):
        ufile = os.path.join(outdir, f"{args.kind}_unitary.json")
        ifile = os.path.join(outdir, f"{args.kind}_intermediate.json")
        hilbert.save_json(ufile, hilbert.operator_to_payload(obj.unitary))
        hilbert.save_json(ifile, hilbert.operator_to_payload(obj.intermediate))
    elif isinstance(obj, hilbert.DensityOperator):
        hilbert.save_json(
            os.path.join(outdir, f"{args.kind}_sigma.json"),
            hilbert.operator_to_payload(obj),
        )
    else:  # plain data (thermal levels)
        hilbert.save_json(
            os.path.join(outdir, f"{args.kind}.json"), {"values": obj}
        )
    cfg = RunConfig("construct", {"kind": args.kind}, args.seed,
                    os.path.join(outdir, f"{args.kind}_report.json"), args.format)
    _emit(report, cfg)
    print(headline)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenario


SCENARIO_NAMES = (
    "multiparty",
    "conservation",
    "depletion",
    "absorption",
    "cq_free",
    "initialization",
)
# the scenarios whose report is a trace, the only output --format csv changes
TRACE_SCENARIOS = ("multiparty", "depletion", "initialization")


def cmd_scenario(args) -> int:
    name = args.name
    cfg = RunConfig("scenario", {"name": name}, args.seed, args.out, args.format)
    ok = True
    if name == "multiparty":
        trace = scenarios.multiparty_refuel(
            args.d, args.rounds, seed=args.seed, classical=args.classical
        )
        turns = [s for s in trace.steps if s.ledger is not None]
        print(f"{'turn':>4} {'actor':>5} {'I(A:C)':>10} {'I(B:C)':>10} {'S(C)':>8}")
        for k, s in enumerate(turns, start=1):
            i_a = s.marginals.get("I(A:C)", 0.0)
            i_b = s.marginals.get("I(B:C)", 0.0)
            print(f"{k:>4} {s.actor:>5} {i_a:>10.6f} {i_b:>10.6f} "
                  f"{s.marginals['S(C)']:>8.4f}")
        headline = (
            f"I(A:C) = {turns[-1].marginals.get('I(A:C)', float('nan')):.6f} bits "
            f"after round {len(turns)}"
        )
    elif name == "conservation":
        rep = scenarios.conservation_law_check(seed=args.seed, n_samples=args.samples)
        cfgd = {"max_residual": rep.max_residual,
                "max_inequality_violation": rep.max_inequality_violation,
                "samples": rep.samples}
        ok = rep.max_residual <= 1e-9 and rep.max_inequality_violation <= 1e-9
        _emit({"report": cfgd, "pass": ok}, cfg)
        print(f"conservation: max residual = {rep.max_residual:.3e}")
        return EXIT_OK if ok else EXIT_SEMANTIC
    elif name == "depletion":
        trace = scenarios.depletion_demo(args.d, seed=args.seed)
        i_val = trace.reading("use2", "I(A1:A2)")
        bound = trace.reading("use2", "bound")
        ok = i_val >= bound - 1e-7
        headline = f"I(A1:A2) = {i_val:.6f} bits >= bound {bound:.6f}"
    elif name == "absorption":
        chan = _named_channel(args.channel or f"initialization{args.d}")
        rep = scenarios.absorption_check(chan, n_samples=args.samples, seed=args.seed)
        ok = rep.ok
        _emit(
            {
                "max_local_decrease": rep.max_local_decrease,
                "min_global_increase_at_max": rep.min_global_increase_at_max,
                "pass": ok,
            },
            cfg,
        )
        print(
            f"absorption: decrease {rep.max_local_decrease:.6f} <= "
            f"increase {rep.min_global_increase_at_max:.6f}"
        )
        return EXIT_OK if ok else EXIT_SEMANTIC
    elif name == "cq_free":
        rep = scenarios.cq_free_randomness(args.d)
        ok = rep.erasure_deviation <= hilbert.TOL_STATE
        _emit(
            {
                "free_bits": rep.free_bits,
                "erasure_deviation": rep.erasure_deviation,
                "ledger": rep.ledger_record.to_json_dict(),
                "pass": ok,
            },
            cfg,
        )
        print(f"cq_free: free_bits = {rep.free_bits:.6f}")
        return EXIT_OK if ok else EXIT_SEMANTIC
    else:  # argparse admits only SCENARIO_NAMES, so this is initialization
        trace = scenarios.initialization_scenario(args.d, seed=args.seed)
        i_ab = trace.reading("intermediate", "I(A':B)")
        headline = f"I(A':B) = {i_ab:.6f} bits"

    if args.format == "csv":
        _emit_csv(trace.csv_rows(), cfg)
    else:
        _emit({"trace": trace.to_json_dict(), "pass": ok}, cfg)
    print(headline)
    return EXIT_OK if ok else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# optimize


_CHANNEL_RE = re.compile(r"^([a-z_]+?)_?(\d+)$")


def _named_channel(spec: str) -> catalysis.KrausChannel:
    if spec.endswith(".json"):
        m, layout = _load_operator(spec)
        return catalysis.channel_from_unitary(m)
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


def cmd_optimize(args) -> int:
    cfg = RunConfig(
        "optimize", {"target": args.target, "channel": args.channel},
        args.seed, args.out, args.format,
    )
    chan = _named_channel(args.channel)
    alpha = math.inf if args.alpha == "inf" else float(args.alpha)
    # without --restarts the ascents keep their own default
    runs = {} if args.restarts is None else {"restarts": args.restarts}
    if args.target == "ea":
        res = optimize.ea_capacity(chan, seed=args.seed)
        headline = f"C_EA = {res.value:.6f} bits"
    elif args.target == "global":
        res = optimize.max_entropy_production_global(chan, alpha, seed=args.seed, **runs)
        headline = f"S_prod_global = {res.value:.6f} bits"
    else:  # argparse admits only ea, global and local
        res = optimize.max_entropy_production_local(chan, alpha, seed=args.seed, **runs)
        headline = f"S_prod_local = {res.value:.6f} bits"
    _emit({"result": res.to_json_dict()}, cfg)
    print(headline)
    return EXIT_OK if res.converged else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    ops = hilbert.canonical_operators(3)
    check(
        "clock-order",
        np.allclose(np.linalg.matrix_power(ops.clock.matrix, 3), np.eye(3), atol=1e-12),
    )
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
    check("conservation", rep.max_residual <= 1e-9, f"{rep.max_residual:.3e}")
    rec = catalysis.ledger_for_instance(inst, plus)
    check("ledger", rec.residual <= catalysis.LEDGER_TOL, f"{rec.residual:.3e}")

    ok_all = True
    for name, ok, detail in checks:
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} {detail}")
        ok_all &= ok
    return EXIT_OK if ok_all else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="catalyx", description=__doc__)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol-override", action="append", default=[],
                        metavar="NAME=VALUE")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="certify a unitary (and catalyst) pair")
    sp.add_argument("unitary_file")
    sp.add_argument("--layout", default=None, help="comma-separated dims override")
    sp.add_argument("--cut", default="0", help="comma-separated system-side indices")
    sp.add_argument("--sigma-file", default=None)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("entropy", help="entropy families of a state file")
    sp.add_argument("state_file")
    sp.add_argument("--alpha", default="0.5,2")
    common(sp)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("construct", help="build a certified construction")
    sp.add_argument("kind", choices=CONSTRUCTION_KINDS)
    sp.add_argument("--r", default="", help="degeneracy vector, e.g. 1,3")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--lM", type=int, default=1)
    sp.add_argument("--e-inf", type=float, default=0.0)
    sp.add_argument("--sigma-file", default=None)
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("scenario", help="run a protocol experiment")
    sp.add_argument("name", choices=SCENARIO_NAMES)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--rounds", type=int, default=2)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--classical", action="store_true")
    sp.add_argument("--channel", default=None)
    common(sp)
    sp.set_defaults(func=cmd_scenario)

    sp = sub.add_parser("optimize", help="entropy production / capacity ascent")
    sp.add_argument("target", choices=("ea", "global", "local"))
    sp.add_argument("--channel", required=True,
                    help="named channel like dephasing2 or a unitary JSON file")
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--restarts", type=int, default=None,
                    help="ascent restarts (global and local only)")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("selftest", help="quick identity battery")
    common(sp)
    sp.set_defaults(func=cmd_selftest)

    return p


def _reject_idle_flags(args) -> None:
    """Refuse a flag the command would accept but ignore."""
    if args.format == "csv" and not (
        args.command == "scenario" and args.name in TRACE_SCENARIOS
    ):
        raise ValueError(
            "--format csv applies only to the trace scenarios "
            f"({', '.join(TRACE_SCENARIOS)})"
        )
    if args.command == "optimize" and args.target == "ea" and args.restarts is not None:
        raise ValueError("--restarts applies only to optimize global and local")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # overrides last for this run only, also when main is called in-process
    saved = [(home, getattr(*home)) for home in _TOL_NAMES.values()]
    try:
        _reject_idle_flags(args)
        _apply_tol_overrides(args.tol_override)
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        for home, value in saved:
            setattr(*home, value)


if __name__ == "__main__":
    sys.exit(main())
