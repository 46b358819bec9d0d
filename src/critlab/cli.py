"""Command-line interface.

Subcommands: ``critical`` (safe-progress boundary for an ego start),
``simulate`` (one closed-loop run), ``campaign`` (the full pipeline),
``determinacy`` (braking/progress restart checks), ``partition`` (speed
partition coverage), ``report`` (re-render a summary from persisted raw grid
files).  The ``CRITLAB_OUT`` environment variable sets the default output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .autopilots import ExternalAutopilot, ProtocolError
from .campaign import (
    ConfigError,
    build_autopilot,
    determinacy_rows,
    load_config,
    render_report,
    report_from_raw,
    run_campaign,
    write_outputs,
)
from .classify import progress_probe
from .criticality import most_critical
from .kinematics import ADProfile
from .partition import build_partition, coverage_ratio, envelope_samples
from .scenario import (
    ScenarioType,
    StaticPart,
    scenario_to_csv,
    scenario_to_json,
    test_case_from_dict,
)
from .simulator import SimConfig, simulate, verdict

OUT_ENV = "CRITLAB_OUT"


def _parse_profile(text: str) -> ADProfile:
    try:
        a, b, vmax = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--profile expects 'a_max,b_max,v_max', got {text!r}") from exc
    return ADProfile.constant(a, b, vmax)


def _build_autopilot(name: str, profile: ADProfile, rates: dict[str, str] | None):
    """A variant at its factory defaults (``rates`` aside), or ``exec:<cmd>``."""
    entry = {"name": name, "variant": name, "rates": rates} if rates else name
    return build_autopilot(entry, profile)


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "critlab-out")


def _add_static_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario-type", default="merge_yield",
                   choices=[s.value for s in ScenarioType])
    p.add_argument("--vl", type=float, default=10.0, help="speed limit, m/s")
    p.add_argument("--d", type=float, default=5.0, help="critical zone half-length, m")


def _static(args: argparse.Namespace) -> StaticPart:
    return StaticPart(ScenarioType(args.scenario_type), vl=args.vl, d=args.d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="critlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="print the safe-progress boundary as JSON")
    p.add_argument("--x-e", type=float, required=True)
    p.add_argument("--v-e", type=float, required=True)
    p.add_argument("--profile", default="2,4,15", help="a_max,b_max,v_max")
    _add_static_args(p)

    p = sub.add_parser("simulate", help="run one test case in closed loop")
    p.add_argument("--autopilot", default="reference", help="variant name or exec:<cmd>")
    p.add_argument("--testcase", required=True, help="path to a test case JSON file")
    p.add_argument("--profile", default="2,4,15")
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--zone-epsilon", type=float, default=0.1)
    p.add_argument("--out", help="write the scenario trace here (.csv or .json)")

    p = sub.add_parser("campaign", help="run the full campaign pipeline")
    p.add_argument("--config", help="campaign config JSON (defaults built in)")
    p.add_argument("--workers", type=int, help="override the config worker count")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV})")
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])

    p = sub.add_parser("determinacy", help="braking/progress restart checks")
    p.add_argument("--autopilot", default="reference")
    p.add_argument("--profile", default="2,4,15")
    p.add_argument("--rates", help="maneuver rates, e.g. '30:5.0,27.5:3.0'")
    p.add_argument("--v0", type=float, default=12.0, help="braking check start speed")
    p.add_argument("--x-f", type=float, default=1000.0, help="braking check obstacle")
    p.add_argument("--restart-every", type=int, default=5)
    p.add_argument("--x-e", type=float, default=20.0)
    p.add_argument("--v-e", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=0.1)
    _add_static_args(p)

    p = sub.add_parser("partition", help="speed-partition coverage ratio")
    p.add_argument("--x-e", type=float, required=True)
    p.add_argument("--speeds", required=True, help="decreasing list, e.g. '10,7.5,5'")
    p.add_argument("--profile", default="2,4,15")
    p.add_argument("--x-f-cap", type=float, default=None)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", help="write envelope-vs-staircase samples CSV here")
    _add_static_args(p)

    p = sub.add_parser("report", help="re-render a summary from raw grid files")
    p.add_argument("--raw", required=True, help="directory holding raw/<ap>/<sc>/*.json")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])

    args = parser.parse_args(argv)
    try:
        return _run(args)
    # a refused input (ConfigError, HorizonError, DomainError, ...) or an
    # external autopilot that broke the stdio protocol
    except (ValueError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    if args.command == "critical":
        b = most_critical(args.x_e, args.v_e, _parse_profile(args.profile), _static(args))
        print(json.dumps(b.to_dict()))
        return 0

    if args.command == "simulate":
        tc = test_case_from_dict(json.loads(Path(args.testcase).read_text()), dt=args.dt)
        pilot = _build_autopilot(args.autopilot, _parse_profile(args.profile), None)
        cfg = SimConfig(dt=args.dt, zone_epsilon=args.zone_epsilon)
        try:
            outcome = simulate(pilot, tc, cfg)
        finally:
            if isinstance(pilot, ExternalAutopilot):
                pilot.close()
        vd = verdict(outcome)
        print(json.dumps({
            "verdict": vd.kind.value,
            "reason": vd.reason,
            "events": [{"kind": e.kind.value, "t": round(e.t, 6)} for e in outcome.events],
            "final": {"x": outcome.final.x, "v": outcome.final.v},
        }))
        if args.out:
            path = Path(args.out)
            if path.suffix == ".json":
                path.write_text(scenario_to_json(outcome.scenario))
            else:
                path.write_text(scenario_to_csv(outcome.scenario))
        return 0

    if args.command == "campaign":
        config = load_config(args.config)
        if args.workers is not None:
            config.raw["workers"] = args.workers
        out_dir = args.out or _default_out()
        report = run_campaign(config, out_dir=out_dir)
        write_outputs(report, out_dir)
        metrics = json.dumps(report.metrics, sort_keys=True, indent=1)
        (Path(out_dir) / "metrics.json").write_text(metrics + "\n")
        print(render_report(report, args.format))
        return 2 if report.any_failure else 0

    if args.command == "determinacy":
        if args.autopilot.startswith("exec:"):
            raise ConfigError(f"determinacy needs a built-in autopilot, got {args.autopilot!r}")
        # JSON-shaped, as in a config entry: the factory converts the numbers.
        rates = args.rates and dict(part.split(":", 1) for part in args.rates.split(","))
        pilot = _build_autopilot(args.autopilot, _parse_profile(args.profile), rates)
        probe = progress_probe(_static(args), args.x_e, args.v_e, pilot.profile, args.dt)
        braking, progress = determinacy_rows(
            pilot, args.v0, args.x_f, probe, SimConfig(dt=args.dt), args.restart_every
        )
        print(json.dumps({"autopilot": pilot.name, "braking": braking, "progress": progress}))
        return 0

    if args.command == "partition":
        speeds = [float(s) for s in args.speeds.split(",")]
        part = build_partition(args.x_e, speeds, _parse_profile(args.profile), _static(args))
        result = coverage_ratio(part, args.x_f_cap, args.steps)
        print(json.dumps({
            "ratio": result.ratio,
            "covered_volume": result.covered_volume,
            "safe_volume": result.safe_volume,
            "x_f_cap": result.x_f_cap,
            "steps": list(result.steps),
        }))
        if args.out:
            rows = envelope_samples(part)
            lines = ["v,x_hat_a,x_hat_f,corner_x_a,corner_x_f"]
            lines += [
                f"{r['v']:.6f},{r['x_hat_a']:.6f},{r['x_hat_f']:.6f},"
                f"{r['corner_x_a']:.6f},{r['corner_x_f']:.6f}"
                for r in rows
            ]
            Path(args.out).write_text("\n".join(lines) + "\n")
        return 0

    if args.command == "report":
        report = report_from_raw(args.raw)
        text = render_report(report, args.format)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_outputs(report, out)
        print(text)
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
