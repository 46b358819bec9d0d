"""Command-line interface.

Subcommands: ``critical`` (safe-progress boundary for an ego start),
``simulate`` (one closed-loop run), ``campaign`` (the full pipeline),
``determinacy`` (braking/progress restart checks), ``partition`` (speed
partition coverage), ``report`` (re-render a summary from persisted raw grid
files).  The ``CRITLAB_OUT`` environment variable sets the default output
directory.  Every default that a campaign config also sets is read from
``DEFAULT_CONFIG``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .autopilots import ExternalAutopilot, ProtocolError
from .campaign import (
    DEFAULT_CONFIG,
    ConfigError,
    build_autopilot,
    determinacy_check,
    determinacy_rows,
    load_config,
    render_report,
    report_from_raw,
    run_campaign,
    write_outputs,
)
from .classify import RESTART_EVERY
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
PROFILE = "{a_max},{b_max},{v_max}".format(**DEFAULT_CONFIG["profile"])
SIM, STATIC = DEFAULT_CONFIG["sim"], DEFAULT_CONFIG["static"]


def _parse_profile(text: str) -> ADProfile:
    try:
        a, b, vmax = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--profile expects 'a_max,b_max,v_max', got {text!r}") from exc
    return ADProfile(a, b, vmax)


def _parse_speeds(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--speeds expects 'v1,v2,...', got {text!r}") from exc


def _parse_rates(text: str) -> dict[str, str]:
    """JSON-shaped, as in a config entry: the factory converts the numbers."""
    try:
        return dict(part.split(":", 1) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--rates expects 'speed:rate,...', got {text!r}") from exc


def _build_autopilot(name: str, profile: ADProfile, rates: dict[str, str] | None):
    """A variant at its factory defaults (``rates`` aside), or ``exec:<cmd>``."""
    entry = {"name": name, "variant": name, "rates": rates} if rates else name
    return build_autopilot(entry, profile)


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "critlab-out")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default=PROFILE, help="a_max,b_max,v_max")
    p.add_argument("--vl", type=float, default=STATIC["vl"], help="speed limit, m/s")


def _static(vl: float, d: float = STATIC["d"]) -> StaticPart:
    """The static part over the default config's first scenario type.  The
    boundary and the partition read only ``vl``, and a built-in pilot reads
    the type only in a light schedule's red phase, which no command sets."""
    return StaticPart(ScenarioType(DEFAULT_CONFIG["scenario_types"][0]), vl=vl, d=d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="critlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="print the safe-progress boundary as JSON")
    p.add_argument("--x-e", type=float, required=True)
    p.add_argument("--v-e", type=float, required=True)
    _add_model_args(p)

    p = sub.add_parser("simulate", help="run one test case in closed loop")
    p.add_argument("--autopilot", default="reference", help="variant name or exec:<cmd>")
    p.add_argument("--testcase", required=True, help="path to a test case JSON file")
    p.add_argument("--profile", default=PROFILE, help="a_max,b_max,v_max")
    p.add_argument("--dt", type=float, default=SIM["dt"])
    p.add_argument("--zone-epsilon", type=float, default=SIM["zone_epsilon"])
    p.add_argument("--out", help="write the scenario trace here (.csv or .json)")

    p = sub.add_parser("campaign", help="run the full campaign pipeline")
    p.add_argument("--config", help="campaign config JSON (defaults built in)")
    p.add_argument("--workers", type=int, help="override the config worker count")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV})")
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])

    p = sub.add_parser("determinacy", help="braking/progress restart checks")
    p.add_argument("--autopilot", default="reference")
    p.add_argument("--rates", help="maneuver rates, e.g. '30:5.0,27.5:3.0'")
    p.add_argument("--v0", type=float, help="braking check start speed (default 0.8 * v_max)")
    p.add_argument("--restart-every", type=int, default=RESTART_EVERY)
    x_e, v_e = DEFAULT_CONFIG["initial_states"][0]
    p.add_argument("--x-e", type=float, default=x_e)
    p.add_argument("--v-e", type=float, default=v_e)
    p.add_argument("--dt", type=float, default=SIM["dt"])
    _add_model_args(p)
    p.add_argument("--d", type=float, default=STATIC["d"], help="critical zone half-length, m")

    p = sub.add_parser("partition", help="speed-partition coverage ratio")
    p.add_argument("--x-e", type=float, required=True)
    p.add_argument("--speeds", required=True, help="decreasing list, e.g. '10,7.5,5'")
    p.add_argument("--x-f-cap", type=float, default=DEFAULT_CONFIG["partition"]["x_f_cap"])
    p.add_argument("--steps", type=int, default=DEFAULT_CONFIG["partition"]["steps"])
    p.add_argument("--out", help="write envelope-vs-staircase samples CSV here")
    _add_model_args(p)

    p = sub.add_parser("report", help="re-render a summary from raw grid files")
    p.add_argument("--raw", required=True, help="directory holding raw/<ap>/<sc>/*.json")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])

    args = parser.parse_args(argv)
    try:
        return _run(args)
    # a refused input (ConfigError, HorizonError, DomainError, ...), an unreadable
    # input file, or an external autopilot that broke the stdio protocol
    except (ValueError, OSError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    if args.command == "critical":
        b = most_critical(args.x_e, args.v_e, _parse_profile(args.profile), _static(args.vl))
        print(json.dumps(b.to_dict()))
        return 0

    if args.command == "simulate":
        tc = test_case_from_dict(json.loads(Path(args.testcase).read_text()))
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
                path.write_text(scenario_to_json(tc.static, outcome.frames))
            else:
                path.write_text(scenario_to_csv(outcome.frames))
        return 0

    if args.command == "campaign":
        config = load_config(args.config, workers=args.workers)
        out_dir = args.out or _default_out()
        report = run_campaign(config, out_dir=out_dir)
        paths = write_outputs(report, out_dir)
        metrics = json.dumps(report.metrics, sort_keys=True, indent=1)
        (Path(out_dir) / "metrics.json").write_text(metrics + "\n")
        print(paths[args.format].read_text())
        return 2 if report.any_failure else 0

    if args.command == "determinacy":
        if args.autopilot.startswith("exec:"):
            raise ConfigError(f"determinacy needs a built-in autopilot, got {args.autopilot!r}")
        rates = args.rates and _parse_rates(args.rates)
        pilot = _build_autopilot(args.autopilot, _parse_profile(args.profile), rates)
        cfg = SimConfig(dt=args.dt)  # refuses a bad step before the probe reads it
        static, start = _static(args.vl, args.d), (args.x_e, args.v_e)
        check = determinacy_check(pilot, args.v0, start, most_critical(*start, pilot.profile, static),
                                  static, cfg.dt)
        braking, progress = determinacy_rows([check], cfg, args.restart_every)
        print(json.dumps({"autopilot": pilot.name, "braking": braking, "progress": progress}))
        return 0

    if args.command == "partition":
        part = build_partition(args.x_e, _parse_speeds(args.speeds), _parse_profile(args.profile),
                               _static(args.vl))
        result = coverage_ratio(part, args.x_f_cap, args.steps)
        print(json.dumps({
            "ratio": result.ratio,
            "covered_volume": result.covered_volume,
            "safe_volume": result.safe_volume,
            "x_f_cap": result.x_f_cap,
            "steps": list(result.steps),
        }))
        if args.out:
            keys = ("v", "x_hat_a", "x_hat_f", "corner_x_a", "corner_x_f")
            lines = [",".join(keys)] + [",".join(f"{row[k]:.6f}" for k in keys)
                                        for row in envelope_samples(part)]
            Path(args.out).write_text("\n".join(lines) + "\n")
        return 0

    if args.command == "report":
        report = report_from_raw(args.raw)
        print(write_outputs(report, args.out)[args.format].read_text() if args.out
              else render_report(report, args.format))
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
