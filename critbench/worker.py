"""One benchmark process: set up critlab, then optionally run one campaign.

Run as ``python3 worker.py CONFIG OUT MODE [TRACE_FILE]`` with MODE ``setup``,
``campaign`` or ``traced``.  After set-up (import critlab, load and validate
the config, build the autopilots) it prints ``ready`` and the time on the
monotonic clock; the parent times set-up from process start to then.  In the
campaign modes it then runs ``run_campaign`` and ``write_outputs`` into OUT
and prints one JSON line with the campaign's wall time and the process's
peak resident memory.  ``traced`` also wraps every layer (see ``tracing``),
runs ``report_from_raw`` on the outputs, writes the spans to TRACE_FILE and
adds the per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import critlab.campaign  # noqa: E402
from critlab.autopilots import ExternalAutopilot  # noqa: E402


def main() -> None:
    config_path, out, mode = sys.argv[1:4]
    config = critlab.campaign.load_config(config_path)
    for pilot in map(config.build_autopilot, config.raw["autopilots"]):
        if isinstance(pilot, ExternalAutopilot):
            pilot.close()
    print(f"ready {time.monotonic()!r}", flush=True)
    if mode == "setup":
        return

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(run_id=f"{Path(out).parent.name}/{Path(out).name}")
        tracer.install()
    start = time.perf_counter()
    report = critlab.campaign.run_campaign(config, out)
    critlab.campaign.write_outputs(report, out)
    result = {"campaign_s": time.perf_counter() - start}
    if tracer is not None:
        critlab.campaign.report_from_raw(Path(out) / "raw")
        tracer.uninstall()
        Path(sys.argv[4]).write_text(json.dumps(tracer.spans))
        result["layers"] = tracing.layer_metrics(tracer)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
