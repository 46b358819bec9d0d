"""critlab campaign benchmark.

    python3 critbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a critlab checkout.  The workload's campaign config is
drawn from the seed (``workloads.py``); each campaign runs in a fresh
interpreter, as ``critlab campaign`` does, so no cache survives from one
campaign to the next.  The run and all its processes share one CPU.  A run
first starts a few interpreters that only set up (import critlab, load the
config, build the autopilots), then runs whole campaigns until the next one
would end past ``--seconds``, at least ``MIN_CAMPAIGNS`` of them.  It checks
every campaign's outputs (``gate.py``) and prints each metric with its unit,
the machine it ran on and, as its last line, one JSON object::

    {"correct": ..., "attempted": <grid cells>, "failed": <grid cells>,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
the run's campaigns.  Their times are scaled to a reference host speed,
because the shared host's own speed drifts by more than the bounds allow:
the run times a fixed kernel (``calibrate.py``) before the set-up-only
interpreters, before each campaign and after the last, and multiplies each
set-up and campaign time by ``calibrate.REFERENCE_S`` over the mean of the
two kernel times around it.  The unscaled medians are printed and kept in
``result.json``.

With ``--trace 1`` the run alternates plain and traced campaigns
(``tracing.py``) and reports the per-layer metrics, unscaled medians over the
traced ones; ``trace.overhead_s`` is the traced minus the plain median
campaign time.  Spans go to ``critbench/.work/<run>/spans-rep<i>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

SETUP_ONLY = 5  # set-up-only interpreters per run; each campaign adds one sample
MIN_CAMPAIGNS = 4  # per run, whatever --seconds says
REP_TIMEOUT = 100.0  # s, one worker process
RUN_LIMIT = 150.0  # s; no campaign starts that would end later, so a run ends within 180 s
RESIM_SAMPLE = 64  # grid cells re-simulated per run

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cell_ok_frac": "fraction",
}


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(config: Path, out: Path, mode: str, env: dict, trace_file: Path | None = None):
    """Run one worker; returns (set-up seconds, result dict or None).

    Set-up runs from just before the process starts to the ``ready`` line's
    timestamp; ``time.monotonic`` reads the same system-wide clock in both
    processes.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), str(config), str(out), mode]
    if trace_file is not None:
        cmd.append(str(trace_file))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        return None, None
    setup_s = float(lines[0].split()[1]) - start
    if mode == "setup":
        return setup_s, {}
    try:
        return setup_s, json.loads(lines[-1])
    except json.JSONDecodeError:
        return setup_s, None


def raw_grid_stats(out: Path) -> dict[str, float]:
    """Share of distinct raw grids (ignoring ``scenario_type``) and dominance pairs."""
    distinct = set()
    files = sorted((out / "raw").glob("*/*/*.json"))
    pairs = 0
    for path in files:
        grid = json.loads(path.read_text())
        verdicts = [cell["verdict"] for cell in grid["grid"]]
        pairs += verdicts.count("fail") * verdicts.count("progress_pass")
        grid.pop("scenario_type")
        distinct.add(json.dumps(grid, sort_keys=True))
    return {
        "campaign.unique_grid_frac": len(distinct) / len(files) if files else 0.0,
        "classify.dominance_pairs": pairs,
    }


def count_lines(path: Path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    import gate
    from workloads import cells_per_campaign, make_config

    # One CPU for the whole run, children included.  An external pilot then
    # answers on the CPU that asked, not on an idle one that the host must
    # wake first: unpinned, those wake-ups made some campaigns 2-4x slower.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_start = os.getloadavg()
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw_config = make_config(workload, seed, quick)
    config = work / "config.json"
    config.write_text(json.dumps(raw_config, indent=1))
    cells = cells_per_campaign(raw_config)
    expected = None
    if seed == 0 and not quick:
        expected = json.loads((BENCH / "expected.json").read_text()).get(workload)

    calibrate.kernel(calibrate.KERNEL_N // 10)  # warm-up
    cal_times = [calibrate.sample()]
    setup_times = []  # (seconds, index of the kernel sample just before)
    for _ in range(SETUP_ONLY):
        setup_s, _ = spawn(config, work / "setup", "setup", dict(os.environ))
        if setup_s is not None:
            setup_times.append((setup_s, 0))

    reps: list[dict] = []
    kinds = ["campaign", "traced"] if trace else ["campaign"]
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        begun = time.perf_counter()
        cal_times.append(calibrate.sample())
        mode = kinds[len(reps) % len(kinds)]
        out = work / f"rep{len(reps)}"
        pilot_log = work / f"pilot-rep{len(reps)}.log"
        env = dict(os.environ, CRITBENCH_PILOT_LOG=str(pilot_log))
        trace_file = work / f"spans-rep{len(reps)}.json" if mode == "traced" else None
        setup_s, result = spawn(config, out, mode, env, trace_file)
        rep = {"mode": mode, "result": result, "failed": 0, "problems": [],
               "cal": len(cal_times) - 1}
        reps.append(rep)
        if setup_s is not None:
            setup_times.append((setup_s, rep["cal"]))
        if result is None:
            rep["failed"] = cells
            rep["problems"].append("campaign process failed")
            break
        if mode == "traced":
            result["layers"].update(raw_grid_stats(out))
            result["layers"]["autopilots.external.procs_started"] = count_lines(pilot_log)
        rep["digests"] = gate.digests(out)
        first = reps[0]
        if rep is first:
            try:
                rep["failed"], rep["problems"] = gate.check(out, raw_config, expected, seed,
                                                             RESIM_SAMPLE)
            except Exception as exc:  # any crash of the program under test fails the rep
                rep["failed"], rep["problems"] = cells, [f"gate crashed: {exc!r}"]
        elif rep["digests"] == first["digests"]:
            rep["failed"] = first["failed"]  # the same outputs, so the same wrong cells
        else:
            rep["failed"] = cells
            rep["problems"].append("outputs differ from those of the run's first campaign")
        next_end = 2 * time.perf_counter() - begun
        enough = len(reps) >= MIN_CAMPAIGNS and len(reps) % len(kinds) == 0
        if next_end > started + RUN_LIMIT or (enough and next_end > deadline):
            break
    cal_times.append(calibrate.sample())

    attempted = cells * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    ok = [rep for rep in reps if not rep["failed"]]
    plain = [(rep["result"]["campaign_s"], rep["cal"]) for rep in ok if rep["mode"] == "campaign"]
    traced = [rep["result"] for rep in ok if rep["mode"] == "traced"]
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    to_reference = lambda i: calibrate.REFERENCE_S * 2 / (cal_times[i] + cal_times[i + 1])  # noqa: E731
    wall = {"setup_s": median([t for t, _ in setup_times]),
            "campaign_s": median([t for t, _ in plain]),
            "cells_per_s": median([cells / t for t, _ in plain])}
    scaled_setup = [t * to_reference(i) for t, i in setup_times]
    scaled_plain = [t * to_reference(i) for t, i in plain]

    if trace:
        names = traced[0]["layers"] if traced else {}
        values = {name: median([r["layers"][name] for r in traced]) for name in names}
        values["trace.overhead_s"] = (median([r["campaign_s"] for r in traced])
                                      - wall["campaign_s"])
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = {
            "setup_s": median(scaled_setup),
            "campaign_s": median(scaled_plain),
            "cells_per_s": median([cells / t for t in scaled_plain]),
            "peak_rss_mb": median([rep["result"]["maxrss_kb"] / 1024.0 for rep in ok]),
            "cell_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {**machine(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "cells_per_campaign": cells,
        "setup_times": setup_times,
        "kernel_times": cal_times,
        "wall": wall,
        "reps": [{k: v for k, v in rep.items() if k != "digests"} for rep in reps],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return record


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ms", "ms"), ("_frac", "fraction"),
                         ("_per_step", "ratio"), ("_per_sim", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{len(record['reps'])} campaigns of {record['cells_per_campaign']} cells")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for rep in record["reps"]:
        for problem in rep["problems"]:
            print("FAIL " + problem)
    error_frac = record["failed"] / record["attempted"]
    print(f"  {'error_frac':<36} {error_frac:.6g} ({record['failed']}/{record['attempted']} cells)")
    kernel = record["kernel_times"]
    print(f"  host speed: kernel median {statistics.median(kernel):.4f} s over {len(kernel)} "
          f"samples (reference {calibrate.REFERENCE_S} s); unscaled "
          + " ".join(f"{name} {value:.6g}" for name, value in record["wall"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "critlab" / "__init__.py").is_file():
        print(f"no critlab sources under {ROOT / 'src'}: run from a critlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
