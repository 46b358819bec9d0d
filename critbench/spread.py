"""Run the benchmark over several seeds and report each metric's spread.

    python3 critbench/spread.py --workload NAME [--seeds 0-9] [--seconds 30]
                                [--trace 0|1] [--record-baseline]

For every metric it prints the median over the seeds, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is what a metric's bound in ``BENCHMARK.json`` is
compared with.  ``--record-baseline`` stores the medians, the spreads and the
machine of the last run under the workload in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=BENCH.parent)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": first["unit"]}
        print(f"  {name:<36} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}")
    print(f"all correct: {all(r['correct'] for r in runs)}")

    if args.record_baseline:
        work = BENCH / ".work" / f"{args.workload}-seed{parse_seeds(args.seeds)[-1]}-trace{args.trace}"
        machine = json.loads((work / "result.json").read_text())["machine"]
        path = BENCH / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds, "machine": machine,
            "metrics": summary,
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
