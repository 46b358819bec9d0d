"""Record the seed-0 output digests that the correctness gate compares with.

    python3 critbench/record_expected.py

Runs each workload's seed-0 campaign once and rewrites ``expected.json``.
Only a change meant to alter campaign results should need this, and it
should say so.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def main() -> None:
    expected = {}
    for workload in WORKLOADS:
        work = run.WORK / f"expected-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(make_config(workload, 0)))
        _, result = run.spawn(config, work / "out", "campaign", dict(os.environ))
        if result is None:
            sys.exit(f"{workload}: campaign failed")
        expected[workload] = gate.digests(work / "out")
        print(f"{workload}: {result['campaign_s']:.2f} s")
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
