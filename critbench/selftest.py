"""Quick self-test of the benchmark; no timing bound.

    python3 critbench/selftest.py

1. Runs a small config (the default campaign at 3x3 cells per grid) at
   ``workers`` 1 and 2 and checks that ``summary.csv``, ``report.md``,
   ``raw/`` and ``report.json`` are identical, except ``meta.workers``,
   which ``report.json`` records by design.
2. Runs every workload once plain and once traced at 3x3 cells, through the
   same code as a timed run, and checks that the correctness gate passes and
   that each prints exactly the metrics ``BENCHMARK.json`` names.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from workloads import WORKLOADS, make_config  # noqa: E402


def tree(out):
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            text = path.read_text()
            if path.name == "report.json":
                data = json.loads(text)
                data["meta"].pop("workers")
                text = json.dumps(data, sort_keys=True)
            files[str(path.relative_to(out))] = text
    return files


def workers_agree() -> list[str]:
    work = run.WORK / "selftest-workers"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trees = []
    for workers in (1, 2):
        cfg = make_config("default-campaign", 0, quick=True)
        cfg["workers"] = workers
        config = work / f"config-w{workers}.json"
        config.write_text(json.dumps(cfg))
        out = work / f"out-w{workers}"
        _, result = run.spawn(config, out, "campaign", dict(os.environ))
        if result is None:
            return [f"campaign at workers {workers} failed"]
        trees.append(tree(out))
    one, two = trees
    problems = [f"{name} differs between workers 1 and 2"
                for name in sorted(set(one) | set(two)) if one.get(name) != two.get(name)]
    if not any(name.startswith("raw/") for name in one):
        problems.append("no raw files written")
    return problems


def quick_runs() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run.run(workload, seed=1, seconds=0, trace=bool(trace), quick=True)
            where = f"{workload} trace {trace}"
            if not record["correct"]:
                problems += [f"{where}: {p}" for rep in record["reps"] for p in rep["problems"]]
            if sorted(record["metrics"]) != sorted(names[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
    return problems


def main() -> int:
    problems = workers_agree() + quick_runs()
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
