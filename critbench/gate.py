"""Correctness gate on one campaign's outputs.

Three checks, each counted in failed grid cells:

* the ``cells`` section of ``report.json`` and ``summary.csv`` match the
  digests recorded for the workload at seed 0 (``expected.json``);
* ``report_from_raw`` rebuilds each campaign cell's counts from ``raw/``;
* a seeded sample of grid cells, re-simulated one at a time through the
  public ``simulate`` (recording the whole trace) and ``verdict``, gets the
  verdict stored in its raw file.

A campaign cell (autopilot x scenario type) marked ``protocol-error`` fails
all of its grid cells.  ``report.md``, ``meta`` and the raw files are not
digested: dedup and richer raw files may change them without changing a
result.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from critlab.campaign import CampaignConfig, report_from_raw
from critlab.scenario import ScenarioType, TestCase
from critlab.simulator import simulate, verdict
from workloads import cells_per_campaign

COUNT_KEYS = ("counts", "n_cells", "of", "m_states", "zone_counts")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out: Path) -> dict:
    """Digests of ``summary.csv`` and of each campaign cell of ``report.json``."""
    cells = json.loads((out / "report.json").read_text())["cells"]
    return {
        "summary.csv": _sha((out / "summary.csv").read_text()),
        "cells": {f"{c['autopilot']}/{c['scenario_type']}": _sha(json.dumps(c, sort_keys=True))
                  for c in cells},
    }


def check(out: Path, raw_config: dict, expected: dict | None, seed: int,
          sample: int) -> tuple[int, list[str]]:
    """Failed grid cells of one campaign output, and what failed."""
    total = cells_per_campaign(raw_config)
    per_cell = total // (len(raw_config["autopilots"]) * len(raw_config["scenario_types"]))
    problems: list[str] = []
    failed_keys: set[str] = set()

    report_cells = {f"{c['autopilot']}/{c['scenario_type']}": c
                    for c in json.loads((out / "report.json").read_text())["cells"]}
    for key, cell in report_cells.items():
        if cell["protocol_error"]:
            failed_keys.add(key)
            problems.append(f"{key}: protocol-error")

    if expected is not None:
        got = digests(out)
        if got["summary.csv"] != expected["summary.csv"]:
            problems.append("summary.csv digest differs from expected.json")
            return total, problems
        for key, digest in expected["cells"].items():
            if got["cells"].get(key) != digest:
                failed_keys.add(key)
                problems.append(f"{key}: report.json cell digest differs from expected.json")

    rebuilt = report_from_raw(out / "raw").to_dict()["cells"]
    rebuilt = {f"{c['autopilot']}/{c['scenario_type']}": c for c in rebuilt}
    for key, cell in report_cells.items():
        other = rebuilt.get(key)
        if other is None or any(other[k] != cell[k] for k in COUNT_KEYS):
            failed_keys.add(key)
            problems.append(f"{key}: report_from_raw counts differ")

    mismatches = _resimulate(out, raw_config, seed, sample, failed_keys, problems)
    return min(total, per_cell * len(failed_keys) + mismatches), problems


def _resimulate(out: Path, raw_config: dict, seed: int, sample: int,
                failed_keys: set[str], problems: list[str]) -> int:
    config = CampaignConfig(raw=raw_config)
    sim_cfg = config.sim_config()
    pilots = {}
    population = []
    for entry in raw_config["autopilots"]:
        pilot = config.build_autopilot(entry)
        pilots[pilot.name] = pilot
        for sc in raw_config["scenario_types"]:
            for raw_file in sorted((out / "raw" / pilot.name / sc).glob("*.json")):
                grid = json.loads(raw_file.read_text())
                population.extend((pilot.name, sc, grid, cell) for cell in grid["grid"])
    mismatches = 0
    try:
        for name, sc, grid, cell in random.Random(seed).sample(population,
                                                               min(sample, len(population))):
            key = f"{name}/{sc}"
            if key in failed_keys:
                continue
            tc = TestCase(static=config.static_for(ScenarioType(sc)), x_e=grid["x_e"],
                          v_e=grid["v_e"], x_a=cell["x_a"], x_f=cell["x_f"])
            got = verdict(simulate(pilots[name], tc, sim_cfg, record=True)).kind.value
            if got != cell["verdict"]:
                mismatches += 1
                problems.append(f"{key} cell ({cell['x_a']}, {cell['x_f']}) at x_e {grid['x_e']}: "
                                f"re-simulated {got}, raw file says {cell['verdict']}")
    finally:
        for pilot in pilots.values():
            if hasattr(pilot, "close"):
                pilot.close()
    return mismatches
