"""Seeded campaign configs for the two benchmark workloads.

Seed 0 gives the reference configs below exactly; any other seed moves the
ego starts by up to 2%.
Grid sizes and cell counts never depend on the seed, so every seed asks for
the same amount of work.  The configs are shrunk from the shapes users run so
that one campaign takes a few seconds and a run can take the median of
several:

* ``default-campaign``: the built-in default config (8 autopilots x 4
  scenario types x 4 ego starts) at 6x6 instead of 20x20 cells per grid.  Its
  four scenario types yield identical grids, a 4x repetition.
* ``external-pilot``: one external autopilot over the stdio protocol on
  ``merge_yield`` x 4 ego starts x 15x15 cells; every policy step is a pipe
  round trip.  Its grids are all distinct, so dedup has nothing to skip.

There is no third workload: on a shared 2-vCPU host the campaign time of one
run spreads by 10-25% between runs, so each run takes as long as the time
allowed for all runs permits, and that leaves room for two workloads.
"""

from __future__ import annotations

import copy
import random
import shlex
import sys
from pathlib import Path

PILOT = Path(__file__).resolve().parent / "pilot.py"

# Copied from ``critlab.campaign.DEFAULT_CONFIG`` so that the benchmark's inputs
# stay fixed when the program's defaults change.
_DEFAULT = {
    "scenario_types": ["merge_yield", "lane_change", "intersection_yield", "intersection_light"],
    "autopilots": [
        {"name": "reference", "variant": "reference"},
        {"name": "transition_flawed", "variant": "transition_flawed", "optimism": 1.3},
        {"name": "irrational", "variant": "irrational", "fail_region": [[29.0, 35.0], [16.0, 24.0]]},
        {"name": "overcautious", "variant": "overcautious", "margin_inflation": 1.15},
        {
            "name": "non_determinate_brake",
            "variant": "non_determinate_brake",
            "rates": {"5.0": 5.0, "27.5": 3.0, "30.0": 5.0},
            "profile": {"a_max": 2.0, "b_max": 5.0, "v_max": 30.0},
            "braking_check_v0": 30.0,
        },
        {"name": "non_determinate_accel", "variant": "non_determinate_accel", "rates": {"5.0": 2.0, "7.5": 1.0}},
        {"name": "always_cautious", "variant": "always_cautious"},
        {"name": "constant_speed", "variant": "constant_speed"},
    ],
    "profile": {"a_max": 2.0, "b_max": 4.0, "v_max": 15.0},
    "static": {"d": 5.0, "vl": 10.0, "light_schedule": None},
    "initial_states": [[20.0, 5.0], [25.0, 7.5], [30.0, 10.0], [35.0, 12.0]],
    "grid": {"n_a": 20, "n_f": 20, "a_lo": 0.5, "a_hi_tilde": 1.1, "f_lo": 0.5, "f_hi": 2.5},
    "partition": {"speeds": [10.0, 7.5, 5.0], "x_f_cap": None, "steps": 100},
    "sim": {"dt": 0.1, "zone_epsilon": 0.1},
    "workers": 1,
    "seed": 0,
}

# Cells per grid side; ``quick`` (self-test) shrinks every grid to 3x3.
GRID_SIDE = {"default-campaign": 6, "external-pilot": 15}
QUICK_SIDE = 3
# Relative jitter of x_e; v_e stays put because the cost of a campaign is very
# sensitive to it: the cautious policy brakes in steps of b_max * dt and can
# be left creeping at the remainder (v_e 12.001 instead of 12.0 sends every
# cautious run of that start to the horizon, 3x the steps).
START_JITTER = 0.02


def _default_campaign() -> dict:
    return copy.deepcopy(_DEFAULT)


def _external_pilot() -> dict:
    cfg = copy.deepcopy(_DEFAULT)
    cfg["scenario_types"] = ["merge_yield"]
    cfg["autopilots"] = [{"name": "external", "command": shlex.join([sys.executable, str(PILOT)])}]
    return cfg


BUILDERS = {
    "default-campaign": _default_campaign,
    "external-pilot": _external_pilot,
}
WORKLOADS = tuple(BUILDERS)


def make_config(workload: str, seed: int, quick: bool = False) -> dict:
    """The campaign config of one workload, drawn from ``seed``.

    Starts stay within 2% of the reference ones, which keeps them clear of
    the braking check (stop distance at most ``x_e``), so no seed yields a
    config that fails.
    """
    cfg = BUILDERS[workload]()
    side = QUICK_SIDE if quick else GRID_SIDE[workload]
    cfg["grid"]["n_a"] = cfg["grid"]["n_f"] = side
    if seed:
        rng = random.Random(seed)
        cfg["initial_states"] = [
            [round(x_e * rng.uniform(1.0 - START_JITTER, 1.0 + START_JITTER), 3), v_e]
            for x_e, v_e in cfg["initial_states"]
        ]
    return cfg


def cells_per_campaign(cfg: dict) -> int:
    grid = cfg["grid"]
    return (len(cfg["autopilots"]) * len(cfg["scenario_types"]) * len(cfg["initial_states"])
            * grid["n_a"] * grid["n_f"])
