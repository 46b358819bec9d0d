"""Every output byte of two small campaigns, and of ``critlab simulate``
runs, is locked by a sha256 per file.

``tests/data/golden_digests.json`` holds, per config and worker count, the
digest of each file a campaign writes: ``raw/**``, ``report.json``,
``report.md`` and ``summary.csv`` (``metrics.json`` holds wall times and is
left out).  ``tests/data/simulate_digests.json`` holds, per pilot and test
case, the digests of what ``critlab simulate`` prints and of the trace it
writes with ``--out`` as CSV and as JSON.  A change that alters the bytes on
purpose records them again:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from critlab import cli
from critlab.autopilots import FACTORIES
from critlab.campaign import DEFAULT_CONFIG, CampaignConfig, run_campaign, write_outputs

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
SIMULATE_DIGESTS = Path(__file__).parent / "data" / "simulate_digests.json"
WORKERS = (1, 2)
# Every built-in variant, and the test external pilot that brakes to a stop.
SIMULATE_PILOTS = {**{name: name for name in FACTORIES},
                   "external": f"exec:{sys.executable} "
                               f"{Path(__file__).parent / 'external_pilot.py'} cautious"}


def golden_configs() -> dict[str, dict]:
    """The default config at 4x4 with a light schedule, and at 3x3 with an
    ``x_a`` axis that runs from high to low."""
    light = json.loads(json.dumps(DEFAULT_CONFIG))
    light["grid"] = {**light["grid"], "n_a": 4, "n_f": 4}
    light["static"] = {**light["static"], "light_schedule": [2.0, 2.0]}
    descending = json.loads(json.dumps(DEFAULT_CONFIG))
    descending["grid"] = {**descending["grid"], "n_a": 3, "n_f": 3,
                          "a_lo": 2.0, "a_hi_tilde": 0.5}
    return {"default-4x4-light": light, "default-3x3-descending": descending}


def output_digests(raw: dict, workers: int, out: Path) -> dict[str, str]:
    report = run_campaign(CampaignConfig(raw={**raw, "workers": workers}), out_dir=out)
    write_outputs(report, out)
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "metrics.json"}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_campaign_outputs_match_the_recorded_digests(name, workers, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name][str(workers)]
    got = output_digests(golden_configs()[name], workers, tmp_path)
    assert sorted(got) == sorted(expected)
    assert [path for path in expected if got[path] != expected[path]] == []


def simulate_cases() -> dict[str, dict]:
    """A plain merge case inside ``irrational``'s default fail region, and a
    light-controlled intersection case whose nearest arriving and front
    vehicles are extra ones, nearest inside that region too."""
    plain = {"static": {"scenario_type": "merge_yield", "vl": 10.0, "d": 5.0},
             "x_e": 20.0, "v_e": 5.0, "x_a": 30.0, "x_f": 20.0}
    extras = {"static": {"scenario_type": "intersection_light", "vl": 10.0, "d": 5.0,
                         "light_schedule": [2.0, 2.0]},
              "x_e": 25.0, "v_e": 7.5, "x_a": 45.0, "x_f": 30.0,
              "mutations": [{"kind": "arriving", "x": 31.0}, {"kind": "static", "x": 19.0}]}
    return {"plain": plain, "extras": extras}


def simulate_digests(pilot: str, case: dict, tmp: Path) -> dict[str, str]:
    """The digests of ``critlab simulate``'s stdout and of its ``--out``
    trace as CSV and as JSON, for one pilot on one test case."""
    testcase = tmp / "case.json"
    testcase.write_text(json.dumps(case))
    digests = {}
    for suffix in ("csv", "json"):
        out, stdout = tmp / f"trace.{suffix}", io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["simulate", "--autopilot", SIMULATE_PILOTS[pilot],
                             "--testcase", str(testcase), "--out", str(out)]) == 0
        digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        digests[suffix] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(simulate_cases()))
@pytest.mark.parametrize("pilot", sorted(SIMULATE_PILOTS))
def test_simulate_outputs_match_the_recorded_digests(pilot, case, tmp_path):
    expected = json.loads(SIMULATE_DIGESTS.read_text())[pilot][case]
    assert simulate_digests(pilot, simulate_cases()[case], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: {str(w): output_digests(raw, w, Path(tmp) / f"{name}-{w}")
                          for w in WORKERS}
                   for name, raw in golden_configs().items()}
        simulated = {pilot: {name: simulate_digests(pilot, case, Path(tmp))
                             for name, case in simulate_cases().items()}
                     for pilot in SIMULATE_PILOTS}
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    SIMULATE_DIGESTS.write_text(json.dumps(simulated, sort_keys=True, indent=1) + "\n")
