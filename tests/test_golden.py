"""Every output byte of two small campaigns is locked by a sha256 per file.

``tests/data/golden_digests.json`` holds, per config and worker count, the
digest of each file a campaign writes: ``raw/**``, ``report.json``,
``report.md`` and ``summary.csv`` (``metrics.json`` holds wall times and is
left out).  A change that alters the bytes on purpose records them again:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from critlab.campaign import DEFAULT_CONFIG, CampaignConfig, run_campaign, write_outputs

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
WORKERS = (1, 2)


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: {str(w): output_digests(raw, w, Path(tmp) / f"{name}-{w}")
                          for w in WORKERS}
                   for name, raw in golden_configs().items()}
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
