"""Per-layer tracing of one campaign, from outside the program.

``Tracer.install`` replaces critlab's public functions at the attributes
where callers look them up (``critlab.classify.simulate``,
``critlab.campaign.run_grid``, ``AutopilotSpec.step``, ...) with timing
wrappers, and ``uninstall`` puts the originals back.

Every wrapped call updates a call count, a total time and a self time, where
self time is the call's duration minus the time spent in wrapped calls it
made.  Coarse boundaries (``run_campaign``, ``run_grid``, ``classify_grid``,
determinacy, partition) also record a span with its parent span and the run
id; hot boundaries (``simulate``, ``step``, ``expand``, profile methods,
external round trips) keep only aggregates, plus per-call durations where a
percentile is reported.  Everything stays in memory until the caller reads
``spans`` and ``layer_metrics`` at the end.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

import critlab.campaign
import critlab.classify
import critlab.simulator
from critlab.autopilots import AutopilotSpec, ExternalAutopilot
from critlab.kinematics import ADProfile

# (owner, attribute, boundary name, is span, keep per-call durations)
BOUNDARIES = [
    (ADProfile, "accel_time", "kinematics", False, False),
    (ADProfile, "accel_speed", "kinematics", False, False),
    (ADProfile, "braking_distance", "kinematics", False, False),
    (critlab.simulator, "expand", "scenario.expand", False, False),
    (critlab.classify, "most_critical", "criticality", False, False),
    (critlab.classify, "classify_zone", "criticality", False, False),
    (critlab.campaign, "most_critical", "criticality", False, False),
    (AutopilotSpec, "step", "autopilots.step", False, False),
    (ExternalAutopilot, "step", "autopilots.external.step", False, True),
    (critlab.classify, "simulate", "simulator.simulate", False, True),
    (critlab.classify, "verdict", "simulator.verdict", False, False),
    (critlab.campaign, "run_grid", "classify.run_grid", True, True),
    (critlab.campaign, "classify_grid", "classify.classify_grid", True, False),
    (critlab.campaign, "determinacy_check_braking", "classify.determinacy", True, False),
    (critlab.campaign, "determinacy_check_progress", "classify.determinacy", True, False),
    (critlab.campaign, "build_partition", "partition", True, False),
    (critlab.campaign, "coverage_ratio", "partition", True, False),
    (critlab.campaign, "run_campaign", "campaign.run_campaign", True, False),
    (critlab.campaign, "write_outputs", "campaign.write_outputs", True, False),
    (critlab.campaign, "report_from_raw", "campaign.report_from_raw", True, False),
]


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        # One frame per open wrapped call: [start, time in wrapped children].
        self._frames: list[list[float]] = [[0.0, 0.0]]
        self._open_spans: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, is_span, keep in BOUNDARIES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, is_span, keep))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, is_span: bool, keep: bool):
        stat = self.stats[name]
        frames = self._frames
        open_spans = self._open_spans
        clock = time.perf_counter
        on_result = _RESULT_HOOKS.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if is_span:
                span_id = next(self._ids)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                frames[-1][1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if keep:
                    stat.durations.append(duration)
                if is_span:
                    open_spans.pop()
                    self.spans.append({
                        "id": span_id, "parent": parent, "run": self.run_id, "name": name,
                        "start": frame[0], "end": end, "self": duration - frame[1],
                    })
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper


def _count_expand(counters, envs) -> None:
    counters["expand.states"] += len(envs)


def _count_simulate(counters, outcome) -> None:
    if outcome.steps < outcome.tc.horizon:
        counters["simulate.early_exits"] += 1


_RESULT_HOOKS = {"scenario.expand": _count_expand, "simulator.simulate": _count_simulate}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced campaign, from its wrapped calls."""
    s, c = tracer.stats, tracer.counters
    ext = s["autopilots.external.step"]
    sim = s["simulator.simulate"]
    grid = s["classify.run_grid"]
    steps = s["autopilots.step"].calls + ext.calls
    return {
        "kinematics.calls": s["kinematics"].calls,
        "kinematics.self_s": s["kinematics"].self_time,
        "scenario.expand.calls": s["scenario.expand"].calls,
        "scenario.expand.states": c["expand.states"],
        "scenario.expand.self_s": s["scenario.expand"].self_time,
        "scenario.states_per_step": c["expand.states"] / steps if steps else 0.0,
        "criticality.calls": s["criticality"].calls,
        "criticality.self_s": s["criticality"].self_time,
        "autopilots.step.calls": steps,
        "autopilots.step.self_s": s["autopilots.step"].self_time + ext.self_time,
        "autopilots.external.rtt_p50_us": percentile(ext.durations, 0.50) * 1e6,
        "autopilots.external.rtt_p99_us": percentile(ext.durations, 0.99) * 1e6,
        "simulator.simulate.calls": sim.calls,
        "simulator.simulate.self_s": sim.self_time,
        "simulator.simulate.p50_us": percentile(sim.durations, 0.50) * 1e6,
        "simulator.simulate.p99_us": percentile(sim.durations, 0.99) * 1e6,
        "simulator.steps_per_sim": steps / sim.calls if sim.calls else 0.0,
        "simulator.early_exit_frac": c["simulate.early_exits"] / sim.calls if sim.calls else 0.0,
        "simulator.verdict.self_s": s["simulator.verdict"].self_time,
        "classify.run_grid.calls": grid.calls,
        "classify.run_grid.p50_ms": percentile(grid.durations, 0.50) * 1e3,
        "classify.run_grid.p90_ms": percentile(grid.durations, 0.90) * 1e3,
        "classify.run_grid.self_s": grid.self_time,
        "classify.classify_grid.self_s": s["classify.classify_grid"].self_time,
        "classify.determinacy.self_s": s["classify.determinacy"].self_time,
        "partition.self_s": s["partition"].self_time,
        "campaign.run_campaign.self_s": s["campaign.run_campaign"].self_time,
        "campaign.grids": grid.calls,
        "campaign.write_outputs_s": s["campaign.write_outputs"].total,
        "campaign.report_from_raw_s": s["campaign.report_from_raw"].total,
    }
