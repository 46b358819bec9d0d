"""Pluggable longitudinal autopilots and fault-injected variants.

An autopilot is a per-step transition: ``start_case(tc, dt)`` begins a test
case and returns the run's decision function, which maps the ego's state
``(t, x, v)`` to an acceleration command for the next step.  The reference
policy reads only the current state and scene, so replaying it from any
intermediate state of its own trace reproduces the rest of the trace; each
fault variant perturbs exactly one declared aspect of that behaviour.  Those
that break determinacy pick their rates, or their late-cautious region, from
the start.

Reference decision, evaluated fresh each step while still before the zone:
commit to crossing iff full throttle reaches the conflict point no later than
the arriving vehicle and the crossing speed can be braked off before the front
vehicle; otherwise hold speed and brake to stop short of the zone.  Once
inside the zone only the front-vehicle braking condition is re-evaluated
(stopping inside the zone is never an option).
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .kinematics import ADProfile, advance_arrays
from .scenario import (
    CAUTIOUS_MARGIN,
    DEFAULT_DT,
    Light,
    ScenarioType,
    StaticPart,
    TestCase,
)

__all__ = [
    "AutopilotSpec",
    "ProtocolError",
    "ExternalAutopilot",
    "STEP_DEADLINE_S",
    "STDERR_TAIL_BYTES",
    "reference",
    "transition_flawed",
    "irrational",
    "overcautious",
    "non_determinate_brake",
    "non_determinate_accel",
    "always_cautious",
    "constant_speed",
    "FACTORIES",
    "PolicyColumns",
    "step_arrays",
]

_EPS = 1e-9

RateMap = Union[Mapping[float, float], Sequence[tuple[float, float]]]  # v0 -> rate


class ProtocolError(RuntimeError):
    """Raised when an external autopilot violates the stdio protocol."""


# A run's decision function: the acceleration at time ``t`` of its case, the
# ego at ``x`` with speed ``v``.
Decide = Callable[[float, float, float], float]


@dataclass(frozen=True)
class AutopilotSpec:
    """A named autopilot variant bound to a capability profile."""

    name: str
    profile: ADProfile
    variant: str = "reference"
    optimism: float = 1.0  # > 1 inflates the believed time budget (transition_flawed)
    margin_inflation: float = 1.0  # > 1 inflates required margins (overcautious)
    fail_region: Optional[tuple[tuple[float, float], tuple[float, float]]] = None
    rate_by_initial_speed: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.variant not in FACTORIES:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("optimism", "margin_inflation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)}")
        if self.variant == "transition_flawed" and self.optimism <= 1.0:
            raise ValueError("transition_flawed needs optimism > 1")
        if self.variant == "overcautious" and self.margin_inflation <= 1.0:
            raise ValueError("overcautious needs margin_inflation > 1")
        if self.variant == "irrational" and self.fail_region is None:
            raise ValueError("irrational needs a fail_region rectangle")
        if self.variant.startswith("non_determinate") and not self.rate_by_initial_speed:
            raise ValueError(f"{self.variant} needs a rate_by_initial_speed map")
        limit = max(self.profile.a_max, self.profile.b_max) + _EPS
        for v0, rate in self.rate_by_initial_speed:
            if not (0 < rate <= limit and math.isfinite(v0)):
                raise ValueError(f"maneuver rate {rate} for v0={v0}: needs a rate in (0, {limit}] "
                                 "and a finite v0")

    def rate_for(self, v0: float, default: float) -> float:
        """Maneuver rate keyed on the speed observed when the run started."""
        if not self.rate_by_initial_speed:
            return default
        key, rate = min(self.rate_by_initial_speed, key=lambda kv: abs(kv[0] - v0))
        return rate

    def brake_rate_for(self, v0: float) -> float:
        if self.variant == "non_determinate_brake":
            return self.rate_for(v0, self.profile.b_max)
        return self.profile.b_max

    def accel_rate_for(self, v0: float) -> float:
        if self.variant == "non_determinate_accel":
            return self.rate_for(v0, self.profile.a_max)
        return self.profile.a_max

    def check_start_speed(self, v: float) -> None:
        """Refuse a run started above the profile's ``v_max``."""
        if v > self.profile.v_max:
            raise ValueError(f"start speed {v} above the v_max {self.profile.v_max} "
                             f"of {self.name!r}")

    def start_case(self, tc: TestCase, dt: float) -> Decide:
        """Begin test case ``tc``, run at step ``dt``: its decision function,
        ``step`` on the numbers of each state.

        A start speed above the profile's ``v_max`` is refused, as the
        lockstep engine refuses it.  The pilot's arriving and front vehicles
        are the nearest of each kind, extra vehicles included.  Every
        arriving vehicle moves at ``vl``, and a subtraction rounds
        monotonically, so the nearest at ``t`` is ``min(x_a, arriving
        extras) - vl * t``, bit for bit the nearest of each vehicle's
        ``x - vl * t``; the nearest front vehicle is parked.  The one-cell
        ``PolicyColumns`` takes both at t = 0, once.
        """
        self.check_start_speed(tc.v_e)
        static, vl = tc.static, tc.static.vl
        arriving = float(min([tc.x_a, *(m.x for m in tc.mutations if m.kind == "arriving")]))
        front = min([tc.x_f, *(m.x for m in tc.mutations if m.kind == "static")])
        pc = PolicyColumns.build([self], [tc.v_e], [0], arriving, front)
        step = self.step

        def decide(t: float, x: float, v: float) -> float:
            return step(pc, static, dt, x, v, arriving - vl * t, front)

        return decide

    def step(self, pc: PolicyColumns, static: StaticPart, dt: float, x: float, v: float,
             arriving: float, front: float) -> float:
        """The acceleration for the next ``dt`` seconds, the ego at ``x``
        with speed ``v``, its nearest arriving vehicle at ``arriving`` and
        front vehicle at ``front``: ``step_arrays`` on the one cell of
        ``pc``, this pilot's policy from its case's start."""
        p, v, arr_x, x_f = np.array([[x, v, arriving, front]]).T
        with np.errstate(invalid="ignore", divide="ignore"):
            return step_arrays(pc, p, v, arr_x, x_f, static, dt).item()


def reference(profile: ADProfile, name: str = "reference") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="reference")


def transition_flawed(
    profile: ADProfile, optimism: float = 1.3, name: str = "transition_flawed"
) -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="transition_flawed", optimism=optimism)


def irrational(
    profile: ADProfile,
    fail_region: Sequence[Sequence[float]] = ((29.0, 35.0), (16.0, 24.0)),
    name: str = "irrational",
) -> AutopilotSpec:
    """``fail_region`` is ``((x_a lo, x_a hi), (x_f lo, x_f hi))``; lists do too."""
    (a_lo, a_hi), (f_lo, f_hi) = fail_region
    region = ((float(a_lo), float(a_hi)), (float(f_lo), float(f_hi)))
    return AutopilotSpec(name=name, profile=profile, variant="irrational", fail_region=region)


def overcautious(
    profile: ADProfile, margin_inflation: float = 1.15, name: str = "overcautious"
) -> AutopilotSpec:
    return AutopilotSpec(
        name=name, profile=profile, variant="overcautious", margin_inflation=margin_inflation
    )


def _rate_table(rates: RateMap) -> tuple[tuple[float, float], ...]:
    """Sorted ``(v0, rate)`` pairs from a mapping (JSON: string keys) or pairs."""
    return tuple(sorted((float(v0), float(rate)) for v0, rate in dict(rates).items()))


def non_determinate_brake(
    profile: ADProfile,
    rates: Optional[RateMap] = None,
    name: str = "non_determinate_brake",
) -> AutopilotSpec:
    """The default ``rates`` are capped at the profile's ``b_max``."""
    if rates is None:
        b = profile.b_max
        rates = ((5.0, min(5.0, b)), (27.5, min(3.0, b)), (30.0, min(5.0, b)))
    return AutopilotSpec(name=name, profile=profile, variant="non_determinate_brake",
                         rate_by_initial_speed=_rate_table(rates))


def non_determinate_accel(
    profile: ADProfile,
    rates: RateMap = ((5.0, 2.0), (7.5, 1.0)),
    name: str = "non_determinate_accel",
) -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="non_determinate_accel",
                         rate_by_initial_speed=_rate_table(rates))


def always_cautious(profile: ADProfile, name: str = "always_cautious") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="always_cautious")


def constant_speed(profile: ADProfile, name: str = "constant_speed") -> AutopilotSpec:
    return AutopilotSpec(name=name, profile=profile, variant="constant_speed")


# The variant table.  A factory's parameters after ``profile`` are the keys a
# config entry of that variant may carry, and their defaults are the only ones.
FACTORIES = {f.__name__: f for f in (
    reference, transition_flawed, irrational, overcautious,
    non_determinate_brake, non_determinate_accel, always_cautious, constant_speed,
)}


# -- decision logic --------------------------------------------------------------
#
# ``step_arrays`` decides for many cells at once, each with its own pilot and ego
# start, with ``np.where`` for the branches; ``AutopilotSpec.step`` is it on one
# cell.  The tests hold it to ``scalar_step`` in ``tests/_oracles.py``, the same
# policy written on plain numbers: the same floating-point operations in the
# same order, so every entry equals the oracle's bit for bit.  The closed forms
# are those of a constant ``ADProfile`` on speeds already in ``[0, v_max]``.


class PolicyColumns(NamedTuple):
    """The policy of every cell of a lockstep batch, one entry per cell.

    The profile's ``a_max``, ``b_max`` and ``v_max``; the maneuver rates the
    pilot picks for the start speed of the cell's run; the factors
    ``optimism`` and ``margin_inflation``, 1.0 for every variant but the one
    each belongs to (a product with 1.0 is exact); and three masks:
    ``cautious`` for ``always_cautious``, ``constant`` for ``constant_speed``,
    and ``late`` for an ``irrational`` cell whose geometry at t = 0 lies in
    its fail region.
    """

    a_max: np.ndarray
    b_max: np.ndarray
    v_max: np.ndarray
    accel_rate: np.ndarray
    brake_rate: np.ndarray
    optimism: np.ndarray
    margin_inflation: np.ndarray
    cautious: np.ndarray
    constant: np.ndarray
    late: np.ndarray

    @classmethod
    def build(cls, pilots: Sequence[AutopilotSpec], v_e: Sequence[float], run: np.ndarray,
              x_a0: np.ndarray, x_f: np.ndarray) -> "PolicyColumns":
        """The columns of the cells of the runs of ``pilots`` from start
        speeds ``v_e`` (one entry each per run): one row per run, gathered to
        each cell by its ``run``, whose arriving vehicle is at ``x_a0`` at
        t = 0 and front vehicle at ``x_f``.  The fail region is NaN but for
        ``irrational``, so no other cell is ``late``."""
        table = []
        for spec, v in zip(pilots, v_e):
            region = spec.fail_region if spec.variant == "irrational" else ((math.nan,) * 2,) * 2
            table.append((
                spec.profile.a_max, spec.profile.b_max, spec.profile.v_max,
                spec.accel_rate_for(v), spec.brake_rate_for(v),
                spec.optimism if spec.variant == "transition_flawed" else 1.0,
                spec.margin_inflation if spec.variant == "overcautious" else 1.0,
                spec.variant == "always_cautious", spec.variant == "constant_speed",
                *region[0], *region[1],
            ))
        columns = np.array(table, dtype=float).reshape(-1, 13).T[:, run]
        a_lo, a_hi, f_lo, f_hi = columns[9:]
        late = (a_lo <= x_a0) & (x_a0 <= a_hi) & (f_lo <= x_f) & (x_f <= f_hi)
        return cls(*columns[:7], *(columns[7:9] != 0.0), late)

    def select(self, keep: np.ndarray) -> "PolicyColumns":
        """The columns of the cells where ``keep`` holds."""
        return PolicyColumns(*(col[keep] for col in self))


def _accel_time_arrays(pc: PolicyColumns, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    to_cap = (pc.v_max * pc.v_max - v * v) / (2.0 * pc.a_max)
    ramp = (-v + np.sqrt(v * v + 2.0 * pc.a_max * x)) / pc.a_max
    capped = (pc.v_max - v) / pc.a_max + (x - to_cap) / pc.v_max
    return np.where(x <= to_cap, ramp, capped)


def _accel_speed_arrays(pc: PolicyColumns, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.minimum(pc.v_max, np.sqrt(v * v + 2.0 * pc.a_max * x))


def _progress_accel_arrays(
    pc: PolicyColumns, p: np.ndarray, v: np.ndarray, budget: np.ndarray, dt: float,
) -> np.ndarray:
    """Full throttle while one more accelerated step still leaves braking room."""
    p1, v1 = advance_arrays(p, v, pc.accel_rate, dt, pc.v_max)
    room = budget - np.maximum(p1, 0.0)
    return np.where(v1 * v1 / (2.0 * pc.b_max) <= room + _EPS, pc.accel_rate, -pc.brake_rate)


def _cautious_accel_arrays(
    v: np.ndarray, p: np.ndarray, target: float, brake_rate: np.ndarray, dt: float
) -> np.ndarray:
    """Hold speed until the stop target requires braking, then brake fully.

    Braking comes in whole steps of ``brake_rate * dt``, so it can leave a
    residual speed below one step's worth.  That speed is braked off at once:
    held, it would creep toward the target a fraction of a millimetre a step,
    and the ego would still be rolling, short of the zone, at the horizon.
    """
    avail = target - p
    brake = ((avail <= 0.0) | (v <= brake_rate * dt)
             | (v * v / (2.0 * brake_rate) + v * dt >= avail))
    return np.where(v <= _EPS, 0.0, np.where(brake, -brake_rate, 0.0))


def step_arrays(
    pc: PolicyColumns,
    p: np.ndarray,
    v: np.ndarray,
    arr_x: np.ndarray,
    x_f: np.ndarray,
    static: StaticPart,
    dt: float = DEFAULT_DT,
) -> np.ndarray:
    """The decision of many cells at once: the acceleration each commands
    for the next ``dt``.

    ``pc`` holds each cell's policy, and ``p``, ``v`` (ego), ``arr_x``
    (nearest arriving vehicle now) and ``x_f`` (nearest vehicle in front)
    one entry per cell.  Speeds must lie in ``[0, v_max]``.  Terms a cell's
    variant does not use are computed for it and discarded, so callers
    silence numpy's invalid-value warnings.
    """
    d = static.d
    x_now = -p
    deadline = arr_x / static.vl * pc.optimism
    ta = _accel_time_arrays(pc, x_now, v) * pc.margin_inflation
    need_front = _accel_speed_arrays(pc, x_now, v)
    need_front = need_front * need_front / (2.0 * pc.b_max) * pc.margin_inflation
    # Inside or past the zone a pilot is committed: only the front condition matters.
    committed = (p > -d) | (~pc.cautious & (ta <= deadline + _EPS) & (need_front <= x_f + _EPS))
    accel = np.where(
        committed,
        _progress_accel_arrays(pc, p, v, x_f, dt),
        _cautious_accel_arrays(v, p, -(d + CAUTIOUS_MARGIN), pc.brake_rate, dt),
    )
    if pc.late.any():  # goes cautious far too late: aims the stop inside the zone
        accel = np.where(pc.late, _cautious_accel_arrays(v, p, -d / 2.0, pc.brake_rate, dt),
                         accel)
    return np.where(pc.constant, 0.0, accel)


# -- external autopilot bridge ----------------------------------------------------

# Seconds an external autopilot has to take one scene and answer it.  A pilot
# that misses it is killed, and the next case starts a fresh process.
STEP_DEADLINE_S = 10.0
# The last bytes of a pilot's stderr, appended to every ``ProtocolError``.
STDERR_TAIL_BYTES = 2048
_READ_SIZE = 65536
# Entries a pilot's memo of number texts holds before it is cleared.
_TEXTS_MAX = 4096


def _number(x) -> str:
    """``json.dumps(x)`` of a scene number, at the cost of one ``repr``.

    ``float.__repr__`` is what ``json`` writes for a finite float, numpy
    floats included, where ``repr`` would write ``np.float64(...)``.
    """
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


class _Texts(dict):
    """The ``float.__repr__`` text of each finite float it is indexed by.

    A text is a function of the float alone, so one memo serves every field
    and case of a pilot: the cases of a grid share each ``t``, the cells of
    an ``x_a`` row the arriving vehicle's ``x_a - vl * t``, and the cells of
    one run the ego's ``(x, v)`` until their decisions part.  Zeros are not
    kept, since ``0.0`` and ``-0.0`` are one key with two texts; the memo
    is cleared once it holds ``_TEXTS_MAX`` entries.
    """

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x)
        if x:
            if len(self) >= _TEXTS_MAX:
                self.clear()
            self[x] = text
        return text


_decode = json.JSONDecoder().decode  # json.loads of a str, without its per-call checks
_scan = json.JSONDecoder().scan_once  # one JSON value at an index: (value, its end)


def _decode_line(text: str):
    """``json.loads`` of a reply line.  A line that is one JSON value and
    its newline, as pilots write them, takes the scanner alone; any other
    line (spacing around the value, more after it, no value at all) goes
    through ``_decode``, so it is read, or refused, as ``json.loads`` does."""
    try:
        value, end = _scan(text, 0)
    except StopIteration:  # no value at the first character
        return _decode(text)
    return value if text[end:] == "\n" else _decode(text)


# The ``json`` text of each light ``StaticPart.light_at`` gives.
_LIGHT_TEXT = {None: "null", Light.GREEN: '"green"', Light.RED: '"red"'}


class ExternalAutopilot:
    """Drives an external process over a line-delimited JSON stdio protocol.

    The harness writes one scene per line::

        {"t": ..., "dt": ..., "ego": {"x": ..., "v": ...},
         "arriving": {"x": ..., "v": ...}, "front": {"x": ..., "v": ...},
         "extra": [{"kind": ..., "x": ...}], "light": "green"|"red"|null,
         "static": {"scenario_type": ..., "d": ..., "vl": ...}}

    and reads one decision per line: ``{"mode": "progress"|"cautious",
    "accel": <float>}``, at most ``_READ_SIZE`` bytes with its newline.
    ``start_case`` begins a test case, and ``step`` sends each of its scenes,
    the first at ``t == 0.0``, the run's start.  One process serves case
    after case; whether it is still alive is checked when a case starts, and
    it must take and answer each scene within ``STEP_DEADLINE_S``.  A pilot
    that breaks the protocol in any way is stopped: the next case starts a
    fresh one.  Its stderr is kept in a bounded tail, drained while the
    bridge waits for a reply.
    """

    def __init__(self, command: str, profile: ADProfile, name: Optional[str] = None):
        self.name = name or f"exec:{command}"
        self.profile = profile
        self._argv = shlex.split(command)
        if not self._argv:
            raise ValueError("external autopilot command is empty")
        self._proc: Optional[subprocess.Popen] = None
        self._texts = _Texts()

    def _start(self) -> None:
        self._stop()
        try:
            proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:  # no such program, not executable, ...
            raise ProtocolError(f"external autopilot did not start: {exc}") from exc
        streams = (proc.stdin, proc.stdout, proc.stderr)
        self._in, self._out, self._err = (s.fileno() for s in streams)  # type: ignore[union-attr]
        for fd in (self._in, self._out, self._err):
            os.set_blocking(fd, False)
        # Two sets of pipes to wait on, both with stderr: stdout for a reply,
        # and stdin for room to write while the pilot is not reading.
        self._poll, self._room = select.poll(), select.poll()
        self._poll.register(self._out, select.POLLIN)
        self._room.register(self._in, select.POLLOUT)
        for poll in (self._poll, self._room):
            poll.register(self._err, select.POLLIN)
        self._replied = [(self._out, select.POLLIN)]  # a wait that found a reply alone
        self._stderr_open = True
        self._stderr = b""
        self._buf = b""
        self._proc = proc

    def _stop(self) -> None:
        """End the process, if any, and release its pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.stdin.close()  # type: ignore[union-attr]
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()  # type: ignore[union-attr]

    def start_case(self, tc: TestCase, dt: float) -> Decide:
        """Begin test case ``tc``, run at step ``dt``: a fresh process if
        none is alive, and the case's scene template.  Returns ``step``,
        looked up now, so a wrapper put on the class reaches every step.

        A scene line is ``json.dumps`` of the payload in the class docstring
        and a newline, byte for byte.  Of a case's scenes, only ``t``, the
        ego, the arriving vehicle's ``x_a - vl * t``, an arriving extra
        vehicle's ``x - vl * t`` and a light that has a red phase change from
        step to step; the rest is rendered here, once.  The four numbers
        every step has are written from the pilot's ``_Texts`` memo when all
        four are finite floats, and through ``_number`` otherwise: ``1`` and
        ``1.0``, or ``0.0`` and ``-0.0``, are written differently.
        """
        if self._proc is None or self._proc.poll() is not None:
            self._start()
        static = tc.static
        vl, x_a = static.vl, tc.x_a
        movers = tuple(m.x for m in tc.mutations if m.kind == "arriving")
        extra = "[" + ", ".join(
            '{"kind": "arriving", "x": %s}' if m.kind == "arriving"
            else '{"kind": "static", "x": ' + _number(m.x) + "}"
            for m in tc.mutations
        ) + "]"
        light_at = static.light_at
        if (static.scenario_type is ScenarioType.INTERSECTION_LIGHT
                and static.light_schedule is not None):
            light = "%s"
        else:  # no light, or one that is always green
            light, light_at = _LIGHT_TEXT[light_at(0.0)], None
        tail = json.dumps({
            "scenario_type": static.scenario_type.value, "d": static.d, "vl": vl,
        }).replace("%", "%%")
        template = (
            '{"t": %s, "dt": ' + _number(dt) + ', "ego": {"x": %s, "v": %s}, '
            '"arriving": {"x": %s, "v": ' + _number(vl) + '}, '
            '"front": {"x": ' + _number(tc.x_f) + ', "v": 0.0}, '
            '"extra": ' + extra + ', "light": ' + light + ', "static": ' + tail + "}\n"
        )
        texts = self._texts

        def render(t, x, v) -> bytes:
            arriving_x = x_a - vl * t
            if type(t) is type(x) is type(v) is type(arriving_x) is float and math.isfinite(
                    t + x + v + arriving_x):
                numbers = (texts[t], texts[x], texts[v], texts[arriving_x])
            else:
                numbers = tuple(map(_number, (t, x, v, arriving_x)))
            if movers:
                numbers += tuple(_number(m - vl * t) for m in movers)
            if light_at:
                numbers += (_LIGHT_TEXT[light_at(t)],)
            return (template % numbers).encode()

        self._render = render
        return self.step

    def _abort(self, detail: str) -> ProtocolError:
        """``detail`` with the tail of the pilot's stderr, if it wrote any,
        the process stopped: the next case starts a fresh one, which no reply
        left in the old pipe can answer."""
        self._drain_stderr()
        tail = self._stderr.decode("utf-8", "replace")
        self._stop()
        return ProtocolError(f"{detail}; stderr tail: {tail!r}" if tail else detail)

    def _drain_stderr(self) -> None:
        if not self._stderr_open:
            return
        try:
            chunk = os.read(self._err, _READ_SIZE)
        except BlockingIOError:
            return
        if chunk:
            self._stderr = (self._stderr + chunk)[-STDERR_TAIL_BYTES:]
        else:  # closed: stop watching it
            self._poll.unregister(self._err)
            self._room.unregister(self._err)
            self._stderr_open = False

    def _round_trip(self, line: bytes, deadline: float) -> bytes:
        """Write the scene ``line`` and return the next reply line; at EOF a
        last unterminated line, as ``readline`` gives it, then ``b""``.

        A wait for room or for a reply ends at ``deadline`` with
        ``TimeoutError``, and keeps up with stderr; each read waits until
        stdout is readable; a reply line longer than ``_READ_SIZE`` bytes,
        its newline included, is refused.  The common trip runs straight
        through: one write takes the whole line, the wait finds stdout alone
        readable, and one read brings one whole line, its newline last.  Any
        other (a partial write, stderr ready, part of a line or more than
        one, EOF, a deadline already passed) goes on to the loop below, from
        where the straight path left it.
        """
        try:
            sent = os.write(self._in, line)
        except BlockingIOError:  # the pipe is full
            sent = 0
        buf = self._buf
        if sent == len(line) and not buf:
            timeout = deadline - time.monotonic()
            if timeout > 0 and self._poll.poll(math.ceil(timeout * 1e3)) == self._replied:
                buf = os.read(self._out, _READ_SIZE)
                if buf.find(b"\n") == len(buf) - 1:  # one whole line, or b"" at EOF
                    return buf
        end = buf.find(b"\n") + 1
        while sent < len(line) or (not end and len(buf) <= _READ_SIZE):
            if sent < len(line):
                try:
                    sent += os.write(self._in, line[sent:])
                    continue
                except BlockingIOError:  # the pilot is not reading: wait for room
                    poll = self._room
            else:
                poll = self._poll
            timeout = deadline - time.monotonic()
            ready = poll.poll(math.ceil(timeout * 1e3)) if timeout > 0 else []
            if not ready:
                raise TimeoutError
            if any(fd == self._err for fd, _ in ready):
                self._drain_stderr()
            if poll is self._room:
                continue
            try:
                chunk = os.read(self._out, _READ_SIZE)
            except BlockingIOError:  # stderr, not a reply, ended the wait
                continue
            if not chunk:
                self._buf = b""
                return buf
            buf += chunk
            newline = chunk.find(b"\n")  # only the new bytes can end the line
            if newline >= 0:
                end = len(buf) - len(chunk) + newline + 1
        if not end or end > _READ_SIZE:
            raise self._abort(f"external autopilot reply line exceeds {_READ_SIZE} bytes")
        self._buf = buf[end:]
        return buf[:end]

    def step(self, t: float, x: float, v: float) -> float:
        """The acceleration the pilot commands at time ``t`` of the case
        ``start_case`` began, the ego at ``x`` with speed ``v``: one round
        trip of the scene line."""
        if self._proc is None:  # never started, or stopped by a protocol error
            raise ProtocolError("external autopilot has no case started")
        line = self._render(t, x, v)
        deadline = time.monotonic() + STEP_DEADLINE_S
        try:
            raw = self._round_trip(line, deadline)
        except TimeoutError:
            raise self._abort(
                f"external autopilot missed its deadline of {STEP_DEADLINE_S:g} s") from None
        except OSError as exc:  # BrokenPipeError: the process is gone
            raise self._abort(f"external autopilot pipe failed: {exc}") from exc
        if not raw:
            raise self._abort("external autopilot closed its output")
        text = raw.decode("utf-8", "replace")
        try:
            reply = _decode_line(text)
            mode, accel = reply["mode"], reply["accel"]
            if type(accel) is int:  # not a bool
                accel = float(accel)  # OverflowError past the largest float
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise self._abort(f"malformed decision line: {text!r}") from exc
        # ``accel`` is a JSON number: a string or a boolean is not one.
        if (mode not in ("progress", "cautious") or type(accel) is not float
                or not math.isfinite(accel)):
            raise self._abort(f"invalid decision: {text!r}")
        return accel

    def close(self) -> None:
        self._stop()

    def __enter__(self) -> "ExternalAutopilot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
