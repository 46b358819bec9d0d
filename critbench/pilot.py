"""External autopilot for the ``external-pilot`` workload.

Speaks critlab's line-delimited JSON protocol on stdin/stdout: one scene in,
one decision out.  It holds its speed and brakes at 4 m/s^2 once braking is
needed to stop 0.5 m before the critical zone, the cautious rule of the test
suite's stub pilot.

If ``CRITBENCH_PILOT_LOG`` names a file, each process appends one line to it
when it starts, so the benchmark can count process starts from outside the
bridge.
"""

import json
import os
import sys

BRAKE = 4.0  # m/s^2
STOP_MARGIN = 0.5  # m before the zone


def decide(scene: dict) -> dict:
    v = scene["ego"]["v"]
    avail = -(scene["static"]["d"] + STOP_MARGIN) - scene["ego"]["x"]
    if v > 0 and (avail <= 0 or v * v / (2.0 * BRAKE) + v * scene["dt"] >= avail):
        return {"mode": "cautious", "accel": -BRAKE}
    return {"mode": "progress", "accel": 0.0}


def main() -> None:
    log = os.environ.get("CRITBENCH_PILOT_LOG")
    if log:
        with open(log, "a") as fh:
            fh.write(f"start {os.getpid()}\n")
    for line in sys.stdin:
        sys.stdout.write(json.dumps(decide(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
