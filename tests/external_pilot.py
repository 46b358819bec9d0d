"""Minimal external autopilot speaking the line-delimited JSON protocol.

Modes (argv[1]): "hold" emits zero acceleration forever; "cautious" brakes to
a stop before the zone; "garbage" answers argv[2] scenes (1 if not given) as
"hold" does and violates the protocol on every line after them;
"sleep" reads one scene and then stalls without answering; "stderr" reads one
scene, writes more than a pipe holds to stderr, ending with the line
``STDERR_LAST``, and then answers with garbage; "deaf" writes decisions
without ever reading a scene; "flood" reads one scene, writes 8 MB without a
newline and then stalls; "stray" answers each scene with an acceleration equal
to its ``t`` and writes one line that is not JSON before its argv[2]-th answer;
"reply" answers every scene with the line argv[2]; "split" answers as "cautious"
does, each line in two writes a few milliseconds apart.
"""

import json
import sys
import time

STDERR_LAST = "last words before the garbage"


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "hold"
    if mode == "reply":
        for _ in sys.stdin:
            print(sys.argv[2], flush=True)
        return
    answered = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    count = 0
    while mode == "deaf":
        print(json.dumps({"mode": "progress", "accel": 0.0}), flush=True)
    for line in sys.stdin:
        scene = json.loads(line)
        count += 1
        if mode == "flood":
            sys.stdout.write("x" * (8 << 20))
            sys.stdout.flush()
        if mode in ("sleep", "flood"):
            time.sleep(60.0)
        if mode == "stderr":
            for i in range(2000):  # 2000 lines of 50 bytes: 100 KB
                sys.stderr.write(f"chatter {i:06d} " + "." * 34 + "\n")
            sys.stderr.write(STDERR_LAST + "\n")
            sys.stderr.flush()
        if mode == "stderr" or (mode == "garbage" and count > answered):
            print("not json at all")
            sys.stdout.flush()
            continue
        accel = 0.0
        if mode == "stray":
            accel = scene["t"]
            if count == answered:
                print("a stray line")
        if mode in ("cautious", "split"):
            v = scene["ego"]["v"]
            p = scene["ego"]["x"]
            d = scene["static"]["d"]
            avail = -(d + 0.5) - p
            if v > 0 and (avail <= 0 or v * v / 8.0 + v * scene["dt"] >= avail):
                accel = -4.0
        reply = json.dumps({"mode": "cautious" if accel < 0 else "progress", "accel": accel})
        if mode == "split":
            sys.stdout.write(reply[:10])
            sys.stdout.flush()
            time.sleep(0.003)
            reply = reply[10:]
        print(reply)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
