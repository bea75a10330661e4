#!/usr/bin/env python3
"""Socket smoke client for `rta serve` (driven by the CI workflow).

Default mode fires a mixed batch through an already-running daemon's
Unix socket — one valid request, one non-JSON line, one deliberately
deadline-busting request, and two specs that differ only in the seventh
significant digit of an execution time — and asserts each outcome,
including that the degraded response arrives within twice its deadline
and that the two near-identical specs are separate cache misses with
different bounds.

    serve_smoke.py SOCKET FAST_SPEC SLOW_SPEC

--restart mode sends just the valid request again, for the
warm-restart leg (the daemon's shutdown store summary proves the hit):

    serve_smoke.py --restart SOCKET FAST_SPEC
"""

import json
import os
import socket
import sys
import time

DEADLINE_MS = 1000
# The slow spec (`rta generate --stages 4 --jobs 24 --sched spnp --seed 3`)
# only busts its deadline at horizons large enough that the engine runs for
# seconds.  SPNP bounds cost O(N I) per processor for N residents and I
# released instances, hence the raised release_horizon: the full analysis
# took 12.4-14.1 s (1.43 GB peak RSS) on a 2-core box with OCaml 5.1.1, over
# 10x DEADLINE_MS.
SLOW_HORIZON = 160_000_000
SLOW_RELEASE_HORIZON = 80_000_000

# Two single-job SPP specs whose execution times differ in the seventh
# significant digit.  A cache key built from "%g"-printed units could not
# tell them apart and answered the second from the first one's entry.
COLLISION_SPEC = (
    "processors spp\n"
    "job T1 arrival periodic period=5000 deadline 5000\n"
    "  step proc=0 exec={exec} prio=1\n"
)
COLLISION_EXECS = ("1234.567", "1234.568")
COLLISION_HORIZONS = {"release_horizon": 20_000_000, "horizon": 40_000_000}


def connect(path, timeout_s=60.0):
    deadline = time.time() + timeout_s
    while not os.path.exists(path):
        if time.time() > deadline:
            sys.exit(f"daemon socket {path} never appeared")
        time.sleep(0.05)
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(path)
    return client.makefile("rw", encoding="utf-8", newline="\n")


def send(stream, line):
    stream.write(line + "\n")
    stream.flush()


def read_responses(stream, n):
    """Responses arrive in completion order; collect n and key by id."""
    by_id, latency = {}, {}
    start = time.time()
    for _ in range(n):
        line = stream.readline()
        if not line:
            sys.exit(f"connection closed after {len(by_id)}/{n} responses")
        resp = json.loads(line)
        rid = resp.get("id", "<no-id>")
        by_id[rid] = resp
        latency[rid] = time.time() - start
    return by_id, latency


def expect(cond, message, context):
    if not cond:
        sys.exit(f"serve smoke: {message}: {json.dumps(context)}")


def main():
    args = sys.argv[1:]
    restart = args and args[0] == "--restart"
    if restart:
        args = args[1:]

    sock_path, fast_path = args[0], args[1]
    with open(fast_path, encoding="utf-8") as f:
        fast_spec = f.read()
    stream = connect(sock_path)

    if restart:
        send(stream, json.dumps({"id": "fast", "spec": fast_spec}))
        by_id, _ = read_responses(stream, 1)
        resp = by_id.get("fast", {})
        expect(resp.get("status") in ("ok", "unschedulable"),
               "restarted daemon did not analyze", resp)
        print("serve smoke (restart): ok")
        return

    with open(args[2], encoding="utf-8") as f:
        slow_spec = f.read()

    send(stream, json.dumps({"id": "fast", "spec": fast_spec}))
    send(stream, "this is not json")
    send(stream, json.dumps({
        "id": "slow",
        "spec": slow_spec,
        "deadline_ms": DEADLINE_MS,
        "horizon": SLOW_HORIZON,
        "release_horizon": SLOW_RELEASE_HORIZON,
    }))
    for exec_units in COLLISION_EXECS:
        send(stream, json.dumps({
            "id": "exec-" + exec_units,
            "spec": COLLISION_SPEC.format(exec=exec_units),
            **COLLISION_HORIZONS,
        }))
    by_id, latency = read_responses(stream, 3 + len(COLLISION_EXECS))

    fast = by_id.get("fast", {})
    expect(fast.get("status") in ("ok", "unschedulable"),
           "valid request was not analyzed", fast)

    invalid = by_id.get("<no-id>", {})
    expect(invalid.get("status") == "invalid",
           "non-JSON line was not rejected as invalid", invalid)

    slow = by_id.get("slow", {})
    expect(slow.get("status") == "degraded",
           "deadline-busting request was not degraded", slow)
    expect(slow.get("method") == "envelope",
           "degraded response should carry envelope bounds", slow)
    expect(all(j.get("bound_ticks") is not None for j in slow.get("per_job", [])),
           "degraded envelope bounds should be finite here", slow)

    bounds = []
    for exec_units in COLLISION_EXECS:
        resp = by_id.get("exec-" + exec_units, {})
        expect(resp.get("status") == "ok",
               "near-identical spec was not analyzed", resp)
        expect(resp.get("cache") == "miss",
               "near-identical spec was answered from another's cache entry",
               resp)
        bounds.append(resp["per_job"][0]["bound_ticks"])
    expect(bounds[0] != bounds[1],
           "near-identical specs got the same bound", bounds)

    budget_s = 2 * DEADLINE_MS / 1000.0
    expect(latency["slow"] <= budget_s,
           f"degraded response took {latency['slow']:.2f}s, "
           f"over the 2x-deadline budget of {budget_s:.1f}s", slow)

    print(f"serve smoke: ok (degraded in {latency['slow']:.2f}s "
          f"<= {budget_s:.1f}s)")


if __name__ == "__main__":
    main()
