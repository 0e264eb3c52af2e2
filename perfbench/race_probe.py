#!/usr/bin/env python3
"""Ungated probe: reads failing under concurrent writes on ``--workers 2``.

    python3 perfbench/race_probe.py [--seed N] [--seconds S]   # from a checkout root

Boots ``repro serve --workers 2`` (memory backends) and runs three cases
with two clients, one connection each, printing the failed share of each
request kind.  A failed request is one answered with an error status or
cut off mid-body; nothing is retried.  Bodies are checked against every
version written to the key.

- ``small-shared``: both clients GET and overwrite one pool of 64 keys of
  256 B for ``--seconds``.
- ``large-shared``: both clients GET and overwrite two shared 64 MiB keys,
  20 requests each.
- ``large-own``: each client alternates PUT and GET on its own 64 MiB
  key, the two clients unsynchronized (the ``large-stream`` workload runs
  them in lockstep rounds to stay clear of this).

The numbers vary from run to run, which is why no benchmark workload
gates on them; see NOTES.md.  The last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402 — the benchmark's client and server helpers

KINDS = ("GET", "PUT")
LARGE_REQUESTS = 20  # per client in each large case


class Probe(run.Workload):
    name = "race-probe"
    object_size = 256

    def server_args(self, tag: str) -> list[str]:
        return ["--workers", "2"]


class LargeProbe(run.LargeStream):
    name = "race-probe-large"


def tally(rec: run.Recorder) -> dict:
    out = {}
    for kind in KINDS:
        rows = [r for r in rec.rows if r[1] == kind]
        failed = sum(1 for r in rows if not r[5])
        out[kind] = {"attempted": len(rows), "failed": failed,
                     "share": failed / len(rows) if rows else 0.0}
    out["mismatches"] = len(rec.mismatches)
    return out


def small_shared(seed: int, seconds: float, work: str) -> dict:
    w = Probe(seed, int(seconds), False, work)
    try:
        w.boot("small")
        keys = [f"s{i}" for i in range(64)]
        w.preload(keys, w.servers[0].port)
        rngs = [random.Random(f"{seed}:small:{c}") for c in range(run.SENDERS)]
        conns = [run.Conn(w.servers[0].port) for _ in range(run.SENDERS)]
        run.run_closed_loop(
            conns, lambda c: (rngs[c].choice(KINDS), rngs[c].choice(keys)),
            w.perform, w.rec, seconds=seconds,
        )
        for c in conns:
            c.close()
        return tally(w.rec)
    finally:
        w.shutdown()


def large(seed: int, per_client: int, shared: bool, work: str) -> dict:
    w = LargeProbe(seed, 1, False, work)
    try:
        w.boot("large")
        keys = [f"big{c}" for c in range(run.SENDERS)]
        w.preload(keys, w.servers[0].port)
        rngs = [random.Random(f"{seed}:large:{c}") for c in range(run.SENDERS)]

        def next_request(c: int) -> tuple:
            key = rngs[c].choice(keys) if shared else keys[c]
            return (rngs[c].choice(KINDS), key)

        conns = [run.Conn(w.servers[0].port) for _ in range(run.SENDERS)]
        run.run_closed_loop(conns, next_request, w.perform, w.rec, count=per_client)
        for c in conns:
            c.close()
        return tally(w.rec)
    finally:
        w.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(run.SRC, "repro")):
        print(f"race_probe: no program source at {run.SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="race-probe-", dir=run.WORK)
    started = time.monotonic()
    try:
        results = {
            "small-shared": small_shared(args.seed, args.seconds, work),
            "large-shared": large(args.seed, LARGE_REQUESTS, True, work),
            "large-own": large(args.seed, LARGE_REQUESTS, False, work),
        }
    except (OSError, http.client.HTTPException, RuntimeError) as exc:
        print(f"race_probe: {exc}", file=sys.stderr)
        return 1
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    for case, res in results.items():
        for kind in KINDS:
            r = res[kind]
            print(f"{case} {kind}: {r['failed']} of {r['attempted']} failed "
                  f"({100 * r['share']:.3f}%)")
        print(f"{case} body mismatches: {res['mismatches']}")
    print(f"probe took {time.monotonic() - started:.1f}s (seed {args.seed})")
    print(json.dumps({"seed": args.seed, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
