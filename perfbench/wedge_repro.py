#!/usr/bin/env python3
"""Reproduce the ``GatewayClient`` wedge after two refused connections.

    python3 perfbench/wedge_repro.py      # from a checkout root

A client whose first two calls are refused (server not up yet) raises
``http.client.CannotSendRequest('Request-sent')`` on every later call,
even once the server answers: ``_request_ex`` never drops ``_conn`` on
``ConnectionRefusedError``.  A fresh client works.  Prints both outcomes
and exits 0 when the wedge reproduces, 1 when it does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

SRC = os.path.join(os.getcwd(), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.gateway.client import GatewayClient

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import free_port, wait_ready

    port = free_port()
    reused = GatewayClient("127.0.0.1", port)
    for attempt in (1, 2):
        try:
            reused.health()
        except OSError as exc:
            print(f"attempt {attempt} before the server is up: {type(exc).__name__}")
    env = dict(os.environ, PYTHONPATH=SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        wait_ready(port)
        try:
            reused.health()
            wedged = False
            print("reused client after the server is up: ok")
        except Exception as exc:  # noqa: BLE001 — the defect under test
            wedged = True
            print(f"reused client after the server is up: {type(exc).__name__}: {exc}")
        fresh = GatewayClient("127.0.0.1", port)
        print(f"fresh client: {fresh.health()['status']}")
        fresh.close()
    finally:
        server.terminate()
        server.wait(timeout=30)
    return 0 if wedged else 1


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"done in {time.monotonic() - started:.1f}s")
    sys.exit(code)
