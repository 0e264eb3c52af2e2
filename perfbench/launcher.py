"""Run ``repro serve`` (or a pre-forked gateway worker) with spans around
the program's public layer functions, installed from outside the program.

    python3 perfbench/launcher.py SPANS_FILE serve [repro serve args...]
    python3 perfbench/launcher.py SPANS_FILE worker [worker args...]

Spans stay in memory.  SIGUSR1 writes them to ``SPANS_FILE`` (the
benchmark sends it before it stops or kills a server); a normal exit
writes them too.  A ``serve --workers N`` supervisor starts its workers
through this launcher as well, each with its own spans file.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys

from tracer import Tracer, wrap, wrap_enter


def _nbytes(buf) -> int:
    return buf.nbytes if isinstance(buf, memoryview) else len(buf)


def _chunk_bytes(chunk) -> int:
    data = getattr(chunk, "data", chunk)
    return _nbytes(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from repro.cluster.engine import Engine
    from repro.cluster.locks import LockManager
    from repro.cluster.metadata import MetadataCluster
    from repro.cluster.statistics import LogAgent
    from repro.core.broker import CorePlanner, Scalia
    from repro.core.placement import PlacementEngine
    from repro.erasure.rs import ReedSolomon
    from repro.gateway import ops as ops_mod
    from repro.gateway import remote as remote_mod
    from repro.gateway.frontend import BrokerFrontend
    from repro.gateway.server import GatewayHandler
    from repro.providers.provider import SimulatedProvider
    from repro.replication.node import ClusterNode
    from repro.replication.rpc import RpcClient
    from repro.storage import merkle
    from repro.storage.persistence import DurabilityManager
    from repro.storage.segment import FileChunkStore
    from repro.storage.wal import Journal
    import repro.cluster.engine as engine_mod

    # gateway
    wrap(tracer, BrokerFrontend, "_run", lambda a: f"frontend.{a[1]}")
    wrap(
        tracer, remote_mod._RpcPool, "call", lambda a: f"rpc.{a[1]}",
        lambda a, kw, r: (
            sum(_nbytes(b) for b in (a[2] if len(a) > 2 else kw.get("_buffers", ())))
            + _nbytes(r.get("_payload", b"")),
            0.0,
        ),
    )
    for attr in dir(ops_mod.OpsService):
        if attr.startswith("_op_"):
            wrap(tracer, ops_mod.OpsService, attr, f"ops.{attr[4:]}")
    # core
    wrap(tracer, CorePlanner, "place", "core.place")
    wrap(
        tracer, PlacementEngine, "enumerate_feasible", "core.enumerate",
        lambda a, kw, r: (len(r), 0.0),
    )
    wrap(
        tracer, Scalia, "tick", "core.tick",
        lambda a, kw, r: (sum(rep.migrations for rep in r), 0.0),
    )
    # cluster
    for op in (
        "put", "get", "get_with_meta", "head", "open_read", "read_stripe",
        "fetch_stripe_chunks", "staged_begin", "staged_write_stripe",
        "staged_commit", "staged_abort",
    ):
        wrap(tracer, Engine, op, f"engine.{op}")
    wrap_enter(tracer, LockManager, "read_object", "lock.read_object")
    wrap_enter(tracer, LockManager, "mutate_object", "lock.mutate_object")
    wrap(tracer, MetadataCluster, "read", "meta.read")
    wrap(tracer, MetadataCluster, "write", "meta.write")
    wrap(tracer, LogAgent, "log", "stats.log")
    # erasure
    wrap(
        tracer, ReedSolomon, "encode", "rs.encode",
        lambda a, kw, r: (_nbytes(a[1]), 0.0),
    )

    def decode_value(args, kwargs, result):
        rs, shards = args[0], args[1]
        data_len = args[2] if len(args) > 2 else kwargs["data_len"]
        systematic = sorted(shards)[: rs.m] == list(range(rs.m))
        return float(data_len), 0.0 if systematic else 1.0

    wrap(tracer, ReedSolomon, "decode_blocks", "rs.decode", decode_value)
    # providers
    wrap(
        tracer, SimulatedProvider, "put_chunk", "provider.put",
        lambda a, kw, r: (_chunk_bytes(a[2]), 0.0),
    )
    wrap(
        tracer, SimulatedProvider, "get_chunk", "provider.get",
        lambda a, kw, r: (_chunk_bytes(r), 0.0),
    )
    # storage
    wrap(tracer, Journal, "append", "wal.append")
    wrap(tracer, os, "fsync", "os.fsync")
    wrap(tracer, FileChunkStore, "put", "segment.put")
    wrap(tracer, FileChunkStore, "get", "segment.get")
    wrap(tracer, DurabilityManager, "recover", "storage.recover")
    wrap(
        tracer, merkle, "chunk_root", "merkle.chunk_root",
        lambda a, kw, r: (_chunk_bytes(a[0]), 0.0),
    )
    for module in (engine_mod, ops_mod, remote_mod):
        module.chunk_root = merkle.chunk_root
    # replication
    wrap(tracer, ClusterNode, "wait_committed", "repl.wait_committed")
    wrap(
        tracer, RpcClient, "call", lambda a: f"repl.rpc.{a[1]}",
        lambda a, kw, r: (len(kw.get("records") or ()), 0.0),
    )
    wrap(tracer, GatewayHandler, "_forward_to_leader", "repl.forward")


def _route_workers_through_launcher(spans_file: str) -> None:
    """Start ``repro.gateway.worker`` children under this launcher."""
    real_popen = subprocess.Popen
    launcher = os.path.abspath(__file__)
    spawned = itertools.count(1)

    def popen(cmd, *args, **kwargs):
        if list(cmd[1:3]) == ["-m", "repro.gateway.worker"]:
            cmd = [cmd[0], launcher, f"{spans_file}.w{next(spawned)}", "worker", *cmd[3:]]
        return real_popen(cmd, *args, **kwargs)

    subprocess.Popen = popen


def main(argv: list[str]) -> int:
    spans_file, role, rest = argv[0], argv[1], argv[2:]
    # A `serve --workers N` supervisor serves no HTTP itself.
    tracer = Tracer(spans_file, "supervisor" if "--workers" in rest else role)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump())
    # An empty first dump tells the benchmark SIGUSR1 is safe to send now.
    tracer.dump()
    install(tracer)
    try:
        if role == "worker":
            from repro.gateway.worker import main as worker_main

            return worker_main(rest)
        from repro.cli import main as cli_main

        _route_workers_through_launcher(spans_file)
        return cli_main(["serve", *rest])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
