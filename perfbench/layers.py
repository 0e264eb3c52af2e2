"""Per-layer metrics from the span dumps of a traced run.

Each metric names the end-to-end metric it should move in
``perfbench/NOTES.md``.  Times are means per call in milliseconds; a
span's self time is its duration minus its children's durations (the
children nest inside it on the same thread).
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import load

MIB = 1024 * 1024

#: Frontend ops that serve object traffic (not /tick, /stats, ...).
DATA_OPS = {"put", "get", "get_stripe", "commit_read", "head", "delete"}
READ_OPS = {"get", "get_stripe", "commit_read", "head"}
#: Worker -> broker ops RPCs on the object data path.
RPC_DATA_OPS = {
    "write_begin", "write_stripe", "write_commit", "staged_abort", "put_synthetic",
    "head", "read_open", "read_stripe", "read_commit", "delete",
}
STRIPE_READS = {"engine.read_stripe", "engine.fetch_stripe_chunks"}

UNITS = {
    "gateway.http_self_ms": "ms",
    "gateway.rpc_calls_per_op": "count",
    "gateway.rpc_hop_ms": "ms",
    "gateway.rpc_bytes_per_user_byte": "ratio",
    "core.place_ms": "ms",
    "core.candidates_per_place": "count",
    "core.tick_ms": "ms",
    "core.migrations": "count",
    "cluster.engine_self_ms": "ms",
    "cluster.lock_wait_ms": "ms",
    "cluster.meta_read_ms": "ms",
    "cluster.meta_reads_per_get": "count",
    "cluster.meta_write_ms": "ms",
    "cluster.stats_log_ms": "ms",
    "erasure.encode_ms": "ms",
    "erasure.encode_mib_s": "MiB/s",
    "erasure.decode_ms": "ms",
    "erasure.decode_mib_s": "MiB/s",
    "erasure.inverting_decode_share": "ratio",
    "providers.chunk_put_ms": "ms",
    "providers.chunk_get_ms": "ms",
    "providers.chunks_fetched_per_stripe_read": "count",
    "providers.bytes_per_user_byte": "ratio",
    "providers.errors": "count",
    "storage.wal_append_ms": "ms",
    "storage.wal_appends_per_put": "count",
    "storage.fsyncs_per_put": "count",
    "storage.segment_put_ms": "ms",
    "storage.segment_get_ms": "ms",
    "storage.merkle_mib_s": "MiB/s",
    "storage.recover_ms": "ms",
    "replication.quorum_wait_ms": "ms",
    "replication.append_rpc_ms": "ms",
    "replication.records_per_append": "count",
    "replication.forward_ms": "ms",
    "bench.gen_late_p90_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "v1", "v2", "err", "child_time", "role")

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - self.child_time

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def load_spans(folder: str) -> list[Span]:
    """Every finished span in every dump under ``folder``."""
    spans = []
    for fname in sorted(os.listdir(folder)):
        if not fname.startswith("spans-") or fname.endswith(".tmp"):
            continue
        header, threads = load(os.path.join(folder, fname))
        names = header["names"]
        for _, rows in threads:
            built: list[Span | None] = []
            for nid, t0, t1, parent, v1, v2, err in rows:
                if t1 != t1:  # NaN: still open when dumped
                    built.append(None)
                    continue
                span = Span()
                span.name, span.t0, span.t1 = names[int(nid)], t0, t1
                span.v1, span.v2, span.err = v1, v2, err
                span.child_time, span.role = 0.0, header["role"]
                span.parent = built[int(parent)] if parent >= 0 else None
                if span.parent is not None:
                    span.parent.child_time += span.dur
                built.append(span)
            spans.extend(s for s in built if s is not None)
    return spans


def measured(w, span: Span) -> bool:
    """Whether ``span`` started in a measured stretch (not in a restart)."""
    return any(lo <= span.t0 <= hi for lo, hi in w.intervals)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(w, untraced: dict, traced: dict):
    """``(metrics, problems)``; problems are counter cross-check failures."""
    spans = load_spans(w.work)
    inside = [s for s in spans if measured(w, s)]
    by_name = defaultdict(list)
    for s in inside:
        by_name[s.name].append(s)

    def ms(name: str) -> float:
        return _mean(s.dur for s in by_name[name]) * 1e3

    def self_ms(prefix: str) -> float:
        return _mean(s.self_time for n, group in by_name.items()
                     if n.startswith(prefix) for s in group) * 1e3

    def mib_s(name: str) -> float:
        busy = sum(s.dur for s in by_name[name])
        return sum(s.v1 for s in by_name[name]) / MIB / busy if busy else 0.0

    rows = [r for r in w.rec.rows if r[1] in ("GET", "PUT", "RANGE")]
    n_req = max(1, len(rows))
    n_get = max(1, sum(1 for r in rows if r[1] != "PUT"))
    n_put = max(1, sum(1 for r in rows if r[1] == "PUT"))
    client_s = sum(r[4] - r[3] for r in rows)
    user_bytes = max(1, sum(r[6] for r in rows if r[5]))

    http_roles = {"serve", "worker"}
    frontend_s = sum(
        s.dur for s in inside
        if s.role in http_roles and s.name.startswith("frontend.")
        and s.name[9:] in DATA_OPS
        and not any(a.name.startswith("frontend.") for a in s.ancestors())
    )
    rpc = [s for s in inside if s.name.startswith("rpc.") and s.name[4:] in RPC_DATA_OPS]
    handled = [s for s in inside if s.name.startswith("ops.") and s.name[4:] in RPC_DATA_OPS]
    placed = [s for s in by_name["core.enumerate"]
              if any(a.name == "core.place" for a in s.ancestors())]
    meta_reads_in_gets = sum(
        1 for s in by_name["meta.read"]
        if any(a.name.startswith("frontend.") and a.name[9:] in READ_OPS for a in s.ancestors())
    )
    stripe_reads = [s for n in STRIPE_READS for s in by_name[n]
                    if not any(a.name in STRIPE_READS for a in s.ancestors())]
    chunk_fetches = sum(
        1 for s in by_name["provider.get"] if any(a.name in STRIPE_READS for a in s.ancestors())
    )
    provider = by_name["provider.put"] + by_name["provider.get"]
    appends = [s for s in by_name["repl.rpc.append"] if s.v1 > 0]
    recovered = [s for s in spans if s.name == "storage.recover" and s.t0 > w.intervals[0][0]]

    metrics = {
        "gateway.http_self_ms": (client_s - frontend_s) / n_req * 1e3,
        "gateway.rpc_calls_per_op": len(rpc) / n_req,
        "gateway.rpc_hop_ms": (sum(s.dur for s in rpc) - sum(s.dur for s in handled))
        / max(1, len(rpc)) * 1e3,
        "gateway.rpc_bytes_per_user_byte": sum(s.v1 for s in rpc) / user_bytes,
        "core.place_ms": _mean(s.self_time for s in by_name["core.place"]) * 1e3,
        "core.candidates_per_place": _mean(s.v1 for s in placed),
        "core.tick_ms": ms("core.tick"),
        "core.migrations": _mean(s.v1 for s in by_name["core.tick"]),
        "cluster.engine_self_ms": self_ms("engine."),
        "cluster.lock_wait_ms": self_ms("lock."),
        "cluster.meta_read_ms": ms("meta.read"),
        "cluster.meta_reads_per_get": meta_reads_in_gets / n_get,
        "cluster.meta_write_ms": ms("meta.write"),
        "cluster.stats_log_ms": ms("stats.log"),
        "erasure.encode_ms": ms("rs.encode"),
        "erasure.encode_mib_s": mib_s("rs.encode"),
        "erasure.decode_ms": ms("rs.decode"),
        "erasure.decode_mib_s": mib_s("rs.decode"),
        "erasure.inverting_decode_share": _mean(s.v2 for s in by_name["rs.decode"]),
        "providers.chunk_put_ms": ms("provider.put"),
        "providers.chunk_get_ms": ms("provider.get"),
        "providers.chunks_fetched_per_stripe_read": chunk_fetches / max(1, len(stripe_reads)),
        "providers.bytes_per_user_byte": sum(s.v1 for s in provider) / user_bytes,
        "providers.errors": float(sum(1 for s in provider if s.err)),
        "storage.wal_append_ms": ms("wal.append"),
        "storage.wal_appends_per_put": len(by_name["wal.append"]) / n_put,
        "storage.fsyncs_per_put": len(by_name["os.fsync"]) / n_put,
        "storage.segment_put_ms": ms("segment.put"),
        "storage.segment_get_ms": ms("segment.get"),
        "storage.merkle_mib_s": mib_s("merkle.chunk_root"),
        "storage.recover_ms": _mean(s.dur for s in recovered) * 1e3,
        "replication.quorum_wait_ms": ms("repl.wait_committed"),
        "replication.append_rpc_ms": _mean(s.dur for s in appends) * 1e3,
        "replication.records_per_append": _mean(s.v1 for s in appends),
        "replication.forward_ms": ms("repl.forward"),
        "bench.gen_late_p90_ms": w.extra["gen_late_p90_ms"],
        "bench.trace_overhead_pct": (
            untraced["throughput_ops_s"] / traced["throughput_ops_s"] - 1.0
        ) * 100.0,
    }
    return metrics, cross_check(w, spans)


def cross_check(w, spans: list[Span]) -> list[str]:
    """Outside counts against the server's own ``/metrics`` counters.

    The server counts erasure bytes in the engine only, so coding done in
    pre-forked workers is compared separately: it is printed as bytes the
    server does not count (NOTES.md, "uncounted worker coding").
    """
    inside = [s for s in spans if measured(w, s)]
    broker = [s for s in inside if s.role != "worker"]
    outside = {
        "wal_appends": float(sum(1 for s in inside if s.name == "wal.append")),
        "provider_bytes": float(sum(s.v1 for s in inside
                                    if s.name in ("provider.put", "provider.get") and not s.err)),
        "erasure_encode": float(sum(s.v1 for s in broker if s.name == "rs.encode")),
        "erasure_decode": float(sum(s.v1 for s in broker if s.name == "rs.decode")),
    }
    for name in ("rs.encode", "rs.decode"):
        uncounted = sum(s.v1 for s in inside if s.role == "worker" and s.name == name)
        if uncounted:
            print(f"{w.name} cross-check {name} in workers (not in /metrics): {uncounted:.0f} bytes")
    problems = []
    for name, count in outside.items():
        server = w.counters[name]
        print(f"{w.name} cross-check {name}: spans {count:.0f}, /metrics {server:.0f}")
        if count != server:
            problems.append(f"{name}: spans count {count:.0f}, server counter {server:.0f}")
    return problems
