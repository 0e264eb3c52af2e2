"""The worker side of the pre-forked gateway: a broker reached over RPC.

:class:`RemoteBrokerFrontend` is what a gateway worker process hands to
:class:`~repro.gateway.server.ScaliaGateway` instead of a local
:class:`~repro.gateway.frontend.BrokerFrontend`.  It *is* a
``BrokerFrontend`` — same dispatch, same tenant mapping, same error
translation — whose ``broker`` attribute is a :class:`_RemoteBroker`
adapter speaking the ops RPC (:mod:`repro.gateway.ops`) instead of
holding engine state.

The split follows the issue's CPU budget: everything per-request and
compute-bound happens here in the worker — HTTP parsing, body streaming,
Reed-Solomon encode/decode, MD5/SHA1 checksumming — while the broker
process only moves chunks and mutates metadata.  Writes run the staged
protocol (begin / ship encoded stripes as raw binary payloads / commit
with the streamed MD5); reads fetch one stripe's chunks per RPC and
decode locally.  When the ``m`` fetched chunks are exactly the data
shards (the all-healthy common case of a systematic code), their
back-to-back arrival order means the plaintext is a *single slice of the
receive buffer* — served zero-copy, no decode, no join.

Tenant/bucket -> container mapping stays worker-side (it is pure
hashing); the ops RPC carries internal container names only.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.engine import (
    InvalidContinuationTokenError,
    InvalidRangeError,
    MultipartError,
    NoSuchUploadError,
    ObjectNotFoundError,
    ReadFailedError,
    ReadPlan,
    WriteFailedError,
    first_block,
    plan_read,
)
from repro.cluster.multipart import MultipartState, PartState
from repro.erasure.rs import CodeCache
from repro.erasure.striping import split_object
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.obs.metrics import MetricsRegistry
from repro.providers.provider import (
    CapacityExceededError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.providers.registry import UnknownProviderError
from repro.replication.rpc import Buffer, RpcClient, RpcError
from repro.storage.merkle import chunk_root
from repro.types import ListPage, ObjectMeta
from repro.util.streams import ByteSource


def _raise_remote(err: Dict[str, Any]) -> None:
    """Re-raise a structured ``err`` document as its original exception."""
    kind = err.get("kind")
    msg = err.get("msg", kind or "remote broker error")
    if kind == "object_not_found":
        raise ObjectNotFoundError(msg)
    if kind == "invalid_range":
        raise InvalidRangeError(msg, int(err.get("object_size", 0)))
    if kind == "write_failed":
        raise WriteFailedError(msg)
    if kind == "read_failed":
        raise ReadFailedError(msg)
    if kind == "no_such_upload":
        raise NoSuchUploadError(msg)
    if kind == "multipart":
        raise MultipartError(msg)
    if kind == "bad_token":
        raise InvalidContinuationTokenError(msg)
    if kind == "provider_unavailable":
        raise ProviderUnavailableError(msg, err.get("provider"))
    if kind == "capacity_exceeded":
        raise CapacityExceededError(msg, err.get("provider"))
    if kind == "chunk_too_large":
        raise ChunkTooLargeError(msg, err.get("provider"))
    if kind == "unknown_provider":
        raise UnknownProviderError(msg)
    if kind == "closed":
        raise FrontendClosedError(msg)
    if kind == "value_error":
        raise ValueError(msg)
    raise RpcError(msg)


class _RpcPool:
    """A small pool of persistent ops-RPC connections.

    Request threads borrow a connection per call (LIFO, so the pool
    stays as small as the true concurrency) and create one when none is
    idle.  A connection whose socket died mid-call is dropped rather
    than returned; :class:`RpcClient` reconnects lazily anyway, this
    just keeps the pool from accumulating corpses.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._idle: "queue.LifoQueue[RpcClient]" = queue.LifoQueue()
        self._closed = False

    def call(self, op: str, _buffers: Sequence[Buffer] = (), **args) -> dict:
        if self._closed:
            raise FrontendClosedError("frontend is closed")
        try:
            client = self._idle.get_nowait()
        except queue.Empty:
            client = RpcClient(
                self.host, self.port, timeout=self._timeout, connect_timeout=5.0
            )
        try:
            return client.call(op, _buffers, **args)
        finally:
            # A transport failure tears the socket down inside call();
            # a peer-reported error leaves it healthy and reusable.
            if self._closed or client._sock is None:
                client.close()
            else:
                self._idle.put(client)

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return


class _ClusterStub:
    """The slice of ``broker.cluster`` the frontend touches worker-side.

    ``cache=None`` deliberately disables the frontend's whole-object
    cache path: the cache lives in the broker process (one cache, one
    truth) and worker reads go through the stripe RPC.
    """

    cache = None


class _RemoteBroker:
    """Duck-typed stand-in for :class:`~repro.core.broker.Scalia`.

    Implements exactly the broker surface :class:`BrokerFrontend`'s
    tenant-facing operations use, backed by the ops RPC.  All erasure
    coding and checksumming happens here, in the worker process.
    """

    def __init__(self, pool: _RpcPool, metrics: MetricsRegistry) -> None:
        self._pool = pool
        self._codes = CodeCache()
        self.cluster = _ClusterStub()
        # The engine's codec byte counter, counted where the coding runs;
        # the broker's aggregator folds it into the whole-system /metrics.
        erasure_bytes = metrics.counter(
            "scalia_erasure_bytes_total",
            "Plaintext bytes through the erasure codec, by direction.",
            ("direction",),
        )
        self._encode_bytes = erasure_bytes.labels("encode")
        self._decode_bytes = erasure_bytes.labels("decode")
        hello = self._call("hello")
        self.stripe_size_bytes = int(hello["stripe_size"])
        self.provider_names: List[str] = list(hello.get("providers", ()))
        self.broker_pid = int(hello.get("pid", 0))

    def _call(self, op: str, _buffers: Sequence[Buffer] = (), **args) -> dict:
        response = self._pool.call(op, _buffers, **args)
        err = response.get("err")
        if err:
            _raise_remote(err)
        return response

    # -- write path -----------------------------------------------------

    def _ship_stripe(
        self,
        sid: str,
        tag: Optional[str],
        block: bytes,
        m: int,
        providers: Sequence[str],
    ) -> None:
        """Encode one stripe locally and ship its shards in one frame.

        Merkle roots ride along with the checksums: computing them here
        keeps the hashing on the worker's CPU (same reason the erasure
        coding lives here) and the broker only stores what it is told —
        it anchors the roots in metadata at commit, making them the
        trust reference later audits hold providers to.
        """
        chunks = split_object(block, m, len(providers), code_cache=self._codes)
        self._encode_bytes.inc(len(block))
        self._call(
            "write_stripe",
            _buffers=[c.data for c in chunks],
            sid=sid,
            tag=tag,
            indices=[c.index for c in chunks],
            lengths=[len(c.data) for c in chunks],
            checksums=[c.checksum for c in chunks],
            roots=[chunk_root(c) for c in chunks],
            providers=list(providers),
        )

    def put(
        self,
        container: str,
        key: str,
        data,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        ttl_hint: Optional[float] = None,
        size_hint: Optional[int] = None,
    ) -> ObjectMeta:
        """The staged write protocol, mirroring the engine's direct path.

        Same layout decisions byte for byte: payloads under one stripe
        use the degenerate single-stripe chunk keys, larger ones stream
        tagged stripes; a provider failing mid-write aborts the staged
        session, excludes the provider and re-plans from a restarted
        source.
        """
        if isinstance(data, int) and not isinstance(data, bool):
            response = self._call(
                "put_synthetic",
                container=container, key=key, size=int(data),
                mime=mime, rule=rule, ttl_hint=ttl_hint,
            )
            return ObjectMeta.from_dict(response["meta"])
        stripe_size = self.stripe_size_bytes
        source = ByteSource(data, size_hint=size_hint)
        first = source.read(stripe_size)
        exclude: set = set()
        for _ in range(max(1, len(self.provider_names))):
            small = len(first) < stripe_size
            if source.size_hint:
                size_guess = source.size_hint
            else:
                size_guess = len(first) if small else 2 * stripe_size
            begin = self._call(
                "write_begin",
                container=container, key=key,
                size_guess=max(1, size_guess), mime=mime, rule=rule,
                exclude=sorted(exclude),
            )
            sid = begin["sid"]
            m = int(begin["m"])
            providers = list(begin["providers"])
            digest = hashlib.md5()
            stripes: List[Tuple[str, int]] = []
            try:
                if small:
                    digest.update(first)
                    self._ship_stripe(sid, None, first, m, providers)
                    size = len(first)
                else:
                    index = 0
                    block = first
                    size = 0
                    while True:
                        if index > 0:
                            block = source.read(stripe_size)
                            if not block:
                                break
                        digest.update(block)
                        tag = str(index)
                        self._ship_stripe(sid, tag, block, m, providers)
                        stripes.append((tag, len(block)))
                        size += len(block)
                        index += 1
                        if len(block) < stripe_size:
                            break
                response = self._call(
                    "write_commit",
                    sid=sid, container=container, key=key,
                    m=m, providers=providers, size=size,
                    checksum=digest.hexdigest(),
                    stripes=[[t, length] for t, length in stripes],
                    mime=mime, rule=rule, ttl_hint=ttl_hint,
                )
                return ObjectMeta.from_dict(response["meta"])
            except (
                ProviderUnavailableError,
                CapacityExceededError,
                ChunkTooLargeError,
            ) as exc:
                self._abort_quietly(sid)
                if not exc.provider_name:
                    raise
                exclude.add(exc.provider_name)
                if not source.restart():
                    raise WriteFailedError(
                        f"provider {exc.provider_name} failed mid-stream and "
                        f"the source cannot restart"
                    ) from exc
                first = source.read(stripe_size)
                continue
            except BaseException:
                self._abort_quietly(sid)
                raise
        raise WriteFailedError(f"no reachable placement for {container}/{key}")

    def _abort_quietly(self, sid: str) -> None:
        """Best-effort staged abort; the original error stays primary.

        An unreachable broker leaves the session to its crash cleanup
        (the in-flight registry dies with the session table).
        """
        try:
            self._call("staged_abort", sid=sid)
        except Exception:  # noqa: BLE001
            pass

    # -- read path ------------------------------------------------------

    def head(self, container: str, key: str) -> Optional[ObjectMeta]:
        response = self._call("head", container=container, key=key)
        doc = response.get("meta")
        return ObjectMeta.from_dict(doc) if doc is not None else None

    def open_read(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ReadPlan:
        wire_range = None if byte_range is None else list(byte_range)
        response = self._call(
            "read_open", container=container, key=key, range=wire_range
        )
        return ReadPlan(
            meta=ObjectMeta.from_dict(response["meta"]),
            segments=[tuple(seg) for seg in response["segments"]],
            start=int(response["start"]),
            end=int(response["end"]),
            length=int(response["length"]),
        )

    def read_stripe(self, meta: ObjectMeta, stripe: int):
        """Fetch one stripe's chunks from the broker and decode locally.

        Every shard is verified against its shipped SHA-1 (parity with
        ``reassemble_object``'s ``verify=True`` on the direct path).
        When the shards are exactly the data shards in index order, the
        plaintext is the first ``length`` bytes of the receive buffer —
        returned as one zero-copy memoryview.
        """
        response = self._call("read_stripe", meta=meta.to_dict(), stripe=int(stripe))
        length = int(response["length"])
        if response.get("synthetic"):
            return length
        payload = response.get("_payload")
        if payload is None:
            raise ReadFailedError("read_stripe reply carried no chunk payload")
        indices = [int(i) for i in response["indices"]]
        lengths = [int(n) for n in response["lengths"]]
        checksums = response["checksums"]
        shards: Dict[int, memoryview] = {}
        offset = 0
        for index, shard_len, checksum in zip(indices, lengths, checksums):
            shard = payload[offset : offset + shard_len]
            offset += shard_len
            if hashlib.sha1(shard).hexdigest() != checksum:
                raise ValueError(f"chunk {index} failed checksum verification")
            shards[index] = shard
        self._decode_bytes.inc(length)
        if indices == list(range(meta.m)):
            # Systematic code + contiguous data shards: the concatenated
            # shards are the padded stripe, plaintext is its prefix.
            return payload[:length]
        code = self._codes.get(meta.m, meta.n)
        return code.decode(shards, length)

    def start_read(self, container: str, key: str, *, prepare=None):
        """:meth:`Scalia.start_read` over the ops RPC's read protocol.

        One ``read_open`` fetches the metadata; ``prepare`` and the range
        plan run here against it, then the first stripe and the commit
        each take one more call.  A refused read fetches no chunk.
        """
        meta = self.open_read(container, key).meta
        plan = plan_read(meta, prepare(meta) if prepare is not None else None)
        first = first_block(plan, lambda s: self.read_stripe(meta, s))
        self.commit_read(plan)
        return plan, first

    def commit_read(self, plan: ReadPlan, *, count: int = 1) -> None:
        self._call(
            "read_commit",
            meta=plan.meta.to_dict(), length=plan.length, count=count,
        )

    def _materialize(self, plan: ReadPlan):
        """Worker-side mirror of the engine's plan materialization."""
        if not plan.segments:
            return b"" if plan.meta.checksum else 0
        pieces: List[bytes] = []
        synthetic_total = 0
        synthetic = False
        for stripe, lo, hi in plan.segments:
            payload = self.read_stripe(plan.meta, stripe)
            if isinstance(payload, int):
                synthetic = True
                synthetic_total += hi - lo
            else:
                pieces.append(payload[lo:hi])
        if synthetic:
            return synthetic_total
        return bytes(pieces[0]) if len(pieces) == 1 else b"".join(pieces)

    def get(self, container: str, key: str):
        return self.get_with_meta(container, key)[0]

    def get_with_meta(self, container: str, key: str):
        plan = self.open_read(container, key)
        payload = self._materialize(plan)
        self.commit_read(plan)
        return payload, plan.meta

    # -- namespace ops --------------------------------------------------

    def delete(self, container: str, key: str) -> None:
        self._call("delete", container=container, key=key)

    def list(
        self,
        container: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
    ) -> ListPage:
        response = self._call(
            "list",
            container=container, prefix=prefix, delimiter=delimiter,
            max_keys=max_keys, continuation_token=continuation_token,
        )
        return ListPage(
            keys=list(response["keys"]),
            common_prefixes=list(response["common_prefixes"]),
            next_token=response.get("next_token"),
            is_truncated=bool(response.get("is_truncated")),
        )

    def explain(self, container: str, key: str) -> dict:
        return self._call("explain", container=container, key=key)["doc"]

    # -- multipart ------------------------------------------------------

    def create_multipart_upload(
        self,
        container: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
    ) -> MultipartState:
        response = self._call(
            "create_upload",
            container=container, key=key,
            mime=mime, rule=rule, size_hint=size_hint,
        )
        return MultipartState.from_dict(response["state"])

    def upload_part(
        self, container: str, key: str, upload_id: str, part_number: int, data
    ) -> PartState:
        """Staged part upload: worker-encoded stripes under a journaled
        generation, so retries and races reuse no chunk key."""
        part_number = int(part_number)
        begin = self._call(
            "part_begin",
            container=container, key=key,
            upload_id=upload_id, part_number=part_number,
        )
        sid = begin["sid"]
        m = int(begin["m"])
        providers = list(begin["providers"])
        stripe_size = int(begin["stripe_size"])
        gen = int(begin["gen"])
        source = ByteSource(data)
        digest = hashlib.md5()
        stripes: List[Tuple[str, int]] = []
        size = 0
        try:
            index = 0
            while True:
                block = source.read(stripe_size)
                if not block and index > 0:
                    break
                digest.update(block)
                tag = f"p{part_number}g{gen}.{index}"
                self._ship_stripe(sid, tag, block, m, providers)
                stripes.append((tag, len(block)))
                size += len(block)
                index += 1
                if len(block) < stripe_size:
                    break
            response = self._call(
                "part_commit",
                sid=sid, container=container, key=key,
                upload_id=upload_id, part_number=part_number, gen=gen,
                etag=digest.hexdigest(), size=size,
                stripes=[[t, length] for t, length in stripes],
            )
            return PartState.from_dict(response["part"])
        except BaseException:
            # The part's placement is fixed at create time, so there is
            # no re-plan loop — clean up the staged chunks and report.
            self._abort_quietly(sid)
            raise

    def complete_multipart_upload(
        self,
        container: str,
        key: str,
        upload_id: str,
        parts: Optional[Sequence[Tuple[int, Optional[str]]]] = None,
    ) -> ObjectMeta:
        wire_parts = (
            None if parts is None else [[int(n), etag] for n, etag in parts]
        )
        response = self._call(
            "complete_upload",
            container=container, key=key, upload_id=upload_id, parts=wire_parts,
        )
        return ObjectMeta.from_dict(response["meta"])

    def abort_multipart_upload(self, container: str, key: str, upload_id: str) -> int:
        response = self._call(
            "abort_upload", container=container, key=key, upload_id=upload_id
        )
        return int(response["deleted"])

    def list_multipart_uploads(self, container: str) -> List[MultipartState]:
        response = self._call("list_uploads", container=container)
        return [MultipartState.from_dict(doc) for doc in response["uploads"]]


class _WorkerMetrics:
    """Dual-face metrics for a worker process.

    Instrumentation (``counter``/``gauge``/``histogram``) lands in the
    worker's *local* registry — incremented on the request hot path with
    zero RPCs; the pusher thread ships snapshots to the broker.
    Rendering (``render_*``) asks the *broker* for the aggregated
    whole-system document, so ``GET /metrics`` answers identically from
    any worker; if the broker is unreachable the local view is served
    rather than failing the scrape.
    """

    def __init__(self, local: MetricsRegistry, pool: _RpcPool) -> None:
        self.local = local
        self._pool = pool

    @property
    def enabled(self) -> bool:
        return self.local.enabled

    def counter(self, name, help_text, labelnames=()):
        return self.local.counter(name, help_text, labelnames)

    def gauge(self, name, help_text, labelnames=()):
        return self.local.gauge(name, help_text, labelnames)

    def histogram(self, name, help_text, labelnames=(), **kwargs):
        return self.local.histogram(name, help_text, labelnames, **kwargs)

    def add_collector(self, fn) -> None:
        self.local.add_collector(fn)

    def render_text(self) -> str:
        try:
            return self._pool.call("metrics_render", fmt="text")["text"]
        except (RpcError, FrontendClosedError):
            return self.local.render_text()

    def render_openmetrics(self) -> str:
        try:
            return self._pool.call("metrics_render", fmt="openmetrics")["text"]
        except (RpcError, FrontendClosedError):
            return self.local.render_openmetrics()

    def render_json(self) -> dict:
        try:
            return self._pool.call("metrics_render", fmt="json")["doc"]
        except (RpcError, FrontendClosedError):
            return self.local.render_json()


class _RemoteJournal:
    """The broker's event journal, reached over RPC.

    ``emit`` is fire-and-forget (event emission must never fail a
    request); queries surface the broker's journal verbatim.
    """

    def __init__(self, pool: _RpcPool) -> None:
        self._pool = pool

    def emit(self, type: str, key: Optional[str] = None, **fields) -> Optional[int]:
        try:
            response = self._pool.call(
                "events_emit", type=type, key=key, fields=fields
            )
            return response.get("seq")
        except (RpcError, FrontendClosedError):
            return None

    def query(
        self,
        *,
        type: Optional[str] = None,
        since: Optional[int] = None,
        key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        response = self._pool.call(
            "events_query", type=type, since=since, key=key, limit=limit
        )
        return response["events"]

    @property
    def latest_seq(self) -> int:
        return int(self._pool.call("events_query", limit=0)["latest_seq"])

    def stats(self) -> Dict[str, int]:
        return self._pool.call("events_query", limit=0)["stats"]


class RemoteBrokerFrontend(BrokerFrontend):
    """A ``BrokerFrontend`` whose broker lives in another process.

    Data-plane operations inherit the base class verbatim (they only
    touch the duck-typed ``self.broker``); admin and observability
    surfaces are overridden to query the broker process directly, so
    ``/stats``, ``/history``, ``/alerts`` et al. report whole-system
    truth no matter which worker answers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        mapper=None,
        metrics: Optional[MetricsRegistry] = None,
        rpc_timeout: float = 60.0,
    ) -> None:
        self._pool = _RpcPool(host, port, timeout=rpc_timeout)
        self.local_metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=True)
        )
        broker = _RemoteBroker(self._pool, self.local_metrics)
        super().__init__(broker, mode="direct", mapper=mapper)
        self._metrics = _WorkerMetrics(self.local_metrics, self._pool)
        self._events = _RemoteJournal(self._pool)

    # -- observability behind the broker process -------------------------

    @property
    def metrics(self):
        return self._metrics

    @property
    def events(self):
        return self._events

    def stats(self) -> Dict[str, Any]:
        return self._pool.call("stats")["stats"]

    def tick_report(self, periods: int = 1) -> Dict[str, Any]:
        return self._pool.call("tick", periods=periods)["report"]

    def tick(self, periods: int = 1):
        raise NotImplementedError("worker frontends tick via tick_report()")

    def scrub(self, *, repair: bool = True) -> Dict[str, Any]:
        return self._pool.call("scrub", repair=repair)["report"]

    def audit(
        self, *, repair: bool = True, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        return self._pool.call("audit", repair=repair, seed=seed)["report"]

    def history(self, series: Optional[str] = None, window_s: Optional[float] = None):
        return self._pool.call("history", series=series, window_s=window_s)["history"]

    def alerts(self) -> Dict[str, Any]:
        return self._pool.call("alerts")["alerts"]

    def recovery_status(self) -> Dict[str, Any]:
        return self._pool.call("recovery")["recovery"]

    def fault_profiles(self) -> Dict[str, Any]:
        return self._pool.call("faults_get")["faults"]

    def set_fault_profile(
        self, provider: str, profile_doc: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        return self._pool.call(
            "faults_set", provider=provider, profile=profile_doc
        )["result"]

    # -- worker metric shipping ------------------------------------------

    def push_metrics(self, slot: int, incarnation: int) -> None:
        """Ship the local registry snapshot to the broker aggregator."""
        self._pool.call(
            "metrics_push",
            slot=slot, incarnation=incarnation,
            doc=self.local_metrics.render_json(),
        )

    def retire_metrics(self, slot: int) -> None:
        """Fold this worker's last snapshot into the broker's retired
        totals (clean-shutdown path; counters survive, gauges die)."""
        self._pool.call("metrics_retire", slot=slot)

    def close(self) -> None:
        super().close()
        self._pool.close()
