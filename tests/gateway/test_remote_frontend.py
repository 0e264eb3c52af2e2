"""RemoteBrokerFrontend over a real ops RPC server, in process.

The pre-fork data plane without the processes: a broker with a local
:class:`BrokerFrontend` behind :class:`OpsService`/:class:`RpcServer`,
and a :class:`RemoteBrokerFrontend` talking to it over loopback TCP —
exactly what a gateway worker does, minus fork/exec.  Asserts the remote
frontend is a drop-in for the local one (same results, same exceptions,
same broker-side accounting) and that stripe payloads survive the binary
hop bit-exact.
"""

import hashlib
import io

import pytest

from repro.cluster.engine import InvalidRangeError, ObjectNotFoundError
from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.routes import NotModifiedError
from repro.obs.workers import WorkerMetricsAggregator

STRIPE = 4096
TENANT = "alice"


@pytest.fixture()
def rig():
    broker = Scalia(stripe_size_bytes=STRIPE)
    local = BrokerFrontend(broker, mode="direct")
    aggregator = WorkerMetricsAggregator(broker.metrics)
    ops = OpsService(local, aggregator=aggregator)
    server = ops.serve("127.0.0.1", 0)
    host, port = server.address
    remote = RemoteBrokerFrontend(host, port)
    yield {"broker": broker, "local": local, "remote": remote, "server": server}
    remote.close()
    server.close()
    local.close()
    broker.close()


@pytest.fixture()
def remote(rig):
    return rig["remote"]


def _drain(blocks):
    return b"".join(bytes(b) for b in blocks)


class TestObjectRoundTrip:
    def test_small_put_get(self, remote):
        meta = remote.put(TENANT, "bkt", "small", b"hello world")
        assert meta.size == 11
        assert meta.checksum == hashlib.md5(b"hello world").hexdigest()
        assert remote.get(TENANT, "bkt", "small") == b"hello world"

    def test_multi_stripe_put_get(self, remote):
        payload = bytes(range(256)) * 100  # 25600 B -> 7 stripes @ 4096
        meta = remote.put(TENANT, "bkt", "big", payload)
        assert meta.size == len(payload)
        assert remote.get(TENANT, "bkt", "big") == payload

    def test_stripe_aligned_payload(self, remote):
        # Exactly k stripes: exercises the zero-copy encode fast path
        # end to end (worker slices ship as memoryviews, no pad copy).
        payload = bytes(range(256)) * 16 * 3  # 3 * 4096
        remote.put(TENANT, "bkt", "aligned", payload)
        assert remote.get(TENANT, "bkt", "aligned") == payload

    def test_streamed_put_from_file_like(self, remote):
        payload = b"\xab" * (3 * STRIPE + 17)
        remote.put(TENANT, "bkt", "streamed", io.BytesIO(payload))
        assert remote.get(TENANT, "bkt", "streamed") == payload

    def test_get_with_meta_is_consistent(self, remote):
        payload = b"consistency" * 997
        remote.put(TENANT, "bkt", "gwm", payload)
        body, meta = remote.get_with_meta(TENANT, "bkt", "gwm")
        assert body == payload
        assert meta.size == len(payload)
        assert meta.checksum == hashlib.md5(payload).hexdigest()

    def test_head_list_delete(self, remote):
        remote.put(TENANT, "bkt", "one", b"1")
        remote.put(TENANT, "bkt", "two", b"22")
        assert remote.head(TENANT, "bkt", "one").size == 1
        page = remote.list(TENANT, "bkt")
        assert page.keys == ["one", "two"]
        remote.delete(TENANT, "bkt", "one")
        assert remote.head(TENANT, "bkt", "one") is None
        assert remote.list(TENANT, "bkt").keys == ["two"]

    def test_results_match_local_frontend(self, rig):
        payload = bytes(range(256)) * 50
        rig["remote"].put(TENANT, "bkt", "both", payload)
        # Metadata written through the RPC path is visible to the local
        # frontend (single broker owns it) and bytes agree.
        assert rig["local"].get(TENANT, "bkt", "both") == payload


class TestStreamGet:
    def test_full_stream(self, remote):
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(TENANT, "bkt", "s")
        assert plan.length == len(payload)
        assert _drain(blocks) == payload

    def test_ranged_stream(self, remote):
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(TENANT, "bkt", "s", range_spec=(100, 300))
        assert (plan.start, plan.end) == (100, 300)
        assert _drain(blocks) == payload[100:301]

    def test_suffix_range_crossing_stripes(self, remote):
        payload = b"\x5a" * (2 * STRIPE) + bytes(range(256))
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(
            TENANT, "bkt", "s", range_spec=(None, 300)
        )
        assert _drain(blocks) == payload[-300:]

    def test_if_none_match_304(self, remote):
        meta = remote.put(TENANT, "bkt", "cond", b"cached")
        with pytest.raises(NotModifiedError):
            remote.stream_get(TENANT, "bkt", "cond", if_none_match=meta.checksum)

    def test_unsatisfiable_range_carries_object_size(self, remote):
        remote.put(TENANT, "bkt", "tiny", b"abc")
        with pytest.raises(InvalidRangeError) as err:
            remote.stream_get(TENANT, "bkt", "tiny", range_spec=(10, 20))
        assert err.value.object_size == 3

    def test_missing_object_404(self, remote):
        with pytest.raises(ObjectNotFoundError):
            remote.stream_get(TENANT, "bkt", "ghost")

    def test_error_does_not_poison_connection(self, remote):
        # A typed error travels inside an ok response; the pooled RPC
        # connection must stay usable for the next call.
        with pytest.raises(ObjectNotFoundError):
            remote.get(TENANT, "bkt", "ghost")
        remote.put(TENANT, "bkt", "after", b"still works")
        assert remote.get(TENANT, "bkt", "after") == b"still works"


class TestMultipart:
    def test_upload_and_read_back(self, remote):
        part1 = b"\x01" * (2 * STRIPE + 5)
        part2 = b"\x02" * 100
        state = remote.create_upload(TENANT, "bkt", "mp")
        upload_id = state.upload_id
        remote.upload_part(TENANT, "bkt", "mp", upload_id, 1, part1)
        remote.upload_part(TENANT, "bkt", "mp", upload_id, 2, part2)
        meta = remote.complete_upload(TENANT, "bkt", "mp", upload_id)
        assert meta.size == len(part1) + len(part2)
        assert remote.get(TENANT, "bkt", "mp") == part1 + part2
        assert remote.list_uploads(TENANT, "bkt") == []

    def test_abort_discards(self, remote):
        state = remote.create_upload(TENANT, "bkt", "gone")
        remote.upload_part(TENANT, "bkt", "gone", state.upload_id, 1, b"x" * 50)
        remote.abort_upload(TENANT, "bkt", "gone", state.upload_id)
        assert remote.list_uploads(TENANT, "bkt") == []
        assert remote.head(TENANT, "bkt", "gone") is None


class TestAdminSurfaces:
    def test_stats_tick_scrub(self, remote):
        remote.put(TENANT, "bkt", "k", b"data")
        stats = remote.stats()
        assert stats["ops"]["put"] >= 1
        assert "migrations" in remote.tick_report()
        assert remote.scrub(repair=True)["objects_scanned"] >= 0

    def test_history_alerts_recovery_faults(self, remote):
        assert isinstance(remote.history(), dict)
        assert isinstance(remote.alerts(), dict)
        assert isinstance(remote.recovery_status(), dict)
        assert isinstance(remote.fault_profiles(), dict)

    def test_explain(self, remote):
        remote.put(TENANT, "bkt", "why", b"explain me")
        doc = remote.explain(TENANT, "bkt", "why")
        assert doc["bucket"] == "bkt"
        with pytest.raises(ObjectNotFoundError):
            remote.explain(TENANT, "bkt", "missing")

    def test_events_flow_through(self, remote):
        remote.put(TENANT, "bkt", "evt", b"event source")
        events = remote.events
        assert events is not None
        found = events.query(limit=50)
        assert found  # the put itself journals


class TestAccounting:
    def test_broker_counts_remote_ops(self, rig):
        remote = rig["remote"]
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "c1", payload)
        remote.put(TENANT, "bkt", "c2", b"small")
        remote.get(TENANT, "bkt", "c1")
        remote.head(TENANT, "bkt", "c1")
        remote.delete(TENANT, "bkt", "c2")
        counts = rig["local"].stats()["ops"]
        assert counts["put"] >= 2
        assert counts["open_read"] >= 1
        assert counts["get_stripe"] >= 1
        assert counts["commit_read"] >= 1
        assert counts["head"] >= 1
        assert counts["delete"] >= 1

    def test_metrics_push_aggregates(self, rig):
        remote = rig["remote"]
        remote.put(TENANT, "bkt", "m", b"metric fodder")
        remote.get(TENANT, "bkt", "m")
        remote.push_metrics(slot=0, incarnation=1)
        text = rig["broker"].metrics.render_text()
        assert "scalia_gateway_workers_live 1" in text

    def test_remote_metrics_render_includes_broker_families(self, rig):
        remote = rig["remote"]
        remote.put(TENANT, "bkt", "m2", b"x")
        remote.push_metrics(slot=0, incarnation=1)
        # The worker's /metrics endpoint renders via RPC: whole-system
        # truth (broker families + folded worker contributions).
        text = remote.metrics.render_text()
        assert "scalia_gateway_workers_live" in text

    def test_worker_coding_counts_in_erasure_bytes(self, rig):
        # Encode/decode run in the worker; the whole-system counter must
        # still see every plaintext byte coded, once per direction.
        remote = rig["remote"]

        def coded():
            doc = rig["broker"].metrics.render_json()
            samples = doc["metrics"]["scalia_erasure_bytes_total"]["samples"]
            return {s["labels"]["direction"]: s["value"] for s in samples}

        remote.push_metrics(slot=0, incarnation=1)
        before = coded()
        payload = bytes(range(256)) * 16 * 3 + b"tail"  # 3 full stripes + 4 B
        remote.put(TENANT, "bkt", "coded", io.BytesIO(payload))
        _, blocks = remote.stream_get(TENANT, "bkt", "coded")
        assert _drain(blocks) == payload
        remote.push_metrics(slot=0, incarnation=1)
        after = coded()
        assert after["encode"] - before.get("encode", 0) == len(payload)
        assert after["decode"] - before.get("decode", 0) == len(payload)
