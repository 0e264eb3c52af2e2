"""The one-call GET against the head/open_read/read_stripe/commit_read path.

``BrokerFrontend.stream_get`` serves a GET's first stripe from one broker
call (:meth:`Scalia.start_read`: one metadata read, one shared object
hold).  The path it replaced resolved the object three times: ``head``,
then ``open_read``, then ``read_stripe`` + ``commit_read``.  Both paths
run here over real HTTP against one broker, request by request, and must
agree on status, headers and body, on every provider meter (exact
billing) and on the access records the placement logic learns from.
"""

import contextlib
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.engine import InvalidRangeError, ObjectNotFoundError
from repro.cluster.locks import LockManager
from repro.cluster.metadata import MetadataCluster
from repro.cluster.statistics import LogAgent
from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.routes import (
    NotModifiedError,
    PreconditionFailedError,
    RouteError,
    etag_matches,
    resolve_byte_range,
)
from repro.gateway.server import ScaliaGateway

STRIPE = 1024
TENANT = "alice"
#: Empty, sub-stripe, exact stripe multiples and multi-stripe with a tail.
SIZES = {"empty": 0, "tiny": 1, "small": 300, "one": STRIPE,
         "three": 3 * STRIPE, "tail": 2 * STRIPE + 77}
#: Varies per request (trace ids, timestamps), not per path.
VOLATILE = {"date", "server", "x-request-id"}


class LegacyFrontend(BrokerFrontend):
    """``stream_get`` as it was: head, then open_read, then per-stripe
    read_stripe with a commit_read after the first (no cache configured)."""

    def stream_get(self, tenant, bucket, key, *, range_spec=None,
                   if_match=None, if_none_match=None):
        container = self.mapper.internal_container(tenant, bucket)

        def check_preconditions(meta):
            etag = meta.checksum or meta.skey
            if if_match is not None and not etag_matches(if_match, etag):
                raise PreconditionFailedError(etag)
            if if_none_match is not None and etag_matches(if_none_match, etag):
                raise NotModifiedError(etag)

        def open_fn():
            meta = self.broker.head(container, key)
            if meta is None:
                raise ObjectNotFoundError(f"{bucket}/{key} not found")
            check_preconditions(meta)
            try:
                byte_range = resolve_byte_range(range_spec, meta.size)
                plan = self.broker.open_read(container, key, byte_range=byte_range)
            except (InvalidRangeError, RouteError) as exc:
                if isinstance(exc, RouteError) and exc.status != 416:
                    raise
                raise InvalidRangeError(str(exc), meta.size) from exc
            return plan

        plan = self._run("get", open_fn)

        def blocks():
            served = False
            for stripe, lo, hi in plan.segments:
                payload = self._run(
                    "get_stripe", lambda s=stripe: self.broker.read_stripe(plan.meta, s)
                )
                if not served:
                    self._run("commit_read", lambda: self.broker.commit_read(plan))
                    served = True
                if isinstance(payload, (bytes, bytearray, memoryview)):
                    yield payload[lo:hi]
            if not served:
                self._run("commit_read", lambda: self.broker.commit_read(plan))

        return plan, blocks()


@pytest.fixture(scope="module")
def rig():
    broker = Scalia(stripe_size_bytes=STRIPE)
    fronts = {"new": BrokerFrontend(broker), "legacy": LegacyFrontend(broker)}
    gateways, clients = {}, {}
    for name, front in fronts.items():
        gateways[name] = ScaliaGateway(front, port=0).start()
        clients[name] = GatewayClient(*gateways[name].address, tenant=TENANT)
    etags = {}
    for key, size in SIZES.items():
        payload = bytes((i * 7 + size) % 251 for i in range(size))
        etags[key] = fronts["new"].put(TENANT, "bkt", key, payload).checksum
    yield {"broker": broker, "fronts": fronts, "clients": clients, "etags": etags}
    for name in fronts:
        clients[name].close()
        gateways[name].close()
        fronts[name].close()
    broker.close()


def meters(broker):
    return {p.name: p.meter.total() for p in broker.registry.providers()}


def observe(rig, path, key, headers):
    """One GET through ``path``: response, meter delta and access records."""
    broker = rig["broker"]
    before = meters(broker)
    records = []
    real_log = LogAgent.log

    def spy(agent, record):
        records.append(record)
        return real_log(agent, record)

    with mock.patch.object(LogAgent, "log", spy):
        status, got, body = rig["clients"][path]._request(
            "GET", f"/bkt/{key}", headers=headers
        )
    after = meters(broker)
    delta = {
        name: {f: getattr(after[name], f) - getattr(before[name], f)
               for f in asdict(after[name])}
        for name in after
    }
    kept = {k: v for k, v in got.items() if k not in VOLATILE}
    return status, kept, body, delta, records


ranges = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 4 * STRIPE), st.integers(0, 4 * STRIPE)).map(
        lambda t: f"bytes={min(t)}-{max(t)}"
    ),
    st.integers(0, 4 * STRIPE).map(lambda a: f"bytes={a}-"),
    st.integers(1, 4 * STRIPE).map(lambda n: f"bytes=-{n}"),
)
conditions = st.sampled_from(["none", "match", "mismatch", "star"])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SIZES) + ["ghost"]), range_header=ranges,
       if_match=conditions, if_none_match=conditions)
def test_paths_agree(rig, key, range_header, if_match, if_none_match):
    etag = rig["etags"].get(key, "nope")
    values = {"none": None, "match": f'"{etag}"', "mismatch": '"other"', "star": "*"}
    headers = {}
    if range_header is not None:
        headers["Range"] = range_header
    if values[if_match] is not None:
        headers["If-Match"] = values[if_match]
    if values[if_none_match] is not None:
        headers["If-None-Match"] = values[if_none_match]
    legacy = observe(rig, "legacy", key, headers)
    new = observe(rig, "new", key, headers)
    assert new[:3] == legacy[:3]
    assert new[3] == legacy[3], "provider meters differ"
    assert new[4] == legacy[4], "access records differ"


def test_a_304_bills_and_logs_nothing(rig):
    etag = rig["etags"]["three"]
    status, _, body, delta, records = observe(
        rig, "new", "three", {"If-None-Match": f'"{etag}"'}
    )
    assert status == 304 and body == b""
    assert all(not any(d.values()) for d in delta.values())
    assert records == []


@contextlib.contextmanager
def counting(cls, name):
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    with mock.patch.object(cls, name, spy):
        yield calls


@pytest.mark.parametrize("key,holds", [("small", 1), ("one", 1), ("three", 3)])
def test_one_metadata_read_and_one_hold_per_stripe(rig, key, holds):
    front = rig["fronts"]["new"]
    with counting(MetadataCluster, "read") as reads, \
            counting(LockManager, "read_object") as held:
        plan, blocks = front.stream_get(TENANT, "bkt", key)
        body = b"".join(bytes(b) for b in blocks)
    assert len(body) == SIZES[key]
    assert len(reads) == 1
    assert len(held) == holds
