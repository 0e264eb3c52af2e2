#!/usr/bin/env python3
"""End-to-end benchmark of the Scalia broker served by ``repro serve``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/repro`` must be there).  The
benchmark boots ``repro serve`` in the topology the workload needs,
drives it over HTTP from this process with at most two sender threads
(one connection each), checks every response body, and prints the
metrics.  The last line of stdout is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (servers started through ``perfbench/launcher.py``) plus the
tracing overhead against an untraced run made just before it, each
measuring half of ``--seconds``.

Workloads (see ``perfbench/NOTES.md`` for why each exists): ``small-hot``
and ``durable-write``, gated in ``BENCHMARK.json``, and ``large-stream``,
``durable-sync`` and ``replicated``, which run but are not gated (their
figures are not steady enough on a shared 2-core host).  Scratch files
(data dirs, logs, span dumps) go under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from bisect import bisect_left

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
LAUNCHER = os.path.join(HERE, "launcher.py")
SENDERS = max(1, min(2, os.cpu_count() or 1))
# Single-process servers get the last CPU and this process the others, so
# the scheduler cannot stack client and server threads on one CPU in some
# runs and not in others.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[-1]} if len(_CPUS) > 1 else None
CLIENT_CPUS = set(_CPUS[:-1]) if len(_CPUS) > 1 else None
TENANT = "bench"
BUCKET = "bench"
MIB = 1024 * 1024

_now = time.monotonic


# -- content --------------------------------------------------------------


def small_body(seed: int, key: str, version: int, size: int) -> bytes:
    """Deterministic ``size``-byte body of one version of one key."""
    block = hashlib.blake2b(f"{seed}:{key}:{version}".encode(), digest_size=64).digest()
    return (block * (size // 64 + 1))[:size]


class LargeBodies:
    """64 MiB versions as rotations of one seeded random buffer."""

    def __init__(self, seed: int, size: int) -> None:
        import numpy as np

        self.size = size
        self.base = memoryview(np.random.default_rng(seed).bytes(size))

    def offset(self, key: str, version: int) -> int:
        digest = hashlib.blake2b(f"{key}:{version}".encode(), digest_size=8).digest()
        return (int.from_bytes(digest, "big") % (self.size // 4096)) * 4096

    def blocks(self, key: str, version: int, block: int = MIB):
        off = self.offset(key, version)
        for part in (self.base[off:], self.base[:off]):
            for i in range(0, len(part), block):
                yield part[i : i + block]

    def matches(self, key: str, version: int, body: bytes, start: int = 0) -> bool:
        if start + len(body) > self.size:
            return False
        view = memoryview(body)
        pos = (self.offset(key, version) + start) % self.size
        while view:
            n = min(len(view), self.size - pos)
            if view[:n] != self.base[pos : pos + n]:
                return False
            view = view[n:]
            pos = 0
        return True


class Versions:
    """Every version the generator wrote per key, with send/ack times."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.written: dict[str, list[int]] = {}
        self.acked: dict[str, list[tuple[int, float, float]]] = {}

    def begin(self, key: str) -> int:
        """Register and return the key's next version, before it is sent."""
        with self._lock:
            versions = self.written.setdefault(key, [])
            versions.append(len(versions))
            return versions[-1]

    def ack(self, key: str, version: int, sent: float, done: float) -> None:
        with self._lock:
            self.acked.setdefault(key, []).append((version, sent, done))

    def durable_candidates(self, key: str) -> set[int]:
        """Acked versions that no acked PUT sent after their ack supersedes."""
        acks = self.acked.get(key, [])
        return {
            v for v, _, done in acks if not any(sent > done for _, sent, _ in acks)
        }


# -- HTTP -----------------------------------------------------------------


class Conn:
    """One keep-alive connection.  Failures are reported, never retried."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method, path, body=None, headers=None, chunked=False):
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send = {"x-scalia-tenant": TENANT}
        send.update(headers or {})
        try:
            self._conn.request(method, path, body=body, headers=send, encode_chunked=chunked)
            response = self._conn.getresponse()
            payload = response.read()
            if response.will_close:
                self.close()
            return response.status, payload
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def json(self, method, path):
        status, payload = self.request(method, path)
        if status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {status} {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get_json(port: int, path: str, method: str = "GET"):
    conn = Conn(port)
    try:
        return conn.json(method, path)
    finally:
        conn.close()


def obj_path(key: str) -> str:
    return f"/{BUCKET}/{key}"


def wait_ready(port: int, timeout: float = 90.0) -> None:
    """Poll ``/healthz`` with a fresh ``GatewayClient`` per attempt.

    A reused client wedges after its second refused connection (see
    NOTES.md, "client wedge"), so every attempt builds its own.
    """
    from repro.gateway.client import GatewayClient, GatewayError

    deadline = _now() + timeout
    while True:
        client = GatewayClient("127.0.0.1", port, tenant=TENANT, timeout=5.0)
        try:
            if client.health().get("status") == "ok":
                return
        except (OSError, http.client.HTTPException, GatewayError):
            pass
        finally:
            client.close()
        if _now() > deadline:
            raise RuntimeError(f"gateway on port {port} not ready after {timeout}s")
        time.sleep(0.005)


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU jiffies since boot, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def stolen(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time between two ``cpu_steal()`` readings that the
    hypervisor gave to other guests."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


#: Rounds with more CPU time stolen than this are set aside when at least
#: ``MIN_KEPT`` others stayed under it.
STEAL_OK = 0.02
MIN_KEPT = 4


def least_stolen(steals: list[float]) -> list[int]:
    """Indices of the samples a median is taken over.

    On a shared host the hypervisor sometimes takes a tenth of the CPU
    time or more for minutes at a time, and latency tails grow several
    times over while it does.  That is the host, not the program, so
    samples measured while it happened are set aside: every sample under
    ``STEAL_OK``, or else the ``MIN_KEPT`` least-stolen ones.
    """
    order = sorted(range(len(steals)), key=steals.__getitem__)
    kept = [i for i in order if steals[i] <= STEAL_OK]
    return kept if len(kept) >= MIN_KEPT else order[:MIN_KEPT]


# -- server processes -----------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                for child in fh.read().split():
                    found.append(int(child))
                    found.extend(_children(int(child)))
        except OSError:
            pass
    return found


class Server:
    """One ``repro serve`` process (plus any pre-forked workers)."""

    def __init__(self, name: str, args: list[str], port: int, work: str, traced: bool,
                 cpus: set[int] | None = None) -> None:
        self.name = name
        self.cpus = cpus
        self.args = args
        self.port = port
        self.work = work
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.launches = 0
        self.span_files: list[str] = []

    def start(self) -> None:
        self.launches += 1
        log = open(os.path.join(self.work, f"{self.name}.{self.launches}.log"), "wb")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        if self.traced:
            spans = os.path.join(self.work, f"spans-{self.name}.{self.launches}")
            self.span_files.append(spans)
            cmd = [sys.executable, LAUNCHER, spans, "serve", *self.args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *self.args]
        with log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                preexec_fn=(lambda: os.sched_setaffinity(0, self.cpus)) if self.cpus else None,
            )

    def pids(self) -> list[int]:
        if self.proc is None or self.proc.poll() is not None:
            return []
        return [self.proc.pid, *_children(self.proc.pid)]

    def peak_rss_mib(self) -> float:
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0

    def dump_spans(self) -> None:
        """Ask every traced process to write its spans, and wait for it.

        Each launcher writes an empty dump once its SIGUSR1 handler is in
        place, so signals go out only when every process has one.
        """
        if not self.traced:
            return
        deadline = _now() + 30
        pids = self.pids()
        while len(self._span_paths()) < len(pids):
            if _now() > deadline:
                raise RuntimeError(f"{self.name}: tracer not ready")
            time.sleep(0.05)
            pids = self.pids()
        before = {p: os.stat(p).st_ino for p in self._span_paths()}
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        while _now() < deadline:
            fresh = [p for p in before if os.stat(p).st_ino != before[p]]
            if len(fresh) >= len(pids):
                return
            time.sleep(0.05)
        raise RuntimeError(f"{self.name}: span dump timed out")

    def _span_paths(self) -> list[str]:
        current = self.span_files[-1]
        folder, stem = os.path.split(current)
        return [
            os.path.join(folder, f)
            for f in os.listdir(folder)
            if (f == stem or f.startswith(stem + ".w")) and not f.endswith(".tmp")
        ]

    def kill(self, pids: list[int] | None = None) -> None:
        """SIGKILL the server and its workers (or ``pids``), and reap them."""
        pids = self.pids() if pids is None else pids
        for pid in reversed(pids):
            if pid == self.proc.pid and self.proc.returncode is not None:
                continue  # already reaped; the pid may belong to someone else now
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait(timeout=30)
        deadline = _now() + 30
        for pid in pids[1:]:
            while _now() < deadline and os.path.exists(f"/proc/{pid}") and not _zombie(pid):
                time.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM (graceful drain and snapshot), then kill what is left."""
        if self.proc is None:
            return
        pids = self.pids()
        if pids:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        self.kill(pids)


def _socket_owner(server_port: int, client_port: int, pids: list[int]) -> int | None:
    """The pid among ``pids`` holding the server end of a local connection."""
    inode = None
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                lines = fh.read().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            local = int(fields[1].rsplit(":", 1)[1], 16)
            remote = int(fields[2].rsplit(":", 1)[1], 16)
            if local == server_port and remote == client_port:
                inode = fields[9]
    if inode is None:
        return None
    target = f"socket:[{inode}]"
    for pid in pids:
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                if os.readlink(f"/proc/{pid}/fd/{fd}") == target:
                    return pid
            except OSError:
                pass
    return None


def spread_connections(server: Server, count: int) -> list[Conn]:
    """``count`` connections to ``server``, each served by its own process.

    Pre-forked workers share the port through ``SO_REUSEPORT``, which
    hashes each connection to a worker: two connections land on one
    worker half the time, and that worker then serves both clients while
    the other idles, for the whole run.  Reconnecting until every
    connection has a worker of its own makes every run the same topology.
    """
    conns: list[Conn] = []
    owners: set[int] = set()
    for _ in range(200):
        conn = Conn(server.port)
        conn.json("GET", "/healthz")
        owner = _socket_owner(server.port, conn._conn.sock.getsockname()[1], server.pids())
        if owner is None or owner in owners:
            conn.close()
            continue
        owners.add(owner)
        conns.append(conn)
        if len(conns) == count:
            return conns
    for conn in conns:
        conn.close()
    raise RuntimeError(f"{server.name}: could not spread {count} connections over its workers")


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# -- load generation ------------------------------------------------------


class Recorder:
    """Per-request rows: (phase, kind, due, sent, done, ok, user bytes, slot).

    ``slot`` is the round the request was sent in, or (on a workload
    without rounds) the closed-loop client that sent it.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.mismatches: list[str] = []
        self._lock = threading.Lock()

    def add(self, row: tuple) -> None:
        self.rows.append(row)  # list.append is atomic

    def mismatch(self, what: str) -> None:
        with self._lock:
            self.mismatches.append(what)


def run_open_loop(schedule, rate, conns, perform, rec, slot, sender_of=None):
    """Send ``schedule`` at ``rate``/s; latency counts from the due time.

    Senders share one queue of due requests unless ``sender_of(req, i)``
    pins request ``i`` to one sender (and so to that sender's endpoint).
    Every row is tagged with ``slot``.
    """
    n = len(schedule)
    start = _now() + 0.05
    counter = itertools.count()

    def sender(s: int) -> None:
        conn = conns[s]
        if sender_of is None:
            indices = iter(lambda: next(counter), None)
        else:
            indices = (i for i in range(n) if sender_of(schedule[i], i) == s)
        for i in indices:
            if i >= n:
                return
            due = start + i / rate
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            sent = _now()
            ok, nbytes = perform(conn, schedule[i], sent)
            rec.add(("open", schedule[i][0], due, sent, _now(), ok, nbytes, slot))

    threads = [threading.Thread(target=sender, args=(s,)) for s in range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_closed_loop(conns, next_request, perform, rec, seconds=None, count=None, slot=None):
    """Each client sends its next request when its last one completes.

    Rows are tagged with ``slot``, or with the client's index when it is
    None.  Returns the phase's ``(start, end)``.
    """

    def client(c: int) -> None:
        conn = conns[c]
        deadline = start + seconds if seconds is not None else None
        tag = c if slot is None else slot
        done = 0
        while (deadline is None or _now() < deadline) and (count is None or done < count):
            req = next_request(c)
            sent = _now()
            ok, nbytes = perform(conn, req, sent)
            rec.add(("closed", req[0], sent, sent, _now(), ok, nbytes, tag))
            done += 1

    start = _now()
    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, _now()


def zipf_cdf(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


# -- workloads ------------------------------------------------------------


class Workload:
    """Shared machinery; subclasses define topology, preload and mix.

    The default run is ``rounds`` rounds, each an open-loop slice (at
    ``rate`` ops/s, ``open_share`` of the run in all) followed by a
    closed-loop segment with ``closed_clients`` clients.  Every request
    of every round is drawn from the seed before the first is sent, and
    the closed-loop segments send fixed counts (sized so that the host
    the benchmark was tuned on spends the rest of ``--seconds`` on them),
    so the server sees the same requests however fast it serves them.
    A latency percentile is the median over the rounds' open-loop
    slices, a closed-loop rate the median over the rounds' segments, both
    over the rounds ``least_stolen`` keeps.
    """

    name = ""
    object_size = 0
    rate = 0.0
    open_share = 0.6
    rounds = 10
    #: Closed-loop ops/s (all clients together) the segment sizes assume.
    closed_rate = 0.0
    setups = 1
    #: A restart is timed after every round.  A memory-backed server loses
    #: its data when killed, so those workloads time a spare server started
    #: with the same arguments; a durable one restarts the serving node.
    restart_spare = True
    closed_clients = SENDERS
    #: CPUs the server is pinned to; None leaves placement to the scheduler.
    server_cpus = SERVER_CPUS

    def __init__(self, seed: int, seconds: int, traced: bool, work: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.rng = random.Random(seed)
        self.versions = Versions()
        self.rec = Recorder()
        self.servers: list[Server] = []
        self.spare: Server | None = None
        # The measured stretches between restarts of the serving nodes.
        self.intervals: list[tuple[float, float]] = []
        self.segments: list[tuple[float, float]] = []  # closed-loop (start, end)
        self.round_steal: list[float] = []  # share of CPU time stolen per round
        self.restart_times: list[float] = []
        self.peak_rss = 0.0
        self.extra: dict[str, float] = {}
        self.restarted: Server | None = None  # the server verified after restart
        self.counters: dict[str, float] = {}  # traced runs: /metrics deltas

    # topology ----------------------------------------------------------
    def boot(self, tag: str) -> None:
        """One single-process server with ``server_args``."""
        port = free_port()
        args = ["--port", str(port), *self.server_args(tag)]
        self.servers = [Server(f"node0-{tag}", args, port, self.work, self.traced, self.server_cpus)]
        self.servers[0].start()
        wait_ready(port)

    def server_args(self, tag: str) -> list[str]:
        return []

    def endpoints(self) -> list[int]:
        """Gateway port each sender talks to."""
        return [self.servers[0].port] * SENDERS

    def start_spare(self) -> Server:
        port = free_port()
        args = ["--port", str(port), *self.server_args("spare")]
        self.spare = Server("spare", args, port, self.work, False, self.server_cpus)
        self.spare.start()
        wait_ready(port)
        return self.spare

    def shutdown(self) -> None:
        for server in [*self.servers, *([self.spare] if self.spare else [])]:
            server.stop()
        self.servers, self.spare = [], None

    # requests ----------------------------------------------------------
    def body(self, key: str, version: int) -> bytes:
        return small_body(self.seed, key, version, self.object_size)

    def perform(self, conn: Conn, req: tuple, sent: float) -> tuple[bool, int]:
        kind, key = req[0], req[1]
        try:
            if kind == "PUT":
                version = self.versions.begin(key)
                body = self.body(key, version)
                status, _ = conn.request("PUT", obj_path(key), body)
                if status == 200:
                    self.versions.ack(key, version, sent, _now())
                    return True, len(body)
                return False, 0
            if kind == "GET":
                status, payload = conn.request("GET", obj_path(key))
                if status != 200:
                    return False, 0
                # Newest first: almost every read returns the latest version.
                written = reversed(self.versions.written.get(key, ()))
                if not any(payload == self.body(key, v) for v in written):
                    self.rec.mismatch(f"GET {key}: body matches no written version")
                return True, len(payload)
            if kind == "TICK":
                status, _ = conn.request("POST", "/tick")
                return status == 200, 0
        except (OSError, http.client.HTTPException):
            return False, 0
        raise ValueError(kind)

    def preload(self, keys: list[str], port: int) -> None:
        conns = [Conn(port) for _ in range(SENDERS)]
        queue = iter(keys)
        lock = threading.Lock()
        failures = []

        def loader(conn: Conn) -> None:
            while True:
                with lock:
                    key = next(queue, None)
                if key is None:
                    return
                ok, _ = self.perform(conn, ("PUT", key), _now())
                if not ok:
                    failures.append(key)

        threads = [threading.Thread(target=loader, args=(c,)) for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for c in conns:
            c.close()
        if failures:
            raise RuntimeError(f"preload failed for {len(failures)} keys")

    def load(self) -> None:
        self.preload([f"k{i}" for i in range(self.keys)], self.endpoints()[0])

    # phases ------------------------------------------------------------
    def setup(self) -> float:
        """Boot + preload ``setups`` times (fresh each time); median seconds."""
        times = []
        for attempt in range(self.setups):
            if attempt:
                self.shutdown()
                self.versions = Versions()
            t0 = _now()
            self.boot(f"s{attempt}")
            self.load()
            times.append(_now() - t0)
        return statistics.median(times)

    def open_request(self, rng: random.Random) -> tuple:
        raise NotImplementedError

    def closed_request(self, client: int, rng: random.Random) -> tuple:
        return self.open_request(rng)

    def plan(self) -> list[tuple[list[tuple], list[list[tuple]]]]:
        """Per round: the open-loop requests and each closed-loop client's."""
        n_open = max(self.rounds, int(self.open_share * self.seconds * self.rate))
        n_closed = int((1 - self.open_share) * self.seconds * self.closed_rate)
        per_client = max(1, n_closed // (self.rounds * self.closed_clients))
        rounds = []
        for r in range(self.rounds):
            size = n_open * (r + 1) // self.rounds - n_open * r // self.rounds
            opened = self.round_start(r) + self.draw(size, None)
            closed = [self.draw(per_client, c) for c in range(self.closed_clients)]
            rounds.append((opened, closed))
        return rounds

    def draw(self, n: int, client: int | None) -> list[tuple]:
        """``n`` requests for the open loop (``client`` None) or for one
        closed-loop client."""
        if client is None:
            return [self.open_request(self.rng) for _ in range(n)]
        return [self.closed_request(client, self.rng) for _ in range(n)]

    def round_start(self, r: int) -> list[tuple]:
        """Requests that open round ``r``'s open-loop slice."""
        return []

    sender_of = None  # open-loop requests go to whichever sender is free

    def finish(self, conn: Conn) -> None:
        """Runs after the last round, inside the billed schedule."""

    def measure(self) -> None:
        """The rounds, a restart after each, then ``finish``.

        Billing and (traced) counters restart from zero with a server, so
        they are summed over the stretches between restarts.
        """
        plan = self.plan()
        conns = [Conn(p) for p in self.endpoints()]
        spare = self.start_spare() if self.restart_spare else None
        totals: dict[str, float] = {}
        base, start = self.readings(), _now()
        for r, (opened, closed) in enumerate(plan):
            steal0 = cpu_steal()
            run_open_loop(opened, self.rate, conns, self.perform, self.rec, r, self.sender_of)
            queues = [iter(q) for q in closed]
            self.segments.append(run_closed_loop(
                conns[: self.closed_clients], lambda c: next(queues[c]), self.perform,
                self.rec, count=len(closed[0]), slot=r,
            ))
            self.round_steal.append(stolen(steal0, cpu_steal()))
            if spare is not None:
                self.restart_times.append(self.restart([spare]))
                continue
            self.close_stretch(totals, base, start)
            self.restart_times.append(self.restart())
            for c in conns:
                c.close()  # reconnect to the restarted server
            base, start = self.readings(), _now()
        self.finish(conns[0])
        self.close_stretch(totals, base, start)
        self.extra["cost_usd"] = totals.pop("cost")
        self.counters = totals
        self.extra["storage_amplification"] = self.amplification()
        for c in conns:
            c.close()

    def readings(self) -> dict[str, float]:
        """Billed dollars and, in traced runs, the cross-checked counters."""
        out = self.scrape() if self.traced else {}
        out["cost"] = self.cost_total()
        return out

    def close_stretch(self, totals: dict[str, float], base: dict[str, float],
                      start: float) -> None:
        """Add the readings since ``base`` and the servers' peak memory."""
        for name, value in self.readings().items():
            totals[name] = totals.get(name, 0.0) + value - base[name]
        self.intervals.append((start, _now()))
        self.peak_rss = max(self.peak_rss, sum(s.peak_rss_mib() for s in self.servers))

    def restart(self, servers: list[Server] | None = None) -> float:
        """SIGKILL ``servers`` (default: every node), restart them on the
        same arguments, until ready."""
        servers = self.servers if servers is None else servers
        for server in servers:
            server.dump_spans()
            server.kill()
        t0 = _now()
        for server in servers:
            server.start()
        for server in servers:
            wait_ready(server.port)
        self.restarted = servers[0]
        return _now() - t0

    def verify_after_restart(self) -> None:
        pass

    # bookkeeping -------------------------------------------------------
    def stats_ports(self) -> list[int]:
        return [s.port for s in self.servers]

    def cost_total(self) -> float:
        return sum(get_json(p, "/stats")["cost_total"] for p in self.stats_ports())

    def amplification(self) -> float:
        """Provider stored bytes over live user bytes, on the first endpoint."""
        stats = get_json(self.endpoints()[0], "/stats")
        stored = sum(b["stored_bytes"] for b in stats["storage"]["backends"].values())
        return stored / (len(self.versions.written) * self.object_size)

    def scrape(self) -> dict[str, float]:
        """The counters the traced run cross-checks, summed over servers."""
        totals = {"wal_appends": 0.0, "provider_bytes": 0.0, "erasure_encode": 0.0, "erasure_decode": 0.0}
        for port in self.stats_ports():
            doc = get_json(port, "/metrics?format=json")["metrics"]
            for sample in doc.get("scalia_wal_appends_total", {}).get("samples", []):
                totals["wal_appends"] += sample["value"]
            for sample in doc.get("scalia_provider_bytes_total", {}).get("samples", []):
                totals["provider_bytes"] += sample["value"]
            for sample in doc.get("scalia_erasure_bytes_total", {}).get("samples", []):
                totals["erasure_" + sample["labels"]["direction"]] += sample["value"]
        return totals


class SmallHot(Workload):
    name = "small-hot"
    object_size = 256
    keys = 10_000
    rate = 300.0
    get_share = 0.9
    zipf_s = 1.0
    hot = 100
    # One closed-loop client: on this GIL-bound single process a second
    # one added no capacity (both gave ~1100 ops/s) but made the figure
    # swing between 920 and 1600 ops/s from run to run.
    closed_clients = 1
    closed_rate = 1000.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cdf = zipf_cdf(self.keys, self.zipf_s)
        self.ranks = list(range(self.keys))

    def zipf_key(self, r: random.Random) -> str:
        return f"k{self.ranks[min(bisect_left(self.cdf, r.random()), self.keys - 1)]}"

    def open_request(self, rng: random.Random) -> tuple:
        return ("GET" if rng.random() < self.get_share else "PUT", self.zipf_key(rng))

    def round_start(self, r: int) -> list[tuple]:
        """A ``POST /tick`` opens the middle round, and the hot set moves.

        Right after that tick the top ranks swap with random keys (like a
        Slashdot spike), so the tick in ``finish`` sees a re-ranked access
        history; it also flushes pending deletes before stored bytes are
        read.
        """
        if r != self.rounds // 2:
            return []
        for h in range(self.hot):
            j = self.rng.randrange(self.keys)
            self.ranks[h], self.ranks[j] = self.ranks[j], self.ranks[h]
        return [("TICK", "")]

    def finish(self, conn: Conn) -> None:
        conn.json("POST", "/tick")

    def load(self) -> None:
        """Preload, then close the preload's period so the first tick in
        traffic handles traffic, not the bulk load."""
        super().load()
        get_json(self.servers[0].port, "/tick", "POST")


class DurableWrite(Workload):
    name = "durable-write"
    object_size = 4096
    keys = 500
    rate = 150.0
    # One closed-loop client, as on small-hot: with two, quiet runs read
    # 730-870 ops/s on this pinned single process.
    closed_clients = 1
    closed_rate = 650.0
    put_share = 0.7
    setups = 5
    restart_spare = False
    #: ``os``: appends reach the page cache before the ack and survive a
    #: process crash; no fsync on the request path (see ``DurableSync``).
    sync = "os"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fresh = (f"n{i}" for i in itertools.count())

    def server_args(self, tag: str) -> list[str]:
        data_dir = os.path.join(self.work, f"data-{tag}")
        return ["--data-dir", data_dir, "--storage-sync", self.sync]

    def draw(self, n: int, client: int | None) -> list[tuple]:
        """Exactly ``put_share`` PUTs, half of them new keys, in seeded order.

        The WAL is snapshotted every 4096 records, so a restart replays
        what was written since the last snapshot.  With exact counts the
        restarts of every seed fall at the same points of that cycle;
        with counts drawn per request, restart times after the same plan
        read 0.83-1.40 s from seed to seed.
        """
        rng = self.rng
        n_put = round(n * self.put_share)
        kinds = ["new"] * (n_put // 2) + ["over"] * (n_put - n_put // 2)
        kinds += ["get"] * (n - n_put)
        rng.shuffle(kinds)
        return [
            ("PUT", next(self._fresh)) if kind == "new"
            else ("PUT" if kind == "over" else "GET", f"k{rng.randrange(self.keys)}")
            for kind in kinds
        ]

    def verify_after_restart(self) -> None:
        """Every acked PUT reads back byte-identical after SIGKILL + restart."""
        conn = Conn(self.restarted.port)
        for key in self.versions.acked:
            status, payload = conn.request("GET", obj_path(key))
            wanted = self.versions.durable_candidates(key)
            if status != 200 or not any(payload == self.body(key, v) for v in wanted):
                self.rec.mismatch(f"after restart {key}: HTTP {status}, not the last acked version")
        conn.close()
        self.extra["verified_keys"] = len(self.versions.acked)


class DurableSync(DurableWrite):
    """``durable-write`` with ``--storage-sync always``: an fsync per write.

    Not gated: with a second process doing fsyncs on the same disk, PUT
    p90 went from 3.8 to 23 ms and GET p90 from 1.7 to 8 ms, so its tails
    measure the host's disk as much as the program (NOTES.md).
    """

    name = "durable-sync"
    closed_rate = 550.0
    sync = "always"


class Replicated(DurableWrite):
    """A 3-node cluster; sender 0 reads from the leader, sender 1 reads from
    a follower and writes through it (the follower forwards to the leader)."""

    name = "replicated"
    server_cpus = None
    keys = 200
    rate = 40.0
    closed_clients = SENDERS
    closed_rate = 300.0
    put_share = 0.3
    setups = 2
    rounds = 5
    nodes = 3

    def boot(self, tag: str) -> None:
        rpc = [free_port() for _ in range(self.nodes)]
        self.servers = []
        for i in range(self.nodes):
            port = free_port()
            args = [
                "--port", str(port),
                "--data-dir", os.path.join(self.work, f"data-{tag}-{i}"),
                "--cluster-listen", f"127.0.0.1:{rpc[i]}",
                "--node-id", f"n{i}",
            ]
            if i:
                args += ["--join", f"127.0.0.1:{rpc[0]}"]
            self.servers.append(Server(f"node{i}-{tag}", args, port, self.work, self.traced))
        for server in self.servers:
            server.start()
        for server in self.servers:
            wait_ready(server.port)
        self._wait_leader_accepts_writes()

    def _wait_leader_accepts_writes(self) -> None:
        deadline = _now() + 60
        while True:
            try:
                probe = Conn(self.leader().port)
                try:
                    status, _ = probe.request("PUT", obj_path("probe"), b"p")
                finally:
                    probe.close()
                if status == 200:
                    return
            except (OSError, http.client.HTTPException, RuntimeError):
                pass
            if _now() > deadline:
                raise RuntimeError("no cluster leader accepted a write")
            time.sleep(0.05)

    def leader(self) -> Server:
        for server in self.servers:
            if get_json(server.port, "/cluster").get("role") == "leader":
                return server
        raise RuntimeError("no leader")

    def follower(self) -> Server:
        leader = self.leader()
        return next(s for s in self.servers if s is not leader)

    def endpoints(self) -> list[int]:
        return [self.leader().port, self.follower().port][:SENDERS]

    draw = Workload.draw

    def open_request(self, rng: random.Random) -> tuple:
        key = f"k{rng.randrange(self.keys)}"
        return ("PUT", key) if rng.random() < self.put_share else ("GET", key)

    def sender_of(self, req: tuple, i: int) -> int:
        # PUTs go through the follower; GETs alternate between the nodes.
        return (SENDERS - 1) if req[0] == "PUT" else i % SENDERS

    def closed_request(self, client: int, rng: random.Random) -> tuple:
        # The leader's client only reads; the follower's client carries
        # the writes, so the phase keeps roughly the open-loop mix.
        if client == 0 and SENDERS > 1:
            return ("GET", f"k{rng.randrange(self.keys)}")
        key = f"k{rng.randrange(self.keys)}"
        return ("PUT", key) if rng.random() < 2 * self.put_share else ("GET", key)

    def amplification(self) -> float:
        """On the leader; every node keeps its own simulated providers."""
        stats = get_json(self.leader().port, "/stats")
        stored = sum(b["stored_bytes"] for b in stats["storage"]["backends"].values())
        return stored / ((len(self.versions.written) + 1) * self.object_size)  # + probe

    def restart(self, servers: list[Server] | None = None) -> float:
        """SIGKILL one follower; ready when it has caught up with the leader."""
        leader, follower = self.leader(), self.follower()
        follower.dump_spans()
        follower.kill()
        t0 = _now()
        follower.start()
        wait_ready(follower.port)
        target = get_json(leader.port, "/cluster")["commit_seq"]
        deadline = _now() + 60
        while get_json(follower.port, "/cluster")["last_seq"] < target:
            if _now() > deadline:
                raise RuntimeError("restarted follower did not catch up")
            time.sleep(0.01)
        self.restarted = follower
        return _now() - t0


class LargeStream(Workload):
    """``--workers 2``; each client streams against its own 64 MiB object.

    A fixed plan (40% streamed PUT, 30% full GET, 30% 4 MiB ranged GET,
    shuffled by the seed) makes ``cost_usd`` independent of run speed.
    GET latency is over full-object GETs.
    """

    name = "large-stream"
    server_cpus = None  # the workers need every CPU
    object_size = 64 * MIB
    range_size = 4 * MIB
    setups = 3
    restarts = 9

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bodies = LargeBodies(self.seed, self.object_size)
        # A fixed count per client sized to ~--seconds on the host the
        # benchmark was tuned on (a round of requests takes under a
        # second), kept a multiple of ten so the 40/30/30 split is exact.
        self.per_client = 10 * max(1, round(self.seconds / 10))

    def server_args(self, tag: str) -> list[str]:
        return ["--workers", "2"]

    def load(self) -> None:
        self.preload([f"big{c}" for c in range(SENDERS)], self.servers[0].port)

    def perform(self, conn: Conn, req: tuple, sent: float) -> tuple[bool, int]:
        kind, key = req[0], req[1]
        try:
            if kind == "PUT":
                version = self.versions.begin(key)
                status, _ = conn.request(
                    "PUT", obj_path(key), self.bodies.blocks(key, version), chunked=True
                )
                if status != 200:
                    return False, 0
                self.versions.ack(key, version, sent, _now())
                return True, self.object_size
            start = req[2] if kind == "RANGE" else 0
            size = self.range_size if kind == "RANGE" else self.object_size
            headers = {"Range": f"bytes={start}-{start + size - 1}"} if kind == "RANGE" else None
            status, payload = conn.request("GET", obj_path(key), headers=headers)
            if status != (206 if kind == "RANGE" else 200) or len(payload) != size:
                return False, 0
            if not any(
                self.bodies.matches(key, v, payload, start)
                for v in reversed(self.versions.written[key])
            ):
                self.rec.mismatch(f"{kind} {key}@{start}: matches no written version")
            return True, size
        except (OSError, http.client.HTTPException):
            return False, 0

    def measure(self) -> None:
        # Both clients run the same seeded sequence of request kinds in
        # lockstep rounds, so a GET never overlaps the other client's PUT
        # (that overlap fails reads on --workers 2; NOTES.md, "large-object
        # read failures", and race_probe.py measure it).
        n_put = self.per_client * 4 // 10
        n_get = self.per_client * 3 // 10
        kinds = ["PUT"] * n_put + ["GET"] * n_get
        kinds += ["RANGE"] * (self.per_client - len(kinds))
        self.rng.shuffle(kinds)
        plans = []
        for c in range(SENDERS):
            r = random.Random(f"{self.seed}:client:{c}")
            plans.append(iter(
                (k, f"big{c}", r.randrange(0, self.object_size - self.range_size, 4096))
                for k in kinds
            ))
        rounds = threading.Barrier(SENDERS)

        def next_request(c: int) -> tuple:
            rounds.wait()
            return next(plans[c])

        conns = spread_connections(self.servers[0], SENDERS)
        base = self.readings()
        start, _ = run_closed_loop(
            conns, next_request, self.perform, self.rec, count=self.per_client
        )
        if self.traced:
            time.sleep(1.5)  # workers push their counters about once a second
        totals: dict[str, float] = {}
        self.close_stretch(totals, base, start)
        self.extra["cost_usd"] = totals.pop("cost")
        self.counters = totals
        # Overwritten stripes wait in the pending-delete queue until a
        # period closes; close one so stored bytes describe live data.
        conns[0].json("POST", "/tick")
        self.extra["storage_amplification"] = self.amplification()
        for c in conns:
            c.close()
        # The data is not needed any more, so the serving nodes restart.
        self.restart_times = [self.restart() for _ in range(self.restarts)]


WORKLOADS = {w.name: w for w in (SmallHot, DurableWrite, LargeStream, DurableSync, Replicated)}


# -- metrics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(w: Workload, setup_s: float, restart_s: float, rss: float) -> dict[str, float]:
    rows = w.rec.rows
    data = [r for r in rows if r[1] != "TICK"]
    # Open-loop latency: a percentile per round's slice, then the median
    # over the rounds.  A closed-loop-only workload (large-stream) times
    # its own requests over the whole phase.
    lat_phase = "open" if any(r[0] == "open" for r in rows) else "closed"
    kept = set(least_stolen(w.round_steal)) if w.round_steal else {0}

    def lat(kind: str, q: float) -> float:
        slots: dict[int, list[float]] = {}
        for r in data:
            if r[0] == lat_phase and r[1] == kind and r[5]:
                slot = r[7] if lat_phase == "open" else 0
                if slot in kept:
                    slots.setdefault(slot, []).append((r[4] - r[2]) * 1e3)
        return statistics.median(percentile(v, q) for v in slots.values()) if slots else 0.0

    closed = [r for r in data if r[0] == "closed" and r[5]]
    if lat_phase == "open":
        # Completed requests (bytes) over each round's segment; the median
        # over the rounds.
        rates, byte_rates = [], []
        for slot in sorted(kept):
            t0, t1 = w.segments[slot]
            mine = [r for r in closed if r[7] == slot]
            rates.append(len(mine) / (t1 - t0))
            byte_rates.append(sum(r[6] for r in mine) / MIB / (t1 - t0))
        throughput = statistics.median(rates)
        goodput = statistics.median(byte_rates)
    else:
        # Fixed request counts: each client's own rate, summed.
        throughput = goodput = 0.0
        for c in {r[7] for r in closed}:
            mine = [r for r in closed if r[7] == c]
            span = max(r[4] for r in mine) - min(r[3] for r in mine)
            throughput += len(mine) / span
            goodput += sum(r[6] for r in mine) / MIB / span
    metrics = {
        "setup_s": setup_s,
        "get_p50_ms": lat("GET", 0.5),
        "get_p90_ms": lat("GET", 0.9),
        "put_p50_ms": lat("PUT", 0.5),
        "put_p90_ms": lat("PUT", 0.9),
        "throughput_ops_s": throughput,
        "goodput_mib_s": goodput,
        "cost_usd": w.extra["cost_usd"],
        "storage_amplification": w.extra["storage_amplification"],
        "server_peak_rss_mib": rss,
        "restart_s": restart_s,
    }
    w.extra["error_share"] = sum(1 for r in data if not r[5]) / max(1, len(data))
    w.extra["get_p99_ms"] = lat("GET", 0.99)
    w.extra["put_p99_ms"] = lat("PUT", 0.99)
    w.extra["get_samples"] = sum(1 for r in data if r[0] == lat_phase and r[1] == "GET")
    w.extra["put_samples"] = sum(1 for r in data if r[0] == lat_phase and r[1] == "PUT")
    late = [(r[3] - r[2]) * 1e3 for r in rows if r[0] == "open"]
    w.extra["gen_late_p90_ms"] = percentile(late, 0.9)
    if any(r[1] == "RANGE" for r in data):
        w.extra["range_p50_ms"] = lat("RANGE", 0.5)
    if w.round_steal:
        w.extra["rounds_kept"] = len(kept)
        w.extra["round_steal_max_pct"] = 100 * max(w.round_steal)
    return metrics


def run_once(name: str, seed: int, seconds: int, traced: bool, work: str):
    w = WORKLOADS[name](seed, seconds, traced, work)
    try:
        setup_s = w.setup()
        w.measure()
        w.verify_after_restart()
        metrics = end_to_end(w, setup_s, statistics.median(w.restart_times), w.peak_rss)
        for server in w.servers:
            server.dump_spans()
        return w, metrics
    finally:
        w.shutdown()


def run_context(args, work: str) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    fs = "unknown"
    try:
        fs = subprocess.run(
            ["stat", "-f", "-c", "%T", work], capture_output=True, text=True, timeout=10
        ).stdout.strip() or fs
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "senders": SENDERS,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "data_dir_fs": fs,
    }


UNITS = {
    "setup_s": "s", "get_p50_ms": "ms", "get_p90_ms": "ms", "put_p50_ms": "ms",
    "put_p90_ms": "ms", "throughput_ops_s": "1/s", "goodput_mib_s": "MiB/s",
    "cost_usd": "USD", "storage_amplification": "ratio", "server_peak_rss_mib": "MiB",
    "restart_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A TERM from whoever runs the benchmark unwinds through the finally
    # blocks below, which stop every server this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if WORKLOADS[args.workload].server_cpus and CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        context = run_context(args, work)
        steal0 = cpu_steal()
        # A traced run measures half the time untraced and half traced.
        seconds = max(1, args.seconds // 2) if args.trace else args.seconds
        w, metrics = run_once(args.workload, args.seed, seconds, False, work)
        report(w, metrics)
        correct = not w.rec.mismatches
        rows = w.rec.rows
        if args.trace:
            import layers

            tw, tmetrics = run_once(args.workload, args.seed, seconds, True, work)
            report(tw, tmetrics)
            per_layer, problems = layers.per_layer(tw, metrics, tmetrics)
            for line in problems:
                print("cross-check: " + line)
            correct = correct and not tw.rec.mismatches and not problems
            rows = tw.rec.rows
            out = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in per_layer.items()}
        else:
            out = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        steal1 = cpu_steal()
        # Time the hypervisor gave this VM's CPUs to others during the run:
        # a high share marks a run whose timings measure the host, not the
        # program.
        context["cpu_steal_pct"] = round(
            100.0 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]), 1
        )
        print("context " + json.dumps(context, sort_keys=True))
        data = [r for r in rows if r[1] != "TICK"]
        result = {
            "correct": correct,
            "attempted": len(data),
            "failed": sum(1 for r in data if not r[5]),
            "metrics": out,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(w: Workload, metrics: dict) -> None:
    mode = "traced" if w.traced else "untraced"
    for name, value in metrics.items():
        print(f"{w.name} {mode} {name} = {value:.6g} {UNITS[name]}")
    for name in ("error_share", "get_p99_ms", "put_p99_ms", "get_samples", "put_samples",
                 "gen_late_p90_ms", "range_p50_ms", "verified_keys", "rounds_kept",
                 "round_steal_max_pct"):
        if name in w.extra:
            print(f"{w.name} {mode} {name} = {w.extra[name]:.6g}")
    if w.round_steal:
        shares = " ".join(f"{100 * x:.1f}" for x in w.round_steal)
        print(f"{w.name} {mode} round_steal_pct = {shares}")
    for what in w.rec.mismatches[:20]:
        print(f"{w.name} {mode} MISMATCH {what}")


if __name__ == "__main__":
    sys.exit(main())
