"""In-memory span recorder for the traced server processes.

Spans nest per thread.  Each span is seven doubles in its thread's
buffer: name id, start, end (``time.monotonic``, comparable across
processes on Linux), parent index in the same buffer (-1 at the top),
two numeric attributes and an error flag.  Nothing is aggregated in the
server; :meth:`Tracer.dump` writes every buffer out and the benchmark
computes self times and ratios afterwards.
"""

from __future__ import annotations

import array
import functools
import json
import math
import os
import threading
import time

FIELDS = 7  # name, t0, t1, parent, v1, v2, err
_now = time.monotonic


class Tracer:
    def __init__(self, path: str, role: str) -> None:
        self.path = path
        self.role = role
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, array.array]] = []
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._ids[name] = nid
        return nid

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buf = array.array("d")
            state = self._local.state = (buf, [])
            with self._lock:
                self._buffers.append((threading.get_ident(), buf))
        return state

    def open(self, nid: int) -> int:
        buf, stack = self._thread_state()
        idx = len(buf) // FIELDS
        buf.extend((nid, _now(), math.nan, stack[-1] if stack else -1, 0.0, 0.0, 0.0))
        stack.append(idx)
        return idx

    def close(self, idx: int, v1: float = 0.0, v2: float = 0.0, err: bool = False) -> None:
        buf, stack = self._thread_state()
        base = idx * FIELDS
        buf[base + 2] = _now()
        buf[base + 4] = v1
        buf[base + 5] = v2
        buf[base + 6] = 1.0 if err else 0.0
        stack.pop()

    def leaf(self, nid: int, t0: float, t1: float, v1: float = 0.0) -> None:
        """Record an already-finished span under the current one."""
        buf, stack = self._thread_state()
        buf.extend((nid, t0, t1, stack[-1] if stack else -1, v1, 0.0, 0.0))

    def dump(self) -> None:
        """Write every buffer to ``path`` (atomically, via rename)."""
        with self._lock:
            buffers = [(ident, buf.tobytes()) for ident, buf in self._buffers]
            names = list(self.names)
        header = {
            "pid": os.getpid(),
            "role": self.role,
            "names": names,
            "threads": [[ident, len(data)] for ident, data in buffers],
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, data in buffers:
                fh.write(data)
        os.replace(tmp, self.path)


def load(path: str):
    """``(header, [(thread, rows)])`` where rows are 7-tuples."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for ident, nbytes in header["threads"]:
            buf = array.array("d")
            buf.frombytes(fh.read(nbytes))
            rows = [tuple(buf[i : i + FIELDS]) for i in range(0, len(buf), FIELDS)]
            threads.append((ident, rows))
    return header, threads


def wrap(tracer: Tracer, owner, attr: str, name: str, value=None) -> None:
    """Replace ``owner.attr`` with a spanned version.

    ``name`` is a string or ``name(args)`` for names that depend on the
    call (an RPC's op).  ``value(args, kwargs, result)`` returns
    ``(v1, v2)``, recorded on the span when the call returns normally.
    """
    original = getattr(owner, attr)
    nid = tracer.name_id(name) if isinstance(name, str) else None

    @functools.wraps(original)
    def traced(*args, **kwargs):
        idx = tracer.open(nid if nid is not None else tracer.name_id(name(args)))
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(idx, err=True)
            raise
        v1, v2 = value(args, kwargs, result) if value is not None else (0.0, 0.0)
        tracer.close(idx, v1, v2)
        return result

    setattr(owner, attr, traced)


def wrap_enter(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Time how long entering the context manager ``owner.attr(...)`` takes."""
    original = getattr(owner, attr)
    nid = tracer.name_id(name)

    class _Timed:
        __slots__ = ("cm",)

        def __init__(self, cm) -> None:
            self.cm = cm

        def __enter__(self):
            t0 = _now()
            result = self.cm.__enter__()
            tracer.leaf(nid, t0, _now())
            return result

        def __exit__(self, *exc_info):
            return self.cm.__exit__(*exc_info)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        return _Timed(original(*args, **kwargs))

    setattr(owner, attr, timed)
