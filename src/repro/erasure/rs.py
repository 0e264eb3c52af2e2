"""Systematic (m, n) Reed-Solomon encoder/decoder.

An object is encoded into ``n`` shards such that any ``m`` of them rebuild
the original bytes (paper Section II-A1).  The code is *systematic*: shards
``0..m-1`` are verbatim slices of the data, so an all-data read never touches
the field arithmetic.  The rate is ``r = m / n`` and the storage blow-up is
``1 / r``, exactly the accounting the paper's cost model uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

import numpy as np

from repro.erasure.galois import gf_matmul
from repro.erasure.matrix import gf_inverse, systematic_generator


def shard_length(data_len: int, m: int) -> int:
    """Length in bytes of each shard for a ``data_len``-byte object.

    Zero-length objects still get 1-byte shards so that every chunk has a
    physical representation at the providers.
    """
    return max(1, math.ceil(data_len / m))


@dataclass(frozen=True)
class DecodePlan:
    """How one chosen shard set rebuilds the data rows it lacks.

    Built once per shard-index tuple from the inverse of the generator's
    rows for those shards.  ``aliases`` maps a missing data row whose
    inverse row is a unit vector to the one shard that *is* that row —
    served as a view, no field arithmetic (every ``m = 1`` replica read,
    for one).  The other missing rows are ``mixed_rows``, recovered by one
    ``gf_matmul`` with the matching rows of ``mixed_matrix``.
    """

    aliases: Mapping[int, int]
    mixed_rows: tuple[int, ...]
    mixed_matrix: np.ndarray


@dataclass(frozen=True)
class ReedSolomon:
    """A systematic (m, n) Reed-Solomon erasure code over GF(2^8).

    Parameters
    ----------
    m:
        Number of data shards (the paper's *threshold*); any ``m`` shards
        reconstruct the object.
    n:
        Total number of shards produced (one per selected provider).
    construction:
        Generator matrix construction, ``"vandermonde"`` or ``"cauchy"``.
    """

    m: int
    n: int
    construction: str = "vandermonde"
    _generator: np.ndarray = field(init=False, repr=False, compare=False)
    # At most C(n, m) entries, one per chosen shard-index tuple.
    _plans: Dict[tuple[int, ...], DecodePlan] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        gen = systematic_generator(self.m, self.n, self.construction)
        gen.setflags(write=False)
        object.__setattr__(self, "_generator", gen)

    @property
    def rate(self) -> float:
        """Code rate ``r = m / n`` (Section II-A1)."""
        return self.m / self.n

    @property
    def storage_overhead(self) -> float:
        """Disk blow-up factor ``1 / r`` of storing an encoded object."""
        return self.n / self.m

    @property
    def generator(self) -> np.ndarray:
        """The (read-only) ``n x m`` generator matrix."""
        return self._generator

    def _decode_plan(self, indices: tuple[int, ...]) -> DecodePlan:
        """The cached plan for decoding from shards ``indices`` (sorted).

        A racing first use may build the same plan twice; both results
        are identical and the dict keeps one.
        """
        plan = self._plans.get(indices)
        if plan is not None:
            return plan
        inv = gf_inverse(self._generator[list(indices)])
        chosen = set(indices)
        aliases: Dict[int, int] = {}
        mixed: list[int] = []
        for row in range(self.m):
            if row in chosen:
                continue
            nonzero = np.flatnonzero(inv[row])
            if len(nonzero) == 1 and inv[row, nonzero[0]] == 1:
                aliases[row] = indices[int(nonzero[0])]
            else:
                mixed.append(row)
        matrix = inv[mixed]
        matrix.setflags(write=False)
        plan = DecodePlan(aliases=aliases, mixed_rows=tuple(mixed), mixed_matrix=matrix)
        self._plans[indices] = plan
        return plan

    def encode(self, data: "bytes | memoryview") -> list[memoryview]:
        """Encode ``data`` into ``n`` shards of equal length.

        Shards are returned as :class:`memoryview`\\ s.  When ``len(data)``
        is already a multiple of ``m * shard_length`` — every interior
        stripe of the streaming data plane — the data shards are zero-copy
        slices of ``data`` itself (``shard.obj is data``): no pad buffer is
        allocated and no bytes move.  Unaligned tails are zero-padded to a
        multiple of ``m`` shard lengths; the original length must be
        carried in metadata for :meth:`decode`.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        slen = shard_length(len(view), self.m)
        if len(view) == self.m * slen:
            # Aligned fast path: slice, never copy.
            shards: list[memoryview] = [
                view[i * slen : (i + 1) * slen] for i in range(self.m)
            ]
            if self.n > self.m:
                matrix = np.frombuffer(view, dtype=np.uint8).reshape(self.m, slen)
                parity = gf_matmul(self._generator[self.m :], matrix)
                shards.extend(memoryview(parity[i]) for i in range(self.n - self.m))
            return shards
        padded = np.zeros(self.m * slen, dtype=np.uint8)
        if len(view):
            padded[: len(view)] = np.frombuffer(view, dtype=np.uint8)
        matrix = padded.reshape(self.m, slen)
        # Systematic fast path: only the parity rows need field arithmetic.
        shards = [memoryview(matrix[i]) for i in range(self.m)]
        if self.n > self.m:
            parity = gf_matmul(self._generator[self.m :], matrix)
            shards.extend(memoryview(parity[i]) for i in range(self.n - self.m))
        return shards

    def decode_blocks(
        self, shards: Mapping[int, "bytes | memoryview"], data_len: int
    ) -> list[memoryview]:
        """Rebuild the original bytes as a list of buffer views.

        The concatenation of the returned views is the ``data_len``-byte
        object.  Data shards that are present are returned as views of the
        caller's buffers — no copy; a missing data row comes from the
        shard set's cached :class:`DecodePlan`: as a view when its inverse
        row is a unit vector, else through field arithmetic.  Extra shards
        beyond ``m`` are ignored deterministically (lowest indices win).
        """
        if data_len < 0:
            raise ValueError("data_len must be >= 0")
        if len(shards) < self.m:
            raise ValueError(
                f"need at least m={self.m} shards to decode, got {len(shards)}"
            )
        slen = shard_length(data_len, self.m)
        indices = sorted(shards)[: self.m]
        for idx in indices:
            if not 0 <= idx < self.n:
                raise ValueError(f"shard index {idx} out of range for n={self.n}")
            if len(shards[idx]) != slen:
                raise ValueError(
                    f"shard {idx} has length {len(shards[idx])}, expected {slen}"
                )
        # Only rows that contribute live bytes are worth recovering.
        needed_rows = min(self.m, math.ceil(data_len / slen)) if data_len else 0
        recovered: dict[int, memoryview] = {}
        aliases: Mapping[int, int] = {}
        # A data row among the shards is among the m lowest indices.
        if any(row not in shards for row in range(needed_rows)):
            plan = self._decode_plan(tuple(indices))
            aliases = plan.aliases
            wanted = [k for k, row in enumerate(plan.mixed_rows) if row < needed_rows]
            if wanted:
                stacked = np.vstack(
                    [np.frombuffer(shards[i], dtype=np.uint8) for i in indices]
                )
                rows = gf_matmul(plan.mixed_matrix[wanted], stacked)
                for j, k in enumerate(wanted):
                    recovered[plan.mixed_rows[k]] = memoryview(rows[j])
        blocks: list[memoryview] = []
        remaining = data_len
        for row in range(self.m):
            take = min(slen, remaining)
            if take <= 0:
                break
            source = recovered.get(row)
            if source is None:
                raw = shards[aliases.get(row, row)]
                source = raw if isinstance(raw, memoryview) else memoryview(raw)
            blocks.append(source[:take])
            remaining -= take
        return blocks

    def decode(self, shards: Mapping[int, "bytes | memoryview"], data_len: int) -> bytes:
        """Rebuild the original ``data_len`` bytes from any ``m`` shards.

        ``shards`` maps shard index (0-based) to shard bytes.  This is the
        copying convenience over :meth:`decode_blocks`.
        """
        return b"".join(self.decode_blocks(shards, data_len))

    def reconstruct_shard(
        self, shards: Mapping[int, "bytes | memoryview"], target_index: int, data_len: int
    ) -> bytes:
        """Recompute a single missing shard from any ``m`` available ones.

        This is the *active repair* primitive (Section IV-E): when a provider
        fails, only its shard is regenerated and re-hosted elsewhere.
        """
        if not 0 <= target_index < self.n:
            raise ValueError(f"shard index {target_index} out of range")
        data = self.decode(shards, shard_length(data_len, self.m) * self.m)
        # bytes() detaches the repaired shard from the full decoded buffer so
        # the store doesn't pin m shards' worth of memory for one chunk.
        return bytes(self.encode(data)[target_index])


class CodeCache:
    """Memoized :class:`ReedSolomon` instances keyed by (m, n).

    Generator-matrix construction costs O(n * m^2) field operations; the
    broker re-uses codes across the billions-of-objects regime the paper
    targets, so instances are cached.
    """

    def __init__(self, construction: str = "vandermonde") -> None:
        self._construction = construction
        self._codes: Dict[tuple[int, int], ReedSolomon] = {}

    def get(self, m: int, n: int) -> ReedSolomon:
        """Return the cached (m, n) code, building it on first use."""
        key = (m, n)
        code = self._codes.get(key)
        if code is None:
            code = ReedSolomon(m, n, self._construction)
            self._codes[key] = code
        return code

    def preload(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Eagerly build codes for the given (m, n) pairs."""
        for m, n in pairs:
            self.get(m, n)

    def __len__(self) -> int:
        return len(self._codes)
