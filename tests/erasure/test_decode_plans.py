"""Cached decode plans against a fresh inversion, for every shard subset.

``ReedSolomon.decode_blocks`` keeps one :class:`DecodePlan` per chosen
shard-index tuple instead of inverting the sub-generator on every call.
These tests hold the cached path to the plain Gauss-Jordan decode it
replaces, over both constructions, every subset of at least ``m`` shards
and the data lengths that exercise padding.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.erasure.rs as rs_mod
from repro.erasure.galois import gf_matmul
from repro.erasure.matrix import gf_inverse
from repro.erasure.rs import ReedSolomon, shard_length


@st.composite
def codes_and_lengths(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    construction = draw(st.sampled_from(["vandermonde", "cauchy"]))
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["zero", "one", "unaligned", "aligned"]))
    if kind == "zero":
        data_len = 0
    elif kind == "one":
        data_len = 1
    elif kind == "aligned" or m == 1:
        data_len = m * k
    else:
        data_len = m * k + draw(st.integers(1, m - 1))
    return m, n, construction, data_len


def subsets(n: int, m: int):
    for size in range(m, n + 1):
        yield from itertools.combinations(range(n), size)


def reference_decode(code: ReedSolomon, shards, data_len: int) -> bytes:
    """Decode by inverting the chosen rows afresh (no cache, no shortcut)."""
    indices = sorted(shards)[: code.m]
    inv = gf_inverse(code.generator[indices])
    stacked = np.vstack([np.frombuffer(shards[i], dtype=np.uint8) for i in indices])
    return gf_matmul(inv, stacked).tobytes()[:data_len]


@settings(max_examples=60, deadline=None)
@given(codes_and_lengths(), st.randoms(use_true_random=False))
def test_cached_plans_match_fresh_inversion(params, rnd):
    m, n, construction, data_len = params
    code = ReedSolomon(m, n, construction)
    data = bytes(rnd.getrandbits(8) for _ in range(data_len))
    encoded = [bytes(s) for s in code.encode(data)]
    assert all(len(s) == shard_length(data_len, m) for s in encoded)

    for subset in subsets(n, m):
        shards = {i: encoded[i] for i in subset}
        blocks = code.decode_blocks(shards, data_len)
        assert b"".join(blocks) == data
        assert b"".join(blocks) == reference_decode(code, shards, data_len)
    assert len(code._plans) <= math.comb(n, m)

    # A second pass reuses every plan: no inversion, no new entry.
    built = len(code._plans)
    with mock.patch.object(rs_mod, "gf_inverse", side_effect=AssertionError):
        for subset in subsets(n, m):
            shards = {i: encoded[i] for i in subset}
            assert code.decode(shards, data_len) == data
    assert len(code._plans) == built

    # Rows a plan aliases are views of the caller's own shard buffers.
    for key, plan in code._plans.items():
        shards = {i: encoded[i] for i in key}
        blocks = code.decode_blocks(shards, data_len)
        for row, source in plan.aliases.items():
            if row < len(blocks):
                assert blocks[row].obj is shards[source]


def test_replica_reads_never_touch_field_arithmetic():
    code = ReedSolomon(1, 4)
    data = bytes(range(256))
    encoded = [bytes(s) for s in code.encode(data)]
    for index in range(4):
        with mock.patch.object(rs_mod, "gf_matmul", side_effect=AssertionError):
            (block,) = code.decode_blocks({index: encoded[index]}, len(data))
        assert block.obj is encoded[index]
        assert bytes(block) == data
    # The systematic shard needs no plan; each parity replica one alias.
    assert len(code._plans) == 3


def test_systematic_read_builds_no_plan():
    code = ReedSolomon(3, 5)
    data = b"scalia" * 50
    encoded = code.encode(data)
    assert code.decode({0: encoded[0], 1: encoded[1], 2: encoded[2]}, len(data)) == data
    assert len(code._plans) == 0
