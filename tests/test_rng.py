"""Counter-based stream layout contracts.

``rng.slot_chunks`` is checked against ``reference.slot_stream``, which
states the layout on numpy's Philox without calling the package.
"""

import numpy as np
import pytest
from reference import (
    STREAM_ARRIVALS,
    STREAM_CONNECTIVITY,
    STREAM_POLICY,
    path_uniforms,
    slot_stream,
)

from mwmlab import rng

KINDS = [
    (rng.STREAM_CONNECTIVITY, STREAM_CONNECTIVITY),
    (rng.STREAM_ARRIVALS, STREAM_ARRIVALS),
    (rng.STREAM_POLICY, STREAM_POLICY),
]


def test_slot_chunks_match_the_stated_layout():
    # slot t of the reference is positioned at its own counter, so a slot
    # padded to the wrong block count or a wrong key fails on its own row
    horizon = 41
    for seed, replication in ((-1, 0), (2**64 - 1, rng.REPLICATION_LIMIT - 1), (7, 2)):
        for (kind, ref_kind), values in zip(KINDS * 2, (1, 3, 4, 5, 7, 8)):
            rows = np.array([
                slot_stream(seed, replication, ref_kind, t, values).random(values)
                for t in range(1, horizon + 1)
            ])
            for chunk in (1, 4, 7, 40):
                chunks = rng.slot_chunks(seed, replication, kind, values, chunk)
                pieces = [next(chunks) for _ in range(-(-horizon // chunk))]
                assert all(p.shape == (chunk, values) for p in pieces)
                got = np.concatenate(pieces)[:horizon]
                assert np.array_equal(got, rows), (seed, replication, kind, values, chunk)


def test_slot_stream_matches_path_rows():
    # the reference positioned at slot t reads row t of the package's stream
    for values in (1, 3, 4, 7, 8):
        block = path_uniforms(7, 2, STREAM_CONNECTIVITY, 6, values)
        assert block.shape == (6, values)
        rows = next(rng.slot_chunks(7, 2, rng.STREAM_CONNECTIVITY, values, 6))
        for t in (1, 3, 6):
            gen = slot_stream(7, 2, STREAM_CONNECTIVITY, t, values)
            expected = gen.random(values)
            assert np.array_equal(expected, block[t - 1])
            assert np.array_equal(expected, rows[t - 1])


def test_blocks_per_slot():
    # each slot fills ceil(values / 4) whole Philox blocks, so slot 2 starts
    # at that counter of the raw stream
    key = np.array([5, (1 << 2) | rng.STREAM_ARRIVALS], dtype=np.uint64)
    for values, blocks in ((1, 1), (4, 1), (5, 2), (8, 2), (9, 3)):
        rows = next(rng.slot_chunks(5, 1, rng.STREAM_ARRIVALS, values, 2))
        raw = np.random.Generator(np.random.Philox(key=key, counter=blocks))
        assert np.array_equal(rows[1], raw.random(values)), values
    with pytest.raises(ValueError, match="each slot must draw at least one value"):
        next(rng.slot_chunks(5, 1, rng.STREAM_ARRIVALS, 0, 2))


def test_slot_chunks_continue_the_path():
    for values, chunk in ((3, 1), (8, 4), (5, 7), (6, 40)):
        block = path_uniforms(7, 2, STREAM_POLICY, 20, values)
        chunks = rng.slot_chunks(7, 2, rng.STREAM_POLICY, values, chunk)
        pieces = [next(chunks) for _ in range(-(-20 // chunk))]
        assert all(p.shape == (chunk, values) for p in pieces)
        assert np.array_equal(np.concatenate(pieces)[:20], block)


def test_slot_positions_are_independent_of_consumption_order():
    # reading one stream ahead must not disturb another stream or a second
    # reader of the same stream
    ahead = rng.slot_chunks(1, 0, rng.STREAM_ARRIVALS, 4, 3)
    late = rng.slot_chunks(1, 0, rng.STREAM_ARRIVALS, 4, 3)
    other = rng.slot_chunks(1, 0, rng.STREAM_POLICY, 4, 3)
    first = [next(ahead) for _ in range(3)]
    policy = next(other)
    assert np.array_equal(np.concatenate([next(late) for _ in range(3)]), np.concatenate(first))
    assert np.array_equal(policy, path_uniforms(1, 0, STREAM_POLICY, 3, 4))
    assert not np.array_equal(first[0], first[1])


def test_streams_differ_by_kind_replication_and_seed():
    def first(seed, replication, kind):
        return next(rng.slot_chunks(seed, replication, kind, 8, 4))

    base = first(3, 1, rng.STREAM_CONNECTIVITY)
    assert not np.array_equal(base, first(3, 1, rng.STREAM_ARRIVALS))
    assert not np.array_equal(base, first(3, 1, rng.STREAM_POLICY))
    assert not np.array_equal(base, first(3, 2, rng.STREAM_CONNECTIVITY))
    assert not np.array_equal(base, first(4, 1, rng.STREAM_CONNECTIVITY))


def test_negative_seeds_wrap_into_key_space():
    a = next(rng.slot_chunks(-1, 0, rng.STREAM_POLICY, 4, 2))
    b = next(rng.slot_chunks((1 << 64) - 1, 0, rng.STREAM_POLICY, 4, 2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, path_uniforms((1 << 64) - 1, 0, STREAM_POLICY, 2, 4))


def test_guards():
    # each argument is checked at the first next, not at the call
    for replication, kind, values, message in [
        (-1, rng.STREAM_POLICY, 4, "replication index -1 out of range"),
        (rng.REPLICATION_LIMIT, rng.STREAM_POLICY, 4, f"index {rng.REPLICATION_LIMIT} out"),
        (0, 3, 4, "unknown stream kind 3"),
        (0, 9, 4, "unknown stream kind 9"),
        (0, rng.STREAM_POLICY, 0, "each slot must draw at least one value"),
    ]:
        chunks = rng.slot_chunks(0, replication, kind, values, 1)
        with pytest.raises(ValueError, match=message):
            next(chunks)
    with pytest.raises(ValueError):
        path_uniforms(0, 0, STREAM_POLICY, 0, 4)
