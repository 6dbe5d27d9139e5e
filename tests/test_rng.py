"""Counter-based stream layout contracts."""

import numpy as np
import pytest
from reference import path_uniforms

from mwmlab import rng


def test_slot_stream_matches_path_rows():
    for values in (1, 3, 4, 7, 8):
        block = path_uniforms(7, 2, rng.STREAM_CONNECTIVITY, 6, values)
        assert block.shape == (6, values)
        for t in (1, 3, 6):
            gen = rng.slot_stream(7, 2, rng.STREAM_CONNECTIVITY, t, values)
            assert np.array_equal(gen.random(values), block[t - 1])


def test_slot_chunks_continue_the_path():
    for values, chunk in ((3, 1), (8, 4), (5, 7), (6, 40)):
        block = path_uniforms(7, 2, rng.STREAM_POLICY, 20, values)
        chunks = rng.slot_chunks(7, 2, rng.STREAM_POLICY, values, chunk)
        pieces = [next(chunks) for _ in range(-(-20 // chunk))]
        assert all(p.shape == (chunk, values) for p in pieces)
        assert np.array_equal(np.concatenate(pieces)[:20], block)


def test_slot_positions_are_independent_of_consumption_order():
    # reading slot 5 first must not disturb slot 2
    a = rng.slot_stream(1, 0, rng.STREAM_ARRIVALS, 5, 4).random(4)
    b = rng.slot_stream(1, 0, rng.STREAM_ARRIVALS, 2, 4).random(4)
    a2 = rng.slot_stream(1, 0, rng.STREAM_ARRIVALS, 5, 4).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_streams_differ_by_kind_replication_and_seed():
    base = path_uniforms(3, 1, rng.STREAM_CONNECTIVITY, 4, 8)
    assert not np.array_equal(base, path_uniforms(3, 1, rng.STREAM_ARRIVALS, 4, 8))
    assert not np.array_equal(base, path_uniforms(3, 1, rng.STREAM_POLICY, 4, 8))
    assert not np.array_equal(base, path_uniforms(3, 2, rng.STREAM_CONNECTIVITY, 4, 8))
    assert not np.array_equal(base, path_uniforms(4, 1, rng.STREAM_CONNECTIVITY, 4, 8))


def test_negative_seeds_wrap_into_key_space():
    a = path_uniforms(-1, 0, rng.STREAM_POLICY, 2, 4)
    b = path_uniforms((1 << 64) - 1, 0, rng.STREAM_POLICY, 2, 4)
    assert np.array_equal(a, b)


def test_blocks_per_slot():
    assert rng.blocks_per_slot(1) == 1
    assert rng.blocks_per_slot(4) == 1
    assert rng.blocks_per_slot(5) == 2
    with pytest.raises(ValueError):
        rng.blocks_per_slot(0)


def test_guards():
    with pytest.raises(ValueError):
        rng.slot_stream(0, 0, rng.STREAM_POLICY, 0, 4)
    with pytest.raises(ValueError):
        rng.stream_key(0, -1, rng.STREAM_POLICY)
    with pytest.raises(ValueError):
        rng.stream_key(0, rng.REPLICATION_LIMIT, rng.STREAM_POLICY)
    with pytest.raises(ValueError):
        rng.stream_key(0, 0, 9)
    with pytest.raises(ValueError):
        path_uniforms(0, 0, rng.STREAM_POLICY, 0, 4)
