"""Counter-based random streams shared by every policy.

Each (seed, replication, stream kind) triple owns an independent Philox
stream, and slot t of a stream occupies a fixed counter range that depends
only on the slot index and the per-slot draw count. The variate feeding any
given (slot, queue, server) cell therefore sits at a position determined by
(seed, replication, t, n, k) alone, never by who consumes it. That is what
lets different policies replay the identical realization of connectivities
and arrivals.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, Philox

STREAM_CONNECTIVITY = 0
STREAM_ARRIVALS = 1
STREAM_POLICY = 2

_MASK64 = (1 << 64) - 1
# Replication indices share a 64-bit key word with the 2-bit stream kind.
REPLICATION_LIMIT = 1 << 61

# Philox emits 4 output words per counter increment; one double per word.
_WORDS_PER_BLOCK = 4


def stream_key(seed: int, replication: int, kind: int) -> np.ndarray:
    """128-bit Philox key for one (seed, replication, kind) stream."""
    if not 0 <= replication < REPLICATION_LIMIT:
        raise ValueError(f"replication index {replication} out of range")
    if kind not in (STREAM_CONNECTIVITY, STREAM_ARRIVALS, STREAM_POLICY):
        raise ValueError(f"unknown stream kind {kind}")
    return np.array(
        [int(seed) & _MASK64, (replication << 2) | kind], dtype=np.uint64
    )


def blocks_per_slot(values_per_slot: int) -> int:
    """Counter blocks reserved for one slot's draws."""
    if values_per_slot < 1:
        raise ValueError("each slot must draw at least one value")
    return -(-values_per_slot // _WORDS_PER_BLOCK)


def slot_stream(
    seed: int, replication: int, kind: int, slot: int, values_per_slot: int
) -> Generator:
    """Generator positioned at the start of 1-based ``slot`` of a stream."""
    if slot < 1:
        raise ValueError(f"slot indices are 1-based, got {slot}")
    counter = (slot - 1) * blocks_per_slot(values_per_slot)
    bitgen = Philox(key=stream_key(seed, replication, kind), counter=counter)
    return Generator(bitgen)


def slot_chunks(
    seed: int, replication: int, kind: int, values_per_slot: int, chunk: int
) -> Iterator[np.ndarray]:
    """A stream's per-slot uniforms from slot 1 on, ``chunk`` slots at a time.

    Each slot's draws fill whole counter blocks, so reading the stream on in
    pieces continues at the next slot's counter offset.
    """
    gen = slot_stream(seed, replication, kind, 1, values_per_slot)
    width = blocks_per_slot(values_per_slot) * _WORDS_PER_BLOCK
    while True:
        yield gen.random((chunk, width))[:, :values_per_slot]
