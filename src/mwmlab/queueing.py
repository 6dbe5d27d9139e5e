"""System parameters and queue states of parallel queues with random connectivity.

This module holds only the validated ``SystemParams`` and the queue-state
check. The slot dynamics, service by the chosen matching and then the
slot's arrivals, live in ``mwmlab.engine`` for every policy and replication
at once; ``tests/reference.py`` holds the one-slot update they are checked
against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .matching import MAX_SERVERS

QueueState = tuple[int, ...]


@dataclass(frozen=True)
class SystemParams:
    """Symmetric system: every queue shares one arrival and one connectivity rate."""

    n_queues: int
    n_servers: int
    connect_prob: float
    arrival_prob: float

    def __post_init__(self):
        if self.n_queues < 1:
            raise ValueError(f"n_queues must be >= 1, got {self.n_queues}")
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.n_servers > MAX_SERVERS:
            raise ValueError(
                f"n_servers must be <= {MAX_SERVERS}, the solver's limit, "
                f"got {self.n_servers}"
            )
        if not 0.0 <= self.connect_prob <= 1.0:
            raise ValueError(
                f"connect_prob must be within [0, 1], got {self.connect_prob}"
            )
        if not 0.0 <= self.arrival_prob <= 1.0:
            raise ValueError(
                f"arrival_prob must be within [0, 1], got {self.arrival_prob}"
            )


def validate_state(x: Sequence[int]) -> QueueState:
    out = tuple(int(v) for v in x)
    if len(out) < 1:
        raise ValueError("queue state must not be empty")
    for n, v in enumerate(out):
        if v != x[n]:
            raise ValueError(f"queue length [{n}] = {x[n]!r} is not an integer")
        if v < 0:
            raise ValueError(f"queue length [{n}] = {v} is negative")
    return out
