"""Discrete-time state evolution for parallel queues with random connectivity.

Per slot: observe the previous queue lengths, draw the Bernoulli connectivity
matrix, apply a matching, remove at most one packet from each matched
connected queue, then add the slot's Bernoulli arrivals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .matching import Pair

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


def serve(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> QueueState:
    """Queue lengths right after service, before the slot's arrivals.

    Each matched pair removes one packet when the pair is connected and the
    queue is nonempty; lengths never go below zero.
    """
    n_queues = len(x_prev)
    if len(c) != n_queues:
        raise ValueError(f"connectivity has {len(c)} rows for {n_queues} queues")
    if not m:
        return tuple(x_prev)
    out = list(x_prev)
    queues_used = 0
    servers_used = 0
    for n, k in m:
        if n < 0 or n >= n_queues or k < 0 or k >= len(c[n]):
            raise ValueError(f"matching pair ({n},{k}) out of range")
        qb = 1 << n
        sb = 1 << k
        if queues_used & qb:
            raise ValueError(f"queue {n} matched more than once")
        if servers_used & sb:
            raise ValueError(f"server {k} matched more than once")
        queues_used |= qb
        servers_used |= sb
        if c[n][k] and out[n] > 0:
            out[n] -= 1
    return tuple(out)


class SamplePath:
    """One replication's full realization of connectivities and arrivals.

    The same object (or any object rebuilt from the same seed and
    replication index) feeds every policy, which is what couples their
    trajectories onto a common probability space.
    """

    def __init__(self, params: SystemParams, seed: int, replication: int, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least one slot")
        self.params = params
        self.seed = seed
        self.replication = replication
        self.horizon = horizon
        n, k = params.n_queues, params.n_servers
        u_c = rng.path_uniforms(seed, replication, rng.STREAM_CONNECTIVITY, horizon, n * k)
        self.connectivity = (u_c < params.connect_prob).astype(np.uint8).reshape(horizon, n, k)
        u_a = rng.path_uniforms(seed, replication, rng.STREAM_ARRIVALS, horizon, n)
        self.arrivals = (u_a < params.arrival_prob).astype(np.uint8)
