"""Lockstep simulation: every (policy, replication) row advances together.

State is an integer array of shape (P, R, N), one row per configured policy
and replication. Each slot one batched kernel picks every row's matching;
every row then loses its 0/1 service vector and gains the slot's arrivals.
All rows of a replication read the same connectivities and arrivals, which
is what couples the policies.

One fact makes a shared kernel possible. Call an edge (n, k) serviceable
when queue n is nonempty and connected to server k. Every policy returns the
lexicographically smallest maximum-weight matching over the serviceable
edges under its own integer edge weights:

* ``mwm``: x_n, the weight x_n c_nk of a serviceable edge;
* each baseline: 2^(NK - 1 - key), where the edge key is n K + k for
  ``fixed_order``, the same with n replaced by the queue's rank under
  (-x_n, n) for ``greedy_lcq``, and for ``random_maximal`` the rank, under
  a stable sort, of the edge's draw among the slot's NK draws, the j-th
  serviceable edge in row-major order taking draw j.

Each baseline is the greedy maximal matching by its edge key, and distinct
power-of-two weights make that matching the unique maximum. Small systems
score every row against a table of all matchings; larger ones run ``mwm``
rows through ``matching.max_weight_servers`` and baseline rows through a
batched greedy pass.

Each chunk of slots is advanced in two passes. The speculative pass splits
it into S segments of L slots and advances them all in lockstep, one batch
of S·P·R rows a kernel call: segment 0 from the true state, every other
segment from the empty state, each on its own slots' draws. The repair pass
then goes through the boundaries in order. Where the exact state at a
boundary is not all zero, it steps slot by slot from that state, writing
over the speculative states, until every row equals them again, which may
be past the segment's end. The stitched path is exact: a slot's update is a
deterministic function of the row's state and the slot's draws, so a
speculative trajectory that meets the exact one at some slot stays on it
from then on, the coalescence that coupling from the past rests on (Propp &
Wilson, 1996). Only the number of repair steps depends on where paths meet.
S is 1, and a chunk runs slot by slot, when the P·R rows already fill a
speculative batch, when the chunk is shorter than two segments, or when
N·λ >= min(N, K): then no policy can serve the mean arrivals, the queues
grow, and segments started empty never coalesce.

Each chunk's draws are (slots, R, values) in slot order: step j of segment
s reads slot s L + j. A block keeps the states and matching weights at the
slots its caller names, so each reader asks for the slots it needs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, perm

import numpy as np

from . import matching, rng
from .matching import enumerate_matchings, matching_table, max_weight_servers
from .policies import FIXED_ORDER, GREEDY_LCQ, MWM, RANDOM_MAXIMAL

# Systems with at most this many matchings use the table kernel. The table
# also needs N*K <= matching.ENUMERATION_LIMIT, so a draw weight is below
# 2**25 and a matching has at most five pairs; every score fits in int64.
_TABLE_MAX_MATCHINGS = 256

# A chunk of slots holds about this many cells of the block's states or
# draws; it bounds the memory of long horizons.
_CHUNK_CELLS = 1 << 16

# The speculative pass advances about this many rows per kernel call, in
# segments of at least this many slots. Up to about 128 rows a kernel call
# costs little more than its fixed dispatch; shorter segments would coalesce
# too rarely before they end for the repairs to stay short.
_SPECULATIVE_ROWS = 128
_MIN_SEGMENT = 32

# Table weight of an edge that is not serviceable: a matching that uses one
# scores below the empty matching, which scores 0.
_UNSERVICEABLE = -(2**58)


@dataclass
class Block:
    """What a block of replications did under every simulated policy.

    ``occupancy`` is (P, T + 1), total occupancy summed over the block's
    replications. ``states`` is (P, R, S, N) and ``mw_index`` (P, R, S), the
    states after the S slots the caller kept and the weight x_n c_nk of the
    matching chosen at each of them.
    """

    occupancy: np.ndarray
    states: np.ndarray
    mw_index: np.ndarray


def simulate(
    config,
    names: Sequence[str],
    replications: range,
    slots: Sequence[int],
) -> Block:
    """Advance ``replications`` of a ``harness.SimConfig`` under each of ``names``.

    ``slots`` are the increasing 1-based slots whose states and matching
    weights the block keeps.
    """
    params = config.params
    n, k = params.n_queues, params.n_servers
    horizon = config.horizon
    shape = (len(names), len(replications), n)
    kernel = _kernel(n, k, names)

    chunk = min(horizon, max(1, _CHUNK_CELLS // (shape[1] * max(shape[0] * n, n * k))))
    segments = 1
    if n * params.arrival_prob < min(n, k):
        rows = shape[0] * shape[1]
        segments = max(1, min(_SPECULATIVE_ROWS // rows, chunk // _MIN_SEGMENT))
    length = -(-chunk // segments)
    chunk = segments * length
    kinds = [(rng.STREAM_CONNECTIVITY, n * k), (rng.STREAM_ARRIVALS, n)]
    if RANDOM_MAXIMAL in names:
        kinds.append((rng.STREAM_POLICY, n * k))
    streams = [
        [rng.slot_chunks(config.seed, r, kind, values, chunk) for r in replications]
        for kind, values in kinds
    ]

    # hist[0] is the state before the chunk, hist[i] the state after its slot i
    hist = np.empty((chunk + 1, *shape), dtype=np.int64)
    hist[0] = config.start_state()
    occupancy = np.empty((shape[0], horizon + 1), dtype=np.int64)
    occupancy[:, 0] = hist[0].sum(axis=(1, 2))
    slots = np.asarray(slots, dtype=np.int64)
    states = np.empty((*shape[:2], len(slots), n), dtype=np.int64)
    mw_index = np.empty(states.shape[:3], dtype=np.int64)

    for first in range(1, horizon + 1, chunk):
        size = min(chunk, horizon + 1 - first)
        conn = _next_chunk(streams[0]) < params.connect_prob
        arrivals = _next_chunk(streams[1]) < params.arrival_prob
        draws = [conn.reshape(chunk, -1, n, k), arrivals]
        if len(streams) > 2:
            draws.append(_draw_ranks(_next_chunk(streams[2])))
        _advance(kernel, hist, draws, size, length)

        occupancy[:, first : first + size] = hist[1 : size + 1].sum(axis=(2, 3)).T
        lo, hi = np.searchsorted(slots, [first, first + size])
        if lo < hi:
            pos = slots[lo:hi] - first + 1
            before = hist[pos - 1]
            served = before + arrivals[pos - 1, None] - hist[pos]
            states[:, :, lo:hi] = hist[pos].transpose(1, 2, 0, 3)
            mw_index[:, :, lo:hi] = (before * served).sum(axis=3).transpose(1, 2, 0)
        hist[0] = hist[size]

    return Block(occupancy, states, mw_index)


def _advance(kernel, hist: np.ndarray, draws: list, size: int, length: int) -> None:
    """Fill ``hist[1 : size + 1]`` from the exact ``hist[0]``, ``length`` slots a segment.

    ``draws`` are the chunk's connectivities, arrivals and, with
    ``random_maximal``, draw ranks, each (slots, R, ...) as ``_next_chunk``
    lays them out.
    """
    p, r, n = hist.shape[1:]
    segments = -(-size // length)
    span = segments * length
    states = np.zeros((p, segments, r, n), dtype=np.int64)
    states[:, 0] = hist[0]
    x = states.reshape(p, segments * r, n)
    out = hist[1 : span + 1].reshape(segments, length, p, r, n)
    by_segment = states.swapaxes(0, 1)
    for j in range(min(length, size)):
        # step j of every segment, as rows s R + r
        _step(kernel, x, *(d[j:span:length].reshape(-1, *d.shape[2:]) for d in draws))
        out[:, j] = by_segment
    reached = 0  # the last repair made hist[:reached + 1] exact
    for b in range(length, size, length):
        if b < reached or not hist[b].any():
            continue
        x = hist[b].copy()
        reached = b
        while reached < size:
            _step(kernel, x, *(d[reached] for d in draws))
            reached += 1
            if np.array_equal(x, hist[reached]):
                break
            hist[reached] = x


def _step(kernel, x: np.ndarray, conn: np.ndarray, arrivals: np.ndarray, ranks=None):
    """Advance the (P, B, N) states ``x`` in place by one slot of B rows' draws."""
    x -= kernel(x, conn, ranks)
    x += arrivals


def _next_chunk(streams) -> np.ndarray:
    """The next chunk of one stream kind, (slots, R, values) in slot order."""
    return np.stack([next(s) for s in streams], axis=1)


def _draw_ranks(u: np.ndarray) -> np.ndarray:
    """Rank of each draw among its slot's draws, under a stable sort."""
    return np.argsort(np.argsort(u, axis=-1, kind="stable"), axis=-1)


def _queue_rank(x: np.ndarray, queues: np.ndarray) -> np.ndarray:
    """Each queue's rank under (-x_n, n) in every row of the (R, N) ``x``.

    ``queues`` is ``arange(N)``.
    """
    key = x * len(queues) - queues  # larger first; distinct within a row
    return (key[:, None, :] > key[:, :, None]).sum(axis=2)


def _draw_rank(serv: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Rank of the draw each edge takes: the j-th serviceable edge takes draw j.

    ``serv`` is (B, N, K) and ``ranks`` the (B, NK) draw ranks of the slot.
    """
    flat = serv.reshape(len(ranks), -1)
    taken = flat.cumsum(axis=1) - flat  # draws of earlier serviceable edges
    return ranks.take(taken + np.arange(0, ranks.size, flat.shape[1])[:, None])


def _kernel(n: int, k: int, names: Sequence[str]):
    count = sum(comb(n, j) * perm(k, j) for j in range(min(n, k) + 1))
    if n * k <= matching.ENUMERATION_LIMIT and count <= _TABLE_MAX_MATCHINGS:
        return _TableKernel(n, k, names)
    return _SplitKernel(n, k, names)


class _TableKernel:
    """Scores every row against every matching; the first maximum wins.

    The table is sorted lexicographically by sorted pairs, so ``argmax``
    returns the canonical optimum of each row.
    """

    def __init__(self, n: int, k: int, names: Sequence[str]):
        matched, server = matching_table(sorted(enumerate_matchings(n, k)), n)
        self.served = matched.astype(np.int64)
        edges = matched[:, :, None] & (server[:, :, None] == np.arange(k))
        self.incidence = np.ascontiguousarray(edges.reshape(len(edges), -1).T, np.int64)
        self.draw_weight = 1 << np.arange(n * k - 1, -1, -1)
        # 2^(NK - 1 - key) for the edge key n * K + k, n the queue or its rank
        self.priority = self.draw_weight.reshape(n, k)
        self.queues = np.arange(n)
        self.fixed = [p for p, name in enumerate(names) if name == FIXED_ORDER]
        self.dynamic = [(p, name) for p, name in enumerate(names) if name != FIXED_ORDER]
        self.weights = {}  # per row count; the fixed rows are filled once

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        w = self.weights.get(serv.shape)
        if w is None:
            w = self.weights[serv.shape] = np.empty(serv.shape, dtype=np.int64)
            w[self.fixed] = self.priority
        for p, name in self.dynamic:
            if name == MWM:
                w[p] = x[p, :, :, None]
            elif name == GREEDY_LCQ:
                w[p] = self.priority[_queue_rank(x[p], self.queues)]
            else:
                w[p] = self.draw_weight[_draw_rank(serv[p], ranks)].reshape(w.shape[1:])
        score = np.where(serv, w, _UNSERVICEABLE).reshape(-1, len(self.incidence))
        return self.served[(score @ self.incidence).argmax(axis=1)].reshape(x.shape)


class _SplitKernel:
    """``mwm`` rows by the batched bitmask DP, baseline rows by a greedy pass."""

    def __init__(self, n: int, k: int, names: Sequence[str]):
        self.mwm = names.index(MWM) if MWM in names else None
        self.baselines = [(p, name) for p, name in enumerate(names) if name != MWM]
        self.baseline_rows = [p for p, _ in self.baselines]
        self.edges = n * k
        self.picks = min(n, k)
        self.queue_of, server_of = np.divmod(np.arange(n * k), k)
        self.conflict = (self.queue_of[:, None] == self.queue_of) | (
            server_of[:, None] == server_of
        )
        self.servers = np.arange(k)
        self.queues = np.arange(n)

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        served = np.zeros_like(x)
        if self.mwm is not None:
            served[self.mwm] = max_weight_servers(x[self.mwm, :, :, None] * c) >= 0
        if self.baselines:
            keys = np.stack(
                [self._keys(name, x[p], serv[p], ranks) for p, name in self.baselines]
            )
            rows = self.baseline_rows
            keys = np.where(serv[rows].reshape(keys.shape), keys, self.edges)
            picked = self._greedy(keys.reshape(-1, self.edges))
            served[rows] = picked.reshape(len(rows), *x.shape[1:])
        return served

    def _keys(self, name: str, x: np.ndarray, serv: np.ndarray, ranks) -> np.ndarray:
        """(B, NK) insertion keys of one baseline; smaller goes first."""
        if name == FIXED_ORDER:
            return np.broadcast_to(np.arange(self.edges), (len(x), self.edges))
        if name == GREEDY_LCQ:
            key = _queue_rank(x, self.queues)[:, :, None] * len(self.servers)
            return (key + self.servers).reshape(len(x), -1)
        return _draw_rank(serv, ranks)

    def _greedy(self, keys: np.ndarray) -> np.ndarray:
        """Service vectors of the greedy maximal matchings by (B, NK) edge keys."""
        rows = np.arange(len(keys))
        served = np.zeros((len(keys), self.queue_of[-1] + 1), dtype=np.int64)
        for _ in range(self.picks):
            e = keys.argmin(axis=1)
            hit = keys[rows, e] < self.edges
            if not hit.any():
                break
            served[rows[hit], self.queue_of[e[hit]]] = 1
            keys[self.conflict[e] & hit[:, None]] = self.edges
        return served
