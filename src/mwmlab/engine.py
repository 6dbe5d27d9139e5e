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
rows through a batched bitmask DP and baseline rows through a batched
greedy pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, perm

import numpy as np

from . import matching, rng
from .matching import enumerate_matchings, matching_table, max_weight_matching
from .policies import FIXED_ORDER, GREEDY_LCQ, MWM, RANDOM_MAXIMAL

# Systems with at most this many matchings use the table kernel. The table
# also needs N*K <= matching.ENUMERATION_LIMIT, so a draw weight is below
# 2**25 and a matching has at most five pairs; every score fits in int64.
_TABLE_MAX_MATCHINGS = 256

# A chunk of slots holds about this many cells of the block's states or
# draws; it bounds the memory of long horizons.
_CHUNK_CELLS = 1 << 16

# Table weight of an edge that is not serviceable: a matching that uses one
# scores below the empty matching, which scores 0.
_UNSERVICEABLE = -(2**58)


@dataclass
class Block:
    """What a block of replications did under every simulated policy.

    ``occupancy`` is (P, T + 1), total occupancy summed over the block's
    replications. ``sampled`` is (P, R, S, N), the states at the S sampled
    slots. ``recorded`` is (P, R, n_rec, N) and ``mw_index`` (P, R, n_rec),
    the states and the chosen matching's weight x_n c_nk at every
    ``record_interval``-th slot.
    """

    occupancy: np.ndarray
    sampled: np.ndarray
    recorded: np.ndarray
    mw_index: np.ndarray


def simulate(
    config,
    names: Sequence[str],
    replications: range,
    sampled: Sequence[int],
) -> Block:
    """Advance ``replications`` of a ``harness.SimConfig`` under each of ``names``."""
    params = config.params
    n, k = params.n_queues, params.n_servers
    horizon, interval = config.horizon, config.record_interval
    shape = (len(names), len(replications), n)
    x = np.empty(shape, dtype=np.int64)
    x[...] = config.start_state()
    kernel = _kernel(n, k, names, len(replications))

    chunk = min(horizon, max(1, _CHUNK_CELLS // (shape[1] * max(shape[0] * n, n * k))))
    kinds = [(rng.STREAM_CONNECTIVITY, n * k), (rng.STREAM_ARRIVALS, n)]
    if RANDOM_MAXIMAL in names:
        kinds.append((rng.STREAM_POLICY, n * k))
    streams = [
        [rng.slot_chunks(config.seed, r, kind, values, chunk) for r in replications]
        for kind, values in kinds
    ]

    occupancy = np.empty((shape[0], horizon + 1), dtype=np.int64)
    occupancy[:, 0] = x.sum(axis=(1, 2))
    sampled_states = np.empty((*shape[:2], len(sampled), n), dtype=np.int64)
    recorded = np.empty((*shape[:2], horizon // interval, n), dtype=np.int64)
    mw_index = np.empty(recorded.shape[:3], dtype=np.int64)
    # hist[0] is the state before the chunk, hist[i] the state after its slot i
    hist = np.empty((chunk + 1, *shape), dtype=np.int64)

    for first in range(1, horizon + 1, chunk):
        size = min(chunk, horizon + 1 - first)
        conn = _next_chunk(streams[0], size) < params.connect_prob
        conn = conn.reshape(size, shape[1], n, k)
        arrivals = _next_chunk(streams[1], size) < params.arrival_prob
        ranks = [None] * size
        if len(streams) > 2:
            ranks = _draw_ranks(_next_chunk(streams[2], size))

        hist[0] = x
        for i in range(size):
            x -= kernel(x, conn[i], ranks[i])
            x += arrivals[i]
            hist[i + 1] = x

        occupancy[:, first : first + size] = hist[1 : size + 1].sum(axis=(2, 3)).T
        for j, t in enumerate(sampled):
            if first <= t < first + size:
                sampled_states[:, :, j] = hist[t - first + 1]
        slots = np.arange(-(-first // interval) * interval, first + size, interval)
        if slots.size:
            pos = slots - first + 1
            before = hist[pos - 1]
            served = before + arrivals[pos - 1, None] - hist[pos]
            lo = slots[0] // interval - 1
            recorded[:, :, lo : lo + slots.size] = hist[pos].transpose(1, 2, 0, 3)
            weights = (before * served).sum(axis=3)
            mw_index[:, :, lo : lo + slots.size] = weights.transpose(1, 2, 0)

    return Block(occupancy, sampled_states, recorded, mw_index)


def _next_chunk(streams, size: int) -> np.ndarray:
    """The next ``size`` slots of one stream kind, (size, R, values)."""
    return np.stack([next(s) for s in streams], axis=1)[:size]


def _draw_ranks(u: np.ndarray) -> np.ndarray:
    """Rank of each draw among its slot's draws, under a stable sort."""
    return np.argsort(np.argsort(u, axis=-1, kind="stable"), axis=-1)


def _queue_rank(x: np.ndarray, queues: np.ndarray) -> np.ndarray:
    """Each queue's rank under (-x_n, n) in every row of the (R, N) ``x``.

    ``queues`` is ``arange(N)``.
    """
    key = x * len(queues) - queues  # larger first; distinct within a row
    return (key[:, None, :] > key[:, :, None]).sum(axis=2)


def _draw_rank(serv: np.ndarray, ranks: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rank of the draw each edge takes: the j-th serviceable edge takes draw j.

    ``serv`` is (R, N, K), ``ranks`` the (R, NK) draw ranks of the slot and
    ``offsets`` the start of each row in ``ranks``.
    """
    flat = serv.reshape(len(ranks), -1)
    taken = flat.cumsum(axis=1) - flat  # draws of earlier serviceable edges
    return ranks.take(taken + offsets)


def _kernel(n: int, k: int, names: Sequence[str], n_rep: int):
    count = sum(comb(n, j) * perm(k, j) for j in range(min(n, k) + 1))
    if n * k <= matching.ENUMERATION_LIMIT and count <= _TABLE_MAX_MATCHINGS:
        return _TableKernel(n, k, names, n_rep)
    return _SplitKernel(n, k, names, n_rep)


class _TableKernel:
    """Scores every row against every matching; the first maximum wins.

    The table is sorted lexicographically by sorted pairs, so ``argmax``
    returns the canonical optimum of each row.
    """

    def __init__(self, n: int, k: int, names: Sequence[str], n_rep: int):
        matched, server = matching_table(sorted(enumerate_matchings(n, k)), n)
        self.served = matched.astype(np.int64)
        edges = matched[:, :, None] & (server[:, :, None] == np.arange(k))
        self.incidence = np.ascontiguousarray(edges.reshape(len(edges), -1).T, np.int64)
        self.rows = len(names) * n_rep
        self.draw_weight = 1 << np.arange(n * k - 1, -1, -1)
        # 2^(NK - 1 - key) for the edge key n * K + k, n the queue or its rank
        self.priority = self.draw_weight.reshape(n, k)
        self.offsets = np.arange(n_rep)[:, None] * (n * k)
        self.queues = np.arange(n)
        self.weights = np.empty((len(names), n_rep, n, k), dtype=np.int64)
        self.dynamic = []
        for p, name in enumerate(names):
            if name == FIXED_ORDER:
                self.weights[p] = self.priority
            else:
                self.dynamic.append((p, name))

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        w = self.weights
        for p, name in self.dynamic:
            if name == MWM:
                w[p] = x[p, :, :, None]
            elif name == GREEDY_LCQ:
                w[p] = self.priority[_queue_rank(x[p], self.queues)]
            else:
                rho = _draw_rank(serv[p], ranks, self.offsets)
                w[p] = self.draw_weight[rho].reshape(w.shape[1:])
        score = np.where(serv, w, _UNSERVICEABLE).reshape(self.rows, -1)
        return self.served[(score @ self.incidence).argmax(axis=1)].reshape(x.shape)


class _SplitKernel:
    """``mwm`` rows by a batched bitmask DP, baseline rows by a greedy pass."""

    def __init__(self, n: int, k: int, names: Sequence[str], n_rep: int):
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
        self.offsets = np.arange(n_rep)[:, None] * (n * k)
        self.queues = np.arange(n)
        self.bits = 1 << self.servers

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        served = np.zeros_like(x)
        if self.mwm is not None:
            served[self.mwm] = self._mwm(x[self.mwm, :, :, None] * c)
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
        """(R, NK) insertion keys of one baseline; smaller goes first."""
        if name == FIXED_ORDER:
            return np.broadcast_to(np.arange(self.edges), (len(x), self.edges))
        if name == GREEDY_LCQ:
            key = _queue_rank(x, self.queues)[:, :, None] * len(self.servers)
            return (key + self.servers).reshape(len(x), -1)
        return _draw_rank(serv, ranks, self.offsets)

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

    def _mwm(self, w: np.ndarray) -> np.ndarray:
        """Service vectors of the canonical optima of the (B, N, K) weights.

        Tail values come from a bitmask DP over (B, 2^K); the matching is
        rebuilt exactly as ``max_weight_matching`` rebuilds it.
        """
        b, n, k = w.shape
        served = np.zeros((b, n), dtype=np.int64)
        if k > matching._DP_MAX_COLS:
            for row, weights in enumerate(w.tolist()):
                for q, _ in max_weight_matching(weights):
                    served[row, q] = 1
            return served
        # tails[q][:, mask]: best weight of queues q.. on the free servers in
        # mask. It never falls as mask grows, so a zero weight changes nothing.
        tails = np.zeros((n + 1, b, 1 << k), dtype=np.int64)
        nonzero = w.any(axis=0).tolist()
        for q in range(n - 1, -1, -1):
            after, best = tails[q + 1], tails[q]
            best[...] = after
            for s in range(k):
                if nonzero[q][s]:
                    # masks holding server s, next to the same masks without it
                    free = best.reshape(b, -1, 2, 1 << s)[:, :, 1]
                    taken = after.reshape(b, -1, 2, 1 << s)[:, :, 0]
                    np.maximum(free, taken + w[:, q, s, None, None], out=free)
        rows = np.arange(b)
        mask = np.full(b, (1 << k) - 1)
        target = tails[0][:, -1].copy()
        for q in range(n):
            live = target > 0
            if not live.any():
                break
            wq = w[:, q]
            rest = tails[q + 1][rows[:, None], mask[:, None] ^ self.bits]
            fits = ((mask[:, None] & self.bits) != 0) & (wq > 0) & live[:, None]
            fits &= wq + rest == target[:, None]
            pick = fits.any(axis=1)
            s = fits.argmax(axis=1)
            served[pick, q] = 1
            target -= np.where(pick, wq[rows, s], 0)
            mask ^= np.where(pick, self.bits[s], 0)
        return served
