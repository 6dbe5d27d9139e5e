"""Lockstep simulation: every (policy, replication) row advances together.

The module also holds the system parameters, ``SystemParams``, and the
names of the four policies, each defined below by its edge weights.

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
score every row against a table of all matchings. Larger ones run every row
through a batched greedy pass, ``mwm`` rows with ``fixed_order``'s keys. An
``mwm`` row is settled whenever some matching serves every serviceable
queue: no matching weighs more than the sum of x_n over the serviceable
queues, a matching that serves them all weighs exactly that, and the
canonical optimum has no zero-weight edge, so it then serves exactly the
serviceable queues. The greedy matching shows most rows that such a
matching exists; for the rest Hall's condition decides it exactly (Hall,
1935): no set of servers may hold all the servers of more queues than it has
servers. Only the ``mwm`` rows that fail it go through
``matching.max_weight_servers``.

Each chunk of slots is advanced in two passes. The speculative pass splits
it into S segments of L slots and advances them all in lockstep, one batch
of S·P·R rows a kernel call: segment 0 from the true state, every other
segment from the empty state, each on its own slots' draws. Every boundary
whose stored state is not all zero then opens a break, and the repair pass
steps all open breaks in lockstep, one slot each a kernel call, from the
states stored at their boundaries. A break writes over the stored states
and ends where it meets them, or at the chunk's end. The stitched path is
exact: a slot's update is a deterministic function of the row's state and
the slot's draws, so a trajectory that meets another at some slot stays on
it from then on, the coalescence that coupling from the past rests on
(Propp & Wilson, 1996) and that time-parallel simulation repairs by
(Heidelberger & Stone, 1990). Only the first open break starts from an
exact state; a later one starts from a state an earlier break may still
overwrite. So a break that reaches the next open break's origin without
meeting the stored state there absorbs that break: it goes on with its own
state, and the slots the absorbed break wrote are set to -1, which no state
equals, so the absorber rewrites them all. Once one break is left it steps
alone, P·R rows a call. Only the number of repair steps depends on where
paths meet.
S is 1, and a chunk runs slot by slot, when the P·R rows already fill a
speculative batch, when the chunk is shorter than two segments, or when
N·λ >= min(N, K): then no policy can serve the mean arrivals, the queues
grow, and segments started empty never coalesce.

Each chunk's draws are (slots, R, values) in slot order: step j of segment
s reads slot s L + j. A block keeps the states and matching weights at the
slots its caller names, so each reader asks for the slots it needs, and of
the rest only two occupancy sums: its memory does not grow with the horizon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, perm

import numpy as np

from . import matching, rng
from .matching import MAX_SERVERS, enumerate_matchings, matching_table, max_weight_servers

MWM = "mwm"
RANDOM_MAXIMAL = "random_maximal"
GREEDY_LCQ = "greedy_lcq"
FIXED_ORDER = "fixed_order"

POLICY_NAMES = (MWM, RANDOM_MAXIMAL, GREEDY_LCQ, FIXED_ORDER)

# Systems with at most this many matchings use the table kernel. The table
# also needs N*K <= matching.ENUMERATION_LIMIT, so a draw weight is below
# 2**25 and a matching has at most five pairs.
_TABLE_MAX_MATCHINGS = 256

# A chunk of slots holds about this many cells of the block's states or
# draws; it bounds the memory of long horizons.
_CHUNK_CELLS = 1 << 16

# The speculative pass advances about this many rows per kernel call, in
# segments of at least this many slots. At N=4, K=2 a table-kernel call costs
# about 27 us at 8 rows and 120 us at 512, about 0.2 us a row past its fixed
# dispatch. Shorter segments would coalesce too rarely before they end, and
# would split short runs such as the 50-slot order audit, which gain nothing.
_SPECULATIVE_ROWS = 512
_MIN_SEGMENT = 32

# Table weight of an edge that is not serviceable: a matching that uses one
# scores below the empty matching, which scores 0.
_UNSERVICEABLE = -(2.0**58)


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


@dataclass
class Block:
    """What a block of replications did under every simulated policy.

    ``quarter_sums`` is (P, 2), total occupancy summed over the block's
    replications and the slots (T//2, 3T//4] and (3T//4, T]. ``states`` is
    (P, R, S, N) and ``mw_index`` (P, R, S), the states after the S slots the
    caller kept and the weight x_n c_nk of the matching chosen at each of them.
    """

    quarter_sums: np.ndarray
    states: np.ndarray
    mw_index: np.ndarray


def quarter_bounds(horizon: int) -> tuple[int, int, int]:
    """Bounds b of the stability windows: window w holds the slots (b[w], b[w + 1]]."""
    return horizon // 2, 3 * horizon // 4, horizon


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
    reads = [
        (rng.STREAM_CONNECTIVITY, n * k, lambda u: u < params.connect_prob, bool),
        (rng.STREAM_ARRIVALS, n, lambda u: u < params.arrival_prob, bool),
    ]
    if RANDOM_MAXIMAL in names:
        # ranks in the narrowest type that holds N·K, _SplitKernel's unserviceable key
        fits = (t for t in (np.int8, np.int16, np.int32) if n * k <= np.iinfo(t).max)
        reads.append((rng.STREAM_POLICY, n * k, _ranks, next(fits)))
    # each replication's draws are converted as they are read, into buffers
    # that every chunk overwrites, so no chunk of doubles is kept
    streams = [
        [rng.slot_chunks(config.seed, r, kind, values, chunk) for r in replications]
        for kind, values, _, _ in reads
    ]
    buffers = [np.empty((chunk, shape[1], values), dtype) for _, values, _, dtype in reads]
    draws = [buffers[0].reshape(chunk, -1, n, k), *buffers[1:]]

    # hist[0] is the state before the chunk, hist[i] the state after its slot i
    hist = np.empty((chunk + 1, *shape), dtype=np.int64)
    hist[0] = config.start_state()
    bounds = np.array(quarter_bounds(horizon))
    quarter_sums = np.zeros((shape[0], 2), dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    states = np.empty((*shape[:2], len(slots), n), dtype=np.int64)
    mw_index = np.empty(states.shape[:3], dtype=np.int64)

    for first in range(1, horizon + 1, chunk):
        size = min(chunk, horizon + 1 - first)
        for (_, _, convert, _), chunks, out in zip(reads, streams, buffers):
            for r, replication in enumerate(chunks):
                out[:, r] = convert(next(replication))
        _advance(kernel, hist, draws, size, length)

        # the state after slot t is hist[t - first + 1]
        cut = np.clip(bounds - first + 2, 1, size + 1)
        for w in range(2):
            quarter_sums[:, w] += hist[cut[w] : cut[w + 1]].sum(axis=(0, 2, 3))
        lo, hi = np.searchsorted(slots, [first, first + size])
        if lo < hi:
            pos = slots[lo:hi] - first + 1
            before = hist[pos - 1]
            served = before + draws[1][pos - 1, None] - hist[pos]
            states[:, :, lo:hi] = hist[pos].transpose(1, 2, 0, 3)
            mw_index[:, :, lo:hi] = (before * served).sum(axis=3).transpose(1, 2, 0)
        hist[0] = hist[size]

    return Block(quarter_sums, states, mw_index)


def _advance(kernel, hist: np.ndarray, draws: list, size: int, length: int) -> None:
    """Fill ``hist[1 : size + 1]`` from the exact ``hist[0]``, ``length`` slots a segment.

    ``draws`` are the chunk's connectivities, arrivals and, with
    ``random_maximal``, draw ranks, each (slots, R, ...) in slot order.
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
    # One entry per open break: the boundary it started from, its frontier
    # (the last slot it wrote) and its (P, R, N) state at the frontier. The
    # stored path follows from itself everywhere except just past a frontier.
    origin = np.arange(length, size, length)
    origin = origin[hist[origin].any(axis=(1, 2, 3))]
    frontier = origin.copy()
    x = hist[origin]
    while len(x) > 1:
        rows = x.swapaxes(0, 1).reshape(p, -1, n)
        at = (d.take(frontier, 0).reshape(-1, *d.shape[2:]) for d in draws)
        _step(kernel, rows, *at)
        x = rows.reshape(p, -1, r, n).swapaxes(0, 1)
        frontier += 1
        met = (x == hist.take(frontier, 0)).all(axis=(1, 2, 3))
        hist[frontier] = x
        if met.any() or frontier[-1] == size:  # the last break is the furthest
            live = ~met & (frontier < size)
            origin, frontier, x = (a[live] for a in (origin, frontier, x))
        # a break at the next one's origin absorbs it, with any break that one
        # absorbs in the same step; what they wrote is erased to -1, which no
        # state equals, so the absorber rewrites every slot of it
        absorbed = frontier[:-1] == origin[1:]
        if absorbed.any():
            absorbed = np.concatenate(([False], absorbed))
            for o, f in zip(origin[absorbed], frontier[absorbed]):
                hist[o + 1 : f + 1] = -1
            origin, frontier, x = (a[~absorbed] for a in (origin, frontier, x))
    if len(x):
        x, reached = x[0], int(frontier[0])
        while reached < size:
            _step(kernel, x, *(d[reached] for d in draws))
            reached += 1
            if (x == hist[reached]).all():
                break
            hist[reached] = x


def _step(kernel, x: np.ndarray, conn: np.ndarray, arrivals: np.ndarray, ranks=None):
    """Advance the (P, B, N) states ``x`` in place by one slot of B rows' draws."""
    x -= kernel(x, conn, ranks)
    x += arrivals


def _ranks(u: np.ndarray) -> np.ndarray:
    """Rank of each entry among its row's entries, under a stable sort.

    The rank of a queue under (-x_n, n) is ``_ranks(-x)``. The engine ranks
    each replication's draws apart, so this skips ``np.argsort``'s wrapper.
    """
    return u.argsort(axis=-1, kind="stable").argsort(axis=-1)


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
    returns the canonical optimum of each row. Scores are float64, for the
    BLAS product, and exact: a matching has at most five pairs and every edge
    weight is an integer below 2**48, so every serviceable matching scores an
    integer below 2**53, and every other scores below -2**57.
    """

    def __init__(self, n: int, k: int, names: Sequence[str]):
        matched, server = matching_table(sorted(enumerate_matchings(n, k)), n)
        self.served = matched.astype(np.int64)
        edges = matched[:, :, None] & (server[:, :, None] == np.arange(k))
        self.incidence = np.ascontiguousarray(edges.reshape(len(edges), -1).T, float)
        self.draw_weight = np.ldexp(1.0, np.arange(n * k - 1, -1, -1))
        # 2^(NK - 1 - key) for the edge key n * K + k, n the queue or its rank
        self.priority = self.draw_weight.reshape(n, k)
        self.names = names

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        w = np.empty(serv.shape)
        for p, name in enumerate(self.names):
            if name == MWM:
                w[p] = x[p, :, :, None]
            elif name == FIXED_ORDER:
                w[p] = self.priority
            elif name == GREEDY_LCQ:
                w[p] = self.priority.take(_ranks(-x[p]), 0)
            else:
                w[p] = self.draw_weight[_draw_rank(serv[p], ranks)].reshape(w.shape[1:])
        # w is this call's own, so the unserviceable edges are masked in place
        np.putmask(w, ~serv, _UNSERVICEABLE)
        best = (w.reshape(-1, len(self.incidence)) @ self.incidence).argmax(axis=1)
        return self.served.take(best, 0).reshape(x.shape)


class _SplitKernel:
    """Every row by a batched greedy pass; ``mwm`` rows it cannot certify by the DP.

    ``mwm`` rows take ``fixed_order``'s edge keys. Any matching that serves
    every serviceable queue certifies its row's ``mwm`` decision:
    1. no matching weighs more than the sum of x_n over the serviceable queues;
    2. a matching that serves them all weighs exactly that, so it is maximum;
    3. the canonical optimum has no zero-weight edge, so it serves exactly
       the serviceable queues too, and ``served`` is all the engine reads.
    The greedy matching is such a matching for most rows. For the others,
    Hall's theorem decides whether one exists: it does exactly when no
    server subset T holds all the servers of more than |T| serviceable
    queues, since those queues would need more than |T| servers inside T.
    Each serviceable queue's servers form a K-bit mask, and a histogram of
    the masks summed over subsets counts the queues inside every T. Only the
    ``mwm`` rows that fail this test go to ``matching.max_weight_servers``.
    """

    def __init__(self, n: int, k: int, names: Sequence[str]):
        self.names = names
        self.mwm = names.index(MWM) if MWM in names else None
        self.edges = n * k
        self.picks = min(n, k)
        self.queue_of, server_of = np.divmod(np.arange(n * k), k)
        self.conflict = (self.queue_of[:, None] == self.queue_of) | (
            server_of[:, None] == server_of
        )
        self.servers = np.arange(k)
        self.bits = 1 << self.servers
        # |T| for every server subset T, by doubling: the subsets holding
        # server s are those without it plus one
        self.sizes = np.zeros(1, dtype=np.int8)
        for _ in range(k):
            self.sizes = np.concatenate([self.sizes, self.sizes + 1])

    def __call__(self, x: np.ndarray, c: np.ndarray, ranks) -> np.ndarray:
        serv = (x > 0)[..., None] & c
        keys = np.stack(
            [self._keys(name, x[p], serv[p], ranks) for p, name in enumerate(self.names)]
        )
        keys = np.where(serv.reshape(keys.shape), keys, self.edges)
        served = self._greedy(keys.reshape(-1, self.edges)).reshape(x.shape)
        if self.mwm is not None:
            m = self.mwm
            serviceable = serv[m].any(axis=2)
            open_rows = np.flatnonzero((serviceable > served[m]).any(axis=1))
            if len(open_rows):
                hall = self._hall(serv[m, open_rows])
                served[m, open_rows[hall]] = serviceable[open_rows[hall]]
                dp = open_rows[~hall]
                served[m, dp] = max_weight_servers(x[m, dp, :, None] * c[dp]) >= 0
        return served

    def _hall(self, serv: np.ndarray) -> np.ndarray:
        """Whether a matching serves every serviceable queue of each (B, N, K) row.

        By Hall's theorem it does exactly when no server subset T holds the
        servers of more than |T| serviceable queues.
        """
        masks = serv.dot(self.bits)
        # the DP's tail-table budget bounds the (rows, 2^K) count table too
        block = max(1, matching._TAIL_CELLS >> len(self.servers))
        return np.concatenate(
            [self._hall_block(masks[i : i + block]) for i in range(0, len(masks), block)]
        )

    def _hall_block(self, masks: np.ndarray) -> np.ndarray:
        """Hall's condition for each row of the (B, N) K-bit server masks."""
        b, k = len(masks), len(self.servers)
        shift = np.arange(b)[:, None] << k
        counts = np.bincount((masks + shift).ravel(), minlength=b << k).reshape(b, -1)
        counts[:, 0] = 0  # the queues with no serviceable edge
        for s in range(k):
            # each subset holding server s gains the count of that subset without it
            v = counts.reshape(b, -1, 2, 1 << s)
            v[:, :, 1] += v[:, :, 0]
        return (counts <= self.sizes).all(axis=1)

    def _keys(self, name: str, x: np.ndarray, serv: np.ndarray, ranks) -> np.ndarray:
        """(B, NK) insertion keys of one policy's rows; smaller goes first."""
        if name in (FIXED_ORDER, MWM):
            return np.broadcast_to(np.arange(self.edges), (len(x), self.edges))
        if name == GREEDY_LCQ:
            key = _ranks(-x)[:, :, None] * len(self.servers)
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
