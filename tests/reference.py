"""Scalar reference implementations that the package's batched code is checked against.

Everything here works one instance and one slot at a time on Python
integers: the exact solver as a bitmask DP with its canonical
reconstruction, the per-slot deciders of the four policies, the service
update, the stream layout stated on numpy's Philox and whole sample paths
read from it, the C1/C2 classifier of balancing reallocations with the
one-step order relation it rests on, the prefix-sum test of that order's
closure, and the closure's lower sets by breadth-first search over the
one-step moves, and the three costs. None of it calls ``mwmlab``'s solver,
engine, stream layout, sweep kernel, order kernel or costs, so those are
compared against independent code.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from mwmlab.balance import QueueState, validate_state
from mwmlab.engine import FIXED_ORDER, GREEDY_LCQ, MWM, SystemParams
from mwmlab.matching import Matching, Pair, validate_weight_matrix

# --- matching -------------------------------------------------------------


def validate_matching(pairs: Iterable[Pair], n_queues: int, n_servers: int) -> Matching:
    """Canonicalize ``pairs`` to a sorted tuple, enforcing the one-to-one constraints."""
    canon = tuple(sorted((int(n), int(k)) for n, k in pairs))
    queues_used: set[int] = set()
    servers_used: set[int] = set()
    for n, k in canon:
        if not (0 <= n < n_queues and 0 <= k < n_servers):
            raise ValueError(f"pair ({n},{k}) outside a {n_queues}x{n_servers} system")
        if n in queues_used:
            raise ValueError(f"queue {n} matched more than once")
        if k in servers_used:
            raise ValueError(f"server {k} matched more than once")
        queues_used.add(n)
        servers_used.add(k)
    return canon


def weight_matrix(
    x_prev: Sequence[int], c: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Edge weights ``x_prev[n] * c[n][k]`` for the slot's assignment problem."""
    if len(c) != len(x_prev):
        raise ValueError(
            f"connectivity has {len(c)} rows for {len(x_prev)} queues"
        )
    return [[x_prev[n] * c[n][k] for k in range(len(c[n]))] for n in range(len(x_prev))]


def matching_weight(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Iterable[Pair]
) -> int:
    """Total weight ``sum(x_prev[n] * c[n][k])`` over the matched pairs."""
    n_queues = len(x_prev)
    if len(c) != n_queues:
        raise ValueError(f"connectivity has {len(c)} rows for {n_queues} queues")
    n_servers = len(c[0]) if n_queues else 0
    canon = validate_matching(m, n_queues, n_servers)
    return sum(x_prev[n] * c[n][k] for n, k in canon)


def max_weight_matching(w: Sequence[Sequence[int]]) -> Matching:
    """The canonical maximum weight matching, by a scalar bitmask DP.

    Among equal-weight optima it returns the lexicographically smallest
    sorted pair tuple, and it never includes a zero-weight edge. Entries
    may be Python integers of any size.
    """
    n_queues, n_servers = validate_weight_matrix(w)
    rows = [tuple(int(v) for v in row) for row in w]
    tail = _dp_tail_values(rows, n_queues, n_servers)

    full = (1 << n_servers) - 1
    target = tail(0, full)
    pairs: list[Pair] = []
    mask = full
    for n in range(n_queues):
        if target == 0:
            break
        wr = rows[n]
        for k in range(n_servers):
            bit = 1 << k
            wk = wr[k]
            if (mask & bit) and wk > 0 and wk + tail(n + 1, mask ^ bit) == target:
                # Matching this queue now is always lexicographically smaller
                # than any continuation that leaves it unmatched.
                pairs.append((n, k))
                mask ^= bit
                target -= wk
                break
    return tuple(pairs)


def _dp_tail_values(rows, n_queues: int, n_servers: int):
    """Exact integer DP: value(row, free_mask) of the best tail matching."""
    size = 1 << n_servers
    tails = [[0] * size for _ in range(n_queues + 1)]
    for row in range(n_queues - 1, -1, -1):
        wr = rows[row]
        nxt = tails[row + 1]
        cur = tails[row]
        for mask in range(size):
            best = nxt[mask]
            rem = mask
            while rem:
                bit = rem & -rem
                wk = wr[bit.bit_length() - 1]
                if wk:
                    v = wk + nxt[mask ^ bit]
                    if v > best:
                        best = v
                rem ^= bit
            cur[mask] = best
    return lambda row, mask: tails[row][mask]


# --- policies -------------------------------------------------------------


def decide_mwm(x_prev: Sequence[int], c: Sequence[Sequence[int]]) -> Matching:
    """Matching that maximizes the total served backlog this slot."""
    return max_weight_matching(weight_matrix(x_prev, c))


def _serviceable_edges(x_prev, c) -> list[tuple[int, int]]:
    return [
        (n, k)
        for n in range(len(x_prev))
        for k in range(len(c[n]))
        if c[n][k] and x_prev[n] > 0
    ]


def _maximal_from_order(edges, order) -> Matching:
    queues_used = 0
    servers_used = 0
    chosen = []
    for idx in order:
        n, k = edges[idx]
        qb = 1 << n
        sb = 1 << k
        if not (queues_used & qb) and not (servers_used & sb):
            chosen.append((n, k))
            queues_used |= qb
            servers_used |= sb
    return tuple(sorted(chosen))


def random_maximal_from_uniforms(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], u: Sequence[float]
) -> Matching:
    """Maximal matching built by inserting serviceable edges in the random
    order induced by one uniform draw per edge."""
    edges = _serviceable_edges(x_prev, c)
    if not edges:
        return ()
    keys = np.asarray(u[: len(edges)])
    if keys.shape[0] < len(edges):
        raise ValueError(f"need {len(edges)} uniforms, got {keys.shape[0]}")
    order = np.argsort(keys, kind="stable")
    return _maximal_from_order(edges, order)


def decide_greedy_lcq(x_prev: Sequence[int], c: Sequence[Sequence[int]]) -> Matching:
    """Repeatedly serve the longest still-unmatched connected queue.

    Queue ties break toward the lower index; each pick takes its lowest-index
    free connected server.
    """
    n_queues = len(x_prev)
    queues_used = 0
    servers_used = 0
    chosen = []
    while True:
        best = None  # (length, queue, server) with length maximized
        for n in range(n_queues):
            if queues_used & (1 << n) or x_prev[n] <= 0:
                continue
            server = None
            for k in range(len(c[n])):
                if c[n][k] and not (servers_used & (1 << k)):
                    server = k
                    break
            if server is None:
                continue
            if best is None or x_prev[n] > best[0]:
                best = (x_prev[n], n, server)
        if best is None:
            return tuple(sorted(chosen))
        _, n, k = best
        chosen.append((n, k))
        queues_used |= 1 << n
        servers_used |= 1 << k


def decide_fixed_order(x_prev: Sequence[int], c: Sequence[Sequence[int]]) -> Matching:
    """Scan queues by index; give each nonempty one its lowest free connected server."""
    servers_used = 0
    chosen = []
    for n in range(len(x_prev)):
        if x_prev[n] <= 0:
            continue
        for k in range(len(c[n])):
            if c[n][k] and not (servers_used & (1 << k)):
                chosen.append((n, k))
                servers_used |= 1 << k
                break
    return tuple(chosen)


DETERMINISTIC_DECIDERS = {
    MWM: decide_mwm,
    GREEDY_LCQ: decide_greedy_lcq,
    FIXED_ORDER: decide_fixed_order,
}


# --- slot dynamics and sample paths ---------------------------------------


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


# The stream layout of the README's determinism contract: the stream of
# (seed, replication, kind) is Philox-4x64 under the key
# [seed mod 2^64, replication << 2 | kind], each counter step gives four
# doubles, and slot t of a stream drawing v values a slot starts at counter
# (t - 1) * ceil(v / 4) and reads the first v of them.
STREAM_CONNECTIVITY, STREAM_ARRIVALS, STREAM_POLICY = 0, 1, 2


def slot_stream(
    seed: int, replication: int, kind: int, slot: int, values_per_slot: int
) -> np.random.Generator:
    """Generator at the start of 1-based ``slot`` of a stream."""
    key = np.array([seed % 2**64, replication << 2 | kind], dtype=np.uint64)
    counter = (slot - 1) * -(-values_per_slot // 4)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def path_uniforms(
    seed: int, replication: int, kind: int, horizon: int, values_per_slot: int
) -> np.ndarray:
    """Uniforms for slots 1..horizon of a stream, shape (horizon, values_per_slot).

    Row t - 1 is slot t's draws: each slot's draws fill whole counter blocks,
    so slot t + 1 follows slot t's last block.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    width = 4 * -(-values_per_slot // 4)
    gen = slot_stream(seed, replication, kind, 1, values_per_slot)
    return gen.random((horizon, width))[:, :values_per_slot]


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
        u_c = path_uniforms(seed, replication, STREAM_CONNECTIVITY, horizon, n * k)
        self.connectivity = (u_c < params.connect_prob).astype(np.uint8).reshape(horizon, n, k)
        u_a = path_uniforms(seed, replication, STREAM_ARRIVALS, horizon, n)
        self.arrivals = (u_a < params.arrival_prob).astype(np.uint8)


# --- costs ----------------------------------------------------------------

def sum_of_squares(x: Sequence[int]) -> int:
    return sum(v * v for v in x)


# The package's costs by name, on one vector of Python ints.
COSTS = {"total_occupancy": sum, "max_queue": max, "sum_of_squares": sum_of_squares}


# --- balancing order and reallocations ------------------------------------

REDUCTION = "reduction"
TRANSPOSITION = "transposition"
BALANCING_INTERCHANGE = "balancing_interchange"

CONDITION_C1 = "C1"
CONDITION_C2 = "C2"


def _check_same_length(x_tilde: Sequence[int], x: Sequence[int]) -> None:
    if len(x_tilde) != len(x):
        raise ValueError(
            f"vectors have different lengths ({len(x_tilde)} vs {len(x)})"
        )


def preceq_p(x_tilde: Sequence[int], x: Sequence[int]) -> bool:
    """Whether ``x_tilde`` is below ``x`` in the transitive closure.

    The closure is weak submajorization (MOA 5.A.9): with both vectors
    sorted in decreasing order, every prefix sum of ``x_tilde`` is at most
    the matching prefix sum of ``x``.
    """
    _check_same_length(x_tilde, x)
    lower = sorted(validate_state(x_tilde), reverse=True)
    upper = sorted(validate_state(x), reverse=True)
    run = 0
    for a, b in zip(lower, upper):
        run += b - a
        if run < 0:
            return False
    return True


def _successors(v):
    """Single-step neighbors generating the same closure as the full relation.

    Unit reductions stand in for arbitrary reductions: any componentwise
    reduction is a chain of them.
    """
    n = len(v)
    for i in range(n):
        if v[i] > 0:
            yield v[:i] + (v[i] - 1,) + v[i + 1:]
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] != v[j]:
                w = list(v)
                w[i], w[j] = w[j], w[i]
                yield tuple(w)
    for i in range(n):
        for j in range(n):
            if i != j and v[j] >= v[i] + 2:
                w = list(v)
                w[i] += 1
                w[j] -= 1
                yield tuple(w)


def bfs_lower_set(x):
    """Reference closure: every vector reachable from ``x`` by one-step moves."""
    start = tuple(x)
    seen = {start}
    queue = deque([start])
    while queue:
        for s in _successors(queue.popleft()):
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


@dataclass(frozen=True)
class OrderStep:
    """One-step relation witness; indices are (raised, lowered) for interchanges."""

    kind: str
    indices: tuple[int, int] | None = None


def preceq_one(x_tilde: Sequence[int], x: Sequence[int]) -> OrderStep | None:
    """Check the one-step relation, returning which clause applies.

    Clauses are tried in order: reduction, transposition, balancing
    interchange. Returns None when none applies.
    """
    _check_same_length(x_tilde, x)
    if all(a <= b for a, b in zip(x_tilde, x)):
        return OrderStep(REDUCTION)
    diffs = [i for i in range(len(x)) if x_tilde[i] != x[i]]
    if len(diffs) != 2:
        return None
    n, m = diffs
    if x_tilde[n] == x[m] and x_tilde[m] == x[n]:
        return OrderStep(TRANSPOSITION, (n, m))
    for lo, hi in ((n, m), (m, n)):
        if (
            x_tilde[lo] == x[lo] + 1
            and x_tilde[hi] == x[hi] - 1
            and x[lo] < x_tilde[lo] <= x_tilde[hi] < x[hi]
        ):
            return OrderStep(BALANCING_INTERCHANGE, (lo, hi))
    return None


def balancing_condition(
    x_served: Sequence[int], x_served_new: Sequence[int]
) -> str | None:
    """Classify the post-service change: C1, C2, or neither.

    C1: componentwise no larger and strictly smaller somewhere.
    C2: exactly one balancing interchange apart.
    """
    _check_same_length(x_served_new, x_served)
    if all(a <= b for a, b in zip(x_served_new, x_served)) and any(
        a < b for a, b in zip(x_served_new, x_served)
    ):
        return CONDITION_C1
    step = preceq_one(x_served_new, x_served)
    if step is not None and step.kind == BALANCING_INTERCHANGE:
        return CONDITION_C2
    return None
