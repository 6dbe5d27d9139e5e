"""Exact maximum weight bipartite matching between queues and servers.

One solver, a bitmask DP over a batch of instances in int64, serves the
CLI, the engine and the sweep. No floating point enters it, so weight ties
are detected exactly and broken deterministically. A system has at most
``MAX_SERVERS`` servers, and every matching's weight must fit in int64.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations, permutations

import numpy as np

Pair = tuple[int, int]
Matching = tuple[Pair, ...]

# Feasible sets above this size are too large to enumerate exhaustively.
ENUMERATION_LIMIT = 25

# Most servers a system may have: the solver's bitmask DP keeps 2**K tail
# values per row and queue.
MAX_SERVERS = 16

_INT64_MAX = 2**63 - 1

# Cells of the (N + 1, rows, 2^K) tail table that one block of rows may use,
# 1 MiB of int64; a row larger than that (K >= 15) is a block of its own.
# The engine passes only the mwm rows where no matching serves every
# serviceable queue, and bounds its Hall count table, 2^K cells a row, by the
# same budget.
_TAIL_CELLS = 1 << 17


def validate_weight_matrix(w: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Check shape and entry constraints, returning ``(n_queues, n_servers)``."""
    n_queues = len(w)
    if n_queues < 1:
        raise ValueError("weight matrix needs at least one queue row")
    n_servers = len(w[0])
    if n_servers < 1:
        raise ValueError("weight matrix needs at least one server column")
    for n, row in enumerate(w):
        if len(row) != n_servers:
            raise ValueError(
                f"weight matrix row {n} has length {len(row)}, expected {n_servers}"
            )
        for k, entry in enumerate(row):
            if int(entry) != entry:
                raise ValueError(f"weight [{n}][{k}] = {entry!r} is not an integer")
            if entry < 0:
                raise ValueError(f"weight [{n}][{k}] = {entry} is negative")
    return n_queues, n_servers


def enumerate_matchings(n_queues: int, n_servers: int) -> Iterator[Matching]:
    """Yield every valid matching of an ``n_queues`` x ``n_servers`` system once.

    Includes the empty matching. Order is deterministic: depth first over
    queues, with "leave this queue unmatched" explored before each server
    in ascending index order.
    """
    if n_queues < 1 or n_servers < 1:
        raise ValueError("need at least one queue and one server")
    if n_queues * n_servers > ENUMERATION_LIMIT:
        raise ValueError(
            f"{n_queues}x{n_servers} exceeds the enumeration limit "
            f"({n_queues * n_servers} > {ENUMERATION_LIMIT})"
        )

    queues = range(n_queues)
    matchings = (
        tuple(zip(matched, servers))
        for j in range(min(n_queues, n_servers) + 1)
        for matched in combinations(queues, j)
        for servers in permutations(range(n_servers), j)
    )
    # each queue's server, -1 when unmatched, sorts them depth first
    yield from sorted(matchings, key=lambda m: [dict(m).get(q, -1) for q in queues])


def matching_table(
    matchings: Sequence[Matching], n_queues: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per matching and queue: whether the queue is matched, and to which server."""
    matched = np.zeros((len(matchings), n_queues), dtype=bool)
    server = np.zeros((len(matchings), n_queues), dtype=np.intp)
    for i, m in enumerate(matchings):
        for n, k in m:
            matched[i, n] = True
            server[i, n] = k
    return matched, server


def max_weight_matching(w: Sequence[Sequence[int]]) -> Matching:
    """Solve the slot assignment problem exactly.

    Returns the matching maximizing the total weight subject to each queue
    and each server being used at most once. Zero-weight edges are never
    included, so the result is the canonical form of the optimum. Among
    equal-weight optima the result is the lexicographically smallest sorted
    pair tuple, which makes the solver bit-reproducible. This is
    ``max_weight_servers`` on one row, so every weight sum must fit in int64.
    """
    n_queues, n_servers = validate_weight_matrix(w)
    top = max(int(v) for row in w for v in row)
    if top * min(n_queues, n_servers) > _INT64_MAX:
        raise ValueError(
            f"weights too large: the largest entry {top} times min(N, K) = "
            f"{min(n_queues, n_servers)} exceeds 2**63 - 1"
        )
    servers = max_weight_servers(np.array(w, dtype=np.int64)[None])[0].tolist()
    return tuple((q, s) for q, s in enumerate(servers) if s >= 0)


def max_weight_servers(w: np.ndarray) -> np.ndarray:
    """The canonical optimum of every row of the (B, N, K) integer weights.

    Returns each queue's server in the row's canonical optimum, or -1 when
    the queue is unmatched, as a (B, N) array. Tail values come from a
    bitmask DP over (B, 2^K). The matching is rebuilt queue by queue, each
    taking the lowest free server that still reaches the optimum, which
    gives the lexicographically smallest optimum with no zero-weight edge.
    """
    b, n, k = w.shape
    if k > MAX_SERVERS:
        raise ValueError(f"n_servers must be <= {MAX_SERVERS}, the solver's limit, got {k}")
    servers = np.full((b, n), -1, dtype=np.int64)
    # rows are independent, so a block of them at a time bounds the tail table
    block = max(1, _TAIL_CELLS // ((n + 1) << k))
    for first in range(0, b, block):
        _solve_rows(w[first : first + block], servers[first : first + block])
    return servers


def _solve_rows(w: np.ndarray, servers: np.ndarray) -> None:
    """Write the canonical optimum of each row of ``w`` into ``servers``."""
    b, n, k = w.shape
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
    bits = 1 << np.arange(k)
    mask = np.full(b, (1 << k) - 1)
    target = tails[0][:, -1].copy()
    for q in range(n):
        live = target > 0
        if not live.any():
            break
        wq = w[:, q]
        rest = tails[q + 1][rows[:, None], mask[:, None] ^ bits]
        fits = ((mask[:, None] & bits) != 0) & (wq > 0) & live[:, None]
        fits &= wq + rest == target[:, None]
        pick = fits.any(axis=1)
        s = fits.argmax(axis=1)
        servers[pick, q] = s[pick]
        target -= np.where(pick, wq[rows, s], 0)
        mask ^= np.where(pick, bits[s], 0)
