"""Exact maximum weight bipartite matching between queues and servers.

Weights are exact integers end to end; no floating point enters the primary
optimizer, so weight ties are detected exactly and broken deterministically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

Pair = tuple[int, int]
Matching = tuple[Pair, ...]

# Feasible sets above this size are too large to enumerate exhaustively.
ENUMERATION_LIMIT = 25

# Widest instance the column-bitmask DP handles; wider ones fall back to the
# scipy value engine.
_DP_MAX_COLS = 16

# The fallback engine solves in float64, exact only below 2**53.
_FLOAT_EXACT_LIMIT = 2**53


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

    acc: list[Pair] = []

    def rec(row: int, free: int) -> Iterator[Matching]:
        if row == n_queues:
            yield tuple(acc)
            return
        yield from rec(row + 1, free)
        for k in range(n_servers):
            bit = 1 << k
            if free & bit:
                acc.append((row, k))
                yield from rec(row + 1, free ^ bit)
                acc.pop()

    yield from rec(0, (1 << n_servers) - 1)


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
    """Solve the slot assignment problem exactly.

    Returns the matching maximizing the total weight subject to each queue
    and each server being used at most once. Zero-weight edges are never
    included, so the result is the canonical form of the optimum. Among
    equal-weight optima the result is the lexicographically smallest sorted
    pair tuple, which makes the solver bit-reproducible.
    """
    n_queues, n_servers = validate_weight_matrix(w)
    rows = [tuple(int(v) for v in row) for row in w]

    if n_servers <= _DP_MAX_COLS:
        tail = _dp_tail_values(rows, n_queues, n_servers)
    else:
        tail = _scipy_tail_values(rows, n_queues, n_servers)

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


def max_weight_servers(w: np.ndarray) -> np.ndarray:
    """``max_weight_matching`` of every row of the (B, N, K) integer weights.

    Returns each queue's server in the row's canonical optimum, or -1 when
    the queue is unmatched, as a (B, N) array. Tail values come from a
    bitmask DP over (B, 2^K); the matching is rebuilt exactly as
    ``max_weight_matching`` rebuilds it. Wider rows are solved one at a time.
    """
    b, n, k = w.shape
    servers = np.full((b, n), -1, dtype=np.int64)
    if k > _DP_MAX_COLS:
        for row, weights in enumerate(w.tolist()):
            for q, s in max_weight_matching(weights):
                servers[row, q] = s
        return servers
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
    return servers


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


def _scipy_tail_values(rows, n_queues: int, n_servers: int):
    """Tail values via scipy's assignment solver, memoized per (row, mask)."""
    from scipy.optimize import linear_sum_assignment

    top = max(max(row) for row in rows)
    if top * min(n_queues, n_servers) >= _FLOAT_EXACT_LIMIT:
        raise ValueError("weights too large for the wide-instance solver")
    arr = np.array(rows, dtype=np.int64)
    memo: dict[tuple[int, int], int] = {}

    def tail(row: int, mask: int) -> int:
        key = (row, mask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cols = [k for k in range(n_servers) if mask & (1 << k)]
        if row == n_queues or not cols:
            val = 0
        else:
            sub = arr[row:, cols]
            ri, ci = linear_sum_assignment(sub, maximize=True)
            val = int(sub[ri, ci].sum())
        memo[key] = val
        return val

    return tail
