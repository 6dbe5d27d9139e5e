"""Balancing partial order on queue-length vectors and its verifiers.

The one-step relation holds between two equal-length vectors when one is a
componentwise reduction of the other, a transposition of two entries, or a
balancing interchange (move one packet from a strictly larger entry to a
strictly smaller one without overshooting). Its transitive closure is weak
submajorization (Marshall, Olkin & Arnold, *Inequalities: Theory of
Majorization*, 5.A.9; Muirhead 1903 for integer unit transfers), so it is
tested in closed form on sorted prefix sums. The costs in ``COST_FUNCTIONS``
are increasing and Schur-convex, so monotone with respect to it (MOA 3.A.8).

A balancing server reallocation replaces the slot's matching with one whose
post-service vector either componentwise decreases with a strict decrease
somewhere (C1) or is one balancing interchange away (C2). The sweep below
checks on every small system that each reallocation strictly increases the
matching weight, that one exists exactly when the weight is below the
optimum, and that chained reallocations reach the optimum. These checks see
a system only through its weight matrix, so each distinct matrix runs once.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .matching import (
    ENUMERATION_LIMIT,
    MAX_SERVERS,
    enumerate_matchings,
    matching_table,
    max_weight_servers,
)

QueueState = tuple[int, ...]


def validate_state(x: Sequence[int]) -> QueueState:
    """The queue-length vector ``x`` as a tuple of nonnegative ints, or ValueError."""
    out = tuple(int(v) for v in x)
    if len(out) < 1:
        raise ValueError("queue state must not be empty")
    for n, v in enumerate(out):
        if v != x[n]:
            raise ValueError(f"queue length [{n}] = {x[n]!r} is not an integer")
        if v < 0:
            raise ValueError(f"queue length [{n}] = {v} is negative")
    return out


def preceq_p(x_tilde: Sequence[int], x: Sequence[int]) -> bool:
    """Whether ``x_tilde`` is below ``x`` in the transitive closure.

    The closure is weak submajorization (MOA 5.A.9): with both vectors
    sorted in decreasing order, every prefix sum of ``x_tilde`` is at most
    the matching prefix sum of ``x``. This is ``weakly_submajorized`` on
    one row of Python integers, so entries past int64 stay exact.
    """
    if len(x_tilde) != len(x):
        raise ValueError(f"vectors have different lengths ({len(x_tilde)} vs {len(x)})")
    lower, upper = (np.array(validate_state(v), dtype=object) for v in (x_tilde, x))
    return bool(weakly_submajorized(lower, upper))


def weakly_submajorized(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``preceq_p`` over the last axis of two integer arrays, all rows at once."""
    lower_sums = np.cumsum(-np.sort(-lower, axis=-1), axis=-1)
    upper_sums = np.cumsum(-np.sort(-upper, axis=-1), axis=-1)
    return (lower_sums <= upper_sums).all(axis=-1)


# --- cost functions -------------------------------------------------------

def _integers(x: np.ndarray | Sequence[int]) -> np.ndarray:
    return x if isinstance(x, np.ndarray) else np.array(x, dtype=object)


def total_occupancy(x: np.ndarray | Sequence[int]) -> np.ndarray | int:
    """Total packet count over the last axis; the system-occupancy cost."""
    return _integers(x).sum(axis=-1)


def max_queue(x: np.ndarray | Sequence[int]) -> np.ndarray | int:
    return _integers(x).max(axis=-1)


def sum_of_squares(x: np.ndarray | Sequence[int]) -> np.ndarray | int:
    return (_integers(x) ** 2).sum(axis=-1)


# Each cost reduces the last axis: int64 states give int64 costs, and a
# sequence is read as Python ints, exact past int64 for SimConfig's gate.
COST_FUNCTIONS: dict[str, Callable[[np.ndarray | Sequence[int]], np.ndarray | int]] = {
    "total_occupancy": total_occupancy,
    "max_queue": max_queue,
    "sum_of_squares": sum_of_squares,
}


# --- balancing server reallocations ---------------------------------------

# Narrow (int32 or bool) cells of one sweep block's (matching, matching,
# instance) arrays, an instance being a weight matrix's canonical one or,
# when listing violations, an (x, c); a shape whose single instance is
# larger runs one per block.
_BLOCK_CELLS = 1 << 15


def _reallocation_kernel(
    x: np.ndarray, c: np.ndarray, table: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and balancing reallocations of every matching of B instances.

    ``x`` is (B, N) queue lengths, ``c`` is (B, N, K) connectivities and
    ``table`` comes from ``matching_table``. Returns the (B, M) matching
    weights and two (B, M, M) masks whose entry [b, i, j] says that matching
    ``j`` is a C1 or a C2 reallocation of matching ``i`` in instance ``b``.
    They are views of arrays laid out with the instance axis innermost, so
    reductions over the matching axes run along contiguous rows.

    Matching ``i`` serves a set of queues, held as an int32 bitmask ``s_i``
    (N <= 25), so the post-service vectors differ entrywise by -1, 0 or 1:
    the entries in ``s_i & ~s_j`` rise from ``i``'s outcome to ``j``'s and
    those in ``s_j & ~s_i`` fall. C1: none rises and some fall. C2: exactly
    one rises, exactly one falls, and in ``i``'s outcome the falling entry
    exceeds the rising one by at least 2, so that the interchange does not
    overshoot (with a gap of exactly 1 the two outcomes are a transposition,
    which is neither C1 nor C2).
    """
    matched, server = table
    n_queues = x.shape[1]
    x_t = x.T[None]  # (1, N, B)
    conn = c.transpose(1, 2, 0)[np.arange(n_queues), server] * matched[:, :, None]
    weights = (conn * x_t).sum(axis=1)  # (M, B)
    served = (conn != 0) & (x_t > 0)  # (M, N, B)
    bit = 1 << np.arange(n_queues, dtype=np.int32)
    s = (served * bit[:, None]).sum(axis=1, dtype=np.int32)
    rises = s[:, None] & ~s  # (M, M, B): served by i, not by j
    falls = s & ~s[:, None]  # served by j, not by i
    c1 = (rises == 0) & (falls != 0)
    c2 = (rises != 0) & (falls != 0)
    c2 &= ((rises & (rises - 1)) == 0) & ((falls & (falls - 1)) == 0)
    cand = np.flatnonzero(c2)
    i, b = cand // c2[0].size, cand % len(x)
    # frexp writes a single bit 2**q as 0.5 * 2**(q + 1)
    up = np.frexp(rises.ravel()[cand])[1] - 1
    down = np.frexp(falls.ravel()[cand])[1] - 1
    after = x_t - served
    c2.ravel()[cand] = after[i, down, b] - after[i, up, b] >= 2
    return weights.T, c1.transpose(2, 0, 1), c2.transpose(2, 0, 1)


def _distances_to_optimum(weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Fewest reallocations from each matching to a maximum weight one.

    ``weights`` is (B, M) and ``edges`` the (B, M, M) reallocation mask.
    Breadth-first search backwards from every optimum of every instance at
    once; -1 marks a matching from which no optimum is reachable.
    """
    dist = np.where(weights == weights.max(axis=1, keepdims=True), 0, -1)
    frontier = dist == 0
    step = 0
    while frontier.any():
        step += 1
        frontier = (edges & frontier[:, None, :]).any(axis=2) & (dist < 0)
        dist[frontier] = step
    return dist


# --- exhaustive sweep ------------------------------------------------------

# The sweep's checks in report order: each label and the text of its count line.
_CHECKS = {
    "weight-increase": "weight-increase violations",
    "biconditional": "existence-biconditional violations",
    "unreachable": "unreachable-optimum counterexamples",
    "solver": "solver-vs-enumeration mismatches",
}


@dataclass
class LemmaSweepReport:
    """Outcome of an exhaustive sweep over small instances."""

    max_n: int
    max_k: int
    max_x: int
    instances: int = 0
    reallocation_pairs: int = 0
    # per check label, the instances that fail it
    violations: dict[str, list[str]] = field(default_factory=lambda: {c: [] for c in _CHECKS})
    elapsed_seconds: float = 0.0

    @property
    def violation_count(self) -> int:
        return sum(len(self.violations[label]) for label in _CHECKS)


def sweep_lemmas(max_n: int, max_k: int, max_x: int) -> LemmaSweepReport:
    """Exhaustively check the reallocation properties on every small instance.

    Covers every system with 1..max_n queues, 1..max_k servers, queue
    lengths in 0..max_x, every connectivity matrix, and every matching:

    * every balancing reallocation strictly increases the matching weight;
    * a reallocation exists iff the matching weight is below the optimum;
    * chained reallocations reach a maximum weight matching;
    * the exact solver agrees with enumeration on the optimal weight.
    """
    if max_n < 1 or max_k < 1 or max_x < 0:
        raise ValueError(
            f"sweep ranges must have max_n >= 1, max_k >= 1 and max_x >= 0, "
            f"got {max_n}, {max_k} and {max_x}"
        )
    if max_n * max_k > ENUMERATION_LIMIT:
        raise ValueError(
            f"{max_n}x{max_k} exceeds the enumeration limit "
            f"({max_n * max_k} > {ENUMERATION_LIMIT})"
        )
    if max_k > MAX_SERVERS:
        raise ValueError(f"max_k must be <= {MAX_SERVERS}, the solver's limit, got {max_k}")
    report = LemmaSweepReport(max_n=max_n, max_k=max_k, max_x=max_x)
    t0 = time.perf_counter()
    for n_queues in range(1, max_n + 1):
        for n_servers in range(1, max_k + 1):
            _sweep_shape(report, n_queues, n_servers, max_x)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def _sweep_shape(
    report: LemmaSweepReport, n_queues: int, n_servers: int, max_x: int
) -> None:
    """Check every instance of one shape once per distinct weight matrix.

    Every check sees an instance (x, c) only through w = x·c: an empty or
    unconnected queue is never served, and a nonzero row n gives x_n (its
    maximum) and the connectivity row c_n (where it is positive, bit k of
    c_n being c[n][k]). The matrices are numbered by one digit per queue,
    the last queue fastest: 0 for a zero row, else (x_n - 1)(2^K - 1) + c_n.
    A block of numbers at a time is decoded to canonical instances (a zero
    row as x_n = 0, c_n = 0) and checked, and each matrix's reallocation
    pairs count once for each of the (2^K + max_x)^(zero rows) instances
    that share it. Only when a matrix fails does a second pass decode the
    instances, in the order x (last queue fastest), then the connectivity
    whose bit n * K + k is c[n][k], and list those whose matrix failed.
    Memory does not grow with the shape's matrix or instance count.
    """
    matchings = list(enumerate_matchings(n_queues, n_servers))
    table = matching_table(matchings, n_queues)
    rows = (1 << n_servers) - 1  # nonzero connectivity rows
    digits, bit = (1 + max_x * rows,) * n_queues, np.arange(n_servers)
    shape = (max_x + 1,) * n_queues + (rows + 1,) * n_queues  # x, then c_(N-1) .. c_0
    block = max(1, _BLOCK_CELLS // len(matchings) ** 2)
    report.instances += math.prod(shape) * len(matchings)
    failed = []
    for start in range(0, math.prod(digits), block):
        d = np.arange(start, min(start + block, math.prod(digits)))
        d = np.stack(np.unravel_index(d, digits), axis=1)
        x = -(-d // rows)
        c = (np.where(d > 0, d - (x - 1) * rows, 0)[:, :, None] >> bit) & 1
        pairs, found = _check_block(x, c, table, matchings)
        report.reallocation_pairs += int(pairs @ (rows + 1 + max_x) ** (d == 0).sum(axis=1))
        failed += [start + b for entries in found for b, _ in entries]
    for start in range(0, math.prod(shape) if failed else 0, block):
        inst = np.arange(start, min(start + block, math.prod(shape)))
        inst = np.stack(np.unravel_index(inst, shape), axis=1)
        x, c_rows = inst[:, :n_queues], inst[:, n_queues:][:, ::-1]
        d = np.where((x > 0) & (c_rows > 0), (x - 1) * rows + c_rows, 0)
        keep = np.isin(np.ravel_multi_index(d.T, digits), failed)
        x, c = x[keep], (c_rows[keep][:, :, None] >> bit) & 1
        for label, entries in zip(_CHECKS, _check_block(x, c, table, matchings)[1]):
            report.violations[label].extend(
                f"N={n_queues} K={n_servers} x={tuple(x[b].tolist())} "
                f"c={tuple(map(tuple, c[b].tolist()))} {detail}"
                for b, detail in entries
            )


def _check_block(
    x: np.ndarray, c: np.ndarray, table: tuple[np.ndarray, np.ndarray], matchings: list
) -> tuple[np.ndarray, list[list[tuple[int, str]]]]:
    """Run every check on B instances of one shape: (B, N) ``x``, (B, N, K) ``c``.

    Returns each instance's reallocation pair count and, for each check in
    ``_CHECKS`` order, the (instance, detail) of each violation in C order.
    """
    mw, c1, c2 = _reallocation_kernel(x, c, table)
    edges = c1 | c2
    opt = mw.max(axis=1)
    dist = _distances_to_optimum(mw, edges)
    n_out = edges.sum(axis=2)
    w = x[:, :, None] * c
    servers = max_weight_servers(w)
    solved = (w * (servers[:, :, None] == np.arange(c.shape[2]))).sum(axis=(1, 2))
    return n_out.sum(axis=1), [
        [(b, f"m={matchings[i]} -> {matchings[j]} weight {mw[b, i]} -> {mw[b, j]}")
         for b, i, j in _cells(edges & (mw[:, None, :] <= mw[:, :, None]))],
        [(b, f"m={matchings[i]} weight={mw[b, i]} opt={opt[b]} reallocations={n_out[b, i]}")
         for b, i in _cells((mw < opt[:, None]) != (n_out > 0))],
        [(b, f"m={matchings[i]} weight={mw[b, i]} opt={opt[b]}") for b, i in _cells(dist < 0)],
        [(b, f"solver={tuple((q, s) for q, s in enumerate(servers[b].tolist()) if s >= 0)}")
         for b in np.flatnonzero(solved != opt)],
    ]


def _cells(mask: np.ndarray) -> Iterable[tuple[int, ...]]:
    """Indices of the true cells of ``mask`` in C order, as ``np.nonzero``
    gives them; on a multi-axis mask it is about ten times slower."""
    return zip(*np.unravel_index(np.flatnonzero(mask), mask.shape))


def format_sweep_report(report: LemmaSweepReport) -> str:
    """Plain-text sweep report; ends with the total violation count."""
    lines = [
        "balancing reallocation sweep",
        f"  ranges: N in 1..{report.max_n}, K in 1..{report.max_k}, "
        f"queue lengths in 0..{report.max_x}",
        f"  instances checked (state, connectivity, matching): {report.instances}",
        f"  reallocation pairs checked: {report.reallocation_pairs}",
        *(f"  {text}: {len(report.violations[label])}" for label, text in _CHECKS.items()),
        f"  elapsed seconds: {report.elapsed_seconds:.3f}",
    ]
    for label in _CHECKS:
        lines += (f"  VIOLATION [{label}] {entry}" for entry in report.violations[label])
    lines.append(f"total violations: {report.violation_count}")
    return "\n".join(lines)
