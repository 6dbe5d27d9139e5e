"""Balancing partial order on queue-length vectors and its verifiers.

The one-step relation holds between two equal-length vectors when one is a
componentwise reduction of the other, a transposition of two entries, or a
balancing interchange (move one packet from a strictly larger entry to a
strictly smaller one without overshooting). Its transitive closure is weak
submajorization (Marshall, Olkin & Arnold, *Inequalities: Theory of
Majorization*, 5.A.9; Muirhead 1903 for integer unit transfers), so it is
tested in closed form on sorted prefix sums. The cost functions registered
here are monotone with respect to it.

A balancing server reallocation replaces the slot's matching with one whose
post-service vector either componentwise decreases with a strict decrease
somewhere (C1) or is one balancing interchange away (C2). The verifiers
below check, exhaustively on small systems, that every reallocation
strictly increases the matching weight and that a reallocation exists
exactly when the matching weight is below the optimum.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import product

from .matching import (
    Matching,
    Pair,
    enumerate_matchings,
    matching_weight,
    max_weight_matching,
    validate_matching,
    weight_matrix,
)
from .queueing import QueueState, serve, validate_state

REDUCTION = "reduction"
TRANSPOSITION = "transposition"
BALANCING_INTERCHANGE = "balancing_interchange"


@dataclass(frozen=True)
class OrderStep:
    """One-step relation witness; indices are (raised, lowered) for interchanges."""

    kind: str
    indices: tuple[int, int] | None = None


class BalancingChainError(RuntimeError):
    """No chain of balancing reallocations reaches a maximum weight matching.

    Raising this is a counterexample report: on every instance checked so
    far, repeated reallocations always reach the optimum.
    """


def _check_same_length(x_tilde: Sequence[int], x: Sequence[int]) -> None:
    if len(x_tilde) != len(x):
        raise ValueError(
            f"vectors have different lengths ({len(x_tilde)} vs {len(x)})"
        )


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


def reachable_below(x: Sequence[int]) -> set[QueueState]:
    """Every vector reachable from ``x``, i.e. the full lower set of ``x``.

    No member has an entry above ``max(x)``, so the set is the part of
    ``[0..max(x)]^N`` that passes ``preceq_p``.
    """
    top = validate_state(x)
    return {
        v for v in product(range(max(top) + 1), repeat=len(top)) if preceq_p(v, top)
    }


# --- cost functions -------------------------------------------------------

def total_occupancy(x: Sequence[int]) -> int:
    """Total packet count; the system-occupancy cost."""
    return sum(x)


def max_queue(x: Sequence[int]) -> int:
    return max(x)


def sum_of_squares(x: Sequence[int]) -> int:
    return sum(v * v for v in x)


def verify_monotone_on_pairs(
    fn: Callable[[Sequence[int]], float],
    pairs: Iterable[tuple[QueueState, QueueState]],
) -> list[tuple[QueueState, QueueState]]:
    """Violations of ``fn(below) <= fn(above)`` over ordered pairs; empty means pass."""
    return [(lo, hi) for lo, hi in pairs if fn(lo) > fn(hi)]


def default_monotonicity_pairs() -> list[tuple[QueueState, QueueState]]:
    """Deterministic ordered pairs used to gate cost-function registration."""
    tops = [(3, 1, 0), (2, 2, 2), (4, 0), (1, 2, 3, 0)]
    pairs = []
    for top in tops:
        for below in sorted(reachable_below(top)):
            pairs.append((below, top))
    return pairs


COST_FUNCTIONS: dict[str, Callable[[Sequence[int]], float]] = {
    "total_occupancy": total_occupancy,
    "max_queue": max_queue,
}


def register_cost_function(
    name: str,
    fn: Callable[[Sequence[int]], float],
    pairs: Iterable[tuple[QueueState, QueueState]] | None = None,
) -> None:
    """Register a cost function after checking monotonicity on ordered pairs.

    Only functions that never decrease when moving up the order may be
    registered; the check runs on ``pairs`` (default: a fixed generated
    sample) and a single violation rejects the candidate. The functions
    monotone in this order are the increasing Schur-convex ones (MOA 3.A.8);
    ``total_occupancy``, ``max_queue`` and ``sum_of_squares`` are all in
    that class.
    """
    check = list(pairs) if pairs is not None else default_monotonicity_pairs()
    bad = verify_monotone_on_pairs(fn, check)
    if bad:
        lo, hi = bad[0]
        raise ValueError(
            f"{name} is not monotone: f({lo}) = {fn(lo)} > f({hi}) = {fn(hi)}"
        )
    COST_FUNCTIONS[name] = fn


register_cost_function("sum_of_squares", sum_of_squares)


# --- balancing server reallocations ---------------------------------------

CONDITION_C1 = "C1"
CONDITION_C2 = "C2"


@dataclass(frozen=True)
class ReallocationWitness:
    """A replacement matching together with the condition its outcome satisfies."""

    original: Matching
    replacement: Matching
    condition: str


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


def _reallocation_graph(
    x_prev: Sequence[int],
    c: Sequence[Sequence[int]],
    matchings: Sequence[Matching] | None = None,
) -> tuple[Sequence[Matching], list[int], list[list[tuple[int, str]]]]:
    """Every matching of one instance, its weight and its balancing reallocations.

    ``edges[i]`` lists ``(j, condition)`` for each matching ``j`` that is a
    balancing reallocation of matching ``i``, in enumeration order. Callers
    that sweep many instances of one shape pass ``matchings`` in.
    """
    if matchings is None:
        matchings = list(enumerate_matchings(len(x_prev), len(c[0])))
    served = [serve(x_prev, c, m) for m in matchings]
    weights = [sum(x_prev[n] * c[n][k] for n, k in m) for m in matchings]
    edges: list[list[tuple[int, str]]] = []
    for i, base in enumerate(served):
        out = []
        for j, other in enumerate(served):
            if j != i:
                cond = balancing_condition(base, other)
                if cond is not None:
                    out.append((j, cond))
        edges.append(out)
    return matchings, weights, edges


def _distances_to_optimum(
    weights: Sequence[int], edges: Sequence[Sequence[tuple[int, str]]]
) -> list[int | None]:
    """Fewest reallocations from each matching to a maximum weight one.

    Breadth-first search backwards from every optimum matching; None marks a
    matching from which no optimum is reachable.
    """
    incoming: list[list[int]] = [[] for _ in weights]
    for i, out in enumerate(edges):
        for j, _ in out:
            incoming[j].append(i)
    opt = max(weights)
    dist: list[int | None] = [0 if w == opt else None for w in weights]
    queue = [i for i, d in enumerate(dist) if d == 0]
    for j in queue:  # items appended during the loop are visited in order
        for i in incoming[j]:
            if dist[i] is None:
                dist[i] = dist[j] + 1
                queue.append(i)
    return dist


def _locate(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> tuple[Sequence[Matching], list[int], list[list[tuple[int, str]]], int]:
    """The instance's reallocation graph and the index of ``m`` in it."""
    original = validate_matching(m, len(x_prev), len(c[0]))
    matchings, weights, edges = _reallocation_graph(x_prev, c)
    return matchings, weights, edges, matchings.index(original)


def iter_balancing_reallocations(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> Iterator[ReallocationWitness]:
    """All balancing server reallocations of ``m``, in enumeration order."""
    matchings, _, edges, i = _locate(x_prev, c, m)
    for j, cond in edges[i]:
        yield ReallocationWitness(matchings[i], matchings[j], cond)


def find_balancing_reallocation(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> ReallocationWitness | None:
    """First balancing server reallocation of ``m``, or None when none exists."""
    return next(iter_balancing_reallocations(x_prev, c, m), None)


def verify_lemma1(
    x_prev: Sequence[int],
    c: Sequence[Sequence[int]],
    m: Sequence[Pair],
    witness: ReallocationWitness,
) -> bool:
    """Whether the witness reallocation strictly increases the matching weight."""
    n_queues = len(x_prev)
    n_servers = len(c[0])
    original = validate_matching(m, n_queues, n_servers)
    if validate_matching(witness.original, n_queues, n_servers) != original:
        raise ValueError("witness does not refer to the given matching")
    replacement = validate_matching(witness.replacement, n_queues, n_servers)
    cond = balancing_condition(
        serve(x_prev, c, original), serve(x_prev, c, replacement)
    )
    if cond != witness.condition:
        raise ValueError(
            f"invalid witness: claims {witness.condition}, actual {cond}"
        )
    return matching_weight(x_prev, c, replacement) > matching_weight(x_prev, c, original)


def verify_lemma2_corollary1(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> bool:
    """Biconditional: weight below optimum iff some reallocation exists."""
    _, weights, edges, i = _locate(x_prev, c, m)
    return (weights[i] < max(weights)) == bool(edges[i])


def distance_to_mwm(
    x_prev: Sequence[int], c: Sequence[Sequence[int]], m: Sequence[Pair]
) -> int:
    """Fewest balancing reallocations from ``m`` to any maximum weight matching.

    Raises BalancingChainError if no maximum weight matching is reachable,
    which would be a counterexample.
    """
    matchings, weights, edges, i = _locate(x_prev, c, m)
    dist = _distances_to_optimum(weights, edges)[i]
    if dist is None:
        raise BalancingChainError(
            f"no maximum weight matching reachable from {matchings[i]} "
            f"(x_prev={tuple(x_prev)}, c={tuple(tuple(r) for r in c)})"
        )
    return dist


# --- exhaustive sweep ------------------------------------------------------

@dataclass
class LemmaSweepReport:
    """Outcome of an exhaustive sweep over small instances."""

    max_n: int
    max_k: int
    max_x: int
    instances: int = 0
    reallocation_pairs: int = 0
    weight_increase_violations: list[str] = field(default_factory=list)
    biconditional_violations: list[str] = field(default_factory=list)
    unreachable_optimum: list[str] = field(default_factory=list)
    solver_mismatches: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def violation_count(self) -> int:
        return (
            len(self.weight_increase_violations)
            + len(self.biconditional_violations)
            + len(self.unreachable_optimum)
            + len(self.solver_mismatches)
        )


def _all_connectivities(n_queues: int, n_servers: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    cells = n_queues * n_servers
    for bits in range(1 << cells):
        yield tuple(
            tuple((bits >> (n * n_servers + k)) & 1 for k in range(n_servers))
            for n in range(n_queues)
        )


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
    report = LemmaSweepReport(max_n=max_n, max_k=max_k, max_x=max_x)
    t0 = time.perf_counter()
    for n_queues in range(1, max_n + 1):
        for n_servers in range(1, max_k + 1):
            matchings = list(enumerate_matchings(n_queues, n_servers))
            for x in product(range(max_x + 1), repeat=n_queues):
                for c in _all_connectivities(n_queues, n_servers):
                    _, mw, edges = _reallocation_graph(x, c, matchings)
                    dist = _distances_to_optimum(mw, edges)
                    opt = max(mw)
                    inst = f"N={n_queues} K={n_servers} x={x} c={c}"

                    solved = max_weight_matching(weight_matrix(x, c))
                    if sum(x[n] * c[n][k] for n, k in solved) != opt:
                        report.solver_mismatches.append(f"{inst} solver={solved}")

                    report.instances += len(matchings)
                    for i, out in enumerate(edges):
                        for j, _ in out:
                            report.reallocation_pairs += 1
                            if mw[j] <= mw[i]:
                                report.weight_increase_violations.append(
                                    f"{inst} m={matchings[i]} -> {matchings[j]} "
                                    f"weight {mw[i]} -> {mw[j]}"
                                )
                        if (mw[i] < opt) != bool(out):
                            report.biconditional_violations.append(
                                f"{inst} m={matchings[i]} weight={mw[i]} opt={opt} "
                                f"reallocations={len(out)}"
                            )
                        if dist[i] is None:
                            report.unreachable_optimum.append(
                                f"{inst} m={matchings[i]} weight={mw[i]} opt={opt}"
                            )
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def format_sweep_report(report: LemmaSweepReport) -> str:
    """Plain-text sweep report; ends with the total violation count."""
    lines = [
        "balancing reallocation sweep",
        f"  ranges: N in 1..{report.max_n}, K in 1..{report.max_k}, "
        f"queue lengths in 0..{report.max_x}",
        f"  instances checked (state, connectivity, matching): {report.instances}",
        f"  reallocation pairs checked: {report.reallocation_pairs}",
        f"  weight-increase violations: {len(report.weight_increase_violations)}",
        f"  existence-biconditional violations: {len(report.biconditional_violations)}",
        f"  unreachable-optimum counterexamples: {len(report.unreachable_optimum)}",
        f"  solver-vs-enumeration mismatches: {len(report.solver_mismatches)}",
        f"  elapsed seconds: {report.elapsed_seconds:.3f}",
    ]
    for label, entries in (
        ("weight-increase", report.weight_increase_violations),
        ("biconditional", report.biconditional_violations),
        ("unreachable", report.unreachable_optimum),
        ("solver", report.solver_mismatches),
    ):
        for entry in entries:
            lines.append(f"  VIOLATION [{label}] {entry}")
    lines.append(f"total violations: {report.violation_count}")
    return "\n".join(lines)
