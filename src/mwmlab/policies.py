"""Slot-wise server assignment policies.

Every policy is a stateless function of the queue lengths left by the
previous slot and the current connectivity matrix. All of them return the
canonical matching form: a sorted pair tuple that never contains a
disconnected pair or an empty queue.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .matching import Matching, max_weight_matching, weight_matrix

MWM = "mwm"
RANDOM_MAXIMAL = "random_maximal"
GREEDY_LCQ = "greedy_lcq"
FIXED_ORDER = "fixed_order"

POLICY_NAMES = (MWM, RANDOM_MAXIMAL, GREEDY_LCQ, FIXED_ORDER)


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
