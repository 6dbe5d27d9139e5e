"""Partial-order and reallocation verifier tests.

The independent oracle for the transitive closure is
``reference.bfs_lower_set``, a breadth-first search over the one-step moves,
checked against the closed-form order kernel on every small pair; the kernel is also checked against the scalar prefix-sum
loop ``reference.preceq_p``. The sweep's reallocation kernel and its backward search
from the optima are checked, one instance at a time, against two oracles:
the scalar ``balancing_condition`` and ``matching_weight`` of
``reference`` on every ordered pair of matchings, and a forward breadth-first search from each matching.
"""

import random
import tracemalloc
from collections import deque
from itertools import product
from math import comb, perm

import numpy as np
import pytest

import reference
from reference import (
    BALANCING_INTERCHANGE,
    CONDITION_C1,
    CONDITION_C2,
    REDUCTION,
    TRANSPOSITION,
    balancing_condition,
    bfs_lower_set,
    matching_weight,
    preceq_one,
    serve,
)

from mwmlab import balance
from mwmlab.balance import (
    COST_FUNCTIONS,
    format_sweep_report,
    max_queue,
    preceq_p,
    sweep_lemmas,
    total_occupancy,
    weakly_submajorized,
)
from mwmlab.matching import enumerate_matchings, matching_table

# x = (1, 5), c = ((1, 1), (1, 0)) and the matching that serves queue 0 by
# server 0: both its reallocations are found by hand, and one reaches the
# optimum ((0, 1), (1, 0)) of weight 6.
HAND_EXAMPLE = ((1, 5), ((1, 1), (1, 0)), ((0, 0),))


def forward_distance(x_prev, c, start):
    """Reference: fewest reallocations from ``start`` to an optimum, or None."""
    candidates = list(enumerate_matchings(len(x_prev), len(c[0])))
    weights = {cand: matching_weight(x_prev, c, cand) for cand in candidates}
    served = {cand: serve(x_prev, c, cand) for cand in candidates}
    opt = max(weights.values())
    if weights[start] == opt:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cur, dist = queue.popleft()
        base = served[cur]
        for cand in candidates:
            if cand in seen:
                continue
            if balancing_condition(base, served[cand]) is None:
                continue
            if weights[cand] == opt:
                return dist + 1
            seen.add(cand)
            queue.append((cand, dist + 1))
    return None


def kernel_graph(x, c, matchings):
    """One instance through the sweep's kernel and backward search.

    Returns each matching's weight, its ``(j, condition)`` reallocations in
    enumeration order, and its distance to an optimum (None if unreachable).
    """
    weights, c1, c2 = balance._reallocation_kernel(
        np.array([x], dtype=np.int64),
        np.array([c], dtype=np.int64),
        matching_table(matchings, len(x)),
    )
    edges = c1 | c2
    lists = [
        [(j, CONDITION_C1 if c1[0, i, j] else CONDITION_C2)
         for j in np.flatnonzero(row).tolist()]
        for i, row in enumerate(edges[0])
    ]
    dist = balance._distances_to_optimum(weights, edges)[0].tolist()
    return weights[0].tolist(), lists, [d if d >= 0 else None for d in dist]


def all_connectivities(n, k):
    for bits in range(1 << (n * k)):
        yield tuple(
            tuple((bits >> (i * k + j)) & 1 for j in range(k)) for i in range(n)
        )


def small_instances(n, k, max_x):
    """Every (x, c) of one shape with x <= max_x, and the hand example of its shape."""
    for x in product(range(max_x + 1), repeat=n):
        yield from ((x, c) for c in all_connectivities(n, k))
    if (n, k) == (2, 2):
        yield HAND_EXAMPLE[:2]


class TestPreceqOne:
    def test_balancing_interchange(self):
        step = preceq_one((1, 2), (0, 3))
        assert step is not None and step.kind == BALANCING_INTERCHANGE
        assert step.indices == (0, 1)

    def test_transposition(self):
        step = preceq_one((2, 1), (1, 2))
        assert step is not None and step.kind == TRANSPOSITION

    def test_unrelated(self):
        assert preceq_one((2, 2), (0, 3)) is None

    def test_reduction_and_equality(self):
        assert preceq_one((0, 1), (2, 1)).kind == REDUCTION
        assert preceq_one((2, 1), (2, 1)).kind == REDUCTION

    def test_interchange_may_not_overshoot(self):
        # moving a unit from 2 to 1 would invert the pair, not balance it
        assert preceq_one((2, 1), (1, 2)).kind == TRANSPOSITION
        assert preceq_one((3, 1), (2, 2)) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            preceq_one((1,), (1, 2))


class TestPreceqP:
    def test_reachable_through_interchange_then_reduction(self):
        assert preceq_p((1, 1), (3, 0))

    def test_reflexive(self):
        assert preceq_p((2, 0, 1), (2, 0, 1))

    def test_total_cannot_grow(self):
        assert not preceq_p((4, 0), (3, 0))

    def test_no_size_limit(self):
        assert preceq_p((0,) * 7, (0,) * 7)
        assert preceq_p((0, 0), (20, 5))
        assert preceq_p((5,) * 8, (40,) + (0,) * 7)
        assert not preceq_p((0, 26), (20, 5))
        with pytest.raises(ValueError):
            preceq_p((1,), (1, 2))

    def test_exact_past_int64(self):
        # as float64 both pairs would tie at 2**63 and pass
        assert not preceq_p((0, 2**63), (2**63 - 1, 0))
        assert not preceq_p((1, 2**63), (2**63, 0))
        assert preceq_p((2**63, 1), (2**63 + 1, 0))
        assert preceq_p((2**70, 2**70), (2**71, 0))
        assert not preceq_p((2**70, 2**70 + 1), (2**71, 0))

    def test_rejects_non_queue_vectors(self):
        with pytest.raises(ValueError):
            preceq_p((1.5,), (1,))
        with pytest.raises(ValueError):
            preceq_p((-1,), (0,))

    def test_agrees_with_submajorization_oracle_exhaustively(self):
        # every pair with n <= 4, entries <= 4 and sums <= 12: 364,375 pairs
        pairs = 0
        for n in (1, 2, 3, 4):
            vectors = [v for v in product(range(5), repeat=n) if sum(v) <= 12]
            for above in vectors:
                lower_set = bfs_lower_set(above)
                below = weakly_submajorized(np.array(vectors), np.array(above))
                assert below.tolist() == [v in lower_set for v in vectors]
                pairs += len(vectors)
        assert pairs == 364_375

    def test_vector_test_agrees_with_scalar_order(self):
        # every pair with n <= 4 and entries <= 3, all at once
        for n in (1, 2, 3, 4):
            vectors = np.array(list(product(range(4), repeat=n)))
            lower = np.repeat(vectors, len(vectors), axis=0)
            upper = np.tile(vectors, (len(vectors), 1))
            below = weakly_submajorized(lower, upper)
            assert below.tolist() == [
                reference.preceq_p(a, b) for a, b in zip(lower.tolist(), upper.tolist())
            ]
        # leading axes are kept: (R, T, N) states give (R, T) verdicts
        rnd = np.random.default_rng(5)
        lower, upper = rnd.integers(0, 6, (2, 3, 7, 5))
        verdicts = weakly_submajorized(lower, upper)
        assert verdicts.shape == (3, 7)
        for r, t in product(range(3), range(7)):
            assert verdicts[r, t] == reference.preceq_p(
                lower[r, t].tolist(), upper[r, t].tolist()
            )

    def test_transitivity_on_random_triples(self):
        rnd = random.Random(2024)
        checked = 0
        while checked < 1000:
            top = tuple(rnd.randint(0, 3) for _ in range(rnd.randint(1, 4)))
            if sum(top) > 10:
                continue
            mids = sorted(bfs_lower_set(top))
            mid = mids[rnd.randrange(len(mids))]
            bots = sorted(bfs_lower_set(mid))
            bot = bots[rnd.randrange(len(bots))]
            assert preceq_p(mid, top)
            assert preceq_p(bot, mid)
            assert preceq_p(bot, top)
            checked += 1


class TestCostFunctions:
    def test_total_occupancy_examples(self):
        assert total_occupancy((0, 0, 0)) == 0
        assert total_occupancy((1, 2, 3)) == 6

    def test_registry_contents(self):
        assert set(COST_FUNCTIONS) == {"total_occupancy", "max_queue", "sum_of_squares"}

    def test_cost_functions_monotone_on_generated_pairs(self):
        pairs = []
        for top in [(3, 1, 0), (2, 2, 2), (4, 0), (0, 1, 2, 3)]:
            pairs.extend((below, top) for below in bfs_lower_set(top))
        for name, fn in COST_FUNCTIONS.items():
            assert [(lo, hi) for lo, hi in pairs if fn(lo) > fn(hi)] == [], name

    def test_max_queue_drops_under_interchange(self):
        assert max_queue((1, 2)) <= max_queue((0, 3))


class TestReallocationGraph:
    @pytest.mark.parametrize("n, k, max_x", [(1, 1, 3), (1, 2, 3), (2, 1, 3),
                                             (2, 2, 3), (3, 1, 3), (3, 2, 3),
                                             (2, 3, 2)])
    def test_matches_scalar_classifier(self, n, k, max_x):
        matchings = list(enumerate_matchings(n, k))
        for x, c in small_instances(n, k, max_x):
            served = [serve(x, c, m) for m in matchings]
            weights, edges, _ = kernel_graph(x, c, matchings)
            assert weights == [matching_weight(x, c, m) for m in matchings]
            for i, base in enumerate(served):
                conds = [
                    (j, balancing_condition(base, other))
                    for j, other in enumerate(served)
                    if j != i
                ]
                assert edges[i] == [(j, cond) for j, cond in conds if cond]

    @pytest.mark.parametrize("n, k, count", [(25, 1, 16), (12, 2, 6)])
    def test_wide_masks_match_scalar_classifier(self, n, k, count):
        # one batch of seeded random instances; queue n - 1 is mask bit n - 1
        rnd = np.random.default_rng(n * k)
        x = rnd.integers(0, 5, (count, n))
        c = rnd.integers(0, 2, (count, n, k))
        matchings = list(enumerate_matchings(n, k))
        weights, c1, c2 = balance._reallocation_kernel(x, c, matching_table(matchings, n))
        top_interchanges = 0
        for b in range(count):
            x_b, c_b = x[b].tolist(), c[b].tolist()
            served = [serve(x_b, c_b, m) for m in matchings]
            assert weights[b].tolist() == [matching_weight(x_b, c_b, m) for m in matchings]
            conds = [[balancing_condition(base, other) for other in served] for base in served]
            assert c1[b].tolist() == [[cond == CONDITION_C1 for cond in row] for row in conds]
            assert c2[b].tolist() == [[cond == CONDITION_C2 for cond in row] for row in conds]
            top_interchanges += sum(
                cond == CONDITION_C2 and served[i][-1] != served[j][-1]
                for i, row in enumerate(conds) for j, cond in enumerate(row)
            )
        assert top_interchanges > 0

    @pytest.mark.parametrize("n, k, max_x", [(n, k, 3) for n in (1, 2, 3) for k in (1, 2)]
                             + [(2, 3, 2)])
    def test_checks_see_only_the_weight_matrix(self, n, k, max_x):
        # the sweep runs one canonical instance per w = x·c: x_n the maximum
        # of row n and c_n where it is positive, so a zero row is x_n = c_n = 0
        x, c = (np.array(v) for v in zip(*small_instances(n, k, max_x)))
        w = x[:, :, None] * c
        box = w[: ((max_x + 1) * 2**k) ** n].reshape(-1, n * k)  # less the hand example
        assert len(np.unique(box, axis=0)) == (1 + max_x * (2**k - 1)) ** n
        table = matching_table(list(enumerate_matchings(n, k)), n)

        def checks(x, c):
            weights, c1, c2 = balance._reallocation_kernel(x, c, table)
            w = x[:, :, None] * c
            servers = balance.max_weight_servers(w)
            return (weights, c1, c2, balance._distances_to_optimum(weights, c1 | c2),
                    (w * (servers[:, :, None] == np.arange(k))).sum(axis=(1, 2)))

        canonical = checks(w.max(axis=2), (w > 0).astype(c.dtype))
        for got, want in zip(checks(x, c), canonical):
            np.testing.assert_array_equal(got, want)


class TestDistanceToMwm:
    def test_matches_forward_search_oracle(self):
        # one backward search per instance gives every matching's distance
        for n, k in product(range(1, 4), range(1, 3)):
            matchings = list(enumerate_matchings(n, k))
            for x, c in small_instances(n, k, 2):
                assert kernel_graph(x, c, matchings)[2] == [
                    forward_distance(x, c, m) for m in matchings
                ]
        x, c, m = HAND_EXAMPLE
        matchings = list(enumerate_matchings(2, 2))
        _, edges, dist = kernel_graph(x, c, matchings)
        i = matchings.index(m)
        assert sorted(matchings[j] for j, _ in edges[i]) == [((0, 1), (1, 0)), ((1, 0),)]
        assert dist[i] == 1


class TestSweep:
    def test_small_sweep_clean(self):
        report = sweep_lemmas(2, 2, 1)
        assert report.violation_count == 0
        assert report.instances > 0
        assert report.reallocation_pairs > 0

    @pytest.mark.parametrize(
        "ranges", [(0, 1, 1), (1, 0, 1), (1, 1, -1), (26, 1, 0), (5, 6, 0), (1, 17, 0)]
    )
    def test_empty_ranges_rejected(self, ranges):
        # (26, 1, 0) and (5, 6, 0) exceed the enumeration limit and (1, 17, 0)
        # the solver's 16 servers; all fail before any work
        with pytest.raises(ValueError):
            sweep_lemmas(*ranges)

    @staticmethod
    def _report_without_time(max_n, max_k, max_x):
        text = format_sweep_report(sweep_lemmas(max_n, max_k, max_x))
        return [line for line in text.splitlines() if "elapsed seconds" not in line]

    def test_block_size_does_not_change_the_report(self, monkeypatch):
        # at (3, 2, 2) the shipped block size, 193 at N=3 and K=2, splits
        # the shape's 7**3 weight matrices
        shipped = balance._BLOCK_CELLS
        for ranges, instances in (((2, 2, 2), 1164), ((3, 2, 1), 7440), ((3, 2, 2), 24492)):
            reports = []
            for cells in (1, shipped, 1 << 30):
                monkeypatch.setattr(balance, "_BLOCK_CELLS", cells)
                reports.append(self._report_without_time(*ranges))
            assert reports[0] == reports[1] == reports[2]
            line = f"  instances checked (state, connectivity, matching): {instances}"
            assert line in reports[0]

    def test_violations_keep_instance_order_across_blocks(self, monkeypatch):
        kernel = balance._reallocation_kernel

        def drop_edges_of_two_instances(x, c, table):
            weights, c1, c2 = kernel(x, c, table)
            if c.shape[1:] == (2, 1):
                hit = (x == (1, 2)).all(axis=1) | (x == (2, 1)).all(axis=1)
                hit &= c.all(axis=(1, 2))
                c1[hit] = c2[hit] = False
            return weights, c1, c2

        monkeypatch.setattr(balance, "_reallocation_kernel", drop_edges_of_two_instances)
        # N=2, K=1 has 3 matchings and 4 connectivities an x, so at 36 cells
        # a block of the listing pass holds 4 instances: x=(1, 2) with both
        # queues connected is instance 23, in block 5, and x=(2, 1) is
        # instance 31, in block 7; the larger box runs at the shipped block size
        reports = []
        shipped = balance._BLOCK_CELLS
        for ranges, cells in (
            ((2, 1, 2), 1), ((2, 1, 2), 36), ((2, 1, 2), 1 << 30), ((4, 2, 4), shipped),
        ):
            monkeypatch.setattr(balance, "_BLOCK_CELLS", cells)
            lines = self._report_without_time(*ranges)
            reports.append([line for line in lines if "VIOLATION" in line])
        assert reports[0] == reports[1] == reports[2] == reports[3]
        first = "N=2 K=1 x=(1, 2) c=((1,), (1,))"
        second = "N=2 K=1 x=(2, 1) c=((1,), (1,))"
        assert reports[0] == [
            f"  VIOLATION [biconditional] {first} m=() weight=0 opt=2 reallocations=0",
            f"  VIOLATION [biconditional] {first} m=((0, 0),) weight=1 opt=2 "
            "reallocations=0",
            f"  VIOLATION [biconditional] {second} m=() weight=0 opt=2 reallocations=0",
            f"  VIOLATION [biconditional] {second} m=((1, 0),) weight=1 opt=2 "
            "reallocations=0",
            f"  VIOLATION [unreachable] {first} m=() weight=0 opt=2",
            f"  VIOLATION [unreachable] {first} m=((0, 0),) weight=1 opt=2",
            f"  VIOLATION [unreachable] {second} m=() weight=0 opt=2",
            f"  VIOLATION [unreachable] {second} m=((1, 0),) weight=1 opt=2",
        ]

    def test_memory_does_not_grow_with_the_range(self):
        # the largest shape, N=2 and K=2, has 7 matchings and 1 + 12 * 3
        # weight-matrix digits a queue, so even the smaller range's 37**2
        # matrices take more than one block
        assert 37**2 > balance._BLOCK_CELLS // 7**2
        sweep_lemmas(2, 2, 1)
        peaks = []
        for max_x in (12, 24):
            tracemalloc.start()
            try:
                sweep_lemmas(2, 2, max_x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_instance_without_reallocations_is_reported(self, monkeypatch):
        kernel = balance._reallocation_kernel

        def drop_edges_of_one_instance(x, c, table):
            weights, c1, c2 = kernel(x, c, table)
            if c.shape[1:] == (2, 1):
                hit = (x == (1, 2)).all(axis=1) & c.all(axis=(1, 2))
                c1[hit] = c2[hit] = False
            return weights, c1, c2

        monkeypatch.setattr(balance, "_reallocation_kernel", drop_edges_of_one_instance)
        inst = "N=2 K=1 x=(1, 2) c=((1,), (1,))"
        for ranges in ((2, 1, 2), (4, 2, 4)):
            lines = self._report_without_time(*ranges)
            assert [line for line in lines if "VIOLATION" in line] == [
                f"  VIOLATION [biconditional] {inst} m=() weight=0 opt=2 reallocations=0",
                f"  VIOLATION [biconditional] {inst} m=((0, 0),) weight=1 opt=2 "
                "reallocations=0",
                f"  VIOLATION [unreachable] {inst} m=() weight=0 opt=2",
                f"  VIOLATION [unreachable] {inst} m=((0, 0),) weight=1 opt=2",
            ]
            assert lines[-1] == "total violations: 4"

    def test_failed_matrix_with_a_zero_row_lists_each_instance(self, monkeypatch):
        kernel = balance._reallocation_kernel

        def drop_edges_of_one_matrix(x, c, table):
            weights, c1, c2 = kernel(x, c, table)
            if c.shape[1:] == (2, 1):
                hit = (x[:, :, None] * c == [[0], [2]]).all(axis=(1, 2))
                c1[hit] = c2[hit] = False
            return weights, c1, c2

        monkeypatch.setattr(balance, "_reallocation_kernel", drop_edges_of_one_matrix)

        def expected(max_x):
            # w = ((0,), (2,)) is the weight matrix of max_x + 2 instances
            insts = [f"N=2 K=1 x={x} c=(({c0},), (1,))" for x, c0 in (
                ((0, 2), 0), ((0, 2), 1), *(((m, 2), 0) for m in range(1, max_x + 1))
            )]
            return [
                f"  VIOLATION [biconditional] {inst} m={m} weight=0 opt=2 reallocations=0"
                for inst in insts for m in ((), ((0, 0),))
            ] + [
                f"  VIOLATION [unreachable] {inst} m={m} weight=0 opt=2"
                for inst in insts for m in ((), ((0, 0),))
            ]

        shipped = balance._BLOCK_CELLS
        # the larger box runs at the shipped block size
        for ranges, cells in (
            ((2, 1, 2), 1), ((2, 1, 2), shipped), ((2, 1, 2), 1 << 30), ((4, 2, 4), shipped),
        ):
            monkeypatch.setattr(balance, "_BLOCK_CELLS", cells)
            lines = self._report_without_time(*ranges)
            violations = expected(ranges[2])
            assert [line for line in lines if "VIOLATION" in line] == violations
            assert lines[-1] == f"total violations: {len(violations)}"

    @pytest.mark.parametrize("ranges, instances, pairs", [
        ((3, 2, 3), 57344, 176367), ((2, 3, 3), 15488, 43023), ((4, 1, 4), 54320, 55144),
        ((3, 2, 1), 7440, 15511), ((2, 2, 16), 36108, 59968), ((2, 4, 1), 25584, 83807),
    ])
    def test_counts_are_pinned(self, ranges, instances, pairs):
        # each weight matrix's pairs count once for every instance sharing it
        report = sweep_lemmas(*ranges)
        assert (report.instances, report.reallocation_pairs) == (instances, pairs)
        assert report.violation_count == 0

    @pytest.mark.parametrize("sweep, ranges, instances, pairs", [
        ("sweep_2x2", (2, 2, 3), 2048, 2703),
        ("sweep_3x2", (3, 2, 2), 24492, 67424),
        ("sweep_4x2", (4, 2, 4), 3521180, 20489720),
        ("sweep_3x3", (3, 3, 3), 1184896, 10925103),
    ], ids=["2-2-3", "3-2-2", "4-2-4", "3-3-3"])
    def test_acceptance_boxes_check_every_instance(self, request, sweep, ranges, instances, pairs):
        # every (x, c, matching) of every shape: (max_x + 1)^N states, 2^(NK)
        # connectivities and sum_j C(N, j) P(K, j) matchings of j pairs
        max_n, max_k, max_x = ranges
        closed_form = sum(
            (max_x + 1) ** n * 2 ** (n * k)
            * sum(comb(n, j) * perm(k, j) for j in range(min(n, k) + 1))
            for n in range(1, max_n + 1) for k in range(1, max_k + 1)
        )
        report = request.getfixturevalue(sweep)
        assert report.instances == closed_form == instances
        assert report.reallocation_pairs == pairs
        assert report.violation_count == 0

    def test_solver_mismatch_is_reported(self, monkeypatch):
        solve = balance.max_weight_servers

        def drop_one_pair(w):
            servers = solve(w)
            if w.shape[1:] == (2, 2):
                servers[(w == [[1, 0], [0, 1]]).all(axis=(1, 2)), 1] = -1
            return servers

        monkeypatch.setattr(balance, "max_weight_servers", drop_one_pair)
        for ranges in ((2, 2, 1), (3, 3, 3)):
            lines = self._report_without_time(*ranges)
            assert [line for line in lines if "VIOLATION" in line] == [
                "  VIOLATION [solver] N=2 K=2 x=(1, 1) c=((1, 0), (0, 1)) solver=((0, 0),)"
            ]
            assert "  solver-vs-enumeration mismatches: 1" in lines
            assert lines[-1] == "total violations: 1"

    def test_report_formatting(self):
        report = sweep_lemmas(1, 1, 1)
        text = format_sweep_report(report)
        assert "total violations: 0" in text
        assert "instances checked" in text
