"""Solver checks against the exhaustive enumeration oracle and the scalar reference DP."""

import random
import tracemalloc

import numpy as np
import pytest
import reference
from hypothesis import given
from hypothesis import strategies as st
from reference import matching_weight, validate_matching, weight_matrix

from mwmlab.matching import (
    ENUMERATION_LIMIT,
    MAX_SERVERS,
    enumerate_matchings,
    max_weight_matching,
    max_weight_servers,
)

INT64_MAX = 2**63 - 1


def brute_force_max_weight(w):
    """Oracle: best weight over the full feasible set."""
    n, k = len(w), len(w[0])
    return max(
        sum(w[q][s] for q, s in m) for m in enumerate_matchings(n, k)
    )


def brute_force_canonical_optimum(w):
    """Oracle: lexicographically smallest positive-edge matching of best weight."""
    n, k = len(w), len(w[0])
    best_weight = brute_force_max_weight(w)
    candidates = [
        m
        for m in enumerate_matchings(n, k)
        if sum(w[q][s] for q, s in m) == best_weight
        and all(w[q][s] > 0 for q, s in m)
    ]
    return min(candidates)


def weights_strategy(max_dim=4, max_entry=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, max_entry), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
    )


class TestMaxWeightMatching:
    def test_two_by_two_example(self):
        assert max_weight_matching([[3, 1], [2, 4]]) == ((0, 0), (1, 1))
        assert sum((3, 4)) == 7

    def test_all_zero_weights_give_empty_matching(self):
        assert max_weight_matching([[0, 0], [0, 0]]) == ()

    def test_single_edge(self):
        assert max_weight_matching([[5]]) == ((0, 0),)

    def test_rectangular_instances(self):
        assert max_weight_matching([[1, 2, 3]]) == ((0, 2),)
        assert max_weight_matching([[1], [2], [3]]) == ((2, 0),)

    def test_zero_weight_edges_never_included(self):
        m = max_weight_matching([[4, 0], [0, 0]])
        assert m == ((0, 0),)
        m = max_weight_matching([[0, 7], [0, 0]])
        assert m == ((0, 1),)

    def test_lexicographic_tie_break(self):
        # both diagonals weigh 2; the sorted pair tuple starting (0,0) wins
        assert max_weight_matching([[1, 1], [1, 1]]) == ((0, 0), (1, 1))

    def test_determinism(self):
        w = [[2, 2, 1], [2, 0, 2], [1, 2, 2]]
        results = {max_weight_matching(w) for _ in range(20)}
        assert len(results) == 1

    @given(weights_strategy())
    def test_weight_matches_enumeration_oracle(self, w):
        m = reference.max_weight_matching(w)
        assert sum(w[q][s] for q, s in m) == brute_force_max_weight(w)

    @given(weights_strategy(max_dim=3, max_entry=3))
    def test_canonical_form_matches_oracle_exactly(self, w):
        assert reference.max_weight_matching(w) == brute_force_canonical_optimum(w)

    @given(weights_strategy())
    def test_output_satisfies_matching_invariants(self, w):
        m = max_weight_matching(w)
        validate_matching(m, len(w), len(w[0]))
        assert all(w[q][s] > 0 for q, s in m)
        assert list(m) == sorted(m)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            max_weight_matching([])
        with pytest.raises(ValueError):
            max_weight_matching([[]])
        with pytest.raises(ValueError):
            max_weight_matching([[1, 2], [3]])
        with pytest.raises(ValueError):
            max_weight_matching([[1, -2]])
        with pytest.raises(ValueError):
            max_weight_matching([[1.5]])

    def test_more_than_max_servers_rejected(self):
        assert MAX_SERVERS == 16
        w = [[0] * 17 for _ in range(2)]
        w[1][16] = 5
        with pytest.raises(ValueError, match="solver's limit"):
            max_weight_matching(w)
        with pytest.raises(ValueError, match="solver's limit"):
            max_weight_servers(np.zeros((3, 1, 17), dtype=np.int64))

    def test_weight_sums_past_int64_rejected(self):
        # the largest entry times min(N, K) bounds every sum the DP forms
        top = INT64_MAX // 2
        square = [[top, top], [top, top]]
        assert max_weight_matching(square) == ((0, 0), (1, 1))
        square[1][0] = top + 1
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            max_weight_matching(square)
        assert max_weight_matching([[INT64_MAX], [INT64_MAX], [1]]) == ((0, 0),)
        for w in ([[INT64_MAX, 1]] * 2, [[2**64]], [[1e30]]):
            with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
                max_weight_matching(w)

    def test_agrees_with_reference_at_the_int64_bound(self):
        rnd = random.Random(11)
        for _ in range(300):
            n, k = rnd.randint(1, 4), rnd.randint(1, 4)
            top = INT64_MAX // min(n, k)
            w = [[rnd.choice((0, top, top - 1, top - rnd.randint(2, 9)))
                  for _ in range(k)] for _ in range(n)]
            assert max_weight_matching(w) == reference.max_weight_matching(w), w

    def test_batched_solver_returns_each_rows_canonical_optimum(self):
        gen = np.random.default_rng(3)
        for n, k in [(1, 1), (1, 3), (3, 1), (3, 2), (2, 4), (4, 4), (5, 3)]:
            w = gen.integers(0, 4, size=(60, n, k)) * (gen.random((60, n, k)) < 0.7)
            servers = max_weight_servers(w)
            assert servers.shape == (60, n)
            for row, s in zip(w.tolist(), servers.tolist()):
                pairs = tuple((q, j) for q, j in enumerate(s) if j >= 0)
                assert pairs == brute_force_canonical_optimum(row), row
        # one row at the widest supported system, through the one-row call
        w = gen.integers(0, 6, size=(3, MAX_SERVERS)) * (gen.random((3, MAX_SERVERS)) < 0.3)
        assert max_weight_matching(w.tolist()) == reference.max_weight_matching(w.tolist())


    def test_memory_does_not_grow_with_rows_at_max_servers(self):
        gen = np.random.default_rng(4)
        w = gen.integers(0, 50, size=(16, 2, MAX_SERVERS))
        peaks = []
        for rows in (1, 16):
            tracemalloc.start()
            servers = max_weight_servers(w[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # one row's 3 x 2^16 tail table is 1.5 MiB; 16 rows at once would need 24
        assert peaks[1] < 1.5 * peaks[0] < 4 * 2**20
        assert servers.tolist() == [max_weight_servers(row[None])[0].tolist() for row in w]


class TestEnumerateMatchings:
    @pytest.mark.parametrize(
        "n,k,count", [(1, 1, 2), (2, 2, 7), (2, 1, 3), (1, 2, 3), (3, 3, 34)]
    )
    def test_counts(self, n, k, count):
        assert len(list(enumerate_matchings(n, k))) == count

    def test_unique_and_valid_and_contains_empty(self):
        ms = list(enumerate_matchings(3, 2))
        assert len(set(ms)) == len(ms)
        assert () in ms
        for m in ms:
            validate_matching(m, 3, 2)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_matchings(6, 5))
        assert ENUMERATION_LIMIT == 25
        # 5x5 sits exactly on the limit
        next(enumerate_matchings(5, 5))

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            list(enumerate_matchings(0, 3))
        with pytest.raises(ValueError):
            list(enumerate_matchings(3, 0))

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 13) for k in range(1, 13) if n * k <= 12]
    )
    def test_order_is_depth_first(self, n, k):
        # the sweep lists violations in this order, so it must not drift
        def depth_first(row, free, acc):
            if row == n:
                yield tuple(acc)
                return
            yield from depth_first(row + 1, free, acc)
            for s in range(k):
                if s in free:
                    yield from depth_first(row + 1, free - {s}, acc + [(row, s)])

        assert list(enumerate_matchings(n, k)) == list(depth_first(0, set(range(k)), []))


class TestMatchingWeight:
    def test_examples(self):
        ones = ((1, 1), (1, 1))
        assert matching_weight((2, 1), ones, [(0, 0), (1, 1)]) == 3
        assert matching_weight((2, 1), ones, []) == 0
        assert matching_weight((2, 1), ((0, 1), (1, 0)), [(0, 0), (1, 1)]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matching_weight((1, 2, 3), ((1, 1), (1, 1)), [])

    def test_invalid_matchings_rejected(self):
        ones = ((1, 1), (1, 1))
        with pytest.raises(ValueError):
            matching_weight((1, 1), ones, [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            matching_weight((1, 1), ones, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            matching_weight((1, 1), ones, [(0, 5)])
        with pytest.raises(ValueError):
            matching_weight((1, 1), ones, [(-1, 0)])

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=4),
        st.data(),
    )
    def test_invariant_under_queue_relabeling(self, x, data):
        n = len(x)
        k = data.draw(st.integers(1, 3))
        c = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
        perm = data.draw(st.permutations(range(n)))
        matchings = list(enumerate_matchings(n, k))
        m = data.draw(st.sampled_from(matchings))
        base = matching_weight(x, c, m)
        # apply the same relabeling to lengths, connectivity rows, and pairs
        x2 = [x[perm[i]] for i in range(n)]
        c2 = [c[perm[i]] for i in range(n)]
        inv = {perm[i]: i for i in range(n)}
        m2 = [(inv[q], s) for q, s in m]
        assert matching_weight(x2, c2, m2) == base


class TestWeightMatrix:
    def test_products(self):
        assert weight_matrix((2, 3), ((1, 0), (0, 1))) == [[2, 0], [0, 3]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weight_matrix((1,), ((1, 1), (1, 1)))
