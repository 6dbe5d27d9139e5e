"""Policy decision contracts and cross-policy optimality."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    DETERMINISTIC_DECIDERS,
    decide_fixed_order,
    decide_greedy_lcq,
    decide_mwm,
    matching_weight,
    random_maximal_from_uniforms,
    validate_matching,
)

from mwmlab import rng
from mwmlab.engine import POLICY_NAMES


def policy_gen(slot: int, n_values: int = 8, seed: int = 123):
    return rng.slot_stream(seed, 0, rng.STREAM_POLICY, slot, n_values)


def random_maximal(x, c, gen):
    """The random maximal matching on one slot's draws, one per queue-server pair."""
    return random_maximal_from_uniforms(x, c, gen.random(len(x) * len(c[0])))


def instance_strategy(max_dim=3, max_len=3):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, max_len), min_size=n, max_size=n).map(tuple),
                st.lists(
                    st.lists(st.integers(0, 1), min_size=k, max_size=k).map(tuple),
                    min_size=n,
                    max_size=n,
                ).map(tuple),
            )
        )
    )


class TestDecideMwm:
    def test_tie_broken_toward_diagonal(self):
        assert decide_mwm((2, 1), ((1, 1), (1, 1))) == ((0, 0), (1, 1))
        assert matching_weight((2, 1), ((1, 1), (1, 1)), ((0, 0), (1, 1))) == 3

    def test_empty_system(self):
        assert decide_mwm((0, 0), ((1, 1), (1, 1))) == ()

    def test_crossing_assignment(self):
        assert decide_mwm((5, 1), ((0, 1), (1, 1))) == ((0, 1), (1, 0))
        assert matching_weight((5, 1), ((0, 1), (1, 1)), ((0, 1), (1, 0))) == 6

    @given(instance_strategy())
    def test_equivariant_weight_under_queue_relabeling(self, inst):
        x, c = inst
        n = len(x)
        base = matching_weight(x, c, decide_mwm(x, c))
        perm = tuple(reversed(range(n)))
        x2 = tuple(x[perm[i]] for i in range(n))
        c2 = tuple(c[perm[i]] for i in range(n))
        assert matching_weight(x2, c2, decide_mwm(x2, c2)) == base


class TestDecideRandomMaximal:
    def test_no_edges(self):
        assert random_maximal((1, 1), ((0, 0), (0, 0)), policy_gen(1)) == ()
        assert random_maximal((0, 0), ((1, 1), (1, 1)), policy_gen(1)) == ()

    def test_unique_maximal(self):
        for slot in range(1, 30):
            m = random_maximal((1, 1), ((1, 0), (0, 1)), policy_gen(slot))
            assert m == ((0, 0), (1, 1))

    def test_uniform_over_symmetric_perfect_matchings(self):
        counts = {((0, 0), (1, 1)): 0, ((0, 1), (1, 0)): 0}
        for slot in range(1, 10_001):
            m = random_maximal((1, 1), ((1, 1), (1, 1)), policy_gen(slot))
            counts[m] += 1
        frac = counts[((0, 0), (1, 1))] / 10_000
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_given_stream_position(self):
        a = random_maximal((2, 2), ((1, 1), (1, 1)), policy_gen(3))
        b = random_maximal((2, 2), ((1, 1), (1, 1)), policy_gen(3))
        assert a == b

    @given(instance_strategy(), st.integers(1, 50))
    def test_maximality(self, inst, slot):
        x, c = inst
        m = random_maximal(x, c, policy_gen(slot, n_values=16))
        used_q = {q for q, _ in m}
        used_s = {s for _, s in m}
        for q in range(len(x)):
            for s in range(len(c[0])):
                if c[q][s] and x[q] > 0 and q not in used_q and s not in used_s:
                    pytest.fail(f"addable edge ({q},{s}) left unmatched")


class TestDecideGreedyLcq:
    def test_longest_first_takes_its_only_server(self):
        assert decide_greedy_lcq((5, 1), ((0, 1), (1, 1))) == ((0, 1), (1, 0))

    def test_empty(self):
        assert decide_greedy_lcq((0, 0), ((1, 1), (1, 1))) == ()

    def test_queue_tie_prefers_lower_index(self):
        assert decide_greedy_lcq((3, 3), ((1, 0), (1, 0))) == ((0, 0),)


class TestDecideFixedOrder:
    def test_front_queue_starves_the_back(self):
        assert decide_fixed_order((1, 5), ((1, 1), (1, 0))) == ((0, 0),)
        # the weight-optimal split would serve both queues
        assert decide_mwm((1, 5), ((1, 1), (1, 0))) == ((0, 1), (1, 0))

    def test_skips_empty_queue(self):
        assert decide_fixed_order((0, 1), ((1, 1), (1, 1))) == ((1, 0),)

    def test_disconnected(self):
        assert decide_fixed_order((1, 1), ((0, 0), (0, 0))) == ()


class TestCrossPolicy:
    def test_outputs_valid_and_never_wasteful(self):
        for x, c in [
            ((2, 0, 3), ((1, 0), (1, 1), (0, 1))),
            ((1, 1), ((1, 1), (1, 1))),
            ((0, 4), ((1, 0), (0, 0))),
        ]:
            n, k = len(x), len(c[0])
            outs = [fn(x, c) for fn in DETERMINISTIC_DECIDERS.values()]
            outs.append(random_maximal(x, c, policy_gen(1, n_values=16)))
            for m in outs:
                validate_matching(m, n, k)
                for q, s in m:
                    assert c[q][s] == 1
                    assert x[q] > 0

    def test_mwm_dominates_exhaustively(self):
        # every instance with up to 3 queues/servers and lengths up to 3
        for n, k in product((1, 2, 3), repeat=2):
            for x in product(range(4), repeat=n):
                for bits in range(1 << (n * k)):
                    c = tuple(
                        tuple((bits >> (q * k + s)) & 1 for s in range(k))
                        for q in range(n)
                    )
                    top = matching_weight(x, c, decide_mwm(x, c))
                    assert matching_weight(x, c, decide_greedy_lcq(x, c)) <= top
                    assert matching_weight(x, c, decide_fixed_order(x, c)) <= top
                    m = random_maximal(x, c, policy_gen(1, n_values=16))
                    assert matching_weight(x, c, m) <= top

    def test_work_conservation_of_baselines(self):
        x, c = (0, 2), ((1, 1), (0, 1))
        assert decide_greedy_lcq(x, c) != ()
        assert decide_fixed_order(x, c) != ()
        assert random_maximal(x, c, policy_gen(1)) != ()


class TestDispatch:
    def test_known_names(self):
        assert set(POLICY_NAMES) == {"mwm", "random_maximal", "greedy_lcq", "fixed_order"}
        x, c = (2, 1), ((1, 1), (1, 1))
        assert DETERMINISTIC_DECIDERS["mwm"](x, c) == decide_mwm(x, c)
        assert DETERMINISTIC_DECIDERS["greedy_lcq"](x, c) == decide_greedy_lcq(x, c)
        assert DETERMINISTIC_DECIDERS["fixed_order"](x, c) == decide_fixed_order(x, c)
        assert set(DETERMINISTIC_DECIDERS) | {"random_maximal"} == set(POLICY_NAMES)

    def test_unknown_name(self):
        assert "round_robin" not in DETERMINISTIC_DECIDERS
        assert "round_robin" not in POLICY_NAMES

    def test_random_policy_needs_generator(self):
        # the randomized policy is never dispatched without its private stream
        assert "random_maximal" not in DETERMINISTIC_DECIDERS
        x, c = (2, 1), ((1, 1), (1, 1))
        # one draw per serviceable edge, in row-major order
        assert random_maximal(x, c, policy_gen(1)) == (
            random_maximal_from_uniforms(x, c, policy_gen(1).random(4))
        )
