"""State evolution and sampling contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import SamplePath, serve

from mwmlab import rng
from mwmlab.balance import validate_state
from mwmlab.engine import SystemParams
from mwmlab.matching import enumerate_matchings


def step(x, c, a, m):
    """One full slot as the simulation engine runs it: serve, then add arrivals."""
    return tuple(s + ai for s, ai in zip(serve(x, c, m), a))


class TestSystemParams:
    def test_valid(self):
        SystemParams(4, 2, 0.5, 0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_queues=0, n_servers=1, connect_prob=0.5, arrival_prob=0.5),
            dict(n_queues=1, n_servers=0, connect_prob=0.5, arrival_prob=0.5),
            dict(n_queues=1, n_servers=17, connect_prob=0.5, arrival_prob=0.5),
            dict(n_queues=1, n_servers=1, connect_prob=-0.1, arrival_prob=0.5),
            dict(n_queues=1, n_servers=1, connect_prob=1.1, arrival_prob=0.5),
            dict(n_queues=1, n_servers=1, connect_prob=0.5, arrival_prob=-0.5),
            dict(n_queues=1, n_servers=1, connect_prob=0.5, arrival_prob=2.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestServeAndStep:
    def test_one_departure(self):
        assert serve((2, 0), ((1, 1), (1, 1)), [(0, 0)]) == (1, 0)

    def test_floor_at_zero(self):
        assert serve((0, 0), ((1, 1), (1, 1)), [(0, 0), (1, 1)]) == (0, 0)

    def test_both_served(self):
        assert serve((1, 1), ((1, 0), (0, 1)), [(0, 0), (1, 1)]) == (0, 0)

    def test_step_serve_then_add(self):
        assert step((2, 0), ((1, 1), (1, 1)), (1, 0), [(0, 0)]) == (2, 0)

    def test_step_arrivals_only(self):
        assert step((0, 0), ((1, 1), (1, 1)), (1, 1), []) == (1, 1)

    def test_disconnected_means_no_service(self):
        c = ((0, 0), (0, 0))
        for m in enumerate_matchings(2, 2):
            assert step((3, 3), c, (0, 0), m) == (3, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            serve((1, 2, 3), ((1, 1), (1, 1)), [])

    def test_invalid_matchings(self):
        ones = ((1, 1), (1, 1))
        with pytest.raises(ValueError):
            serve((1, 1), ones, [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            serve((1, 1), ones, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            serve((1, 1), ones, [(2, 0)])

    @given(st.data())
    def test_flow_conservation_and_bounds(self, data):
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 3))
        x = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        c = tuple(
            tuple(row)
            for row in data.draw(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=k, max_size=k),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        a = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        m = data.draw(st.sampled_from(list(enumerate_matchings(n, k))))
        x_next = step(x, c, a, m)
        assert all(v >= 0 for v in x_next)
        departures = []
        for i in range(n):
            d = x[i] + a[i] - x_next[i]
            departures.append(d)
            assert d in (0, 1)
            if d == 1:
                assert x[i] > 0
                assert any(c[i][s] == 1 for q, s in m if q == i)
        assert sum(departures) <= len(m) <= min(n, k)


class TestSampling:
    def test_degenerate_probabilities(self):
        p0 = SamplePath(SystemParams(3, 2, 0.0, 0.0), seed=0, replication=0, horizon=1)
        assert p0.connectivity[0].tolist() == [[0, 0], [0, 0], [0, 0]]
        assert p0.arrivals[0].tolist() == [0, 0, 0]
        p1 = SamplePath(SystemParams(3, 2, 1.0, 1.0), seed=0, replication=0, horizon=1)
        assert p1.connectivity[0].tolist() == [[1, 1], [1, 1], [1, 1]]
        assert p1.arrivals[0].tolist() == [1, 1, 1]

    def test_connectivity_mean_near_p(self):
        params = SystemParams(2, 2, 0.5, 0.3)
        path = SamplePath(params, seed=11, replication=0, horizon=100_000)
        means = path.connectivity.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.01)

    def test_arrival_mean_near_lambda(self):
        params = SystemParams(4, 1, 0.5, 0.3)
        path = SamplePath(params, seed=11, replication=0, horizon=100_000)
        means = path.arrivals.mean(axis=0)
        assert np.all(np.abs(means - 0.3) < 0.01)


class TestStreamLayout:
    def test_per_slot_sampling_matches_path_blocks(self):
        params = SystemParams(3, 2, 0.35, 0.6)
        path = SamplePath(params, seed=99, replication=4, horizon=20)
        for t in (1, 2, 7, 20):
            gen_c = rng.slot_stream(99, 4, rng.STREAM_CONNECTIVITY, t, 6)
            c = (gen_c.random((3, 2)) < params.connect_prob).astype(int).tolist()
            assert c == path.connectivity[t - 1].tolist()
            gen_a = rng.slot_stream(99, 4, rng.STREAM_ARRIVALS, t, 3)
            a = (gen_a.random(3) < params.arrival_prob).astype(int).tolist()
            assert a == path.arrivals[t - 1].tolist()

    def test_paths_reproducible_and_seed_sensitive(self):
        params = SystemParams(2, 2, 0.5, 0.5)
        a = SamplePath(params, seed=5, replication=1, horizon=50)
        b = SamplePath(params, seed=5, replication=1, horizon=50)
        assert np.array_equal(a.connectivity, b.connectivity)
        assert np.array_equal(a.arrivals, b.arrivals)
        c = SamplePath(params, seed=6, replication=1, horizon=50)
        d = SamplePath(params, seed=5, replication=2, horizon=50)
        for other in (c, d):
            assert not (
                np.array_equal(other.connectivity, a.connectivity)
                and np.array_equal(other.arrivals, a.arrivals)
            )

    def test_connectivity_and_arrival_streams_are_distinct(self):
        params = SystemParams(2, 2, 0.5, 0.5)
        path = SamplePath(params, seed=5, replication=1, horizon=200)
        # same Bernoulli rate; equality would mean the streams collide
        assert not np.array_equal(
            path.connectivity.reshape(200, 4)[:, :2], path.arrivals
        )


class TestValidation:
    def test_validate_state(self):
        assert validate_state([1, 2]) == (1, 2)
        with pytest.raises(ValueError):
            validate_state([])
        with pytest.raises(ValueError):
            validate_state([-1])
        with pytest.raises(ValueError):
            validate_state([1.5])
