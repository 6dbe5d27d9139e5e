"""Lockstep engine against a scalar reference simulator and the weighting fact."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from reference import (
    DETERMINISTIC_DECIDERS,
    SamplePath,
    matching_weight,
    max_weight_matching,
    path_uniforms,
    random_maximal_from_uniforms,
    serve,
    weight_matrix,
)

from mwmlab import engine, matching, rng
from mwmlab.engine import POLICY_NAMES, SystemParams
from mwmlab.harness import SimConfig, run_experiment, sampled_slots
from mwmlab.matching import enumerate_matchings


def reference_run(config, policy, replication):
    """States after every slot and each slot's matching weight, one slot at a time."""
    params = config.params
    n, k = params.n_queues, params.n_servers
    path = SamplePath(params, config.seed, replication, config.horizon)
    draws = path_uniforms(
        config.seed, replication, rng.STREAM_POLICY, config.horizon, n * k
    )
    x = config.start_state()
    states, weights = [x], []
    for t in range(config.horizon):
        c = path.connectivity[t].tolist()
        if policy == "random_maximal":
            m = random_maximal_from_uniforms(x, c, draws[t])
        else:
            m = DETERMINISTIC_DECIDERS[policy](x, c)
        weights.append(matching_weight(x, c, m))
        x = tuple(s + a for s, a in zip(serve(x, c, m), path.arrivals[t].tolist()))
        states.append(x)
    return states, weights


SHAPES = [(4, 2, 150), (3, 3, 150), (2, 4, 150), (5, 2, 150), (8, 8, 40)]


def shape_config(n, k, horizon, **overrides):
    base = dict(
        params=SystemParams(n, k, 0.5, 0.45),
        horizon=horizon,
        replications=3,
        seed=11 * n + k,
        policies=("greedy_lcq", "mwm", "random_maximal", "fixed_order"),
        record_interval=1,
        initial_state=tuple(range(n)),
    )
    base.update(overrides)
    return SimConfig(**base)


def experiment_slots(cfg):
    """The slots ``run_experiment`` keeps: the sampled and the recorded ones."""
    recorded = range(cfg.record_interval, cfg.horizon + 1, cfg.record_interval)
    return sorted({*sampled_slots(cfg.horizon), *recorded})


def same_blocks(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("quarter_sums", "states", "mw_index")
    )


def same_experiment(a, b):
    """Whether two ``run_experiment`` results have equal reports and traces."""
    return a[0] == b[0] and same_blocks(a[1], b[1])


# (_SPECULATIVE_ROWS, _MIN_SEGMENT): one segment a chunk; the most segments,
# of one slot each; segments of two and of three slots
SEGMENTINGS = [(1, 32), (1 << 30, 1), (1 << 30, 2), (1 << 30, 3)]

# _CHUNK_CELLS for 96-slot chunks of a 3-replication, four-policy block at N = 4
CELLS_96 = 96 * 3 * 16


def both_paths(n, k):
    """Table limits that send an (n, k) system through each kernel it can use."""
    limits = [0]
    if n * k <= matching.ENUMERATION_LIMIT:
        limits.append(1 << 30)
    return limits


# 253 slots span three 96-slot chunks; the kept slots straddle their segment
# and chunk boundaries under every segmenting
BOUNDARY_CASE = (4, 2, 253, (1, 2, 31, 32, 33, 95, 96, 97, 191, 253))


def quarter_sums(totals):
    """The third and final quarter's sums of per-slot totals indexed 0..T."""
    horizon = len(totals) - 1
    i3, i4 = horizon // 2, 3 * horizon // 4
    return [sum(totals[i3 + 1 : i4 + 1]), sum(totals[i4 + 1 :])]


def assert_matches_reference(cfg, kept, segmentings, monkeypatch):
    """Each kernel path under each (rows, slots) segmenting against ``reference_run``.

    The block must match at the ``kept`` slots, and a block that keeps every
    slot must match the total occupancy at each of them and in both quarters.
    """
    n, k = cfg.params.n_queues, cfg.params.n_servers
    reps = range(cfg.replications)
    reference = {(p, r): reference_run(cfg, p, r) for p in cfg.policies for r in reps}
    # each policy's total occupancy at slots 0..T, summed over the replications
    totals = {
        p: np.array([reference[p, r][0] for r in reps]).sum(axis=(0, 2)).tolist()
        for p in cfg.policies
    }
    every_slot = range(1, cfg.horizon + 1)
    for limit, (rows, slots) in product(both_paths(n, k), segmentings):
        monkeypatch.setattr(engine, "_TABLE_MAX_MATCHINGS", limit)
        monkeypatch.setattr(engine, "_SPECULATIVE_ROWS", rows)
        monkeypatch.setattr(engine, "_MIN_SEGMENT", slots)
        block = engine.simulate(cfg, cfg.policies, reps, kept)
        whole = block if list(kept) == list(every_slot) else (
            engine.simulate(cfg, cfg.policies, reps, every_slot)
        )
        for i, p in enumerate(cfg.policies):
            for r in reps:
                states, weights = reference[p, r]
                assert block.states[i, r].tolist() == [list(states[t]) for t in kept]
                assert block.mw_index[i, r].tolist() == [weights[t - 1] for t in kept]
            assert whole.states[i].sum(axis=(0, 2)).tolist() == totals[p][1:]
            assert block.quarter_sums[i].tolist() == quarter_sums(totals[p])
            assert whole.quarter_sums[i].tolist() == quarter_sums(totals[p])


DEFAULT_SEGMENTING = [(engine._SPECULATIVE_ROWS, engine._MIN_SEGMENT)]


@pytest.mark.parametrize(
    "n,k,horizon,kept",
    [pytest.param(*shape, None, id="-".join(map(str, shape))) for shape in SHAPES]
    + [pytest.param(*BOUNDARY_CASE, id="4-2-253-kept-across-chunks")],
)
def test_engine_matches_scalar_reference(n, k, horizon, kept, monkeypatch):
    cfg = shape_config(n, k, horizon)
    segmentings = DEFAULT_SEGMENTING
    if kept is None:
        kept = range(1, horizon + 1)
    else:
        monkeypatch.setattr(engine, "_CHUNK_CELLS", CELLS_96)
        segmentings = DEFAULT_SEGMENTING + SEGMENTINGS
    assert_matches_reference(cfg, kept, segmentings, monkeypatch)


# Starts and loads under which breaks outlive their segment: from far above
# empty every early boundary is open and the exact path reaches the next
# break's origin, so breaks chain and get absorbed; near capacity the
# segments started empty rarely coalesce at all.
@pytest.mark.parametrize(
    "horizon,overrides",
    [
        pytest.param(400, dict(initial_state=(40, 30, 20, 10)), id="far-start"),
        pytest.param(1000, dict(initial_state=None, replications=2), id="near-capacity"),
    ],
)
def test_repair_schedules_match_the_scalar_reference(horizon, overrides, monkeypatch):
    cfg = shape_config(4, 2, horizon, **overrides)  # lambda = 0.45, p = 0.5
    kept = range(1, cfg.horizon + 1)
    assert_matches_reference(cfg, kept, DEFAULT_SEGMENTING + SEGMENTINGS, monkeypatch)


def _instances(n, k, values):
    """Every (x, c) with entries of x in ``values``, as (B, N) and (B, N, K) arrays."""
    xs = np.array(list(product(values, repeat=n)), dtype=np.int64)
    bits = np.arange(1 << (n * k))
    cs = ((bits[:, None] >> np.arange(n * k)) & 1).astype(bool).reshape(-1, n, k)
    x = np.repeat(xs, len(cs), axis=0)
    c = np.tile(cs, (len(xs), 1, 1))
    return x, c


def _policy_weights(policy, x, c, u):
    """Edge weights of the weighting fact, (B, N, K) integers."""
    b, n, k = c.shape
    if policy == "mwm":
        return np.repeat(x[:, :, None], k, axis=2)
    if policy == "random_maximal":
        serv = (c & (x[:, :, None] > 0)).reshape(b, -1)
        taken = np.cumsum(serv, axis=1) - serv  # the j-th serviceable edge takes draw j
        rank = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1)
        rho = np.take_along_axis(rank, taken, axis=1)
        return (1 << (n * k - 1 - rho)).reshape(b, n, k)
    queue = np.arange(n)
    if policy == "greedy_lcq":
        ahead = (x[:, None, :] > x[:, :, None]) | (
            (x[:, None, :] == x[:, :, None]) & (queue[None, :] < queue[:, None])
        )
        queue = ahead.sum(axis=2)
    key = queue[..., None] * k + np.arange(k)  # n K + k, n the queue or its rank
    return np.broadcast_to(1 << (n * k - 1 - key), c.shape)


@pytest.mark.parametrize("n,k", list(product((1, 2, 3), repeat=2)))
def test_weighting_fact_exhaustive(n, k):
    # every policy is the lexicographically smallest maximum-weight matching
    # over serviceable edges under its own weights, on every instance with
    # N, K <= 3 and x <= 3 (one draw row per instance for random_maximal)
    x, c = _instances(n, k, range(4))
    u = np.random.default_rng(100 * n + k).random((len(x), n * k))
    table = sorted(enumerate_matchings(n, k))
    incidence = np.zeros((len(table), n, k), dtype=np.int64)
    for j, m in enumerate(table):
        for q, s in m:
            incidence[j, q, s] = 1
    serv = c & (x[:, :, None] > 0)
    usable = ~((incidence[None] == 1) & ~serv[:, None]).any(axis=(2, 3))
    xs, cs = x.tolist(), c.astype(int).tolist()
    for policy in POLICY_NAMES:
        w = _policy_weights(policy, x, c, u)
        score = np.where(usable, (incidence[None] * w[:, None]).sum(axis=(2, 3)), -1)
        best = score.argmax(axis=1)
        for i in range(len(xs)):
            if policy == "random_maximal":
                m = random_maximal_from_uniforms(xs[i], cs[i], u[i])
            else:
                m = DETERMINISTIC_DECIDERS[policy](xs[i], cs[i])
            assert m == table[best[i]], (policy, xs[i], cs[i])


@pytest.mark.parametrize("n,k", list(product((1, 2, 3), repeat=2)))
def test_both_kernels_decide_like_the_scalar_policies(n, k):
    x, c = _instances(n, k, range(4))
    u = np.random.default_rng(7 * n + k).random((len(x), n * k))
    ranks = engine._ranks(u)
    xs, cs = x.tolist(), c.astype(int).tolist()
    names = POLICY_NAMES
    expected = np.zeros((len(names), len(x), n), dtype=np.int64)
    for p, policy in enumerate(names):
        for i in range(len(xs)):
            if policy == "random_maximal":
                m = random_maximal_from_uniforms(xs[i], cs[i], u[i])
            else:
                m = DETERMINISTIC_DECIDERS[policy](xs[i], cs[i])
            for q, _ in m:
                expected[p, i, q] = 1
    rows = np.broadcast_to(x, (len(names), *x.shape)).copy()
    for kernel in (engine._TableKernel, engine._SplitKernel):
        served = kernel(n, k, names)(rows, c, ranks)
        assert np.array_equal(served, expected), kernel.__name__


@pytest.mark.parametrize("n,k", [(4, 2), (3, 3)])
def test_kernels_agree_at_the_state_bound(n, k):
    # queue lengths just below the 2**48 that SimConfig allows, tied in most
    # rows: matchings whose weights differ by one must still be told apart
    top = 2**48 - 1
    x, c = _instances(n, k, (0, top - 1, top))
    u = np.random.default_rng(n + k).random((len(x), n * k))
    ranks = engine._ranks(u)
    names = POLICY_NAMES
    rows = np.broadcast_to(x, (len(names), *x.shape)).copy()
    table = engine._TableKernel(n, k, names)(rows, c, ranks)
    assert np.array_equal(table, engine._SplitKernel(n, k, names)(rows, c, ranks))
    expected = np.zeros_like(x)
    for i, (xi, ci) in enumerate(zip(x.tolist(), c.astype(int).tolist())):
        for q, _ in max_weight_matching(weight_matrix(xi, ci)):
            expected[i, q] = 1
    assert np.array_equal(table[names.index("mwm")], expected)


def test_kernel_paths_give_the_same_outputs(monkeypatch):
    for n, k in [(4, 2), (3, 3), (2, 4), (5, 2)]:
        cfg = shape_config(n, k, 200, record_interval=9, replications=4,
                           cost_functions=("total_occupancy", "max_queue"))
        outputs = []
        for limit in (0, 1 << 30):
            monkeypatch.setattr(engine, "_TABLE_MAX_MATCHINGS", limit)
            outputs.append(run_experiment(cfg))
        assert same_experiment(*outputs)


@pytest.mark.parametrize("cells", [1, 1 << 40])
def test_chunk_size_does_not_change_the_outputs(cells, monkeypatch):
    cfg = shape_config(4, 2, 203, record_interval=7, replications=3)
    default = run_experiment(cfg)
    monkeypatch.setattr(engine, "_CHUNK_CELLS", cells)
    assert same_experiment(run_experiment(cfg), default)


def test_audit_chunk_and_block_sizes_do_not_change_states(monkeypatch):
    cfg = shape_config(3, 2, 97)
    every_slot = range(1, 98)
    whole = engine.simulate(cfg, cfg.policies, range(3), every_slot).states
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 1)
    parts = [
        engine.simulate(cfg, cfg.policies, range(r, r + 1), every_slot).states
        for r in range(3)
    ]
    assert np.array_equal(whole, np.concatenate(parts, axis=1))


def test_memory_stays_bounded_as_the_horizon_grows(monkeypatch):
    # small chunks, so that both horizons span many of them
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 1 << 10)

    def peak(horizon):
        cfg = SimConfig(
            params=SystemParams(4, 2, 0.5, 0.2),
            horizon=horizon,
            replications=2,
            seed=42,
            policies=POLICY_NAMES,
            record_interval=horizon // 100,
        )
        tracemalloc.start()
        try:
            engine.simulate(cfg, cfg.policies, range(2), experiment_slots(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(1_000), peak(10_000)
    # the bound once allowed per-slot occupancy sums, (P, T + 1) int64; at a
    # fixed record count nothing the engine keeps grows with the horizon now
    growth = len(POLICY_NAMES) * 8 * 9_000
    assert long - short < growth + (1 << 14), (short, long)


def test_experiment_memory_per_record_stays_small(monkeypatch):
    # small chunks, so that both horizons span many of them
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 1 << 10)
    replications = 4

    def peak(horizon):
        cfg = SimConfig(
            params=SystemParams(4, 2, 0.5, 0.2),
            horizon=horizon,
            replications=replications,
            seed=42,
            policies=POLICY_NAMES,
            record_interval=1,
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(1_000), peak(5_000)
    records = len(POLICY_NAMES) * replications * 4_000
    # a record is N + 1 int64 of the trace, 40 bytes, against 80 allowed
    assert long - short < 80 * records, (short, long)


def test_experiment_memory_stays_flat_as_the_horizon_grows():
    # default chunks; 100 records at either horizon
    def peak(horizon):
        cfg = SimConfig(
            params=SystemParams(4, 2, 0.5, 0.2),
            horizon=horizon,
            replications=2,
            seed=42,
            policies=POLICY_NAMES,
            record_interval=horizon // 100,
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2_000), peak(20_000)
    # about 48 KB apart, as the two horizons' chunks and segments differ in
    # size; int64 per-slot sums of the 18,000 extra slots alone take 576 KB
    assert long - short < 1 << 16, (short, long)


@pytest.mark.parametrize(
    "n,k,dtype", [(4, 2, np.int8), (8, 8, np.int8), (127, 1, np.int8), (9, 16, np.int16)]
)
def test_chunk_draws_are_narrow_and_exact(n, k, dtype, monkeypatch):
    # 16-slot chunks: the 40 slots read three of them
    cfg = shape_config(n, k, 40, replications=3)
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 16 * 3 * max(4 * n, n * k))
    chunks = []

    def advance(kernel, hist, draws, *args, _advance=engine._advance):
        chunks.append([d.copy() for d in draws])
        return _advance(kernel, hist, draws, *args)

    monkeypatch.setattr(engine, "_advance", advance)
    reps = range(1, 4)
    engine.simulate(cfg, cfg.policies, reps, [cfg.horizon])
    reads = [
        (rng.STREAM_CONNECTIVITY, n * k),
        (rng.STREAM_ARRIVALS, n),
        (rng.STREAM_POLICY, n * k),
    ]
    streams = [
        [rng.slot_chunks(cfg.seed, r, kind, values, 16) for r in reps]
        for kind, values in reads
    ]
    assert len(chunks) == 3
    for conn, arrivals, ranks in chunks:
        u = [np.stack([next(s) for s in kind], axis=1) for kind in streams]
        assert conn.dtype == arrivals.dtype == bool and ranks.dtype == dtype
        assert np.array_equal(conn, (u[0] < cfg.params.connect_prob).reshape(conn.shape))
        assert np.array_equal(arrivals, u[1] < cfg.params.arrival_prob)
        assert np.array_equal(ranks, engine._ranks(u[2]))


@pytest.mark.parametrize("n,k", [(127, 1), (9, 16), (16, 9)])
def test_narrow_ranks_match_the_scalar_reference(n, k):
    # split-kernel runs whose unserviceable key N K is 127, the int8 limit,
    # and 144, past it, where with N > K the draw order decides which queues
    # are served; random_maximal alone keeps its keys in the rank type
    cfg = shape_config(n, k, 30)
    every_slot = range(1, cfg.horizon + 1)
    for names in [("random_maximal",), ("greedy_lcq", "random_maximal", "fixed_order")]:
        block = engine.simulate(cfg, names, range(cfg.replications), every_slot)
        for (i, policy), r in product(enumerate(names), range(cfg.replications)):
            states, weights = reference_run(cfg, policy, r)
            assert block.states[i, r].tolist() == [list(x) for x in states[1:]]
            assert block.mw_index[i, r].tolist() == weights


def count_kernel_calls(monkeypatch):
    """A list that gets the row count of every call of either kernel from now on."""
    calls = []
    for kernel in (engine._TableKernel, engine._SplitKernel):

        def counted(self, x, *args, _call=kernel.__call__):
            calls.append(x.shape[0] * x.shape[1])
            return _call(self, x, *args)

        monkeypatch.setattr(kernel, "__call__", counted)
    return calls


def count_dp_rows(monkeypatch):
    """A list that gets the row count of every ``engine.max_weight_servers`` call."""
    rows = []

    def counted(w, _solve=engine.max_weight_servers):
        rows.append(len(w))
        return _solve(w)

    monkeypatch.setattr(engine, "max_weight_servers", counted)
    return rows


def certify(x, c, monkeypatch):
    """Check the split kernel's ``mwm`` rows of ``x``, ``c`` against the DP.

    A row is certified when some matching serves every serviceable queue,
    which is when the DP's optimum serves them all; the other rows, and only
    those, must reach the DP. Returns the certified rows.
    """
    names = POLICY_NAMES
    ranks = engine._ranks(np.random.default_rng(len(x)).random((len(x), c[0].size)))
    dp_rows = count_dp_rows(monkeypatch)
    rows = np.broadcast_to(x, (len(names), *x.shape)).copy()
    served = engine._SplitKernel(*c.shape[1:], names)(rows, c, ranks)
    optimum = matching.max_weight_servers(x[:, :, None] * c) >= 0
    assert np.array_equal(served[names.index("mwm")], optimum)
    serviceable = (x > 0) & c.any(axis=2)
    assert sum(dp_rows) == (optimum != serviceable).any(axis=1).sum()
    return (optimum == serviceable).all(axis=1)


@pytest.mark.parametrize("n,k", [(8, 8), (6, 5), (10, 3), (3, 16)])
def test_greedy_pass_certifies_mwm_rows(n, k, monkeypatch):
    gen = np.random.default_rng(100 * n + k)
    # each row its own shares of nonempty queues and of connected edges, the
    # latter below 2 / K, so rows with and without a matching that serves
    # every serviceable queue both occur
    x = (gen.random((400, n)) < gen.random((400, 1))) * gen.integers(1, 4, (400, n))
    c = gen.random((400, n, k)) < gen.random((400, 1, 1)) * 2 / k
    certified = certify(x, c, monkeypatch)
    assert certified.any() and not certified.all()


def test_no_row_is_certified_when_queues_outnumber_servers(monkeypatch):
    # every queue nonempty and connected to every server, N > K
    x = np.random.default_rng(5).integers(1, 4, (200, 10))
    assert not certify(x, np.ones((200, 10, 3), dtype=bool), monkeypatch).any()


def test_every_row_is_certified_when_every_queue_can_be_served(monkeypatch):
    # N <= K and every edge connected: fixed_order serves every nonempty queue
    x = np.random.default_rng(6).integers(0, 4, (200, 8))
    assert certify(x, np.ones((200, 8, 8), dtype=bool), monkeypatch).all()


def greedy_misses_queue_one(n, k, rows):
    """``rows`` rows of queue 0 on servers {0, 1} and queue 1 on server 0 only.

    The greedy pass gives server 0 to queue 0 and leaves queue 1 unserved,
    though queue 0 could take server 1.
    """
    x = np.zeros((rows, n), dtype=np.int64)
    c = np.zeros((rows, n, k), dtype=bool)
    x[:, :2] = np.random.default_rng(rows).integers(1, 4, (rows, 2))
    c[:, 0, :2] = c[:, 1, 0] = True
    return x, c


@pytest.mark.parametrize("n,k", [(8, 8), (3, 16)])
def test_rows_reach_the_dp_exactly_when_hall_fails(n, k, monkeypatch):
    x, c = greedy_misses_queue_one(n, k, 4)
    # three nonempty queues on servers {0, 1} only, although K >= 3
    x[1, :3] = 1, 2, 3
    c[1, :3, :2] = True
    # every queue empty though connected; every queue nonempty but disconnected
    x[2], c[2] = 0, True
    x[3], c[3] = 1, False
    hall = [True, False, True, True]
    greedy = engine._SplitKernel(n, k, ("fixed_order",))(x[None].copy(), c, None)[0]
    assert greedy[0].tolist() != [1, 1] + [0] * (n - 2)
    for row in range(len(x)):
        dp_rows = count_dp_rows(monkeypatch)
        assert certify(x[row : row + 1], c[row : row + 1], monkeypatch).tolist() == [hall[row]]
        assert sum(dp_rows) == (not hall[row])


def test_hall_table_memory_stays_below_the_dp():
    x, c = greedy_misses_queue_one(3, 16, 128)
    kernel = engine._SplitKernel(3, 16, ("mwm",))

    def peak(solve, *args):
        tracemalloc.start()
        try:
            solve(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 128 rows of 2^16 counts, unblocked, would take 64 MiB
    hall = peak(kernel, x[None].copy(), c, None)
    dp = peak(matching.max_weight_servers, x[:, :, None] * c)
    assert hall <= dp, (hall, dp)


def test_few_wide_rows_reach_the_dp(monkeypatch):
    # the wide benchmark configuration
    cfg = SimConfig(
        params=SystemParams(8, 8, 0.5, 0.5),
        horizon=400,
        replications=2,
        seed=42,
        policies=("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
        record_interval=4,
    )
    calls = count_kernel_calls(monkeypatch)
    dp_rows = count_dp_rows(monkeypatch)
    assert_matches_reference(cfg, range(1, cfg.horizon + 1), DEFAULT_SEGMENTING, monkeypatch)
    mwm_rows = sum(calls) // len(cfg.policies)
    assert sum(dp_rows) == 0, (sum(dp_rows), mwm_rows)


@pytest.mark.parametrize("limit", [0, 1 << 30])
# stable; overloaded although N lambda < min(N, K), so segments still run
@pytest.mark.parametrize("connect,arrive", [(0.5, 0.2), (0.3, 0.45)])
def test_segments_do_not_change_the_outputs(limit, connect, arrive, monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_MAX_MATCHINGS", limit)
    # 96-slot chunks of the 3-replication block: 253 slots span three of
    # them, and the default 32-slot segments do not divide the last one
    monkeypatch.setattr(engine, "_CHUNK_CELLS", CELLS_96)
    cfg = shape_config(
        4, 2, 253, params=SystemParams(4, 2, connect, arrive), record_interval=7
    )
    kept = experiment_slots(cfg)
    calls = count_kernel_calls(monkeypatch)

    def outputs():
        block = engine.simulate(cfg, cfg.policies, range(3), kept)
        single = engine.simulate(cfg, ("random_maximal",), range(1), kept)
        return block, single, run_experiment(cfg)

    default = outputs()
    schedules = {tuple(calls)}
    for rows, slots in SEGMENTINGS:
        monkeypatch.setattr(engine, "_SPECULATIVE_ROWS", rows)
        monkeypatch.setattr(engine, "_MIN_SEGMENT", slots)
        calls.clear()
        block, single, experiment = outputs()
        schedules.add(tuple(calls))
        assert same_blocks(block, default[0]), (rows, slots)
        assert same_blocks(single, default[1]), (rows, slots)
        assert same_experiment(experiment, default[2]), (rows, slots)
    # each setting ran the chunks its own way
    assert len(schedules) == 1 + len(SEGMENTINGS)


def test_segments_with_workers_do_not_change_the_outputs(monkeypatch):
    cfg = shape_config(4, 2, 253, params=SystemParams(4, 2, 0.5, 0.2), replications=4)
    default = run_experiment(cfg)
    for rows, slots in SEGMENTINGS:
        monkeypatch.setattr(engine, "_SPECULATIVE_ROWS", rows)
        monkeypatch.setattr(engine, "_MIN_SEGMENT", slots)
        assert same_experiment(run_experiment(cfg, max_workers=2), default), (rows, slots)


@pytest.mark.parametrize("arrive", [0.2, 0.45, 0.6])
def test_segments_cut_kernel_calls_below_one_a_slot(arrive, monkeypatch):
    cfg = SimConfig(
        params=SystemParams(4, 2, 0.5, arrive),
        horizon=5000,
        replications=2,
        seed=42,
        policies=POLICY_NAMES,
        record_interval=50,
    )
    calls = count_kernel_calls(monkeypatch)
    engine.simulate(cfg, cfg.policies, range(2), experiment_slots(cfg))
    if arrive == 0.2:
        assert len(calls) < cfg.horizon // 25  # 150
    elif arrive == 0.45:
        # segments rarely coalesce, yet the speculative pass and the breaks
        # step at most three times the rows of one slot a call
        assert sum(calls) <= 3 * len(POLICY_NAMES) * 2 * cfg.horizon  # 117,888
    else:
        # 2.4 mean arrivals a slot against two servers: one segment a chunk
        assert len(calls) == cfg.horizon and set(calls) == {8}  # P R rows a call


def test_memory_stays_bounded_as_segmented_horizons_grow():
    # default chunks of 2048 slots, each run in 64 segments of 32
    def peak(horizon):
        cfg = SimConfig(
            params=SystemParams(4, 2, 0.5, 0.2),
            horizon=horizon,
            replications=2,
            seed=42,
            policies=POLICY_NAMES,
            record_interval=horizon // 100,
        )
        tracemalloc.start()
        try:
            engine.simulate(cfg, cfg.policies, range(2), experiment_slots(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(5_000), peak(20_000)
    growth = len(POLICY_NAMES) * 8 * 15_000
    assert long - short < growth + (1 << 14), (short, long)
