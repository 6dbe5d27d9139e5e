"""Coupled simulation and dominance aggregation contracts."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import betaincinv

from mwmlab.balance import COST_FUNCTIONS
from mwmlab.engine import SystemParams
from mwmlab.harness import (
    CONFIDENCE_LEVEL,
    DominanceViolation,
    SimConfig,
    clopper_pearson_table,
    dominance_csv_lines,
    format_dominance_summary,
    order_audit_lines,
    run_experiment,
    sampled_slots,
    trace_csv_lines,
    write_lines,
)
from mwmlab import engine, harness
from reference import (
    DETERMINISTIC_DECIDERS,
    STREAM_ARRIVALS,
    STREAM_CONNECTIVITY,
    STREAM_POLICY,
    bfs_lower_set,
    matching_weight,
    random_maximal_from_uniforms,
    serve,
    slot_stream,
)
from test_engine import same_blocks


class Record(NamedTuple):
    """One (replication, policy, record slot) of a trace, with its costs."""

    replication: int
    slot: int
    policy: str
    state: tuple[int, ...]
    mw_index: int
    costs: tuple[int, ...]


def trace_records(cfg, trace):
    """The records of a ``run_experiment`` trace, in ``trace.csv`` row order."""
    slots = range(cfg.record_interval, cfg.horizon + 1, cfg.record_interval)
    records = []
    for r in range(cfg.replications):
        for i, policy in enumerate(cfg.policies):
            rows = zip(slots, trace.states[i, r].tolist(), trace.mw_index[i, r].tolist())
            for t, x, mw in rows:
                x = tuple(x)
                costs = tuple(COST_FUNCTIONS[name](x) for name in cfg.cost_functions)
                records.append(Record(r, t, policy, x, mw, costs))
    return records


def ccdf_rows(report, cost):
    """Rows (slot, threshold, policy, ccdf, ci_low, ci_high) of one cost, from the counts."""
    points = itertools.product(
        report.sampled_slots, range(report.thresholds[cost]), report.policies
    )
    for point, k in zip(points, report.counts[cost]):
        yield (*point, k / report.replications, *report.intervals[k])


def make_config(**overrides):
    base = dict(
        params=SystemParams(3, 2, 0.5, 0.25),
        horizon=64,
        replications=8,
        seed=7,
        policies=("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
        cost_functions=("total_occupancy", "max_queue"),
        record_interval=16,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(horizon=0)
        with pytest.raises(ValueError):
            make_config(replications=0)
        with pytest.raises(ValueError):
            make_config(policies=())
        with pytest.raises(ValueError):
            make_config(policies=("mwm", "mwm"))
        with pytest.raises(ValueError):
            make_config(policies=("mwm", "nonsense"))
        with pytest.raises(ValueError):
            make_config(cost_functions=("entropy",))
        with pytest.raises(ValueError):
            make_config(record_interval=0)
        with pytest.raises(ValueError):
            make_config(initial_state=(1, 2))

    @pytest.mark.parametrize(
        "field, value",
        [("n_queues", 3.0), ("n_servers", 2.0), ("horizon", 64.0),
         ("replications", 8.0), ("record_interval", 2.5), ("seed", 1.5)],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        # a float passed the range checks, then failed in numpy or ran int(seed)
        params = dict(n_queues=3, n_servers=2, connect_prob=0.5, arrival_prob=0.25)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            if field in params:
                make_config(params=SystemParams(**{**params, field: value}))
            else:
                make_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("policies", "mwm"), ("cost_functions", "total_occupancy")]
    )
    def test_name_lists_must_not_be_strings(self, field, value):
        # a string is a sequence of one-letter names, so 'mwm' would read as policy 'm'
        message = f"^{field} must be a sequence of names, not a string$"
        with pytest.raises(ValueError, match=message):
            make_config(**{field: value})

    def test_cost_functions_must_be_unique(self):
        with pytest.raises(ValueError, match="cost functions must be unique"):
            make_config(cost_functions=("max_queue", "total_occupancy", "max_queue"))

    def test_queue_lengths_must_fit_the_engine(self):
        with pytest.raises(ValueError, match="2\\*\\*48"):
            make_config(initial_state=(2**48 - 64, 0, 0))
        make_config(initial_state=(2**48 - 65, 0, 0))

    def test_empty_start_must_fit_the_engine(self):
        # the same bound without an initial state: the queues start at zero
        with pytest.raises(ValueError, match="2\\*\\*48"):
            make_config(horizon=2**48)
        make_config(horizon=2**48 - 1)

    def test_costs_must_fit_int64(self):
        # every queue can reach its start plus the horizon; 3 * m**2 fits, 3 * (m + 1)**2 not
        m = math.isqrt((2**63 - 1) // 3)
        squares = ("total_occupancy", "sum_of_squares")
        make_config(cost_functions=squares, initial_state=(m - 64, 0, 0))
        with pytest.raises(ValueError, match="sum_of_squares reaches .* > 2\\*\\*63 - 1"):
            make_config(cost_functions=squares, initial_state=(m - 63, 0, 0))
        with pytest.raises(ValueError, match="sum_of_squares"):
            make_config(cost_functions=squares, horizon=m + 1)

    def test_start_state(self):
        assert make_config().start_state() == (0, 0, 0)
        cfg = make_config(initial_state=(4, 0, 1))
        assert cfg.start_state() == (4, 0, 1)


class TestSampledSlots:
    def test_geometric_plus_final(self):
        assert sampled_slots(10) == (1, 2, 4, 8, 10)
        assert sampled_slots(8) == (1, 2, 4, 8)
        assert sampled_slots(1) == (1,)


def every_slot(cfg):
    return range(1, cfg.horizon + 1)


def run_alone(cfg, policy, replications):
    """``policy``'s row of an ``engine.simulate`` run of it next to ``mwm`` only."""
    policies = tuple(dict.fromkeys(("mwm", policy)))
    block = engine.simulate(replace(cfg, policies=policies), replications, every_slot(cfg))
    row = slice(policies.index(policy), policies.index(policy) + 1)
    return engine.Block(block.quarter_sums[row], block.states[row], block.mw_index[row])


class TestRunReplication:
    """One policy through one replication: its row of a run next to ``mwm``."""

    def test_no_arrivals_stay_empty(self):
        cfg = make_config(
            params=SystemParams(3, 2, 0.5, 0.0), record_interval=1, horizon=20
        )
        for policy in cfg.policies:
            block = run_alone(cfg, policy, range(1))
            assert not block.states.any()
            assert not block.quarter_sums.any()

    def test_no_service_accumulates_every_arrival(self):
        cfg = make_config(
            params=SystemParams(3, 2, 0.0, 1.0), horizon=10, record_interval=10
        )
        for policy in cfg.policies:
            block = run_alone(cfg, policy, range(1))
            assert block.states[0, 0].tolist() == [[t] * 3 for t in range(1, 11)]
            # 3 t packets at slot t: slots 6..7, then 8..10
            assert block.quarter_sums.tolist() == [[39, 81]]
            assert block.mw_index[0, 0].tolist() == [0] * 10

    def test_bit_identical_reruns(self):
        cfg = make_config(record_interval=1)
        for policy in cfg.policies:
            a, b = (run_alone(cfg, policy, range(3, 4)) for _ in range(2))
            for field in ("quarter_sums", "states", "mw_index"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_initial_state_override(self):
        cfg = make_config(
            params=SystemParams(2, 1, 0.0, 0.0),
            initial_state=(5, 2),
            horizon=4,
            record_interval=1,
            policies=("mwm",),
        )
        block = engine.simulate(cfg, range(1), every_slot(cfg))
        assert block.states[0, 0].tolist() == [[5, 2]] * 4

    def test_trace_consistent_with_independent_recomputation(self):
        cfg = make_config(record_interval=1, horizon=40)
        records = trace_records(cfg, run_experiment(cfg)[1])
        for policy in cfg.policies:
            block = run_alone(cfg, policy, range(2, 3))
            traced = [
                rec for rec in records if rec.replication == 2 and rec.policy == policy
            ]
            x = cfg.start_state()
            n, k = cfg.params.n_queues, cfg.params.n_servers
            for t in range(1, cfg.horizon + 1):
                u_c = slot_stream(cfg.seed, 2, STREAM_CONNECTIVITY, t, n * k)
                c = tuple(
                    tuple(int(v) for v in row)
                    for row in (u_c.random((n, k)) < cfg.params.connect_prob).tolist()
                )
                u_a = slot_stream(cfg.seed, 2, STREAM_ARRIVALS, t, n)
                a = tuple(int(v) for v in (u_a.random(n) < cfg.params.arrival_prob).tolist())
                if policy == "random_maximal":
                    gen = slot_stream(cfg.seed, 2, STREAM_POLICY, t, n * k)
                    m = random_maximal_from_uniforms(x, c, gen.random(n * k))
                else:
                    m = DETERMINISTIC_DECIDERS[policy](x, c)
                mw = matching_weight(x, c, m)
                x = tuple(s + ai for s, ai in zip(serve(x, c, m), a))
                assert tuple(block.states[0, 0, t - 1].tolist()) == x
                assert block.mw_index[0, 0, t - 1] == mw
                rec = traced[t - 1]
                assert rec.slot == t
                assert rec.state == x
                assert rec.mw_index == mw
                assert rec.costs == tuple(
                    COST_FUNCTIONS[name](x) for name in cfg.cost_functions
                )


class TestCoupling:
    def test_policy_results_do_not_depend_on_which_policies_run(self):
        # each policy sees the same path whether it runs next to the reference
        # only, through the engine or the experiment, or with all four
        # policies in another order; every slot is recorded, so every slot's
        # state and total is compared
        sizes = dict(horizon=40, replications=4, record_interval=1)
        cfg = make_config(**sizes)
        everyone_cfg = make_config(policies=tuple(reversed(cfg.policies)), **sizes)
        everyone, everyone_trace = run_experiment(everyone_cfg)
        everyone_records = trace_records(everyone_cfg, everyone_trace)
        slots = range(cfg.record_interval, cfg.horizon + 1, cfg.record_interval)

        def traced(records, policy):
            return [
                (rec.replication, rec.slot, rec.state, rec.mw_index)
                for rec in records if rec.policy == policy
            ]

        for policy in cfg.policies:
            block = run_alone(cfg, policy, range(cfg.replications))
            alone = [
                (r, t, tuple(x), mw)
                for r, (states, weights) in enumerate(
                    zip(block.states[0].tolist(), block.mw_index[0].tolist())
                )
                for t, x, mw in zip(slots, states, weights)
            ]
            assert traced(everyone_records, policy) == alone
            few = ("mwm",) if policy == "mwm" else ("mwm", policy)
            few_cfg = make_config(policies=few, **sizes)
            report, trace = run_experiment(few_cfg)
            assert traced(trace_records(few_cfg, trace), policy) == alone
            mine, theirs = few.index(policy), everyone_cfg.policies.index(policy)
            assert np.array_equal(
                trace.states[mine].sum(axis=(0, 2)),
                everyone_trace.states[theirs].sum(axis=(0, 2)),
            )
            assert np.array_equal(
                trace.quarter_sums[mine], everyone_trace.quarter_sums[theirs]
            )
            assert report.stability[policy] == everyone.stability[policy]

    def test_full_connectivity_with_enough_servers_collapses_all_policies(self):
        cfg = make_config(
            params=SystemParams(2, 3, 1.0, 0.5), horizon=60, replications=1,
            record_interval=1,
        )
        block = engine.simulate(cfg, range(1), every_slot(cfg))
        states = dict(zip(cfg.policies, block.states[:, 0].tolist()))
        reference = states["mwm"]
        for policy in cfg.policies:
            assert states[policy] == reference


class TestCoupledCompare:
    def test_self_comparison_has_no_violations(self):
        cfg = make_config(policies=("mwm",), replications=12, horizon=32)
        report = run_experiment(cfg)[0]
        assert report.violations == ()

    def test_requires_mwm(self):
        with pytest.raises(ValueError, match="needs the mwm policy"):
            make_config(policies=("greedy_lcq",))

    def test_report_reproducible_and_thread_invariant(self):
        cfg = make_config(horizon=48, replications=6)
        r1, t1 = run_experiment(cfg, max_workers=1)
        r2, t2 = run_experiment(cfg, max_workers=1)
        r3, t3 = run_experiment(cfg, max_workers=2)
        assert r1 == r2 == r3
        assert trace_records(cfg, t1) == trace_records(cfg, t2) == trace_records(cfg, t3)
        assert same_blocks(t1, t2) and same_blocks(t1, t3)

    def test_ccdf_monotone_and_bounded(self):
        cfg = make_config(horizon=48, replications=10)
        report = run_experiment(cfg)[0]
        for cost in cfg.cost_functions:
            series = {}
            for slot, r, policy, ccdf, lo, hi in ccdf_rows(report, cost):
                assert 0.0 <= lo <= ccdf <= hi <= 1.0
                series.setdefault((slot, policy), []).append((r, ccdf))
            for points in series.values():
                values = [p for _, p in sorted(points)]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ccdf_counts_match_records(self):
        cfg = make_config(horizon=16, replications=7, record_interval=1)
        report, trace = run_experiment(cfg)
        records = trace_records(cfg, trace)
        intervals = clopper_pearson_table(cfg.replications)
        for cost_idx, cost in enumerate(cfg.cost_functions):
            for slot, r, policy, ccdf, lo, hi in ccdf_rows(report, cost):
                vals = [
                    rec.costs[cost_idx]
                    for rec in records
                    if rec.policy == policy and rec.slot == slot
                ]
                k = sum(v > r for v in vals)
                assert ccdf == k / cfg.replications
                assert (lo, hi) == intervals[k]

    def test_mean_costs_match_records(self):
        cfg = make_config(horizon=16, replications=5, record_interval=1,
                          policies=("mwm", "fixed_order"))
        report, trace = run_experiment(cfg)
        records = trace_records(cfg, trace)
        for cost_idx, cost in enumerate(cfg.cost_functions):
            for policy in cfg.policies:
                for slot_idx, slot in enumerate(report.sampled_slots):
                    vals = [
                        r.costs[cost_idx]
                        for r in records
                        if r.policy == policy and r.slot == slot
                    ]
                    assert len(vals) == cfg.replications
                    assert report.mean_costs[cost][policy][slot_idx] == pytest.approx(
                        sum(vals) / len(vals)
                    )

    def test_violations_match_a_per_point_oracle(self):
        # hand-made costs: at slot 2 every mwm value exceeds every fixed_order
        # value and most greedy_lcq values, so for r in 5..6 the mwm interval
        # lies wholly above both baselines'
        cfg = make_config(
            horizon=4, replications=20, policies=("mwm", "fixed_order", "greedy_lcq")
        )
        sampled = sampled_slots(cfg.horizon)
        gen = np.random.default_rng(5)
        costs = {p: gen.integers(0, 12, size=(20, len(sampled))) for p in cfg.policies}
        for p, (low, high) in zip(cfg.policies, [(7, 12), (0, 6), (0, 9)]):
            costs[p][:, 1] = gen.integers(low, high, size=20)
        values = {
            p: {"total_occupancy": v, "max_queue": v // 3} for p, v in costs.items()
        }
        quarter_sums = np.zeros((len(cfg.policies), 2), dtype=np.int64)
        by_cost = {
            c: np.stack([values[p][c] for p in cfg.policies]) for c in cfg.cost_functions
        }
        report = harness._build_report(cfg, sampled, quarter_sums, by_cost)

        reps = cfg.replications
        intervals = clopper_pearson_table(reps)
        expected = []
        for cost in cfg.cost_functions:
            pooled = sorted(int(v) for p in cfg.policies for v in values[p][cost].ravel())
            r_max = pooled[(99 * len(pooled) + 99) // 100 - 1]
            for slot_idx, slot in enumerate(sampled):
                for r in range(r_max + 1):
                    k = {
                        p: sum(int(v) > r for v in values[p][cost][:, slot_idx])
                        for p in cfg.policies
                    }
                    mwm_lo = intervals[k["mwm"]][0]
                    for p in cfg.policies:
                        hi = intervals[k[p]][1]
                        if mwm_lo > hi:
                            expected.append(DominanceViolation(
                                cost, slot, r, p, k["mwm"] / reps, k[p] / reps, mwm_lo, hi,
                            ))
        assert list(report.violations) == expected
        assert {(v.cost, v.slot, v.threshold, v.policy) for v in expected} >= {
            ("total_occupancy", 2, r, p) for r in (5, 6) for p in cfg.policies[1:]
        }
        text = format_dominance_summary(report)
        assert f"dominance violations: {len(expected)}" in text
        lines = [line for line in text.splitlines() if "VIOLATION" in line]
        assert len(lines) == len(expected)
        for line, v in zip(lines, expected):
            assert line.startswith(
                f"  VIOLATION cost={v.cost} slot={v.slot} r={v.threshold} policy={v.policy} "
            )

    def test_zero_arrivals_zero_occupancy_for_all(self):
        cfg = make_config(
            params=SystemParams(3, 2, 0.5, 0.0), horizon=32, record_interval=1
        )
        report, trace = run_experiment(cfg)
        # every slot of every replication is recorded
        assert not trace.states.any() and not trace.quarter_sums.any()
        for policy in cfg.policies:
            assert report.stability[policy] == harness.StabilityCheck(0.0, 0.0, False)
        assert report.violations == ()

    def test_full_connectivity_square_system_means_coincide(self):
        # with p=1 and as many servers as queues, the greedy baseline serves
        # exactly the queues mwm serves, so the mean curves match exactly
        cfg = make_config(
            params=SystemParams(2, 2, 1.0, 0.15),
            horizon=128,
            replications=10,
            policies=("mwm", "greedy_lcq"),
            record_interval=1,
        )
        report, trace = run_experiment(cfg)
        # the total over the replications at every slot
        totals = trace.states.sum(axis=(1, 3))
        assert totals.any() and np.array_equal(totals[0], totals[1])
        assert np.array_equal(trace.quarter_sums[0], trace.quarter_sums[1])
        assert report.stability["mwm"] == report.stability["greedy_lcq"]
        assert report.violations == ()


class TestClopperPearson:
    def test_extremes(self):
        lo, hi = clopper_pearson_table(20)[0]
        assert lo == 0.0 and 0 < hi < 1
        lo, hi = clopper_pearson_table(20)[20]
        assert 0 < lo < 1 and hi == 1.0

    def test_contains_point_estimate(self):
        for n in (1, 3, 7, 10):
            for k, (lo, hi) in enumerate(clopper_pearson_table(n)):
                assert lo <= k / n <= hi

    def test_exact_tail_brackets_bounds(self):
        # exact rationals: the tail equation changes sign within a relative
        # 1e-13 of each bound, so the bound is that close to the true root
        q = (1 - Fraction(CONFIDENCE_LEVEL)) / 2
        below, above = 1 - Fraction(1, 10**13), 1 + Fraction(1, 10**13)
        for n in range(1, 41):
            for k, (lo, hi) in enumerate(clopper_pearson_table(n)):
                if k == 0:
                    assert lo == 0.0
                else:
                    assert _tail_at_least(k, n, Fraction(lo) * below) < q
                    assert _tail_at_least(k, n, Fraction(lo) * above) > q
                if k == n:
                    assert hi == 1.0
                else:
                    # P(Bin(n, p) <= k) = 1 - P(Bin(n, p) >= k + 1)
                    assert 1 - _tail_at_least(k + 1, n, Fraction(hi) * below) > q
                    assert 1 - _tail_at_least(k + 1, n, Fraction(hi) * above) < q

    def test_matches_scipy(self):
        q = (1.0 - CONFIDENCE_LEVEL) / 2
        for n in (1, 2, 10, 40, 200, 1000):
            table = clopper_pearson_table(n)
            ks = np.arange(1, n + 1)
            lows = betaincinv(ks, n - ks + 1, q)
            highs = betaincinv(n - ks + 1, ks, 1 - q)  # upper bound at n - k
            for k, lo, hi in zip(ks.tolist(), lows.tolist(), highs.tolist()):
                assert table[k][0] == pytest.approx(lo, rel=1e-12)
                assert table[n - k][1] == pytest.approx(hi, rel=1e-12)

    def test_closed_form_ends(self):
        q = (1.0 - CONFIDENCE_LEVEL) / 2
        for n in (1, 2, 7, 40, 1000):
            table = clopper_pearson_table(n)
            assert table[n][0] == pytest.approx(q ** (1 / n), rel=1e-15)
            assert table[0][1] == pytest.approx(-math.expm1(math.log(q) / n), rel=1e-15)

    def test_monotone_and_symmetric(self):
        for n in (1, 2, 5, 40, 200):
            bounds = clopper_pearson_table(n)
            lows, highs = zip(*bounds)
            assert all(a < b for a, b in zip(lows, lows[1:]))
            assert all(a < b for a, b in zip(highs, highs[1:]))
            for k, (lo, hi) in enumerate(bounds):
                lo_mirror, hi_mirror = bounds[n - k]
                assert lo == pytest.approx(1 - hi_mirror, rel=1e-13, abs=2**-52)
                assert hi == pytest.approx(1 - lo_mirror, rel=1e-13, abs=2**-52)


def _tail_at_least(k: int, n: int, p: Fraction) -> Fraction:
    """P(Bin(n, p) >= k) in exact arithmetic."""
    u, v = p.numerator, p.denominator
    total = sum(math.comb(n, j) * u**j * (v - u) ** (n - j) for j in range(k, n + 1))
    return Fraction(total, v**n)


def audit_field(lines, name):
    """The value of the report line ``  <name>: <value>``."""
    (value,) = [ln.split(": ", 1)[1] for ln in lines if ln.startswith(f"  {name}: ")]
    return value


def not_below(lines):
    return [ln for ln in lines if ln.startswith("  NOT BELOW ")]


class TestAudit:
    def test_self_audit_holds_everywhere(self):
        cfg = make_config(
            params=SystemParams(2, 1, 0.5, 0.2), horizon=40, replications=5,
            policies=("mwm",),
        )
        lines = order_audit_lines(cfg)
        assert audit_field(lines, "slots checked") == "200"
        assert float(audit_field(lines, "fraction holding")) == 1.0
        assert not_below(lines) == []

    def test_zero_arrivals_hold_trivially(self):
        cfg = make_config(
            params=SystemParams(2, 1, 0.5, 0.0), horizon=30, replications=3,
            policies=("mwm", "fixed_order"),
        )
        lines = order_audit_lines(cfg)
        assert float(audit_field(lines, "fraction holding")) == 1.0

    def test_exploratory_run_reports_fraction(self):
        cfg = make_config(
            params=SystemParams(2, 1, 0.5, 0.2), horizon=50, replications=20,
            policies=("mwm", "fixed_order"),
        )
        lines = order_audit_lines(cfg)
        assert 0.0 <= float(audit_field(lines, "fraction holding")) <= 1.0
        assert audit_field(lines, "slots checked") == str(50 * 20)

    @pytest.mark.parametrize(
        "policies",
        [("mwm", "fixed_order", "greedy_lcq"), ("fixed_order", "mwm")],
        ids=["two-baselines", "mwm-second"],
    )
    def test_policies_other_than_mwm_and_one_baseline_are_rejected(self, policies):
        with pytest.raises(ValueError, match="audit"):
            order_audit_lines(make_config(policies=policies))

    def test_five_queues_long_horizon_matches_oracle(self):
        cfg = make_config(
            params=SystemParams(5, 2, 0.5, 0.2), horizon=80, replications=3,
            policies=("mwm", "fixed_order"), record_interval=1,
        )
        lines = order_audit_lines(cfg)
        assert audit_field(lines, "slots checked") == str(3 * 80)
        holding = 0
        block = engine.simulate(cfg, range(cfg.replications), every_slot(cfg))
        for xm, xb in zip(*block.states.tolist()):
            holding += sum(
                tuple(xm[t]) in bfs_lower_set(xb[t]) for t in range(cfg.horizon)
            )
        assert audit_field(lines, "slots where mwm state is below baseline") == str(holding)
        assert len(not_below(lines)) == 3 * 80 - holding


class TestCsvShapes:
    def test_trace_header_and_rows(self):
        cfg = make_config(horizon=16, replications=2, record_interval=8,
                          policies=("mwm", "fixed_order"))
        report, trace = run_experiment(cfg)
        records = trace_records(cfg, trace)
        lines = list(trace_csv_lines(cfg, trace))
        assert lines[0] == (
            "replication,slot,policy,cost_name,cost_value,mw_index,x_0,x_1,x_2"
        )
        # one line per record per cost function
        assert len(lines) - 1 == len(records) * len(cfg.cost_functions)
        for line in lines[1:]:
            assert len(line.split(",")) == 6 + cfg.params.n_queues

    def test_trace_must_match_the_config(self):
        cfg = make_config(horizon=16, replications=2, record_interval=8)
        trace = run_experiment(cfg)[1]
        assert len(list(trace_csv_lines(cfg, trace))) == 1 + 2 * 4 * 2 * 2
        others = [
            make_config(horizon=16, replications=3, record_interval=8),
            make_config(horizon=16, replications=2, record_interval=4),
            make_config(horizon=16, replications=2, record_interval=8,
                        policies=("mwm", "fixed_order")),
            make_config(params=SystemParams(4, 2, 0.5, 0.25), horizon=16,
                        replications=2, record_interval=8),
        ]
        for other in others:
            with pytest.raises(ValueError, match="do not match the config"):
                next(trace_csv_lines(other, trace))
        short = engine.Block(trace.quarter_sums, trace.states, trace.mw_index[:, :1])
        with pytest.raises(ValueError, match="do not match the config"):
            next(trace_csv_lines(cfg, short))

    def test_dominance_header(self):
        cfg = make_config(horizon=8, replications=3)
        report = run_experiment(cfg)[0]
        lines = list(dominance_csv_lines(report, "total_occupancy"))
        assert lines[0] == "slot,r,policy,ccdf,ci_low,ci_high"
        assert len(lines) > 1

    def test_writers_match_row_by_row_oracle(self, tmp_path):
        cfg = make_config(
            params=SystemParams(4, 2, 0.5, 0.6), horizon=40, replications=7,
            record_interval=1, policies=("mwm", "greedy_lcq", "fixed_order"),
            cost_functions=("total_occupancy", "sum_of_squares"),
        )
        report, trace_block = run_experiment(cfg)
        records = trace_records(cfg, trace_block)
        reps = cfg.replications
        intervals = clopper_pearson_table(reps)

        trace = ["replication,slot,policy,cost_name,cost_value,mw_index,x_0,x_1,x_2,x_3"]
        for rec in records:
            state = ",".join(str(v) for v in rec.state)
            for cost, value in zip(cfg.cost_functions, rec.costs):
                trace.append(
                    f"{rec.replication},{rec.slot},{rec.policy},"
                    f"{cost},{value},{rec.mw_index},{state}"
                )
        expected = {"trace.csv": trace}
        for cost_idx, cost in enumerate(cfg.cost_functions):
            at = {}
            for rec in records:
                at.setdefault((rec.slot, rec.policy), []).append(rec.costs[cost_idx])
            pooled = sorted(
                v for slot in report.sampled_slots for p in cfg.policies for v in at[slot, p]
            )
            r_max = pooled[(99 * len(pooled) + 99) // 100 - 1]
            rows = ["slot,r,policy,ccdf,ci_low,ci_high"]
            for slot in report.sampled_slots:
                for r in range(r_max + 1):
                    for p in cfg.policies:
                        k = sum(v > r for v in at[slot, p])
                        lo, hi = intervals[k]
                        rows.append(f"{slot},{r},{p},{k / reps!r},{lo!r},{hi!r}")
            expected[f"dominance_{cost}.csv"] = rows

        write_lines(tmp_path / "trace.csv", trace_csv_lines(cfg, trace_block))
        for cost in cfg.cost_functions:
            write_lines(tmp_path / f"dominance_{cost}.csv", dominance_csv_lines(report, cost))
        # the largest file spans several write batches
        assert len(expected["dominance_sum_of_squares.csv"]) > 2 * harness._WRITE_BATCH
        for name, lines in expected.items():
            assert (tmp_path / name).read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_write_lines_batches_match_line_by_line(self, tmp_path):
        batch = harness._WRITE_BATCH
        for count in (0, 1, batch, batch + 1):
            lines = [f"line {i},{i * i}" for i in range(count)]
            path = tmp_path / f"{count}.txt"
            write_lines(path, iter(lines))
            assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()

    def test_summary_mentions_violation_count(self):
        cfg = make_config(horizon=8, replications=3)
        report = run_experiment(cfg)[0]
        text = format_dominance_summary(report)
        assert "dominance violations: 0" in text
