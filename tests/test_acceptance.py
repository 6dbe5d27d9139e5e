"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Criterion 5 is the desk-scale coupled run and dominates the
module's runtime.
"""

import random
import sys
import time

from mwmlab import engine
from mwmlab.balance import (
    COST_FUNCTIONS,
    preceq_p,
    reachable_below,
)
from mwmlab.engine import SystemParams
from mwmlab.harness import (
    SimConfig,
    dominance_csv_lines,
    run_experiment,
    trace_csv_lines,
    write_lines,
)
from mwmlab.matching import enumerate_matchings, max_weight_matching


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # keep the one-line verdict visible even under pytest's capture
        print(line, file=sys.__stdout__)
    assert ok, detail


def test_criterion_1_matching_oracle_equivalence():
    rnd = random.Random(20260810)
    cases = 10_000
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(cases):
        n = rnd.randint(1, 4)
        k = rnd.randint(1, 4)
        w = [[rnd.randint(0, 5) for _ in range(k)] for _ in range(n)]
        solved = sum(w[q][s] for q, s in max_weight_matching(w))
        oracle = max(
            sum(w[q][s] for q, s in m) for m in enumerate_matchings(n, k)
        )
        if solved != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"{cases} random instances, {mismatches} oracle mismatches, "
        f"{elapsed:.1f}s (target < 30s)",
    )


def test_criterion_2_weight_increase_exhaustive(sweep_2x2, sweep_3x2, sweep_4x2, sweep_3x3):
    sweeps = (sweep_2x2, sweep_3x2, sweep_4x2, sweep_3x3)
    bad = sum(len(s.weight_increase_violations) for s in sweeps)
    pairs = sum(s.reallocation_pairs for s in sweeps)
    elapsed = sum(s.elapsed_seconds for s in sweeps)
    _report(
        2,
        bad == 0 and elapsed < 300.0,
        f"{pairs} reallocation pairs across {len(sweeps)} sweeps, {bad} violations, "
        f"{elapsed:.1f}s (target < 300s)",
    )


def test_criterion_3_existence_biconditional(sweep_2x2, sweep_3x2, sweep_4x2, sweep_3x3):
    sweeps = (sweep_2x2, sweep_3x2, sweep_4x2, sweep_3x3)
    bad = sum(
        len(s.biconditional_violations) + len(s.unreachable_optimum) for s in sweeps
    )
    instances = sum(s.instances for s in sweeps)
    _report(
        3,
        bad == 0,
        f"{instances} (state, connectivity, matching) instances, {bad} violations",
    )


def test_criterion_4_order_monotonicity_and_transitivity():
    rnd = random.Random(4)
    pairs = []
    while len(pairs) < 10_000:
        n = rnd.randint(1, 4)
        x = tuple(rnd.randint(0, 4) for _ in range(n))
        if sum(x) > 12:
            continue
        lower = sorted(reachable_below(x))
        take = min(len(lower), 200)
        for below in rnd.sample(lower, take):
            pairs.append((below, x))
    bad = {
        name: sum(fn(lo) > fn(hi) for lo, hi in pairs)
        for name, fn in COST_FUNCTIONS.items()
    }
    triples_checked = 0
    triple_failures = 0
    while triples_checked < 1000:
        x = tuple(rnd.randint(0, 3) for _ in range(rnd.randint(1, 4)))
        if sum(x) > 10:
            continue
        mids = sorted(reachable_below(x))
        mid = mids[rnd.randrange(len(mids))]
        bots = sorted(reachable_below(mid))
        bot = bots[rnd.randrange(len(bots))]
        if not (preceq_p(mid, x) and preceq_p(bot, mid) and preceq_p(bot, x)):
            triple_failures += 1
        triples_checked += 1
    total_bad = sum(bad.values()) + triple_failures
    _report(
        4,
        total_bad == 0,
        f"{len(pairs)} ordered pairs x {len(bad)} cost functions, "
        f"violations {bad}; {triples_checked} transitivity triples, "
        f"{triple_failures} failures",
    )


DESK_SCALE = SimConfig(
    params=SystemParams(4, 2, 0.5, 0.2),
    horizon=10_000,
    replications=200,
    seed=42,
    policies=("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
    cost_functions=("total_occupancy",),
    record_interval=1000,
)


def test_criterion_5_coupled_dominance_desk_scale():
    t0 = time.perf_counter()
    report, _ = run_experiment(DESK_SCALE)
    elapsed = time.perf_counter() - t0
    mean_breaches = []
    means = report.mean_costs["total_occupancy"]
    for policy in DESK_SCALE.policies:
        for idx, slot in enumerate(report.sampled_slots):
            if means["mwm"][idx] > means[policy][idx]:
                mean_breaches.append((policy, slot))
    _report(
        5,
        not mean_breaches and not report.violations and elapsed < 120.0,
        f"N=4 K=2 p=0.5 lambda=0.2 T=10000 R=200 seed=42: "
        f"{len(mean_breaches)} mean breaches, {len(report.violations)} "
        f"tail-bound violations, {elapsed:.1f}s (target < 120s)",
    )


def test_criterion_6_degenerate_exactness():
    # full connectivity with servers to spare: all policies collapse
    full = SimConfig(
        params=SystemParams(3, 3, 1.0, 0.5),
        horizon=300,
        replications=3,
        seed=42,
        policies=("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
        record_interval=1,
    )
    every_slot = range(1, full.horizon + 1)
    block = engine.simulate(full, full.policies, range(full.replications), every_slot)
    collapse_ok = True
    for r in range(full.replications):
        trajectories = [
            block.states[p, r].tolist() for p in range(len(full.policies))
        ]
        collapse_ok = collapse_ok and all(t == trajectories[0] for t in trajectories)

    idle = SimConfig(
        params=SystemParams(4, 2, 0.5, 0.0),
        horizon=200,
        replications=3,
        seed=42,
        policies=("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
        record_interval=1,
    )
    # the trace holds every slot's state
    _, idle_trace = run_experiment(idle)
    idle_ok = not idle_trace.states.any() and not idle_trace.quarter_sums.any()
    _report(
        6,
        collapse_ok and idle_ok,
        f"p=1 K>=N trajectories bit-identical: {collapse_ok}; "
        f"lambda=0 occupancy all zero: {idle_ok}",
    )


def test_criterion_7_reproducibility(tmp_path):
    config = SimConfig(
        params=SystemParams(3, 2, 0.5, 0.2),
        horizon=512,
        replications=24,
        seed=9001,
        policies=("mwm", "greedy_lcq", "fixed_order", "random_maximal"),
        cost_functions=("total_occupancy", "sum_of_squares"),
        record_interval=64,
    )
    outputs = []
    for idx, workers in enumerate((1, 2)):
        report, trace = run_experiment(config, max_workers=workers)
        out = tmp_path / f"run{idx}"
        out.mkdir()
        write_lines(out / "trace.csv", trace_csv_lines(config, trace))
        for cost in config.cost_functions:
            write_lines(
                out / f"dominance_{cost}.csv", dominance_csv_lines(report, cost)
            )
        outputs.append(
            {
                name.name: name.read_bytes()
                for name in sorted(out.iterdir())
            }
        )
    identical = outputs[0] == outputs[1]
    _report(
        7,
        identical,
        f"CSV outputs byte-identical across runs with 1 and 2 workers: {identical}",
    )
