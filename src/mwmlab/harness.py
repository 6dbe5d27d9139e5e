"""Coupled Monte Carlo comparison of server assignment policies.

Every policy replays the identical realization of connectivities and
arrivals for each replication, so trajectory differences are attributable
to the policies alone; ``engine.simulate`` advances all of them in lockstep.
The comparison aggregates per-slot mean costs and empirical tail
probabilities with exact binomial confidence intervals, and flags any point
where the reference policy's tail provably exceeds a baseline's.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import engine, rng
from .balance import COST_FUNCTIONS, QueueState, validate_state, weakly_submajorized
from .engine import MWM, POLICY_NAMES, SystemParams

CONFIDENCE_LEVEL = 0.99

# Mean-occupancy growth beyond these factors between the third and final
# quarter of the horizon flags a policy as possibly unstable at this load.
_GROWTH_FACTOR = 1.05
_GROWTH_SLACK = 0.5

# Queue lengths stay below this, so every matching weight and score the
# simulation engine forms fits in int64.
_STATE_LIMIT = 2**48


@dataclass(frozen=True)
class SimConfig:
    """Full description of one coupled experiment."""

    params: SystemParams
    horizon: int
    replications: int
    seed: int
    policies: tuple[str, ...]
    cost_functions: tuple[str, ...] = ("total_occupancy",)
    record_interval: int = 1
    initial_state: tuple[int, ...] | None = None

    def __post_init__(self):
        engine.require_integers(self, "horizon", "replications", "record_interval", "seed")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.replications > rng.REPLICATION_LIMIT:
            raise ValueError("replication count exceeds the stream key space")
        for key in ("policies", "cost_functions"):
            if isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a sequence of names, not a string")
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ValueError(
                    f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
                )
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("policies must be unique")
        if MWM not in self.policies:
            raise ValueError("the coupled comparison needs the mwm policy included")
        if not self.cost_functions:
            raise ValueError("at least one cost function is required")
        for name in self.cost_functions:
            if name not in COST_FUNCTIONS:
                raise ValueError(
                    f"unknown cost function {name!r}; registered: "
                    f"{tuple(sorted(COST_FUNCTIONS))}"
                )
        if len(set(self.cost_functions)) != len(self.cost_functions):
            raise ValueError("cost functions must be unique")
        if self.record_interval < 1:
            raise ValueError(
                f"record_interval must be >= 1, got {self.record_interval}"
            )
        if self.initial_state is not None:
            state = validate_state(self.initial_state)
            if len(state) != self.params.n_queues:
                raise ValueError(
                    f"initial state has {len(state)} entries for "
                    f"{self.params.n_queues} queues"
                )
        # Every reachable state lies componentwise below this corner, so each
        # (increasing) cost in COST_FUNCTIONS is largest there; the report counts in int64.
        top = max(self.start_state()) + self.horizon
        if top >= _STATE_LIMIT:
            raise ValueError("initial queue lengths plus the horizon must stay below 2**48")
        for name in self.cost_functions:
            value = COST_FUNCTIONS[name]((top,) * self.params.n_queues)
            if value > 2**63 - 1:
                raise ValueError(
                    f"cost function {name} reaches {value} > 2**63 - 1 with every "
                    f"queue at {top} (initial state plus horizon)"
                )

    def start_state(self) -> QueueState:
        if self.initial_state is None:
            return (0,) * self.params.n_queues
        return tuple(int(v) for v in self.initial_state)


@dataclass(frozen=True)
class DominanceViolation:
    """A (slot, threshold) point where the reference tail provably exceeds a baseline's."""

    cost: str
    slot: int
    threshold: int
    policy: str
    mwm_ccdf: float
    policy_ccdf: float
    mwm_ci_low: float
    policy_ci_high: float


@dataclass(frozen=True)
class StabilityCheck:
    """Growth comparison between the third and final quarter of the horizon."""

    third_quarter_mean: float
    final_quarter_mean: float
    flagged: bool


@dataclass(frozen=True)
class DominanceReport:
    """Aggregated coupled-comparison results of one config."""

    config: SimConfig
    sampled_slots: tuple[int, ...]
    # (ci_low, ci_high) of each success count k = 0..replications
    intervals: tuple[tuple[float, float], ...]
    # per cost: threshold count; r runs up to the pooled 99th percentile of the cost
    thresholds: dict[str, int]
    # per cost: success counts k = #(cost > r), flat in (slot, r, policy) order
    counts: dict[str, tuple[int, ...]]
    # per cost, per policy: mean cost at each sampled slot
    mean_costs: dict[str, dict[str, tuple[float, ...]]]
    stability: dict[str, StabilityCheck]
    violations: tuple[DominanceViolation, ...]


def sampled_slots(horizon: int) -> tuple[int, ...]:
    """Geometric slot grid 1, 2, 4, ... plus the final slot."""
    slots = []
    t = 1
    while t <= horizon:
        slots.append(t)
        t *= 2
    if slots[-1] != horizon:
        slots.append(horizon)
    return tuple(slots)


def _record_slots(config: SimConfig) -> range:
    """The slots of the trace: every ``record_interval``-th slot."""
    return range(config.record_interval, config.horizon + 1, config.record_interval)


def run_experiment(
    config: SimConfig, max_workers: int = 1
) -> tuple[DominanceReport, engine.Block]:
    """Run all policies over all replications and aggregate.

    Returns the report and the trace: one block over all replications, its
    states and matching weights at the record slots. Replications are
    independent work units, merged in replication order, so the result is
    identical for any worker count.
    """
    sampled = sampled_slots(config.horizon)
    recorded = _record_slots(config)
    kept = sorted({*sampled, *recorded})
    reps = config.replications
    workers = max(1, min(max_workers, reps))
    if workers > 1:
        # imported here: the process machinery costs every command start-up time
        from concurrent.futures import ProcessPoolExecutor

        # contiguous blocks of replications, one per worker, merged in order
        blocks = [
            range(reps * w // workers, reps * (w + 1) // workers) for w in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(engine.simulate, [config] * workers, blocks, [kept] * workers))
        trace = engine.Block(
            sum(part.quarter_sums for part in parts),
            np.concatenate([part.states for part in parts], axis=1),
            np.concatenate([part.mw_index for part in parts], axis=1),
        )
    else:
        trace = engine.simulate(config, range(reps), kept)

    at_sampled = trace.states[:, :, np.searchsorted(kept, sampled)]
    costs = {name: COST_FUNCTIONS[name](at_sampled) for name in config.cost_functions}
    report = _build_report(config, sampled, trace.quarter_sums, costs)
    # when every kept slot is recorded, the trace is the block itself, not a copy
    if len(recorded) < len(kept):
        at = np.searchsorted(kept, recorded)
        trace = engine.Block(
            trace.quarter_sums, trace.states[:, :, at], trace.mw_index[:, :, at]
        )
    return report, trace


def clopper_pearson_table(trials: int) -> tuple[tuple[float, float], ...]:
    """Two-sided exact binomial confidence intervals for k = 0..trials successes.

    With q = (1 - CONFIDENCE_LEVEL) / 2, the lower bound p at k solves
    P(Bin(trials, p) >= k) = q and the upper bound solves
    P(Bin(trials, p) <= k) = q. The upper bound at k is one minus the lower
    bound at trials - k, so each root s = log p of the lower-bound equation
    is solved once and gives both, as exp(s) and -expm1(s); each keeps its
    relative accuracy near 0 and near 1.
    """
    log_q = math.log((1.0 - CONFIDENCE_LEVEL) / 2)
    roots = [_log_lower_bound(k, trials, log_q) for k in range(trials + 1)]
    return tuple(
        (math.exp(s), -math.expm1(mirror)) for s, mirror in zip(roots, reversed(roots))
    )


# log(m!) - (m log m - m + log(2 pi m) / 2) for m = 1..15, rounded from 50 digits;
# from 16 on, five terms of the Stirling series reach double precision.
_STIRLING_ERRORS = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)

# Newton converges quadratically here, so once a step is below 1e-8 of
# min(1, |log p|) the root is known to about 1e-16 of the same scale.
_NEWTON_TOLERANCE = 1e-8
_NEWTON_STEPS = 64


def _stirling_error(m: int) -> float:
    if m <= len(_STIRLING_ERRORS):
        return _STIRLING_ERRORS[m - 1]
    w = 1.0 / (m * m)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / m


def _log_lower_bound(k: int, n: int, log_q: float) -> float:
    """log p where P(Bin(n, p) >= k) = exp(log_q), for 0 <= k <= n.

    Newton's method in s = log p. The log tail is increasing and concave in
    s, so from the union-bound start C(n, k) p^k = q, which lies left of the
    root, the steps approach the root from the left; a normal-approximation
    start that lies right of it returns to the left in one step. The tail
    is the point mass at k, from Stirling's series without cancellation,
    times the ratio sum over k..n, which stops once its terms are negligible.
    At k = 0 the tail is 1 for every p, and the bound is p = 0.
    """
    if k == 0:
        return -math.inf
    if k == n:
        return log_q / n
    x = k / n
    log_comb = (
        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
        + 0.5 * math.log(n / (2 * math.pi * k * (n - k)))
        - k * math.log(x) - (n - k) * math.log1p(-x)
    )
    floor = (log_q - log_comb) / k
    # the Wilson score bound, with an asymptotic square of the normal quantile
    z2 = max(0.0, -2 * log_q - math.log(-4 * math.pi * log_q))
    wilson = (k + z2 / 2 - math.sqrt(z2 * (k * (n - k) / n + z2 / 4))) / (n + z2)
    s = max(floor, math.log(wilson))
    for _ in range(_NEWTON_STEPS):
        # log(1 - p), accurate at either end
        log_b = math.log(-math.expm1(s)) if s > -math.log(2) else math.log1p(-math.exp(s))
        odds = math.exp(s - log_b)
        term = ratio_sum = 1.0
        for j in range(k, n):
            term *= (n - j) / (j + 1) * odds
            ratio_sum += term
            if term < 1e-17 * ratio_sum:
                break
        g = log_comb + k * s + (n - k) * log_b + math.log(ratio_sum) - log_q
        # d(log tail)/ds = k / ratio_sum
        step = g * ratio_sum / k
        s = max(s - step, floor)
        if abs(step) <= _NEWTON_TOLERANCE * min(1.0, -s):
            break
    return s


def _percentile_99(flat: np.ndarray) -> int:
    ordered = np.sort(flat, axis=None)
    idx = max(0, -(-99 * ordered.size // 100) - 1)
    return int(ordered[idx])


def _build_report(config, sampled, quarter_sums, costs) -> DominanceReport:
    """The report from the (P, 2) quarter occupancy sums and the (P, R, sampled) costs."""
    reps = config.replications
    stability = {
        p: _stability_check(sums, reps, config.horizon)
        for p, sums in zip(config.policies, quarter_sums)
    }

    # the success count k of any point lies in 0..reps
    intervals = clopper_pearson_table(reps)
    lows, highs = np.array(intervals).T
    mwm = config.policies.index(MWM)
    thresholds: dict[str, int] = {}
    counts: dict[str, tuple[int, ...]] = {}
    mean_costs: dict[str, dict[str, tuple[float, ...]]] = {}
    violations: list[DominanceViolation] = []
    for cost in config.cost_functions:
        thresholds[cost] = _percentile_99(costs[cost]) + 1
        # k = #(value > r) for every (slot, r, policy) at once
        grid = np.arange(thresholds[cost])
        ks = reps - np.array([
            [np.searchsorted(column, grid, side="right") for column in v.T]
            for v in np.sort(costs[cost], axis=1)
        ]).transpose(1, 2, 0)
        counts[cost] = tuple(ks.ravel().tolist())
        # the mwm tail provably exceeds a baseline's where the intervals are disjoint
        for s, r, p in zip(*np.nonzero(lows[ks[:, :, mwm, None]] > highs[ks])):
            k_mwm, k_p = ks[s, r, [mwm, p]].tolist()
            violations.append(DominanceViolation(
                cost, sampled[s], int(r), config.policies[p],
                k_mwm / reps, k_p / reps, intervals[k_mwm][0], intervals[k_p][1],
            ))
        mean_costs[cost] = {
            p: tuple((v.sum(axis=0) / reps).tolist())
            for p, v in zip(config.policies, costs[cost])
        }

    return DominanceReport(
        config=config,
        sampled_slots=tuple(sampled),
        intervals=intervals,
        thresholds=thresholds,
        counts=counts,
        mean_costs=mean_costs,
        stability=stability,
        violations=tuple(violations),
    )


def _stability_check(sums: np.ndarray, reps: int, horizon: int) -> StabilityCheck:
    lo, mid, hi = engine.quarter_bounds(horizon)
    if not lo < mid < hi:
        return StabilityCheck(0.0, 0.0, False)
    third = float(sums[0]) / (reps * (mid - lo))
    final = float(sums[1]) / (reps * (hi - mid))
    flagged = final > third * _GROWTH_FACTOR + _GROWTH_SLACK
    return StabilityCheck(third, final, flagged)


# --- order audit ------------------------------------------------------------

# The audit simulates replications in blocks of at most this many state cells.
_AUDIT_BLOCK_CELLS = 1 << 16


def order_audit_lines(config: SimConfig) -> list[str]:
    """Report, slot by slot, whether the mwm state stays below the baseline's.

    ``config.policies`` is ``(mwm,)`` or ``(mwm, baseline)``; the two run on
    shared sample paths, and every slot of every replication is checked with
    the closed-form order test. Exploratory: a slot where the mwm state is
    not below the baseline state is listed, not treated as an error.
    """
    names = config.policies
    if names[0] != MWM or len(names) > 2:
        raise ValueError(f"the audit runs (mwm,) or (mwm, baseline), got {names}")
    n = config.params.n_queues
    horizon = config.horizon
    # every slot's state is kept, so blocks of replications bound the memory
    size = max(1, _AUDIT_BLOCK_CELLS // (len(names) * (horizon + 1) * n))
    every_slot = range(1, horizon + 1)
    holding = 0
    failures = []
    for first in range(0, config.replications, size):
        block = range(first, min(first + size, config.replications))
        states = engine.simulate(config, block, every_slot).states
        below = weakly_submajorized(states[0], states[-1])
        holding += int(below.sum())
        for r, t in zip(*np.nonzero(~below)):
            xm, xb = states[[0, -1], r, t].tolist()
            failures.append(
                f"  NOT BELOW replication={first + int(r)} slot={int(t) + 1} "
                f"mwm={tuple(xm)} baseline={tuple(xb)}"
            )
    checked = config.replications * horizon
    return [
        "per-slot partial-order audit (exploratory)",
        f"  baseline: {names[-1]}",
        f"  replications: {config.replications}, horizon: {horizon}",
        f"  slots checked: {checked}",
        f"  slots where mwm state is below baseline: {holding}",
        f"  fraction holding: {holding / checked!r}",
        # No slot is skipped; perfbench/check.py and perfbench/run.py parse this line.
        "  slots skipped by search guard: 0",
        *failures,
    ]


# --- file output -------------------------------------------------------------

def trace_csv_lines(config: SimConfig, trace: engine.Block):
    """Long-format rows of a ``run_experiment`` trace, read one replication at a time."""
    slots = _record_slots(config)
    n = config.params.n_queues
    shape = (len(config.policies), config.replications, len(slots), n)
    if trace.states.shape != shape or trace.mw_index.shape != shape[:3]:
        raise ValueError(
            f"trace states {trace.states.shape} and weights {trace.mw_index.shape} "
            f"do not match the config's (policies, replications, slots, queues) {shape}"
        )
    yield (
        "replication,slot,policy,cost_name,cost_value,mw_index,"
        + ",".join(f"x_{i}" for i in range(n))
    )
    row = "%d,%d,%s,%s,%d" + ",%d" * (1 + n)
    for r in range(config.replications):
        states = trace.states[:, r]
        costs = np.stack([COST_FUNCTIONS[c](states) for c in config.cost_functions], -1)
        tails = np.concatenate([trace.mw_index[:, r, :, None], states], axis=-1)
        for policy, by_slot, tails_p in zip(config.policies, costs.tolist(), tails.tolist()):
            for t, values, tail in zip(slots, by_slot, tails_p):
                for name, value in zip(config.cost_functions, values):
                    yield row % (r, t, policy, name, value, *tail)


def dominance_csv_lines(report: DominanceReport, cost: str):
    """Tail-probability rows of one cost; a row's count k picks one of R + 1 strings."""
    yield "slot,r,policy,ccdf,ci_low,ci_high"
    reps = report.config.replications
    tails = [f"{k / reps!r},{lo!r},{hi!r}" for k, (lo, hi) in enumerate(report.intervals)]
    rows = [[f"{p},{tail}" for tail in tails] for p in report.config.policies]
    counts = iter(report.counts[cost])
    for slot in report.sampled_slots:
        for threshold in range(report.thresholds[cost]):
            prefix = f"{slot},{threshold},"
            for by_k, k in zip(rows, counts):
                yield prefix + by_k[k]


# Lines joined per write: enough to amortize the call, small enough to stream.
_WRITE_BATCH = 4096


def write_lines(path, lines: Iterable[str]) -> None:
    """Write text lines with '\\n' endings and a trailing newline."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while batch := list(itertools.islice(lines, _WRITE_BATCH)):
            fh.write("\n".join(batch) + "\n")


def format_dominance_summary(report: DominanceReport) -> str:
    config = report.config
    lines = [
        "coupled dominance comparison",
        f"  policies: {', '.join(config.policies)}",
        f"  cost functions: {', '.join(config.cost_functions)}",
        f"  replications: {config.replications}, horizon: {config.horizon}",
        f"  sampled slots: {', '.join(str(t) for t in report.sampled_slots)}",
    ]
    for cost in config.cost_functions:
        lines.append(f"  mean {cost} at final sampled slot:")
        for p in config.policies:
            lines.append(f"    {p}: {report.mean_costs[cost][p][-1]!r}")
    for p in config.policies:
        s = report.stability[p]
        note = "FLAGGED: mean occupancy still growing" if s.flagged else "steady"
        lines.append(
            f"  stability {p}: third-quarter mean {s.third_quarter_mean!r}, "
            f"final-quarter mean {s.final_quarter_mean!r} ({note})"
        )
    lines.append(f"  dominance violations: {len(report.violations)}")
    for v in report.violations:
        lines.append(
            f"  VIOLATION cost={v.cost} slot={v.slot} r={v.threshold} "
            f"policy={v.policy} mwm_ccdf={v.mwm_ccdf!r} ({v.mwm_ci_low!r} lower bound) "
            f"exceeds {v.policy_ccdf!r} ({v.policy_ci_high!r} upper bound)"
        )
    return "\n".join(lines)
