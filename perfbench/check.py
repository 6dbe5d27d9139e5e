"""Output checks for the benchmark, computed apart from mwmlab.

Nothing here imports mwmlab or scipy. The reference simulator rebuilds the
sample paths from the stream layout the README and the ``rng`` docstring
describe (Philox key ``[seed, (replication << 2) | kind]``, counter 0, each
slot's draws padded to whole 4-word blocks) and replays the policies from
their definitions: ``mwm`` by brute force over every matching of positive
edges, ties to the lexicographically smallest sorted pair tuple. The
confidence intervals are recomputed by bisection on exact binomial tails.

Each ``check_*`` function returns a list of error strings; empty means the
output passed.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

STREAM_CONNECTIVITY, STREAM_ARRIVALS, STREAM_POLICY = 0, 1, 2
CONFIDENCE_LEVEL = 0.99
CI_TOLERANCE = 1e-9


# --- reference simulator ------------------------------------------------------

def uniforms(seed: int, replication: int, kind: int, horizon: int, values: int) -> np.ndarray:
    """Slots 1..horizon of one stream, each row padded to whole 4-word blocks."""
    key = np.array([seed & (2**64 - 1), (replication << 2) | kind], dtype=np.uint64)
    width = -(-values // 4) * 4
    gen = np.random.Generator(np.random.Philox(key=key, counter=0))
    return gen.random((horizon, width))[:, :values]


def sample_path(spec: dict, replication: int):
    """Connectivity rows and arrival vectors as nested lists, one per slot."""
    n, k, horizon = spec["queues"], spec["servers"], spec["horizon"]
    u_c = uniforms(spec["seed"], replication, STREAM_CONNECTIVITY, horizon, n * k)
    u_a = uniforms(spec["seed"], replication, STREAM_ARRIVALS, horizon, n)
    conn = (u_c < spec["p"]).reshape(horizon, n, k).astype(int).tolist()
    arrivals = (u_a < spec["lambda"]).astype(int).tolist()
    return conn, arrivals


def _matchings(edges, n=0, used=0):
    """Every matching over per-queue edge lists, as sorted pair tuples."""
    if n == len(edges):
        yield ()
        return
    yield from _matchings(edges, n + 1, used)
    for k in edges[n]:
        if not used & (1 << k):
            for rest in _matchings(edges, n + 1, used | (1 << k)):
                yield ((n, k),) + rest


def mwm(x, c):
    """Heaviest matching without zero-weight edges; ties to the smallest tuple."""
    edges = [[k for k in range(len(row)) if row[k] and x[n] > 0] for n, row in enumerate(c)]
    return min(_matchings(edges), key=lambda m: (-sum(x[n] for n, _ in m), m))


def fixed_order(x, c):
    used, chosen = 0, []
    for n, row in enumerate(c):
        if x[n] > 0:
            for k, on in enumerate(row):
                if on and not used & (1 << k):
                    chosen.append((n, k))
                    used |= 1 << k
                    break
    return tuple(chosen)


def greedy_lcq(x, c):
    queues, used, chosen = set(range(len(x))), 0, []
    while True:
        best = None
        for n in sorted(queues):
            free = [k for k, on in enumerate(c[n]) if on and not used & (1 << k)]
            if x[n] > 0 and free and (best is None or x[n] > x[best[0]]):
                best = (n, free[0])
        if best is None:
            return tuple(sorted(chosen))
        chosen.append(best)
        queues.discard(best[0])
        used |= 1 << best[1]


def random_maximal(x, c, u):
    edges = [(n, k) for n, row in enumerate(c) for k, on in enumerate(row) if on and x[n] > 0]
    order = sorted(range(len(edges)), key=lambda i: (u[i], i))
    used_q = used_s = 0
    chosen = []
    for i in order:
        n, k = edges[i]
        if not used_q & (1 << n) and not used_s & (1 << k):
            chosen.append((n, k))
            used_q |= 1 << n
            used_s |= 1 << k
    return tuple(sorted(chosen))


DECIDERS = {"mwm": mwm, "fixed_order": fixed_order, "greedy_lcq": greedy_lcq}


def simulate(spec: dict, replication: int, policy: str, path=None):
    """States after every slot 0..horizon, and the matching weight of each slot."""
    n, k, horizon = spec["queues"], spec["servers"], spec["horizon"]
    conn, arrivals = path or sample_path(spec, replication)
    if policy == "random_maximal":
        u = uniforms(spec["seed"], replication, STREAM_POLICY, horizon, n * k).tolist()
        decide = lambda x, c, t: random_maximal(x, c, u[t])  # noqa: E731
    else:
        fn = DECIDERS[policy]
        decide = lambda x, c, t: fn(x, c)  # noqa: E731
    x = (0,) * n
    states, weights = [x], [0]
    for t in range(horizon):
        c = conn[t]
        m = decide(x, c, t)
        weights.append(sum(x[q] * c[q][s] for q, s in m))
        served = list(x)
        for q, s in m:
            if c[q][s] and served[q] > 0:
                served[q] -= 1
        x = tuple(v + a for v, a in zip(served, arrivals[t]))
        states.append(x)
    return states, weights


# --- exact binomial intervals -------------------------------------------------

def _tail_at_least(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def _bisect(f, target: float, increasing: bool) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def exact_interval(k: int, n: int, level: float = CONFIDENCE_LEVEL) -> tuple[float, float]:
    """Two-sided exact binomial interval: each tail holds (1 - level) / 2."""
    half = (1.0 - level) / 2
    lo = 0.0 if k == 0 else _bisect(lambda p: _tail_at_least(k, n, p), half, True)
    hi = 1.0 if k == n else _bisect(lambda p: 1 - _tail_at_least(k + 1, n, p), half, False)
    return lo, hi


# --- order test ----------------------------------------------------------------

def weakly_submajorized(below, above) -> bool:
    """Prefix sums of the decreasing rearrangements never exceed (MOA 5.A.9)."""
    sb, sa = 0, 0
    for b, a in zip(sorted(below, reverse=True), sorted(above, reverse=True)):
        sb, sa = sb + b, sa + a
        if sb > sa:
            return False
    return True


# --- checks ---------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sampled_slots(horizon: int) -> list[int]:
    slots = [1 << i for i in range(horizon.bit_length()) if 1 << i <= horizon]
    return slots if slots[-1] == horizon else slots + [horizon]


def check_simulate(out: Path, spec: dict) -> list[str]:
    """Check ``trace.csv``, ``dominance_total_occupancy.csv`` and ``summary.txt``."""
    errors: list[str] = []
    n, horizon, reps = spec["queues"], spec["horizon"], spec["replications"]
    interval, pols = spec["record_interval"], spec["policies"]

    trace: dict[tuple[int, str], dict[int, tuple]] = defaultdict(dict)
    for row in _read_csv(out / "trace.csv"):
        x = tuple(int(row[f"x_{i}"]) for i in range(n))
        key = (int(row["replication"]), row["policy"])
        trace[key][int(row["slot"])] = (x, int(row["mw_index"]))
        if int(row["cost_value"]) != sum(x):
            errors.append(f"trace.csv: cost_value {row['cost_value']} != sum{x}")
    recorded = list(range(interval, horizon + 1, interval))
    for r in range(reps):
        for p in pols:
            if sorted(trace[(r, p)]) != recorded:
                errors.append(f"trace.csv: replication {r} {p} has wrong slots")

    for p in spec["checked_policies"]:
        states, weights = simulate(spec, 0, p)
        for t in recorded:
            got = trace[(0, p)].get(t)
            if got != (states[t], weights[t]):
                errors.append(
                    f"trace.csv: replication 0 {p} slot {t} is {got}, "
                    f"reference {(states[t], weights[t])}"
                )
                break

    rows = _read_csv(out / "dominance_total_occupancy.csv")
    cis: dict[int, tuple[float, float]] = {}
    series: dict[tuple[int, str], list[tuple[int, float]]] = defaultdict(list)
    for row in rows:
        slot, r, p = int(row["slot"]), int(row["r"]), row["policy"]
        ccdf, lo, hi = float(row["ccdf"]), float(row["ci_low"]), float(row["ci_high"])
        k = round(ccdf * reps)
        where = f"dominance: slot {slot} r {r} {p}"
        if ccdf != k / reps:
            errors.append(f"{where}: ccdf {ccdf} is not a multiple of 1/{reps}")
            continue
        if not lo <= ccdf <= hi:
            errors.append(f"{where}: ccdf {ccdf} outside [{lo}, {hi}]")
        if k not in cis:
            cis[k] = exact_interval(k, reps)
        ref_lo, ref_hi = cis[k]
        if abs(lo - ref_lo) > CI_TOLERANCE or abs(hi - ref_hi) > CI_TOLERANCE:
            errors.append(f"{where}: interval ({lo}, {hi}), exact ({ref_lo}, {ref_hi})")
        series[(slot, p)].append((r, ccdf))
    if sorted({s for s, _ in series}) != _sampled_slots(horizon):
        errors.append("dominance: sampled slots are not 1, 2, 4, ... plus the horizon")
    for (slot, p), points in series.items():
        if [r for r, _ in points] != list(range(len(points))):
            errors.append(f"dominance: slot {slot} {p} thresholds are not 0..r_max")
        if any(b > a for (_, a), (_, b) in zip(points, points[1:])):
            errors.append(f"dominance: slot {slot} {p} ccdf increases in r")
        if slot == horizon and horizon % interval == 0:
            totals = [sum(trace[(rep, p)][horizon][0]) for rep in range(reps)]
            for r, ccdf in points:
                if ccdf != sum(v > r for v in totals) / reps:
                    errors.append(f"dominance: final slot {p} r {r} disagrees with trace.csv")
                    break

    summary = (out / "summary.txt").read_text(encoding="utf-8")
    if "dominance violations: 0\n" not in summary:
        errors.append("summary.txt: dominance violations are not 0")
    return errors[:20]


def matchings_count(n: int, k: int) -> int:
    return sum(math.comb(n, j) * math.comb(k, j) * math.factorial(j) for j in range(min(n, k) + 1))


def sweep_instances(max_n: int, max_k: int, max_x: int) -> int:
    return sum(
        (max_x + 1) ** n * 2 ** (n * k) * matchings_count(n, k)
        for n in range(1, max_n + 1)
        for k in range(1, max_k + 1)
    )


def field(text: str, label: str) -> int:
    match = re.search(rf"^\s*{re.escape(label)}:? (\d+)$", text, re.M)
    if match is None:
        raise ValueError(f"no '{label}' line")
    return int(match.group(1))


def check_verify_lemmas(report: Path, spec: dict) -> list[str]:
    text = report.read_text(encoding="utf-8")
    errors = []
    want = sweep_instances(spec["max_n"], spec["max_k"], spec["max_x"])
    got = field(text, "instances checked (state, connectivity, matching)")
    if got != want:
        errors.append(f"verify-lemmas: {got} instances, expected {want}")
    if field(text, "total violations") != 0:
        errors.append("verify-lemmas: violations reported")
    return errors


_NOT_BELOW = re.compile(
    r"NOT BELOW replication=(\d+) slot=(\d+) mwm=\(([\d, ]*)\) baseline=\(([\d, ]*)\)"
)


def _vector(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def check_audit(out: Path, spec: dict) -> list[str]:
    text = (out / "audit_order.txt").read_text(encoding="utf-8")
    errors = []
    reps, horizon = spec["replications"], spec["horizon"]
    checked = field(text, "slots checked")
    holding = field(text, "slots where mwm state is below baseline")
    skipped = field(text, "slots skipped by search guard")
    if checked + skipped != reps * horizon:
        errors.append(f"audit: {checked} checked + {skipped} skipped != {reps * horizon}")

    pairs = {}
    for r in range(reps):
        path = sample_path(spec, r)
        xm = simulate(spec, r, "mwm", path)[0]
        xb = simulate(spec, r, spec["baseline"], path)[0]
        for t in range(1, horizon + 1):
            pairs[(r, t)] = (xm[t], xb[t])
    # The search guard skips the slots with the largest baseline totals.
    by_total = sorted(pairs, key=lambda rt: sum(pairs[rt][1]), reverse=True)
    skipped_slots = set(by_total[:skipped])
    if skipped and len(by_total) > skipped and sum(pairs[by_total[skipped]][1]) == sum(
        pairs[by_total[skipped - 1]][1]
    ):
        errors.append("audit: skipped slots are not those above one baseline total")
    below = {rt for rt, (m, b) in pairs.items() if rt not in skipped_slots and weakly_submajorized(m, b)}
    if holding != len(below):
        errors.append(f"audit: {holding} slots holding, reference {len(below)}")

    failures = _NOT_BELOW.findall(text)
    if len(failures) != checked - holding:
        errors.append(f"audit: {len(failures)} NOT BELOW lines for {checked - holding} failures")
    for r, t, m, b in failures:
        m, b, rt = _vector(m), _vector(b), (int(r), int(t))
        if pairs.get(rt) != (m, b):
            errors.append(f"audit: NOT BELOW {rt} states {(m, b)}, reference {pairs.get(rt)}")
        elif weakly_submajorized(m, b):
            errors.append(f"audit: NOT BELOW {rt} passes the prefix-sum test")
    return errors[:20]
