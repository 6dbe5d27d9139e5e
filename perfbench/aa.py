"""A/A check: two sets of benchmark runs of the same commit, compared against the bounds.

Usage, from the root of a source checkout:

    python3 perfbench/aa.py

For every workload in BENCHMARK.json it runs ``run.py`` five times per set, alternating sets A and B, each run with its own seed (A: 101, 102, ...;
B: 201, 202, ...). Per (workload, end-to-end metric) it prints each set's
median and quartiles, the shift of B's median against A's, and the spread of
all runs pooled (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), each next to the
metric's bound. Raw results go to ``perfbench/out/aa.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 5  # per set and workload
SEED_BASES = {"A": 101, "B": 201}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for side, base in SEED_BASES.items():
                res = run_once(w, base + i, bench["run_seconds"])
                results[w][side].append(res)
                print(f"{w} {side} seed {base + i}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "aa.json").write_text(json.dumps(results, indent=1))

    print(f"\n{RUNS} runs per set, run_seconds {bench['run_seconds']}")
    print("| workload | metric | bound | A median [q1, q3] | B median [q1, q3] "
          "| B vs A | pooled spread | failed A/B |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for w in workloads:
        fails = {s: sum(r["failed"] for r in results[w][s]) /
                 sum(r["attempted"] for r in results[w][s]) for s in "AB"}
        ok &= fails["A"] == fails["B"] and all(r["correct"] for s in "AB" for r in results[w][s])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = {s: [r["metrics"][name]["value"] for r in results[w][s]] for s in "AB"}
            qa, qb = quartiles(sides["A"]), quartiles(sides["B"])
            shift = qb[1] / qa[1] - 1
            worse = shift if metric["better"] == "lower" else -shift
            q1, med, q3 = quartiles(sides["A"] + sides["B"])
            spread = (q3 - q1) / med
            ok &= worse <= bound and spread <= bound
            print(f"| {w} | {name} | {bound} | {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"| {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] | {shift:+.2%} | {spread:.2%} "
                  f"| {fails['A']:.3g}/{fails['B']:.3g} |")
    print("A/A within bounds" if ok else "A/A OUTSIDE bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
