"""End-to-end benchmark of the mwmlab CLI; see perfbench/README.md.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 42 --seconds 25 --trace 0

Each operation is one CLI command in a fresh interpreter with one worker
(``MWMLAB_THREADS`` unset), importing mwmlab from ``src/`` of the checkout.
A round runs every operation of the workload once; rounds repeat until
``--seconds`` have passed. With ``--trace 0`` the last line of standard output
is a JSON object with ``setup_s``, ``wall_s`` and ``peak_rss_mib`` as medians
over the run; with ``--trace 1`` rounds alternate between untraced and traced
and the object holds the per-layer metrics instead. Outputs of the first round
are checked by ``check.py``; later rounds must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

P4 = ("mwm", "random_maximal", "greedy_lcq", "fixed_order")
HEAVY = ("mwm", "greedy_lcq", "fixed_order")
# The slowest command takes about 6 s traced; one that hangs is killed and
# counted as failed, and the run still ends well within 180 s.
OP_TIMEOUT_S = 60


def simulate_spec(queues, servers, lam, horizon, replications, policies, checked):
    return {
        "command": "simulate", "queues": queues, "servers": servers, "p": 0.5,
        "lambda": lam, "horizon": horizon, "replications": replications,
        "record_interval": horizon // 100, "policies": policies,
        "checked_policies": checked,
    }


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk": [simulate_spec(4, 2, 0.2, 10000, 2, P4, P4)],
    "heavy": [simulate_spec(4, 2, 0.6, 500, 10, HEAVY, HEAVY)],
    "wide": [simulate_spec(8, 8, 0.5, 400, 2, P4, ("mwm", "fixed_order"))],
    "verify": [
        {"command": "verify-lemmas", "max_n": 3, "max_k": 2, "max_x": 3},
        {"command": "audit-order", "queues": 4, "servers": 2, "p": 0.5, "lambda": 0.3,
         "horizon": 50, "replications": 40, "baseline": "fixed_order"},
    ],
}


def cli_args(spec: dict, out: Path) -> list[str]:
    if spec["command"] == "verify-lemmas":
        return ["verify-lemmas", "--max-n", str(spec["max_n"]), "--max-k", str(spec["max_k"]),
                "--max-x", str(spec["max_x"]), "--out", str(out / "report.txt")]
    args = [spec["command"]]
    for key in ("queues", "servers", "p", "lambda", "horizon", "replications", "seed"):
        args += [f"--{key}", str(spec[key])]
    if spec["command"] == "simulate":
        args += ["--record-interval", str(spec["record_interval"])]
        for name in spec["policies"]:
            args += ["--policy", name]
    else:
        args += ["--baseline", spec["baseline"]]
    return args + ["--out-dir", str(out)]


def check_outputs(spec: dict, out: Path) -> list[str]:
    try:
        if spec["command"] == "simulate":
            return check.check_simulate(out, spec)
        if spec["command"] == "verify-lemmas":
            return check.check_verify_lemmas(out / "report.txt", spec)
        return check.check_audit(out, spec)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{spec['command']}: unreadable output: {exc!r}"]


def digest(out: Path) -> str:
    """Hash of an operation's output files, without the sweep's elapsed time."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file() and p.suffix != ".json"
                       and not p.name.endswith(".stdout")):
        h.update(path.name.encode())
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"  elapsed seconds:"):
                h.update(line)
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MWMLAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(cli: list[str], out: Path, trace: bool) -> dict:
    """Run one CLI command in a fresh interpreter; return its timing record."""
    out.mkdir(parents=True, exist_ok=True)
    timing = out / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing), str(SRC), "1" if trace else "0"]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + cli, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode = -9
        stderr = (exc.stderr or b"") + f"\nkilled after {OP_TIMEOUT_S} s".encode()
    try:
        record = json.loads(timing.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"ready": launched, "start": launched, "end": time.monotonic(),
                  "maxrss_kib": 0}
    record["returncode"] = returncode
    record["stderr"] = stderr.decode(errors="replace")[-2000:]
    record["setup_s"] = record["ready"] - launched
    record["wall_s"] = record["end"] - record["start"]
    return record


def import_times() -> dict:
    """Cumulative import time of mwmlab and scipy.stats, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mwmlab"],
                          env=child_env(), cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
    found = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"setup.import_mwmlab_s": found.get("mwmlab", 0.0),
            "setup.import_scipy_stats_s": found.get("scipy.stats", 0.0)}


class Run:
    def __init__(self, workload: str, seed: int):
        self.ops = [dict(spec, seed=seed) for spec in WORKLOADS[workload]]
        self.dir = OUT / workload
        self.setups: list[float] = []
        self.results: list[list[tuple[int, str | None]]] = []  # (exit, digest) per op
        self.exit_errors: list[str] = []

    def round(self, trace: bool) -> list[dict]:
        """Run every operation once, keeping the first outputs for ``verify``."""
        index = len(self.results)
        records, results = [], []
        for i, spec in enumerate(self.ops):
            out = self.dir / f"round{index}" / f"op{i}"
            rec = launch(cli_args(spec, out), out, trace)
            self.setups.append(rec["setup_s"])
            results.append((rec["returncode"], digest(out) if rec["returncode"] == 0 else None))
            records.append(rec)
            if index > 0:
                shutil.rmtree(out, ignore_errors=True)
            if rec["returncode"] != 0:
                self.exit_errors.append(f"round {index} op {i} exited {rec['returncode']}: "
                                        f"{rec['stderr']}")
        self.results.append(results)
        return records

    def verify(self) -> tuple[int, int, list[str]]:
        """Check round 0's outputs; every later round must reproduce them.

        Returns the operations attempted and failed, and the check errors.
        """
        errors = []
        reference = []
        for i, spec in enumerate(self.ops):
            code, first = self.results[0][i]
            problems = check_outputs(spec, self.dir / "round0" / f"op{i}") if code == 0 else []
            errors += problems
            reference.append(None if problems else first)
        failed = sum(
            code != 0 or dig is None or dig != reference[i]
            for results in self.results for i, (code, dig) in enumerate(results)
        )
        for index, results in enumerate(self.results[1:], start=1):
            for i, (code, dig) in enumerate(results):
                if code == 0 and reference[i] is not None and dig != reference[i]:
                    errors.append(f"op {i} round {index}: output differs from round 0")
        return len(self.ops) * len(self.results), failed, errors


def median_round(rounds: list[list[dict]]) -> tuple[float, float]:
    walls = [sum(r["wall_s"] for r in rnd) for rnd in rounds]
    rss = [max(r["maxrss_kib"] for r in rnd) / 1024 for rnd in rounds]
    return statistics.median(walls), statistics.median(rss)


def layer_metrics(traced: list[list[dict]], run: Run, overhead: float) -> dict:
    """Per-layer metrics: medians of the span totals over the traced rounds."""
    def med(fn):
        return statistics.median(fn(rnd) for rnd in traced)

    def span(kind, name):
        return lambda rnd: sum(r.get("spans", {}).get(kind, {}).get(name, 0) for r in rnd)

    def num(field):
        return lambda rnd: sum(r.get("spans", {}).get(field, 0) for r in rnd)

    count = lambda name: med(span("count", name))  # noqa: E731
    total = lambda name: med(span("total_s", name))  # noqa: E731
    loops = ("harness.run_experiment", "harness.audit")

    def sim_s(rnd):
        inner = sum(span("in_loop_s", n)(rnd) for n in ("harness.report", "harness.ci",
                                                         "balance.order"))
        return sum(span("total_s", n)(rnd) for n in loops) - inner

    def steps_per_s(rnd):
        s = sim_s(rnd)
        return span("count", "queueing.serve")(rnd) / s if s > 0 else 0.0

    serve_calls = count("queueing.serve")
    deterministic_steps = serve_calls - count("policies.random_maximal")
    decide_calls = count("policies.decide")
    solves = count("matching.solve")
    fields = parse_counts(run)
    return {
        "rng.sample_paths": (count("rng.sample_path"), "count"),
        "rng.sample_path_s": (total("rng.sample_path"), "s"),
        "rng.path_uniforms_calls": (count("rng.path_uniforms"), "count"),
        "rng.path_uniforms_s": (total("rng.path_uniforms"), "s"),
        "queueing.serve_calls": (serve_calls, "count"),
        "queueing.serve_s": (total("queueing.serve"), "s"),
        "policies.decide_calls": (decide_calls, "count"),
        "policies.decide_s": (total("policies.decide"), "s"),
        "policies.memo_hit_ratio": (
            1 - decide_calls / deterministic_steps if deterministic_steps else 0.0, "ratio"),
        "policies.random_maximal_calls": (count("policies.random_maximal"), "count"),
        "policies.random_maximal_s": (total("policies.random_maximal"), "s"),
        "matching.solves": (solves, "count"),
        "matching.solve_s": (total("matching.solve"), "s"),
        "matching.solve_us": (total("matching.solve") / solves * 1e6 if solves else 0.0, "us"),
        "harness.slot_steps": (serve_calls, "count"),
        "harness.slot_steps_per_s": (med(steps_per_s), "1/s"),
        "harness.loop_self_s": (med(lambda rnd: sum(span("self_s", n)(rnd) for n in loops)), "s"),
        "harness.ci_calls": (count("harness.ci"), "count"),
        "harness.ci_distinct": (med(num("ci_distinct")), "count"),
        "harness.ci_s": (total("harness.ci"), "s"),
        "harness.csv_rows": (med(num("lines")), "count"),
        "harness.csv_bytes": (med(num("bytes")), "bytes"),
        "harness.csv_s": (total("harness.csv"), "s"),
        "balance.sweep_s": (total("balance.sweep"), "s"),
        "balance.sweep_instances": (fields["instances"], "count"),
        "balance.reallocation_pairs": (fields["pairs"], "count"),
        "balance.condition_calls": (count("balance.condition"), "count"),
        "balance.order_calls": (count("balance.order"), "count"),
        "balance.order_s": (total("balance.order"), "s"),
        "balance.audit_slots": (fields["audit_slots"], "count"),
        "balance.audit_slots_skipped": (fields["audit_skipped"], "count"),
        "trace.overhead_s": (overhead, "s"),
    }


def parse_counts(run: Run) -> dict:
    """Sweep and audit counts, read from the checked outputs of round 0."""
    fields = {"instances": 0, "pairs": 0, "audit_slots": 0, "audit_skipped": 0}
    for i, spec in enumerate(run.ops):
        out = run.dir / "round0" / f"op{i}"
        if run.results[0][i][0] != 0:
            continue
        if spec["command"] == "verify-lemmas":
            text = (out / "report.txt").read_text(encoding="utf-8")
            fields["instances"] = check.field(text, "instances checked (state, connectivity, matching)")
            fields["pairs"] = check.field(text, "reallocation pairs checked")
        elif spec["command"] == "audit-order":
            text = (out / "audit_order.txt").read_text(encoding="utf-8")
            fields["audit_slots"] = check.field(text, "slots checked")
            fields["audit_skipped"] = check.field(text, "slots skipped by search guard")
    return fields


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mwmlab" / "cli.py").is_file():
        print(f"no mwmlab sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    # Compiles the bytecode and warms the file cache, which users do not pay
    # on every command.
    warm = launch(["--help"], OUT / args.workload / "warmup", False)
    if warm["returncode"] != 0:
        print(f"mwmlab does not start: {warm['stderr']}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    layers = import_times() if args.trace else {}
    untraced, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds or not untraced
           or (args.trace and not traced)):
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        rounds = traced if use_trace else untraced
        rounds.append(run.round(use_trace))
    attempted, failed, errors = run.verify()

    wall, rss = median_round(untraced)
    if args.trace:
        traced_wall = median_round(traced)[0]
        metrics = {name: (value, "s") for name, value in layers.items()}
        metrics.update(layer_metrics(traced, run, traced_wall - wall))
        unmeasured = sorted({n for rnd in traced for r in rnd for n in r.get("unmeasured", [])})
        if unmeasured:
            print("unmeasured (name not found): " + ", ".join(unmeasured))
    else:
        metrics = {
            "setup_s": (statistics.median(run.setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mib": (rss, "MiB"),
        }
    for error in run.exit_errors:
        print(f"FAILED: {error}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds, {attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
