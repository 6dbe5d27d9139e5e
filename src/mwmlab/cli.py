"""Command line entry point.

Four subcommands: ``simulate`` (coupled policy comparison with trace and
dominance CSVs), ``verify-lemmas`` (exhaustive reallocation sweep),
``audit-order`` (per-slot partial-order audit), and ``solve-matching``
(one-shot exact solve of a weight matrix from a file).

Settings come from flags or from a flat ``key = value`` config file with
``#`` comments; flags override file values, and every applied default is
echoed. The ``MWMLAB_THREADS`` environment variable caps worker processes
for ``simulate`` (0 means one per CPU).
"""

from __future__ import annotations

import argparse
# argparse's message lookup imports locale inside the first command otherwise
import locale  # noqa: F401
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import balance, harness, policies
from .matching import max_weight_matching
from .queueing import SystemParams

DEFAULT_SEED = 42
DEFAULT_POLICIES = ",".join(policies.POLICY_NAMES)
DEFAULT_COSTS = "total_occupancy"

_REQUIRED_SIM_KEYS = ("queues", "servers", "p", "lambda", "horizon", "replications")

_SIM_KEYS = _REQUIRED_SIM_KEYS + (
    "seed",
    "policy",
    "cost",
    "record_interval",
    "initial_state",
    "out_dir",
    "baseline",
)


class CliError(Exception):
    """User-facing configuration error; message names the offending key."""


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SIM_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _parse_int(key: str, raw: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"{key} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise CliError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_prob(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CliError(f"{key} must be a number, got {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise CliError(f"{key} must be within [0, 1], got {value}")
    return value


def _merge_settings(args: argparse.Namespace) -> dict[str, str]:
    """file values, overridden by flags; returns raw strings plus a default log."""
    merged: dict[str, str] = {}
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    flag_map = {
        "queues": args.queues,
        "servers": args.servers,
        "p": args.p,
        "lambda": args.lam,
        "horizon": args.horizon,
        "replications": args.replications,
        "seed": args.seed,
        "policy": ",".join(args.policy) if args.policy else None,
        "cost": ",".join(args.cost) if args.cost else None,
        "record_interval": args.record_interval,
        "initial_state": args.initial_state,
        "out_dir": args.out_dir,
        "baseline": getattr(args, "baseline", None),
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = str(value)
    return merged


def build_sim_config(
    settings: dict[str, str], echo=print
) -> tuple[harness.SimConfig, str]:
    """Resolve merged raw settings into a validated SimConfig.

    Echoes each applied default and returns the output directory alongside
    the config.
    """
    missing = [key for key in _REQUIRED_SIM_KEYS if key not in settings]
    if missing:
        raise CliError(
            "missing required settings: " + ", ".join(missing)
            + " (set them via flags or a config file)"
        )

    defaults = {
        "seed": str(DEFAULT_SEED),
        "policy": DEFAULT_POLICIES,
        "cost": DEFAULT_COSTS,
        "initial_state": "zeros",
        "out_dir": ".",
    }
    horizon = _parse_int("horizon", settings["horizon"], minimum=1)
    defaults["record_interval"] = str(max(1, horizon // 100))
    for key, value in defaults.items():
        if key not in settings:
            settings[key] = value
            echo(f"default applied: {key} = {value}")

    params = SystemParams(
        n_queues=_parse_int("queues", settings["queues"], minimum=1),
        n_servers=_parse_int("servers", settings["servers"], minimum=1),
        connect_prob=_parse_prob("p", settings["p"]),
        arrival_prob=_parse_prob("lambda", settings["lambda"]),
    )
    policy_names = tuple(
        name.strip() for name in settings["policy"].split(",") if name.strip()
    )
    cost_names = tuple(
        name.strip() for name in settings["cost"].split(",") if name.strip()
    )
    if settings["initial_state"] == "zeros":
        initial = None
    else:
        try:
            initial = tuple(
                int(v) for v in settings["initial_state"].split(",") if v.strip()
            )
        except ValueError:
            raise CliError(
                f"initial_state must be comma-separated integers, "
                f"got {settings['initial_state']!r}"
            ) from None

    try:
        config = harness.SimConfig(
            params=params,
            horizon=horizon,
            replications=_parse_int("replications", settings["replications"], minimum=1),
            seed=_parse_int("seed", settings["seed"]),
            policies=policy_names,
            cost_functions=cost_names,
            record_interval=_parse_int(
                "record_interval", settings["record_interval"], minimum=1
            ),
            initial_state=initial,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return config, settings["out_dir"]


def worker_count() -> int:
    """Worker processes from MWMLAB_THREADS; 0 means one per CPU, unset means 1."""
    raw = os.environ.get("MWMLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise CliError(
            f"MWMLAB_THREADS must be a non-negative integer, got {raw!r}"
        ) from None
    if n < 0:
        raise CliError(f"MWMLAB_THREADS must be non-negative, got {n}")
    if n == 0:
        return os.cpu_count() or 1
    return n


def _make_out_dir(out_dir: str) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc
    return out


def _write_lines(path, lines: Iterable[str]) -> None:
    try:
        harness.write_lines(path, lines)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    config, out_dir = build_sim_config(_merge_settings(args))
    workers = worker_count()
    out = _make_out_dir(out_dir)
    print(f"simulate: {config.params.n_queues} queues, {config.params.n_servers} "
          f"servers, p={config.params.connect_prob}, lambda={config.params.arrival_prob}, "
          f"horizon={config.horizon}, replications={config.replications}, "
          f"seed={config.seed}, workers={workers}")
    print(f"policies: {', '.join(config.policies)}")
    report, records = harness.run_experiment(config, max_workers=workers)
    _write_lines(out / "trace.csv", harness.trace_csv_lines(config, records))
    for cost in config.cost_functions:
        _write_lines(
            out / f"dominance_{cost}.csv", harness.dominance_csv_lines(report, cost)
        )
    summary = harness.format_dominance_summary(report)
    _write_lines(out / "summary.txt", summary.splitlines())
    print(summary)
    return 0


def _cmd_verify_lemmas(args) -> int:
    report = balance.sweep_lemmas(args.max_n, args.max_k, args.max_x)
    text = balance.format_sweep_report(report)
    print(text)
    if args.out:
        _write_lines(args.out, text.splitlines())
    return 0 if report.violation_count == 0 else 1


def _cmd_audit_order(args) -> int:
    settings = _merge_settings(args)
    config, out_dir = build_sim_config(settings)
    if "baseline" not in settings:
        raise CliError("missing required settings: baseline")
    baseline = settings["baseline"]
    if baseline not in policies.POLICY_NAMES:
        raise CliError(
            f"baseline must be one of {policies.POLICY_NAMES}, got {baseline!r}"
        )
    out = _make_out_dir(out_dir)
    report = harness.per_slot_preceq_audit(config, baseline)
    text = harness.format_audit_report(report)
    _write_lines(out / "audit_order.txt", text.splitlines())
    print(text)
    return 0


def _read_weight_matrix(path: str) -> list[list[int]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read weight matrix file {path}: {exc}") from exc
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise CliError(f"{path}: empty weight matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise CliError(f"{path}: first line must be 'N K', got {lines[0]!r}")
    try:
        n_queues, n_servers = int(head[0]), int(head[1])
    except ValueError:
        raise CliError(f"{path}: first line must be 'N K', got {lines[0]!r}") from None
    if len(lines) - 1 != n_queues:
        raise CliError(
            f"{path}: expected {n_queues} weight rows, found {len(lines) - 1}"
        )
    matrix = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n_servers:
            raise CliError(
                f"{path}: row {i} has {len(parts)} entries, expected {n_servers}"
            )
        try:
            matrix.append([int(v) for v in parts])
        except ValueError:
            raise CliError(f"{path}: row {i} has a non-integer entry") from None
    return matrix


def _cmd_solve_matching(args) -> int:
    w = _read_weight_matrix(args.matrix_file)
    try:
        m = max_weight_matching(w)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    weight = sum(w[n][k] for n, k in m)
    pairs = ",".join(f"({n},{k})" for n, k in m) if m else "none"
    print(f"pairs {pairs} weight {weight}")
    return 0


def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--queues", type=int, help="queue count (>= 1)")
    sub.add_argument("--servers", type=int, help="server count (>= 1)")
    sub.add_argument("--p", type=float, help="connectivity probability in [0, 1]")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="arrival probability in [0, 1]")
    sub.add_argument("--horizon", type=int, help="slots per replication (>= 1)")
    sub.add_argument("--replications", type=int, help="replication count (>= 1)")
    sub.add_argument("--seed", type=int, help=f"stream seed (default {DEFAULT_SEED})")
    sub.add_argument("--policy", action="append",
                     help="policy to run; repeatable (default: all)")
    sub.add_argument("--cost", action="append",
                     help="cost function; repeatable (default: total_occupancy)")
    sub.add_argument("--record-interval", dest="record_interval", type=int,
                     help="slots between trace records (default: horizon/100)")
    sub.add_argument("--initial-state", dest="initial_state",
                     help="comma-separated initial queue lengths (default: zeros)")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory (default: .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwmlab",
        description="multi-queue multi-server scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="coupled policy comparison")
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify-lemmas", help="exhaustive reallocation sweep")
    p_ver.add_argument("--max-n", dest="max_n", type=int, default=2,
                       help="largest queue count (default 2)")
    p_ver.add_argument("--max-k", dest="max_k", type=int, default=2,
                       help="largest server count (default 2)")
    p_ver.add_argument("--max-x", dest="max_x", type=int, default=3,
                       help="largest queue length (default 3)")
    p_ver.add_argument("--out", help="also write the report to this file")
    p_ver.set_defaults(func=_cmd_verify_lemmas)

    p_aud = sub.add_parser("audit-order", help="per-slot partial-order audit")
    _add_sim_flags(p_aud)
    p_aud.add_argument("--baseline", help="baseline policy to audit against")
    p_aud.set_defaults(func=_cmd_audit_order)

    p_sol = sub.add_parser("solve-matching", help="solve one weight matrix")
    p_sol.add_argument("matrix_file", help="text file: first line 'N K', then N rows")
    p_sol.set_defaults(func=_cmd_solve_matching)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
