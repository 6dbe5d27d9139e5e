"""Command line entry point.

Four subcommands: ``simulate`` (coupled policy comparison with trace and
dominance CSVs), ``verify-lemmas`` (exhaustive reallocation sweep),
``audit-order`` (per-slot partial-order audit), and ``solve-matching``
(one-shot exact solve of a weight matrix from a file).

``simulate`` and ``audit-order`` each declare their settings in one table
(``SETTINGS``). A setting comes from its flag or from a flat ``key = value``
config file with ``#`` comments; flags override file values, every value
is parsed from its string on the same path, and every applied default is
echoed. A key the command does not read is an error. The
``MWMLAB_THREADS`` environment variable caps worker processes for
``simulate`` (0 means one per CPU).
"""

from __future__ import annotations

import argparse
import errno
# argparse's message lookup imports locale inside the first command otherwise
import locale  # noqa: F401
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import balance, harness
from .engine import MWM, POLICY_NAMES, SystemParams
from .matching import max_weight_matching


class CliError(Exception):
    """User-facing configuration error; message names the offending key."""


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{key} must be an integer, got {raw!r}") from None


def _count(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0  # not an integer: the same message as a count below 1
    if value < 1:
        raise CliError(f"{key} must be an integer >= 1, got {raw!r}")
    return value


def _prob(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CliError(f"{key} must be a number, got {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise CliError(f"{key} must be within [0, 1], got {value}")
    return value


def _names(key: str, raw: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in raw.split(","))
    if not all(names):
        raise CliError(f"{key} must be comma-separated names, got {raw!r}")
    return names


def _queue_lengths(key: str, raw: str) -> tuple[int, ...] | None:
    if raw == "zeros":
        return None
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise CliError(f"{key} must be comma-separated integers, got {raw!r}") from None


def _text(key: str, raw: str) -> str:
    return raw


# key: (parser, default, help). A default of None marks a required setting;
# a callable default is computed from the values parsed before it. The flag
# is --key with "-" for "_"; settings parsed by _names are repeatable flags.
_SHARED = {
    "queues": (_count, None, "queue count"),
    "servers": (_count, None, "server count"),
    "p": (_prob, None, "connectivity probability in [0, 1]"),
    "lambda": (_prob, None, "arrival probability in [0, 1]"),
    "horizon": (_count, None, "slots per replication"),
    "replications": (_count, None, "replication count"),
    "seed": (_int, "42", "stream seed"),
    "initial_state": (_queue_lengths, "zeros", "comma-separated initial queue lengths"),
    "out_dir": (_text, ".", "output directory"),
}
SETTINGS = {
    "simulate": {
        **_SHARED,
        "policy": (_names, ",".join(POLICY_NAMES), "policy; repeatable"),
        "cost": (_names, "total_occupancy", "cost function; repeatable"),
        "record_interval": (_count, lambda v: str(max(1, v["horizon"] // 100)),
                            "slots between trace records (default: horizon // 100)"),
    },
    "audit-order": {**_SHARED, "baseline": (_text, None, "policy to audit against")},
}


def _emit(text: str) -> None:
    """Print and flush; once the reader has closed the pipe, drop all output.

    Stdout then points at ``os.devnull`` (the SIGPIPE note in the Python
    docs), so later prints and the flush at exit cannot fail again.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_config_file(path: str, table: dict) -> dict[str, str]:
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
        if key not in table:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def build_sim_config(args: argparse.Namespace) -> tuple[harness.SimConfig, dict[str, object]]:
    """The validated SimConfig of a ``simulate`` or ``audit-order`` command.

    File values are overridden by flags, each applied default is echoed, and
    every value is parsed once. Returns the parsed settings alongside the
    config; the audit simulates ``mwm`` and its baseline.
    """
    table = SETTINGS[args.command]
    raw = _parse_config_file(args.config, table) if args.config else {}
    for key in table:
        flag = getattr(args, key)
        if flag is not None:
            raw[key] = ",".join(flag) if isinstance(flag, list) else flag
    missing = [key for key in table if key not in raw and table[key][1] is None]
    if missing:
        raise CliError(
            "missing required settings: " + ", ".join(missing)
            + " (set them via flags or a config file)"
        )
    values: dict[str, object] = {}
    for key, (parse, default, _) in table.items():
        if key not in raw:
            raw[key] = default(values) if callable(default) else default
            _emit(f"default applied: {key} = {raw[key]}")
        values[key] = parse(key, raw[key])
    config = harness.SimConfig(
        params=SystemParams(
            values["queues"], values["servers"], values["p"], values["lambda"]
        ),
        horizon=values["horizon"],
        replications=values["replications"],
        seed=values["seed"],
        policies=(
            tuple(dict.fromkeys((MWM, values["baseline"])))
            if "baseline" in values
            else values["policy"]
        ),
        cost_functions=values.get("cost", ("total_occupancy",)),
        record_interval=values.get("record_interval", 1),
        initial_state=values["initial_state"],
    )
    args.sim_config = config  # for main's message if the run runs out of memory
    return config, values


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
    config, values = build_sim_config(args)
    workers = worker_count()
    out = _make_out_dir(values["out_dir"])
    _emit(f"simulate: {config.params.n_queues} queues, {config.params.n_servers} "
          f"servers, p={config.params.connect_prob}, lambda={config.params.arrival_prob}, "
          f"horizon={config.horizon}, replications={config.replications}, "
          f"seed={config.seed}, workers={workers}")
    _emit(f"policies: {', '.join(config.policies)}")
    report, trace = harness.run_experiment(config, max_workers=workers)
    _write_lines(out / "trace.csv", harness.trace_csv_lines(config, trace))
    for cost in config.cost_functions:
        _write_lines(
            out / f"dominance_{cost}.csv", harness.dominance_csv_lines(report, cost)
        )
    summary = harness.format_dominance_summary(report)
    _write_lines(out / "summary.txt", summary.splitlines())
    _emit(summary)
    return 0


def _check_out_file(path: str) -> None:
    """Fail as writing ``path`` would if its directory is missing or it is one."""
    target = Path(path)
    try:
        target.parent.stat()  # ENOENT, or ENOTDIR below a file
        if target.is_dir() or not target.parent.is_dir():
            code = errno.EISDIR if target.is_dir() else errno.ENOTDIR
            raise OSError(code, os.strerror(code))
    except OSError as exc:
        error = OSError(exc.errno, exc.strerror, path)
        raise CliError(f"cannot write {path}: {error}") from None


def _cmd_verify_lemmas(args) -> int:
    if args.out:
        _check_out_file(args.out)
    report = balance.sweep_lemmas(args.max_n, args.max_k, args.max_x)
    text = balance.format_sweep_report(report)
    if args.out:
        _write_lines(args.out, text.splitlines())
    _emit(text)
    return 0 if report.violation_count == 0 else 1


def _cmd_audit_order(args) -> int:
    config, values = build_sim_config(args)
    out = _make_out_dir(values["out_dir"])
    lines = harness.order_audit_lines(config)
    _write_lines(out / "audit_order.txt", lines)
    _emit("\n".join(lines))
    return 0


def _read_weight_matrix(path: str) -> list[list[int]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read weight matrix file {path}: {exc}") from exc
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise CliError(f"{path}: empty weight matrix file")
    try:
        n_queues, n_servers = map(int, lines[0].split())
    except ValueError:  # not two fields, or not integers
        raise CliError(f"{path}: first line must be 'N K', got {lines[0]!r}") from None
    if n_queues < 1 or n_servers < 1:
        raise CliError(f"{path}: first line must be 'N K' with N, K >= 1, got {lines[0]!r}")
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
    _emit(f"pairs {pairs} weight {weight}")
    return 0


def _add_setting_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for key, (parse, default, text) in SETTINGS[command].items():
        if default is None:
            text += " (required)"
        elif isinstance(default, str):
            text += f" (default: {default})"
        sub.add_argument(
            "--" + key.replace("_", "-"),
            action="append" if parse is _names else "store",
            help=text,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwmlab",
        description="multi-queue multi-server scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="coupled policy comparison")
    _add_setting_flags(p_sim, "simulate")
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
    _add_setting_flags(p_aud, "audit-order")
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
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        config = getattr(args, "sim_config", None)
        size = "" if config is None else (
            f" at horizon {config.horizon} with {config.replications} replications;"
            " lower --horizon or --replications"
        )
        print(f"error: out of memory{size}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
