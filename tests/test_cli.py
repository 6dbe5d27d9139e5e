"""Command line behavior: parsing, validation, files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import DESK_SCALE

from mwmlab import cli, harness
from mwmlab.engine import POLICY_NAMES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIM_FLAGS = [
    "--queues", "2", "--servers", "2", "--p", "0.5", "--lambda", "0.2",
    "--horizon", "32", "--replications", "4", "--seed", "42",
]


class TestParsing:
    def test_probability_out_of_range_names_key(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS[:4], "--p", "1.5", "--lambda", "0.2",
             "--horizon", "8", "--replications", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "p" in err and "[0, 1]" in err

    @pytest.mark.parametrize(
        "key", ["queues", "servers", "horizon", "replications", "record_interval"]
    )
    def test_count_below_one_names_the_key(self, capsys, tmp_path, key):
        flags = dict(zip(SIM_FLAGS[::2], SIM_FLAGS[1::2]))
        flags["--" + key.replace("_", "-")] = "0"
        argv = [item for pair in flags.items() for item in pair]
        code, out, err = run_cli(
            ["simulate", *argv, "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert err.startswith(f"error: {key} must be an integer >= 1, got '0'")

    def test_empty_simulate_lists_required_flags(self, capsys):
        code, out, err = run_cli(["simulate"], capsys)
        assert code == 2
        for key in ("queues", "servers", "p", "lambda", "horizon", "replications"):
            assert key in err

    def test_unknown_policy_named(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--policy", "mystery",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "mystery" in err

    def test_unknown_cost_named(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--cost", "mystery_cost",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "mystery_cost" in err

    def test_unknown_config_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("queues = 2\nwidgets = 9\n", encoding="utf-8")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "widgets" in err

    def test_config_file_with_comments_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment\n"
            "queues = 2\n"
            "servers = 2\n"
            "p = 0.5\n"
            "lambda = 0.9   # overridden by the flag below\n"
            "horizon = 16\n"
            "replications = 2\n"
            "policy = mwm,fixed_order\n"
            f"out_dir = {tmp_path}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--lambda", "0.0"], capsys
        )
        assert code == 0
        assert "lambda=0.0" in out

    def test_defaults_echoed(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS[:-2], "--out-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert "default applied: seed = 42" in out
        assert "default applied: policy" in out
        assert "default applied: cost = total_occupancy" in out

    def test_badly_typed_flag_gets_the_config_message(self, capsys):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS[:8], "--horizon", "abc", *SIM_FLAGS[10:]], capsys
        )
        assert code == 2
        assert err.startswith("error: ") and "horizon" in err and "'abc'" in err

    def test_duplicate_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("queues = 2\nqueues = 3\n", encoding="utf-8")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert f"{cfg}:2: duplicate key 'queues'" in err

    @pytest.mark.parametrize(
        "command, line",
        [("audit-order", "policy = mwm"), ("simulate", "baseline = mwm")],
    )
    def test_key_of_the_other_command_named(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"queues = 2\n{line}\n", encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert f"unknown key '{line.split()[0]}'" in err

    @pytest.mark.parametrize("raw", ["1,oops", "1,,2", "1,2,", ",1,2"])
    def test_bad_initial_state(self, capsys, tmp_path, raw):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--initial-state", raw, "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert f"initial_state must be comma-separated integers, got {raw!r}" in err
        assert not out_dir.exists()


COMMAND_OF = {"desk_scale.cfg": "simulate", "order_audit.cfg": "audit-order"}


def load_config(path):
    args = cli.build_parser().parse_args([COMMAND_OF[path.name], "--config", str(path)])
    return cli.build_sim_config(args)


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name
    )
    def test_parses_to_a_valid_config(self, path):
        _, settings = load_config(path)
        assert settings["out_dir"].startswith("results/")  # git ignores results/

    def test_desk_scale_matches_criterion_5(self):
        config, _ = load_config(CONFIGS / "desk_scale.cfg")
        for field in (
            "params", "horizon", "replications", "seed", "policies", "cost_functions"
        ):
            assert getattr(config, field) == getattr(DESK_SCALE, field)

    def test_order_audit_names_a_known_baseline(self):
        _, settings = load_config(CONFIGS / "order_audit.cfg")
        assert settings["baseline"] in POLICY_NAMES


class TestSolveMatching:
    def test_example_matrix(self, capsys, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("2 2\n3 1\n2 4\n", encoding="utf-8")
        code, out, err = run_cli(["solve-matching", str(f)], capsys)
        assert code == 0
        assert out.strip() == "pairs (0,0),(1,1) weight 7"

    def test_all_zero_matrix(self, capsys, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("1 2\n0 0\n", encoding="utf-8")
        code, out, err = run_cli(["solve-matching", str(f)], capsys)
        assert code == 0
        assert out.strip() == "pairs none weight 0"

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("2 2\n3 1\n", encoding="utf-8")
        code, out, err = run_cli(["solve-matching", str(f)], capsys)
        assert code == 2
        assert "expected 2 weight rows" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(["solve-matching", str(tmp_path / "no.txt")], capsys)
        assert code == 2

    def test_more_than_16_servers_is_an_error(self, capsys, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("1 17\n" + " ".join(["1"] * 17) + "\n", encoding="utf-8")
        code, out, err = run_cli(["solve-matching", str(f)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "solver's limit" in err

    def test_weights_past_int64_are_an_error(self, capsys, tmp_path):
        f = tmp_path / "w.txt"
        top = (2**63 - 1) // 2
        f.write_text(f"2 2\n{top} {top}\n{top} 1\n", encoding="utf-8")
        code, out, err = run_cli(["solve-matching", str(f)], capsys)
        assert code == 0
        assert out.strip() == f"pairs (0,1),(1,0) weight {2 * top}"
        for big in (top + 1, 10**30):
            f.write_text(f"2 2\n{top} {top}\n{big} 1\n", encoding="utf-8")
            code, out, err = run_cli(["solve-matching", str(f)], capsys)
            assert code == 2
            assert err.startswith("error: weights too large") and "2**63 - 1" in err


class TestVerifyLemmas:
    def test_tiny_sweep_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code, out, err = run_cli(
            ["verify-lemmas", "--max-n", "2", "--max-k", "1", "--max-x", "2",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert "total violations: 0" in out
        text = out_file.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert "total violations: 0" in text

    @pytest.mark.parametrize(
        "flag, value", [("--max-n", "0"), ("--max-k", "0"), ("--max-x", "-1")]
    )
    def test_empty_range_is_an_error(self, capsys, flag, value):
        code, out, err = run_cli(["verify-lemmas", flag, value], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert "instances checked" not in out

    def test_range_beyond_enumeration_limit_is_an_error(self, capsys):
        code, out, err = run_cli(
            ["verify-lemmas", "--max-n", "26", "--max-k", "1", "--max-x", "0"], capsys
        )
        assert code == 2
        assert err.startswith("error: ") and "enumeration limit" in err
        assert "instances checked" not in out

    def test_more_than_16_servers_is_an_error(self, capsys):
        code, out, err = run_cli(
            ["verify-lemmas", "--max-n", "1", "--max-k", "17", "--max-x", "0"], capsys
        )
        assert code == 2
        assert err.startswith("error: max_k must be <= 16")
        assert "instances checked" not in out

    def test_unwritable_out_is_an_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(
            ["verify-lemmas", "--max-n", "1", "--max-k", "1", "--max-x", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {out_file}")
        assert "instances checked" not in out

    def test_exit_nonzero_when_a_violation_is_reported(self, capsys, monkeypatch):
        from mwmlab import balance

        def fake_sweep(max_n, max_k, max_x):
            report = balance.LemmaSweepReport(max_n=max_n, max_k=max_k, max_x=max_x)
            report.biconditional_violations.append("synthetic instance")
            return report

        monkeypatch.setattr(balance, "sweep_lemmas", fake_sweep)
        code, out, err = run_cli(["verify-lemmas"], capsys)
        assert code == 1
        assert "total violations: 1" in out


AUDIT_FLAGS = [
    "--queues", "2", "--servers", "1", "--p", "0.5", "--lambda", "0.2",
    "--horizon", "20", "--replications", "3",
]


class TestAuditOrder:
    def test_runs_and_writes_report(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["audit-order", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "20", "--replications", "3",
             "--baseline", "fixed_order", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "fraction holding" in out
        assert (tmp_path / "audit_order.txt").read_text(encoding="utf-8").endswith("\n")

    def test_echoes_no_default_it_does_not_read(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["audit-order", *AUDIT_FLAGS,
             "--baseline", "fixed_order", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "default applied: seed = 42" in out
        for key in ("policy", "cost", "record_interval"):
            assert f"default applied: {key}" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--policy", "mwm"), ("--cost", "total_occupancy"),
         ("--record-interval", "1")],
    )
    def test_simulate_only_flag_rejected(self, capsys, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["audit-order", *AUDIT_FLAGS, "--baseline", "fixed_order",
                      flag, value, "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_unknown_baseline_fails_before_the_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["audit-order", *AUDIT_FLAGS,
             "--baseline", "mystery", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "mystery" in err
        assert not out_dir.exists()

    def test_missing_baseline(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["audit-order", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "20", "--replications", "3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "baseline" in err

    def test_five_queues_long_horizon_checks_every_slot(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["audit-order", "--queues", "5", "--servers", "2", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "80", "--replications", "3",
             "--baseline", "fixed_order", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "slots checked: 240" in out
        assert "slots skipped by search guard: 0" in out

    def test_out_dir_under_a_regular_file_fails_before_the_audit(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_audit(config):
            raise AssertionError("the audit ran before its directory was made")

        monkeypatch.setattr(harness, "order_audit_lines", no_audit)
        (tmp_path / "file").write_text("", encoding="utf-8")
        out_dir = tmp_path / "file" / "out"
        code, out, err = run_cli(
            ["audit-order", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "20", "--replications", "3",
             "--baseline", "fixed_order", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {out_dir}")


class TestSimulateFiles:
    def test_more_than_16_servers_fail_before_the_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        flags = dict(zip(SIM_FLAGS[::2], SIM_FLAGS[1::2]), **{"--servers": "17"})
        argv = [item for pair in flags.items() for item in pair]
        code, out, err = run_cli(["simulate", *argv, "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error: n_servers must be <= 16")
        assert not out_dir.exists()

    def test_cost_past_int64_fails_before_the_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "4", "--replications", "2",
             "--cost", "sum_of_squares", "--initial-state", "4000000000,0",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: cost function sum_of_squares reaches ")
        assert "2**63 - 1" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_horizon_past_the_state_bound_fails_before_the_out_dir(self, capsys, tmp_path):
        # from the empty start as from a given one, queues could pass 2**48
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", str(2**48), "--replications", "1",
             "--policy", "mwm", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err == (
            "error: initial queue lengths plus the horizon must stay below 2**48\n"
        )
        assert "simulate:" not in out
        assert not out_dir.exists()

    def test_run_out_of_memory_is_an_error(self, capsys, tmp_path, monkeypatch):
        def no_memory(config, max_workers=1):
            raise MemoryError

        monkeypatch.setattr(harness, "run_experiment", no_memory)
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert err == (
            "error: out of memory at horizon 32 with 4 replications;"
            " lower --horizon or --replications\n"
        )

    def test_policies_without_mwm_fail_before_the_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", "--queues", "2", "--servers", "1", "--p", "0.5",
             "--lambda", "0.2", "--horizon", "5", "--replications", "2",
             "--policy", "fixed_order", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err == "error: the coupled comparison needs the mwm policy included\n"
        assert "simulate:" not in out
        assert not out_dir.exists()

    def test_repeated_cost_fails_before_the_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--cost", "total_occupancy",
             "--cost", "total_occupancy", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err == "error: cost functions must be unique\n"
        assert "simulate:" not in out
        assert not out_dir.exists()

    def test_out_dir_under_a_regular_file_is_an_error(self, capsys, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out_dir = tmp_path / "file" / "out"
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--out-dir", str(out_dir)], capsys
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {out_dir}")
        assert "Traceback" not in err

    def test_outputs_written_with_trailing_newlines(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--policy", "mwm", "--policy", "fixed_order",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text(encoding="utf-8")
        dom = (tmp_path / "dominance_total_occupancy.csv").read_text(encoding="utf-8")
        summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
        assert trace.splitlines()[0] == (
            "replication,slot,policy,cost_name,cost_value,mw_index,x_0,x_1"
        )
        assert dom.splitlines()[0] == "slot,r,policy,ccdf,ci_low,ci_high"
        for text in (trace, dom, summary):
            assert text.endswith("\n")

    def test_zero_arrivals_zero_cost_column(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["simulate", "--queues", "2", "--servers", "2", "--p", "0.5",
             "--lambda", "0.0", "--horizon", "16", "--replications", "2",
             "--record-interval", "4", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows
        for row in rows:
            assert row.split(",")[4] == "0"

    def test_byte_identical_across_runs_and_worker_counts(
        self, capsys, tmp_path, monkeypatch
    ):
        outputs = []
        for idx, threads in enumerate(("1", "2")):
            monkeypatch.setenv("MWMLAB_THREADS", threads)
            out_dir = tmp_path / f"run{idx}"
            code, out, err = run_cli(
                ["simulate", *SIM_FLAGS, "--out-dir", str(out_dir)], capsys
            )
            assert code == 0
            outputs.append(
                {
                    name: (out_dir / name).read_bytes()
                    for name in ("trace.csv", "dominance_total_occupancy.csv", "summary.txt")
                }
            )
        assert outputs[0] == outputs[1]

    def test_bad_threads_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MWMLAB_THREADS", "many")
        code, out, err = run_cli(
            ["simulate", *SIM_FLAGS, "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "MWMLAB_THREADS" in err


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command, written", [("verify-lemmas", "report.txt"), ("simulate", "summary.txt")]
    )
    def test_outputs_and_exit_status_survive_a_closed_pipe(
        self, capsys, tmp_path, command, written, unbuffered
    ):
        def argv(out):
            if command == "verify-lemmas":
                return [command, "--max-n", "3", "--max-k", "2", "--max-x", "3",
                        "--out", str(out / written)]
            return [command, *SIM_FLAGS, "--out-dir", str(out)]

        closed, ordinary = tmp_path / "closed", tmp_path / "ordinary"
        closed.mkdir()
        ordinary.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-m", "mwmlab.cli", *argv(closed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
        proc.stdout.close()  # the reader is gone before the command prints
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert run_cli(argv(ordinary), capsys)[0] == 0
        texts = [
            [line for line in (out / written).read_text().splitlines()
             if "elapsed seconds" not in line]
            for out in (closed, ordinary)
        ]
        assert texts[0] == texts[1]


# Runs commands after `import mwmlab.cli`, with scipy made unimportable, and
# prints their exit codes and the numpy and scipy modules they imported.
_COMMAND_IMPORTS_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import mwmlab.cli
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(mwmlab.cli.main(argv))
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps([codes, new]))
"""


def _probe(code: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


class TestStartup:
    def test_cli_import_loads_no_scipy_or_process_pool(self):
        probe = (
            "import sys, mwmlab.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
        )
        assert _probe(probe) == "[]"

    def test_commands_import_no_numpy_or_scipy_module(self, tmp_path):
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("2 2\n1 2\n3 4\n", encoding="utf-8")
        sim = ["--p", "0.5", "--lambda", "0.3", "--horizon", "20", "--replications", "2"]
        runs = [
            ["simulate", "--queues", "3", "--servers", "2", *sim,
             "--out-dir", str(tmp_path / "table")],
            ["simulate", "--queues", "8", "--servers", "8", *sim,
             "--out-dir", str(tmp_path / "split")],
            ["audit-order", "--queues", "3", "--servers", "2", *sim,
             "--baseline", "fixed_order", "--out-dir", str(tmp_path / "audit")],
            ["verify-lemmas", "--max-n", "2", "--max-k", "2", "--max-x", "2"],
            ["solve-matching", str(matrix)],
        ]
        codes, new = json.loads(_probe(_COMMAND_IMPORTS_PROBE, json.dumps(runs)))
        assert codes == [0] * len(runs)
        assert new == []
