"""Each output check accepts real mwmlab output and rejects a corrupted copy.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
from mwmlab import cli  # noqa: E402

SIM = {
    "command": "simulate", "queues": 4, "servers": 2, "p": 0.5, "lambda": 0.6,
    "horizon": 64, "replications": 5, "seed": 3, "record_interval": 1,
    "policies": ("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
    "checked_policies": ("mwm", "random_maximal", "greedy_lcq", "fixed_order"),
}
AUDIT = {"queues": 4, "servers": 2, "p": 0.5, "lambda": 0.4, "horizon": 30,
         "replications": 6, "seed": 5, "baseline": "fixed_order"}
SWEEP = {"max_n": 2, "max_k": 2, "max_x": 2}


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def _sim_flags(spec):
    return [f for key in ("queues", "servers", "p", "lambda", "horizon", "replications", "seed")
            for f in (f"--{key}", spec[key])]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    _cli(["simulate", *_sim_flags(SIM), "--record-interval", 1,
          *[f for p in SIM["policies"] for f in ("--policy", p)], "--out-dir", base / "sim"])
    _cli(["audit-order", *_sim_flags(AUDIT), "--baseline", "fixed_order",
          "--out-dir", base / "audit"])
    _cli(["verify-lemmas", "--max-n", 2, "--max-k", 2, "--max-x", 2,
          "--out", base / "report.txt"])
    return base


@pytest.fixture
def copy(outputs, tmp_path):
    def make(name):
        src = outputs / name
        dst = tmp_path / name
        (shutil.copytree if src.is_dir() else shutil.copyfile)(src, dst)
        return dst
    return make


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_outputs_pass(outputs):
    assert check.check_simulate(outputs / "sim", SIM) == []
    assert check.check_audit(outputs / "audit", AUDIT) == []
    assert check.check_verify_lemmas(outputs / "report.txt", SWEEP) == []


def test_changed_trace_state_is_rejected(copy):
    out = copy("sim")
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    # Change one queue length of a state recorded late in replication 0.
    i = max(n for n, line in enumerate(lines) if line.startswith("0,") and ",mwm," in line)
    fields = lines[i].rstrip("\n").split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    fields[4] = str(int(fields[4]) + 1)  # keep cost_value = sum(x)
    lines[i] = ",".join(fields) + "\n"
    (out / "trace.csv").write_text("".join(lines))
    assert any("reference" in e for e in check.check_simulate(out, SIM))


def test_cost_value_off_by_one_is_rejected(copy):
    out = copy("sim")
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[-1] = ",".join(fields)
    (out / "trace.csv").write_text("".join(lines))
    assert any("cost_value" in e for e in check.check_simulate(out, SIM))


def test_changed_ci_bound_is_rejected(copy):
    out = copy("sim")
    path = out / "dominance_total_occupancy.csv"
    lines = path.read_text().splitlines(keepends=True)
    i = next(n for n, line in enumerate(lines[1:], 1) if not line.rstrip().endswith(",1.0"))
    fields = lines[i].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    lines[i] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    assert any("exact" in e for e in check.check_simulate(out, SIM))


def test_violation_count_is_rejected(copy):
    out = copy("sim")
    _edit(out / "summary.txt", "dominance violations: 0", "dominance violations: 1")
    assert check.check_simulate(out, SIM) != []


def test_sweep_instance_count_off_by_one_is_rejected(copy):
    path = copy("report.txt")
    want = check.sweep_instances(**SWEEP)
    _edit(path, f"matching): {want}", f"matching): {want + 1}")
    assert check.check_verify_lemmas(path, SWEEP) != []


def test_audit_holding_count_off_by_one_is_rejected(copy):
    out = copy("audit")
    path = out / "audit_order.txt"
    text = path.read_text()
    holding = check.field(text, "slots where mwm state is below baseline")
    _edit(path, f"baseline: {holding}", f"baseline: {holding - 1}")
    assert any("holding" in e for e in check.check_audit(out, AUDIT))


def test_audit_checked_count_off_by_one_is_rejected(copy):
    out = copy("audit")
    path = out / "audit_order.txt"
    checked = check.field(path.read_text(), "slots checked")
    _edit(path, f"slots checked: {checked}", f"slots checked: {checked + 1}")
    assert check.check_audit(out, AUDIT) != []


def test_sweep_instance_formula():
    assert check.sweep_instances(3, 2, 3) == 57344


def test_exact_interval_closed_forms():
    # With 0 or n successes one tail is a single term with a closed-form root.
    n, half = 10, (1 - check.CONFIDENCE_LEVEL) / 2
    assert check.exact_interval(0, n) == (0.0, pytest.approx(1 - half ** (1 / n), abs=1e-12))
    assert check.exact_interval(n, n) == (pytest.approx(half ** (1 / n), abs=1e-12), 1.0)


def test_weak_submajorization():
    assert check.weakly_submajorized((1, 1), (2, 0))
    assert check.weakly_submajorized((0, 3), (3, 0))
    assert not check.weakly_submajorized((2, 0), (1, 1))
    assert not check.weakly_submajorized((2, 2, 1, 0), (1, 1, 2, 1))
