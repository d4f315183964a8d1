"""Self-tests of the benchmark harness (run with PYTHONPATH=src from the repo root).

They cover the correctness gate feeding ``failed``, the span accounting
behind the per-layer self times, and the determinism of the op lists.
"""

import copy
import json
import os

import numpy as np
import pytest

import framekit.cli as cli
import run
from tracing import COUNTER_SPAN, Tracer, aggregate
from worker import CliRunner, run_passes
from workloads import WORKLOADS, CliOp, Gate, gaussian_loads, load_reference, pass_ops

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def gate():
    return Gate(load_reference(), cli.REPORT_SCHEMA, cli.RESULT_SCHEMAS)


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main(list(argv) + ["--output", str(out)])
    return code, out.read_text()


def test_unseeded_report_matches_reference(gate, tmp_path):
    op = CliOp(("bounds", "--fixture", "F3"))
    code, payload = _report(tmp_path, op.argv)
    assert gate.judge_cli(op, code, payload) is None


def test_tampered_report_is_a_failed_op(gate, tmp_path):
    op = CliOp(("bounds", "--fixture", "F3"))
    code, payload = _report(tmp_path, op.argv)
    report = json.loads(payload)
    report["results"]["upper"] *= 1.0 + 1e-6
    assert "results.upper" in gate.judge_cli(op, code, json.dumps(report))

    seeded = CliOp(("dual", "--samples", "3", "--seed", "5"))
    code, payload = _report(tmp_path, seeded.argv)
    assert gate.judge_cli(seeded, code, payload) is None
    report = json.loads(payload)
    del report["results"]["reconstruction_deviation"]
    assert gate.judge_cli(seeded, code, json.dumps(report)).startswith("schema")


def test_residual_fields_are_left_to_the_report_checks(gate, tmp_path):
    op = CliOp(("gramian", "--fixture", "F1"))
    code, payload = _report(tmp_path, op.argv)
    report = json.loads(payload)
    report["results"]["idempotency"] = 3e-16
    report["checks"][0]["value"] = 3e-16
    assert gate.judge_cli(op, code, json.dumps(report)) is None


def test_nonzero_exit_is_a_failed_op(gate, tmp_path):
    op = CliOp(("bounds", "--fixture", "F1"))
    _, payload = _report(tmp_path, op.argv)
    assert gate.judge_cli(op, 2, payload) == "exit code 2"
    assert gate.judge_cli(op, 0, None) == "no report written"


def test_known_dual_false_alarm_is_counted_apart(gate, tmp_path):
    op = CliOp(("dual", "--samples", "30", "--seed", "3"))
    code, payload = _report(tmp_path, op.argv)
    assert code == 2
    assert gate.judge_cli(op, code, payload) == "exit code 2"
    assert gate.false_alarm(op, code, payload).startswith("dual_bounds_are_reciprocal")
    assert gate.false_alarm(op, 1, payload) is None
    assert gate.false_alarm(CliOp(("dual", "--fixture", "F3")), code, payload) is None

    def tampered(**checks):
        report = json.loads(payload)
        for check in report["checks"]:
            if check["name"] in checks:
                check["value"] = checks[check["name"]]
                check["passed"] = check["value"] <= check["tolerance"]
        return json.dumps(report)

    # rounding-sized deviations of ill-conditioned frames are false alarms too
    assert gate.false_alarm(op, code, tampered(reconstruction_identities=2.3e-10)) is not None
    assert gate.false_alarm(op, code, tampered(dual_frame_operator_is_inverse=3e-9)) is not None
    # a wrong dual frame or a broken reconstruction is a failed op
    assert gate.false_alarm(op, code, tampered(dual_frame_operator_is_inverse=1e-6)) is None
    assert gate.false_alarm(op, code, tampered(reconstruction_identities=1e-3)) is None

    runner = CliRunner(cli, str(tmp_path / "out.json"))
    runner.prepare()
    assert runner.judge(gate, op, runner.call(op))[0] == "false_alarm"


class _ScriptedCli:
    """Stands in for framekit.cli: writes the reference report (or a valid seeded
    one), exits 2 on one op and tampers with another."""

    def __init__(self, reference, exit_2, tamper):
        self.reference = reference
        self.exit_2 = exit_2
        self.tamper = tamper

    def main(self, argv):
        label = " ".join(argv[:-2])
        report = copy.deepcopy(self.reference.get(label)) or {
            "command": argv[0],
            "params": {},
            "results": dict.fromkeys(cli.RESULT_SCHEMAS[argv[0]]["required"], 0.0),
            "checks": [],
        }
        if label == self.tamper:
            report["results"]["lower"] = -1.0
        with open(argv[-1], "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 2 if label == self.exit_2 else 0


def test_failed_ops_are_counted_not_retried(gate, tmp_path):
    scripted = _ScriptedCli(load_reference(), exit_2="rates --J 5", tamper="bounds --fixture F2")
    runner = CliRunner(scripted, str(tmp_path / "out.json"))
    result = run_passes(runner, gate, "calculus-small", seed=0, seconds=0)
    ops = pass_ops("calculus-small", 0, 0)
    assert result["attempted"] == len(ops)
    assert sorted((f["op"], f["kind"]) for f in result["failures"]) == [
        ("bounds --fixture F2", "output"),
        ("rates --J 5", "exit"),
    ]
    assert result["false_alarms"] == []


def test_nested_self_times_sum_to_parent_duration():
    ticks = iter(range(0, 10_000, 7))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return (np.zeros(3), 4)

    leaf_w = tracer.wrap("numerics.cg_solve", leaf, {"iters": lambda out: out[1]})
    mid = tracer.wrap("operator_repr.galerkin_solve", lambda: [leaf_w() for _ in range(3)])
    other = tracer.wrap("frames.analysis", lambda: None)
    root = tracer.wrap("cli.main", lambda: (mid(), other(), mid()))

    root()  # not recording: no spans
    assert tracer.spans == []
    with tracer.recording("0:0"):
        root()
    spans = tracer.self_times()
    root_span = next(s for s in spans if s[0] == "cli.main")
    assert sum(s[6] for s in spans) == root_span[2] - root_span[1]
    for i, parent in enumerate(spans):
        children = [s for s in spans if s[3] == i]
        if children:
            subtree = parent[6] + sum(c[2] - c[1] for c in children)
            assert subtree == parent[2] - parent[1]
    totals = aggregate(spans)
    assert totals["numerics.cg_solve.calls"] == 6
    assert totals["numerics.cg_solve.iters"] == 24
    assert totals[f"{COUNTER_SPAN}.calls"] == 6
    assert totals["operator_repr.galerkin_solve.calls"] == 2


def test_same_seed_same_op_lists():
    for workload in WORKLOADS:
        for p in range(4):
            assert pass_ops(workload, 11, p) == pass_ops(workload, 11, p)
    assert pass_ops("calculus-small", 11, 0) != pass_ops("calculus-small", 12, 0)
    assert pass_ops("calculus-small", 11, 0) != pass_ops("calculus-small", 11, 1)
    for a, b in zip(gaussian_loads(11, 15), gaussian_loads(11, 15)):
        assert np.array_equal(a, b)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
