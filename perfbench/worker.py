"""One benchmark worker: set up a workload, then time passes over its ops.

Started by run.py, one process per workload run, with ``src`` on
PYTHONPATH.  Protocol on the original stdout, one JSON object per line:
the worker sends {"event": "ready"} once set-up is done, then reads
"go" or "quit" from stdin; after "go" it runs passes (at least one) as
long as the next one is expected to end within ``--seconds``, then sends
{"event": "result", ...}.  Anything else the
process prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from tracing import Tracer, aggregate
from workloads import LOADS_J, LOADS_Q, LOADS_TOL, Gate, gaussian_loads, load_reference, pass_ops


def _protocol_channel():
    """Keep the original stdout for the protocol and send stray prints to stderr."""
    channel = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return channel


def _git_commit(root: str):
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def machine_block(root: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FRAMEKIT_THREADS": os.environ.get("FRAMEKIT_THREADS"),
        "git_commit": _git_commit(root),
    }


class CliRunner:
    """Runs CliOps in-process through framekit.cli.main with --output to a file."""

    def __init__(self, cli, out_path: str):
        self.cli = cli
        self.out_path = out_path

    def prepare(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def call(self, op):
        return self.cli.main(list(op.argv) + ["--output", self.out_path])

    def judge(self, gate, op, outcome):
        """(kind, reason): reason is None when the op passed."""
        payload = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                payload = fh.read()
        alarm = gate.false_alarm(op, outcome, payload)
        if alarm:
            return "false_alarm", alarm
        return ("exit" if outcome != 0 else "output"), gate.judge_cli(op, outcome, payload)


class SolveRunner:
    """poisson-loads: one-time hierarchy, frame and operator, then one solve per op."""

    def __init__(self, fk, seed: int):
        self.fk = fk
        hierarchy = fk.build_hierarchy(LOADS_J)
        self.frame = fk.bpx_frame(hierarchy, LOADS_Q)
        self.triple = hierarchy.fine_triple(LOADS_Q)
        self.operator = fk.poisson_operator(self.triple)
        if not self.frame.spans:  # the cached spanning check every solve relies on
            raise RuntimeError("BPX frame does not span")
        self.loads = [fk.manufactured_sine_load(self.triple)] + [
            fk.DualVector(a) for a in gaussian_loads(seed, self.triple.n)
        ]
        self.references: dict[int, object] = {}

    def prepare(self):
        pass

    def call(self, op):
        return self.fk.galerkin_solve(self.frame, self.operator, self.loads[op.index], tol=LOADS_TOL)

    def judge(self, gate, op, outcome):
        if op.index not in self.references:
            self.references[op.index] = self.fk.direct_solution(self.operator, self.loads[op.index])
        return "output", gate.judge_solve(outcome, self.references[op.index], self.triple.stiffness.a, LOADS_TOL)


def run_passes(runner, gate, workload, seed, seconds, tracer=None):
    passes, solves, failures, false_alarms = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    pass_index = 0
    while True:
        total = 0.0
        for i, op in enumerate(pass_ops(workload, seed, pass_index)):
            runner.prepare()
            op_id = f"{pass_index}:{i}"
            error = None
            with tracer.recording(op_id) if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                try:
                    outcome = runner.call(op)
                except Exception:  # an op that raises is a failed op; the run goes on
                    error = traceback.format_exc(limit=2).strip().splitlines()[-1]
                t1 = time.perf_counter()
            total += t1 - t0
            if op.is_solve:
                solves.append(t1 - t0)
            attempted += 1
            if error:
                kind, reason = "raised", f"raised {error}"
            else:
                kind, reason = runner.judge(gate, op, outcome)
            if reason:
                record = {"op": op.label, "pass": pass_index, "kind": kind, "reason": reason}
                (false_alarms if kind == "false_alarm" else failures).append(record)
        passes.append(total)
        pass_index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pass_index > seconds:  # the next pass would end past the budget
            break
    return {
        "passes": passes,
        "solves": solves,
        "attempted": attempted,
        "failures": failures,
        "false_alarms": false_alarms,
    }


def layer_metrics(tracer, n_passes: int, pass_times: list) -> dict:
    """Per-pass layer aggregates, set-up aggregates and uncovered shares from the spans."""
    spans = tracer.self_times()
    per_pass = [[] for _ in range(n_passes)]
    setup = []
    for span in spans:
        op = span[4]
        if op == "setup":
            setup.append(span)
        else:
            per_pass[int(op.split(":")[0])].append(span)
    uncovered = []
    for p, group in enumerate(per_pass):
        covered = sum(s[2] - s[1] for s in group if s[3] is None) / 1e9
        uncovered.append((pass_times[p] - covered) / pass_times[p])
    return {
        "passes": [aggregate(group) for group in per_pass],
        "setup": aggregate(setup),
        "uncovered": uncovered,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    channel = _protocol_channel()

    def send(doc):
        channel.write(json.dumps(doc) + "\n")

    import framekit
    import framekit.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("framekit")
    origin = time.perf_counter_ns()
    if args.workload == "poisson-loads":
        with tracer.recording("setup") if tracer is not None else nullcontext():
            runner = SolveRunner(framekit, args.seed)
    else:
        runner = CliRunner(cli, os.path.join(args.out_dir, f"report-{os.getpid()}.json"))
    send({"event": "ready"})
    if sys.stdin.readline().strip() != "go":
        return 0

    gate = Gate(load_reference(), cli.REPORT_SCHEMA, cli.RESULT_SCHEMAS)
    result = run_passes(runner, gate, args.workload, args.seed, args.seconds, tracer)
    runner.prepare()  # removes the last report file
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine_block(os.getcwd())
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, len(result["passes"]), result["passes"])
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path, origin)
        result["spans_file"] = spans_path
    send({"event": "result", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
