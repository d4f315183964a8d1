#!/usr/bin/env python3
"""framekit benchmark: end-to-end metrics per workload, or a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload poisson-loads --seed 0 --seconds 27 --trace 0

With ``--trace 0`` it spawns fresh workers to time set-up, then one worker
times passes over the workload's operations and checks every output;
it prints the end-to-end metrics.  With ``--trace 1`` it runs an untraced
worker and then a traced one and prints the per-layer metrics.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
``--workload all`` runs every workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import COUNT_UNITS, COUNTERS, all_span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5  # set-up is timed on this many fresh workers; the last one runs the passes
RUN_LIMIT_S = 170.0  # one workload run ends within this, or the benchmark fails

END_TO_END = (
    ("pass_s", "s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions called in poisson-loads' one-time set-up, reported under "setup.".
SETUP_SPANS = (
    "multiscale.build_hierarchy",
    "multiscale.bpx_frame",
    "multiscale.embed_matrix",
    "spaces.build_triple",
    "frames.construct",
    "frames.singular_values",
    "operator_repr.make_operator",
    "numerics.generalized_eigs",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    metrics = []
    for span in all_span_names():
        metrics += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
        metrics += [(f"{span}.{key}", COUNT_UNITS.get(key, "count")) for key in COUNTERS.get(span, {})]
    for span in SETUP_SPANS:
        metrics += [(f"setup.{span}.self_s", "s"), (f"setup.{span}.calls", "count")]
    metrics += [("trace.overhead_s", "s"), ("trace.uncovered_share", "share")]
    return metrics


class BenchError(Exception):
    pass


class Worker:
    """A worker process and a thread that queues the lines it sends."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, out_dir: str):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out-dir", out_dir,
        ]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, event: str, deadline: float) -> dict:
        try:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise BenchError(f"worker sent no {event!r} before the run limit") from None
        if line is None:
            raise BenchError(f"worker exited with code {self.proc.wait()} before {event!r}")
        doc = json.loads(line)
        if doc.get("event") != event:
            raise BenchError(f"worker sent {doc.get('event')!r}, expected {event!r}")
        return doc

    def send(self, word: str):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def close(self):
        """Stop the process (it exits on its own after its last message) and reap it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()


def _run_worker(workload, seed, seconds, trace, out_dir, deadline, workers) -> tuple[float, Worker]:
    """Spawn a worker and wait until it is set up; returns (set-up seconds, worker)."""
    t0 = time.perf_counter()
    worker = Worker(workload, seed, seconds, trace, out_dir)
    workers.append(worker)
    worker.expect("ready", deadline)
    return time.perf_counter() - t0, worker


def _measure(worker: Worker, deadline: float) -> dict:
    worker.send("go")
    result = worker.expect("result", deadline)
    worker.close()
    return result


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p / 100 * n) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: int, out_dir: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workers: list[Worker] = []
    try:
        if trace:
            _, plain_worker = _run_worker(workload, seed, seconds, 0, out_dir, deadline, workers)
            plain = _measure(plain_worker, deadline)
            _, traced_worker = _run_worker(workload, seed, seconds, 1, out_dir, deadline, workers)
            traced = _measure(traced_worker, deadline)
            runs = [plain, traced]
            metrics = layer_values(plain, traced)
            samples = {"passes": len(traced["passes"]), "untraced_passes": len(plain["passes"])}
        else:
            setups = []
            for k in range(SETUP_SPAWNS):
                setup_s, worker = _run_worker(workload, seed, seconds, 0, out_dir, deadline, workers)
                setups.append(setup_s)
                if k < SETUP_SPAWNS - 1:
                    worker.send("quit")
                    worker.close()
            result = _measure(worker, deadline)
            runs = [result]
            # Workloads without a solve op report a whole pass as their "solve".
            solves = result["solves"] or result["passes"]
            metrics = {
                "pass_s": statistics.median(result["passes"]),
                "solve_s": statistics.median(solves),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["rss_mb"],
            }
            samples = {
                "pass_s": len(result["passes"]),
                "solve_s": len(result["solves"]),
                "setup_s": len(setups),
                "raw": {"passes": result["passes"], "solves": result["solves"], "setups": setups},
                "tails": {"pass_s": tail_percentile(result["passes"]), "solve_s": tail_percentile(solves)},
            }
    finally:
        for worker in workers:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.close()
    failures = [f for r in runs for f in r["failures"]]
    false_alarms = [f for r in runs for f in r["false_alarms"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": runs[-1]["machine"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": len(failures),
        # A wrong output returned with exit code 0 makes the run incorrect; an op
        # that reports its own failure (non-zero exit or exception) is a failed op.
        "correct": not any(f["kind"] == "output" for f in failures),
        "failures": failures,
        # Known dual false alarms (workloads.Gate.false_alarm): counted and listed,
        # but not failed ops, because the dual frames they check are right.
        "false_alarms": false_alarms,
        "metrics": metrics,
        "samples": samples,
        "spans_file": runs[-1].get("spans_file"),
    }


def layer_values(plain: dict, traced: dict) -> dict:
    """Per-pass medians of every measured layer metric, and the listed per-layer metrics."""
    layers = traced["layers"]
    passes = layers["passes"]
    measured = {name for p in passes for name in p}
    everything = {name: statistics.median(p.get(name, 0) for p in passes) for name in measured}
    listed = {}
    for name, _unit in per_layer_metrics():
        if name.startswith("setup."):
            listed[name] = layers["setup"].get(name[len("setup."):], 0)
        elif not name.startswith("trace."):
            listed[name] = everything.get(name, 0)
    listed["trace.overhead_s"] = statistics.median(traced["passes"]) - statistics.median(plain["passes"])
    listed["trace.uncovered_share"] = statistics.median(layers["uncovered"])
    return {"listed": listed, "all": everything}


def print_report(res: dict) -> dict:
    """Print the human-readable report; returns the metrics object of the JSON line."""
    print(f"framekit benchmark: workload={res['workload']} seed={res['seed']} "
          f"seconds={res['seconds']} trace={res['trace']}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    ratio = res["failed"] / res["attempted"]
    if res["trace"]:
        units = dict(per_layer_metrics())
        listed = res["metrics"]["listed"]
        metrics = {name: {"value": listed[name], "unit": units[name]} for name in units}
        everything = res["metrics"]["all"]
        print(f"traced passes: {res['samples']['passes']}, untraced passes: "
              f"{res['samples']['untraced_passes']}; per-pass medians")
        rows = sorted((n[: -len(".self_s")] for n in everything if n.endswith(".self_s")),
                      key=lambda s: -everything[f"{s}.self_s"])
        for span in rows:
            counts = "  ".join(
                f"{k.rsplit('.', 1)[-1]}={v:g}" for k, v in everything.items()
                if k.startswith(span + ".") and not k.endswith((".self_s", ".calls"))
            )
            print(f"  {span:<45} self {everything[span + '.self_s']:10.4f} s  "
                  f"calls {everything[span + '.calls']:>7g}  {counts}")
        setup = {n: v for n, v in listed.items() if n.startswith("setup.") and n.endswith(".self_s") and v}
        for name, value in sorted(setup.items(), key=lambda kv: -kv[1]):
            print(f"  {name[:-len('.self_s')]:<45} self {value:10.4f} s  (one-time set-up)")
        print(f"  trace.overhead_s {listed['trace.overhead_s']:.4f} s   "
              f"trace.uncovered_share {listed['trace.uncovered_share']:.5f}")
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": res["metrics"][name], "unit": units[name]} for name in units}
        s = res["samples"]
        notes = {
            "pass_s": f"median of {s['pass_s']} passes",
            "solve_s": f"median of {s['solve_s']} solves" if s["solve_s"] else "no solve op: equals pass_s",
            "setup_s": f"median of {s['setup_s']} worker spawns",
            "peak_rss_mb": "ru_maxrss of the measuring worker",
        }
        for name, tail in s["tails"].items():
            if tail:
                notes[name] += f"; p{tail[0]} {tail[1]:.4f} s"
        for name, unit in END_TO_END:
            print(f"  {name:<12} {res['metrics'][name]:12.4f} {unit:<3} {notes[name]}")
    print(f"  {'fail_ratio':<12} {ratio:12.6f}     {res['failed']} failed / {res['attempted']} attempted")
    for f in res["failures"][:10]:
        print(f"  failed op: {f['op']} (pass {f['pass']}): {f['reason']}")
    alarms = res["false_alarms"]
    print(f"  {'false_alarms':<12} {len(alarms) / res['attempted']:12.6f}     {len(alarms)} known false alarms "
          f"/ {res['attempted']} attempted (not counted as failed)")
    for f in alarms[:10]:
        print(f"  false alarm: {f['op']} (pass {f['pass']}): {f['reason']}")
    if res["spans_file"]:
        print(f"spans: {os.path.relpath(res['spans_file'])}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "framekit", "cli.py")):
        sys.stderr.write("run from the framekit repository root: src/framekit not found\n")
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, args.trace, out_dir)
            metrics = print_report(res)
            path = os.path.join(out_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**res, "reported": metrics}, fh, indent=1, sort_keys=True)
            combined["correct"] = combined["correct"] and res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}."
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
