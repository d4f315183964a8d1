"""The benchmark tracer's targets still exist in framekit.

``perfbench/tracing.py`` wraps framekit functions by name only when a run
is traced (``--trace 1``), so a renamed or deleted target would go unseen
by every untraced run.  These tests resolve each target and evaluate the
frame counters without installing the tracer.
"""

import importlib
import pathlib
import sys

from framekit.multiscale import bpx_frame, build_hierarchy

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracing import COUNTERS, TARGETS  # noqa: E402


def test_every_trace_target_resolves():
    missing = []
    for layer, targets in TARGETS.items():
        module = importlib.import_module(f"framekit.{layer}")
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, target, None))
            if not found:
                missing.append(f"{layer}.{target}")
    assert missing == []


def test_bpx_frame_counters_read_the_frame():
    frame = bpx_frame(build_hierarchy(2), 1.0)
    counts = {key: count(frame) for key, count in COUNTERS["multiscale.bpx_frame"].items()}
    assert counts["columns"] == frame.k == 1 + 3 + 7
    assert counts["nnz"] == frame.columns.nnz
