"""Spans around the calls into framekit's public functions.

The tracer wraps each function named in ``TARGETS`` in every framekit
module namespace that binds it (so ``from .numerics import cg_solve``
inside another module is caught too), and records one span per call while
an operation is being timed.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; spans nest properly in a single thread, so the self times of a
span and all its descendants add up to the span's own duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# Layer (module) -> public names to wrap.  "Class.method" names wrap the
# method on the class; the metric uses the part after the dot.
TARGETS = {
    "numerics": ("cg_solve", "generalized_eigs", "spd_solver", "solve_spd", "null_space", "pseudo_inverse"),
    "spaces": ("build_triple", "spectral_inner_matrix", "dual_norm", "primal_norm"),
    "multiscale": (
        "build_hierarchy",
        "bpx_frame",
        "MultiscaleHierarchy.embed_matrix",
        "l2_project",
        "jackson_rate",
        "bernstein_rate",
        "norm_equivalence_ratio",
    ),
    "frames": (
        "_ElementCollection.singular_values",
        "frame_bounds",
        "dual_frame",
        "cross_gramian",
        "min_norm_coefficients",
        "analysis",
        "synthesis",
        "_ElementCollection.__init__",
    ),
    "operator_repr": (
        "make_operator",
        "matrix_representation",
        "galerkin_solve",
        "direct_solution",
        "inverse_representation",
        "gram_identity_check",
        "pseudo_inverse_identity_check",
        "composition_check",
        "operator_from_matrix",
    ),
    "fixtures": ("random_spanning_frame", "by_name"),
    "cli": ("main", "render_json"),
}

# Metric names that differ from the wrapped attribute.
RENAMES = {"frames.__init__": "frames.construct"}

# Counts recorded at the same boundaries, computed from the call's result.
COUNTERS = {
    "numerics.cg_solve": {"iters": lambda out: out[1]},
    "numerics.generalized_eigs": {"dim_sum": lambda out: out.n},
    "multiscale.bpx_frame": {
        "columns": lambda out: out.k,
        "nnz": lambda out: int(np.count_nonzero(out.elements)),
        "mb": lambda out: out.elements.nbytes / 2**20,
    },
    "operator_repr.matrix_representation": {"nnz": lambda out: int(np.count_nonzero(out))},
}
COUNT_UNITS = {"mb": "MB"}  # every other count is a plain count

# Time spent computing counters is recorded as its own span, so that it
# is not charged to the caller's self time.
COUNTER_SPAN = "trace.counters"


def span_name(layer: str, target: str) -> str:
    name = f"{layer}.{target.rsplit('.', 1)[-1]}"
    return RENAMES.get(name, name)


def all_span_names() -> list[str]:
    return [span_name(layer, t) for layer, targets in TARGETS.items() for t in targets]


class Tracer:
    """Records spans (name, start, end, parent, op) for wrapped calls."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []  # [name, start_ns, end_ns, parent_index, op, counts]
        self._stack: list[int] = []
        self._op = None  # spans are recorded only while an op is set

    @contextmanager
    def recording(self, op):
        self._op = op
        try:
            yield
        finally:
            self._op = None

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            record = [name, 0, 0, parent, op, None]
            tracer.spans.append(record)
            stack.append(index)
            record[1] = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                stack.pop()
            if counter is not None:
                c0 = tracer.clock()
                record[5] = {key: count(out) for key, count in counter.items()}
                tracer.spans.append([COUNTER_SPAN, c0, tracer.clock(), parent, op, None])
            return out

        return traced

    def install(self, package: str) -> None:
        """Wrap every target in every loaded module of ``package``."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for layer, targets in TARGETS.items():
            home = sys.modules[f"{package}.{layer}"]
            for target in targets:
                name = span_name(layer, target)
                counter = COUNTERS.get(name)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr], counter))
                    continue
                original = getattr(home, target)
                wrapper = self.wrap(name, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def self_times(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent, op, counts, self_ns) for every span."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _op, _counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(*span, span[2] - span[1] - child[i]) for i, span in enumerate(self.spans)]

    def write_jsonl(self, path, origin_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start_s": (start - origin_ns) / 1e9,
                    "end_s": (end - origin_ns) / 1e9,
                    "parent": parent,
                    "op": op,
                }
                if counts:
                    doc["counts"] = counts
                fh.write(json.dumps(doc) + "\n")


def aggregate(spans_with_self) -> dict:
    """Per-name totals over a set of spans: self_s, calls and summed counts."""
    out: dict[str, float] = {}
    for name, _start, _end, _parent, _op, counts, self_ns in spans_with_self:
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_ns / 1e9
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
