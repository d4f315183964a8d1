"""Workload definitions, their seeded operation lists, and the correctness gate.

Every workload is a fixed list of operations per pass.  Seeded CLI
operations draw their ``--seed`` from a stream keyed by (workload seed,
pass index), so the same workload seed always yields the same op lists.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("poisson-cli", "poisson-loads", "stability-frac", "calculus-small")

# poisson-loads: hierarchy depth, frame exponent, solver tolerance, and the
# number of seeded Gaussian loads solved per pass besides the sine load.
LOADS_J = 9
LOADS_Q = 1.0
LOADS_TOL = 1e-8
GAUSSIAN_LOADS = 7

# Reference comparison of unseeded CLI reports: floats must agree to
# FLOAT_RTOL relative; values at or below FLOAT_NOISE in magnitude are
# rounding noise of unit-scale quantities (e.g. the Jackson error on the
# finest level, ~1e-16) and only have to stay at that level.
FLOAT_RTOL = 1e-8
FLOAT_NOISE = 1e-12

# Result fields that are residuals or deviations: their size is judged by
# the report's own checks, not against the reference values.
RESIDUAL_FIELDS = frozenset(
    {
        # solve-poisson
        "residual",
        "h1_error_vs_direct",
        "h1_error_vs_interpolant",
        "min_norm_deviation",
        # dual
        "dual_bounds_deviation",
        "frame_operator_inverse_deviation",
        "reconstruction_deviation",
        # gramian
        "idempotency",
        "symmetry",
        "transpose_pair",
        "svd_projector",
        "splitting",
        # norm-equiv
        "homogeneity_deviation",
        # identities blocks
        "ritz_min",
        "gram_left",
        "gram_right",
        "kernel_angle",
        "composition",
        "pseudo_inverse",
        "reconstruct_inverse",
        "reconstruct_forward",
    }
)

# The known false alarms of seeded ``dual`` runs.  Their random frames are
# barely overcomplete (n + 1 to n + 4 Gaussian columns), so some are
# ill-conditioned, and the command's checks use tolerances that ignore the
# conditioning:
# - ``dual_frame_operator_is_inverse`` (relative, 1e-9) and
#   ``reconstruction_identities`` (relative, 1e-10) measure rounding errors of
#   size eps * cond(S).  Up to ten times the larger tolerance counts as rounding.
# - ``dual_bounds_are_reciprocal`` applies an absolute 1e-8 to quantities of
#   size 1/A.  With the first deviation within its limit,
#   ||S_dual - S^-1||_2 <= 1e-8 ||S^-1||_F <= 1e-8 sqrt(n) / A, and by Weyl's
#   inequality the dual bounds are reciprocal to that relative accuracy.
# An op that exits 2 on these checks, each failed one within its limit, is
# counted as a false alarm, apart from the failed ops.
FALSE_ALARM_COMMAND = "dual"
# check -> the largest value still counted as a false alarm (None: no limit)
FALSE_ALARM_LIMITS = {
    "dual_bounds_are_reciprocal": None,
    "dual_frame_operator_is_inverse": 1e-8,
    "reconstruction_identities": 1e-8,
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class CliOp:
    """One in-process ``framekit.cli.main(argv)`` call."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def seeded(self) -> bool:
        return "--seed" in self.argv

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def is_solve(self) -> bool:
        return self.command == "solve-poisson"


@dataclass(frozen=True)
class SolveOp:
    """One ``galerkin_solve`` call on load ``index`` (0 is the sine load)."""

    index: int

    @property
    def label(self) -> str:
        return "galerkin_solve sine load" if self.index == 0 else f"galerkin_solve gaussian load {self.index}"

    is_solve = True


def _stream_seeds(seed: int, pass_index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, pass_index])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _cli(*argv) -> CliOp:
    return CliOp(tuple(str(a) for a in argv))


def pass_ops(workload: str, seed: int, pass_index: int) -> list:
    """The operations of one pass; deterministic in (workload, seed, pass_index)."""
    if workload == "poisson-cli":
        return [_cli("solve-poisson", "--J", 10, "--tol", "1e-8")]
    if workload == "poisson-loads":
        return [SolveOp(i) for i in range(GAUSSIAN_LOADS + 1)]
    if workload == "stability-frac":
        (s,) = _stream_seeds(seed, pass_index, 1)
        return [
            _cli("bpx", "--q", 0.5, "--J", "2..9"),
            _cli("rates", "--q", 0.5, "--J", 9),
            _cli("norm-equiv", "--q", 0.5, "--J", 8, "--samples", 50, "--seed", s),
        ]
    if workload == "calculus-small":
        s1, s2 = _stream_seeds(seed, pass_index, 2)
        return [
            _cli("dual", "--samples", 30, "--seed", s1),
            _cli("dual", "--samples", 30, "--seed", s2),
            _cli("dual", "--fixture", "F3"),
            _cli("identities", "--J", 5),
            _cli("gramian", "--fixture", "F1"),
            _cli("gramian", "--fixture", "F4"),
            _cli("gramian", "--J", 5),
            *(_cli("bounds", "--fixture", f) for f in ("F1", "F2", "F3", "F4")),
            _cli("bpx", "--q", 0, "--J", "2..6"),
            _cli("rates", "--J", 5),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def unseeded_cli_ops() -> list[CliOp]:
    """Every unseeded CLI op of every workload: the keys of the reference file."""
    ops = {}
    for workload in WORKLOADS:
        for op in pass_ops(workload, 0, 0):
            if isinstance(op, CliOp) and not op.seeded:
                ops[op.label] = op
    return list(ops.values())


def gaussian_loads(seed: int, n: int) -> list[np.ndarray]:
    """The seeded Gaussian load actions of poisson-loads, like conditioning_row's probes."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(GAUSSIAN_LOADS)]


# -- correctness gate ----------------------------------------------------------


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    if abs(a) <= FLOAT_NOISE and abs(b) <= FLOAT_NOISE:
        return True
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def compare(ref, got, path: str = "") -> str | None:
    """First field where ``got`` departs from ``ref``, or None when they agree."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path or 'report'}: keys differ"
        for key in sorted(ref):
            if key in RESIDUAL_FIELDS or (key == "value" and path.startswith("checks")):
                continue
            diff = compare(ref[key], got[key], f"{path}.{key}" if path else key)
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: length differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, float):
        if math.isfinite(got) and _close(ref, got):
            return None
        return f"{path}: {got!r} != reference {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != reference {ref!r}"
    return None


class Gate:
    """Judges one op's outcome; returns None when it passed, else the reason."""

    def __init__(self, reference: dict, report_schema: dict, result_schemas: dict):
        import jsonschema  # imported here so that a worker's timed set-up does not pay for it

        self._reference = reference
        self._validator = jsonschema.Draft202012Validator(report_schema)
        self._result_validators = {
            cmd: jsonschema.Draft202012Validator(schema) for cmd, schema in result_schemas.items()
        }

    def _schema_error(self, op: CliOp, report) -> str | None:
        error = next(iter(self._validator.iter_errors(report)), None)
        if error is None and isinstance(report.get("results"), dict):
            validator = self._result_validators.get(op.command)
            error = next(iter(validator.iter_errors(report["results"])), None) if validator else None
        if error is not None:
            return f"schema: {error.message}"
        if report["command"] != op.command:
            return f"report is for {report['command']!r}"
        return None

    def judge_cli(self, op: CliOp, exit_code, payload: str | None) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        if payload is None:
            return "no report written"
        try:
            report = json.loads(payload)
        except ValueError:
            return "report is not JSON"
        error = self._schema_error(op, report)
        if error is not None or op.seeded:
            return error
        ref = self._reference.get(op.label)
        if ref is None:
            return "no reference result"
        return compare(ref, report)

    def false_alarm(self, op: CliOp, exit_code, payload: str | None) -> str | None:
        """Describes the outcome when it is a known ``dual`` false alarm, else None."""
        if exit_code != 2 or op.command != FALSE_ALARM_COMMAND or not op.seeded or payload is None:
            return None
        try:
            report = json.loads(payload)
        except ValueError:
            return None
        if self._schema_error(op, report) is not None:
            return None
        checks = report["checks"]
        if {c["name"] for c in checks} != set(FALSE_ALARM_LIMITS):
            return None
        failed = [c for c in checks if not c["passed"]]
        limits = [FALSE_ALARM_LIMITS[c["name"]] for c in failed]
        if not failed or not all(limit is None or c["value"] <= limit for c, limit in zip(failed, limits)):
            return None
        return "; ".join(f"{c['name']} {c['value']:.3e} > {c['tolerance']:g}" for c in failed)

    @staticmethod
    def judge_solve(solution, reference, stiffness: np.ndarray, tol: float) -> str | None:
        """H^1 relative error of a frame-Galerkin solution against the direct solve."""
        u = np.asarray(solution.solution.coeffs)
        ref = np.asarray(reference.coeffs)
        if u.shape != ref.shape or not np.all(np.isfinite(u)):
            return "solution has wrong shape or non-finite entries"
        e = u - ref
        err = math.sqrt(max(float(e @ (stiffness @ e)), 0.0)) / math.sqrt(float(ref @ (stiffness @ ref)))
        if err <= 10 * tol:
            return None
        return f"H1 relative error {err:.3e} > {10 * tol:.1e}"
