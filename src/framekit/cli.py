"""Batch front-end: every study as a subcommand with machine-readable output.

Reports are JSON objects {command, params, results, checks} (CSV for the
tabular studies).  A run exits 0 when every mathematical check passed,
2 when one failed (the failing quantity is named in the report), and 1 on
usage errors.  Identical config and seed produce byte-identical payloads.

The configuration is declared once, in ``RunConfig``: each option stores
into, and takes its default from, the field of its name, and the report's
params are the fields, renamed where ``PARAM_KEYS`` says so.  ``_SUBCOMMANDS``
lists the fields each subcommand reads: no other option parses, ``run`` refuses
a config that sets another field, and an unwritable ``--output`` fails first.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import fixtures
from .errors import DomainError, FramekitError
from .frames import (
    cross_gramian,
    dual_frame,
    frame_bounds,
    frame_operator_matrix,
    min_norm_coefficients,
    reconstruct_dual,
    reconstruct_primal,
    reference_frame,
)
from .multiscale import (
    bernstein_rate,
    bpx_bounds,
    bpx_frame,
    build_hierarchy,
    jackson_rate,
    norm_equivalence_ratio,
)
from .operator_repr import (
    composition_check,
    direct_solution,
    galerkin_solve,
    gram_identity_check,
    inverse_representation,
    make_operator,
    manufactured_sine_load,
    manufactured_sine_solution,
    matrix_representation,
    operator_from_matrix,
    poisson_operator,
    pseudo_inverse_identity_check,
)
from .spaces import DualVector, PrimalVector, build_triple, primal_norm, stiffness_condition_number

# Fields whose report key differs from the field name.
PARAM_KEYS = {"j_levels": "J", "fmt": "format"}


class UsageError(Exception):
    pass


def parse_level_range(text: str) -> tuple[int, ...]:
    """Expand '2..7' into (2, ..., 7); a single integer stays a singleton."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"bad level range {text!r}") from None
        if hi < lo:
            raise UsageError(f"empty level range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise UsageError(f"bad level {text!r}") from None


def _option(default, flag: str, help_text: str, **keywords):
    """A RunConfig field set by ``flag``; ``keywords`` go to argparse's ``add_argument``."""
    return field(default=default, metadata={"flag": flag, "argparse": {"help": help_text, **keywords}})


@dataclass
class RunConfig:
    command: str
    j_levels: tuple[int, ...] = _option((), "--J", "hierarchy depth or range like 2..7", type=parse_level_range)
    q: float = _option(1.0, "--q", "Sobolev exponent", type=float)
    seed: int = _option(0, "--seed", "RNG seed for random-vector studies", type=int)
    tol: float = _option(1e-8, "--tol", "solver tolerance", type=float)
    output: Optional[str] = None
    fmt: str = _option("json", "--format", "report format", choices=("json", "csv"))
    fixture: Optional[str] = _option(None, "--fixture", "named fixture (F1..F4)")
    samples: int = _option(20, "--samples", "random sample count", type=int)
    max_ratio: float = _option(60.0, "--max-ratio", "bound-ratio cap checked by bpx", type=float)
    max_spread: float = _option(20.0, "--max-spread", "spread cap checked by norm-equiv", type=float)

    def params_dict(self) -> dict:
        """The report's params: every field but command and output, under its report key."""
        params = {"J_fine": None}  # the deleted --J-fine's key, until the benchmark reference drops it
        for f in fields(self):
            if f.name not in ("command", "output"):
                params[PARAM_KEYS.get(f.name, f.name)] = getattr(self, f.name)
        return params


def _check(name: str, passed: bool, value, tolerance) -> dict:
    return {"name": name, "passed": bool(passed), "value": value, "tolerance": tolerance}


def _jsonable(obj):
    """``json.dumps`` hook for numpy arrays and scalars (np.float64 is a float and skips it)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _single_depth(cfg: RunConfig, default):
    """The one hierarchy depth a command runs at; a range is a usage error."""
    if len(cfg.j_levels) > 1:
        raise UsageError(f"{cfg.command} runs at one depth, got --J range {cfg.j_levels}")
    return cfg.j_levels[0] if cfg.j_levels else default


# -- subcommands ---------------------------------------------------------------


def _cmd_bounds(cfg: RunConfig, rng):
    name = (cfg.fixture or "F2").upper()
    frame = fixtures.by_name(name)
    b = frame_bounds(frame)
    results = {
        "fixture": name,
        "lower": b.lower,
        "upper": b.upper,
        "ratio": b.ratio,
        "tight": b.tight,
        "note": fixtures.FIXTURE_NOTES.get(name),
    }
    checks = [
        _check("lower_bound_positive", b.lower > 0.0, b.lower, 0.0),
        _check("bounds_ordered", b.lower <= b.upper, b.ratio, 1.0),
    ]
    return results, checks, None


def _random_suite(cfg: RunConfig, rng):
    qs = (0.0, 0.5, 1.0)
    fines = (2, 3, 4)
    for i in range(cfg.samples):
        j_fine = fines[i % len(fines)]
        q = qs[i % len(qs)]
        n = 2**j_fine - 1
        k = n + int(rng.integers(1, n + 5))
        yield fixtures.random_spanning_frame(rng, j_fine, q, min(k, 60))


def _cmd_dual(cfg: RunConfig, rng):
    if cfg.fixture:
        frames = [fixtures.by_name(cfg.fixture)]
    else:
        frames = list(_random_suite(cfg, rng))
    dev_bounds = 0.0
    dev_sop = 0.0
    dev_recon = 0.0
    for frame in frames:
        b = frame_bounds(frame)
        dual = dual_frame(frame)
        db = frame_bounds(dual)
        dev_bounds = max(
            dev_bounds, abs(db.lower - 1.0 / b.upper), abs(db.upper - 1.0 / b.lower)
        )
        s = frame_operator_matrix(frame)
        s_dual = frame_operator_matrix(dual)
        s_inv = np.linalg.inv(s)
        dev_sop = max(
            dev_sop, float(np.linalg.norm(s_dual - s_inv) / np.linalg.norm(s_inv))
        )
        f = PrimalVector(rng.standard_normal(frame.n))
        g = DualVector(rng.standard_normal(frame.n))
        rf = reconstruct_primal(frame, dual, f)
        rg = reconstruct_dual(frame, dual, g)
        dev_recon = max(
            dev_recon,
            float(np.linalg.norm(rf.coeffs - f.coeffs) / np.linalg.norm(f.coeffs)),
            float(np.linalg.norm(rg.action - g.action) / np.linalg.norm(g.action)),
        )
    results = {
        "frames_tested": len(frames),
        "dual_bounds_deviation": dev_bounds,
        "frame_operator_inverse_deviation": dev_sop,
        "reconstruction_deviation": dev_recon,
    }
    checks = [
        _check("dual_bounds_are_reciprocal", dev_bounds <= 1e-8, dev_bounds, 1e-8),
        _check("dual_frame_operator_is_inverse", dev_sop <= 1e-9, dev_sop, 1e-9),
        _check("reconstruction_identities", dev_recon <= 1e-10, dev_recon, 1e-10),
    ]
    return results, checks, None


def _projector_residuals(frame, rng):
    dual = dual_frame(frame)
    g = cross_gramian(frame, dual)
    g_rev = cross_gramian(dual, frame)
    gn = float(np.linalg.norm(g))
    idem = float(np.linalg.norm(g @ g - g)) / gn
    sym = float(np.linalg.norm(g - g.T)) / gn
    pair = float(np.linalg.norm(g - g_rev)) / gn
    u, s, _ = np.linalg.svd(frame.elements.T, full_matrices=False)
    keep = s > s[0] * 1e-10
    p_svd = u[:, keep] @ u[:, keep].T
    svd_diff = float(np.linalg.norm(g - p_svd)) / gn
    split = 0.0
    for _ in range(20):
        c = rng.standard_normal(frame.k)
        tail = c - g @ c
        synth = frame.elements @ tail
        split = max(split, float(np.linalg.norm(synth)) / max(np.linalg.norm(c), 1e-300))
    return {
        "idempotency": idem,
        "symmetry": sym,
        "transpose_pair": pair,
        "svd_projector": svd_diff,
        "splitting": split,
    }


def _cmd_gramian(cfg: RunConfig, rng):
    j = _single_depth(cfg, None)
    if cfg.fixture:
        frame = fixtures.by_name(cfg.fixture)
        source = cfg.fixture.upper()
    elif j is not None:
        frame = bpx_frame(build_hierarchy(j), cfg.q)
        source = f"bpx(J={j}, q={cfg.q})"
    else:
        frame = fixtures.by_name("F1")
        source = "F1"
    res = _projector_residuals(frame, rng)
    results = {"frame": source, **res}
    checks = [_check(name, value <= 1e-10, value, 1e-10) for name, value in res.items()]
    return results, checks, None


def _growth_band(q: float) -> tuple[float, float]:
    center = 4.0**q
    return 0.8 * center, 1.2 * center


def _cmd_rates(cfg: RunConfig, rng):
    j_max = _single_depth(cfg, 8)
    hy = build_hierarchy(j_max)
    jackson = jackson_rate(hy, lambda x: np.sin(np.pi * x))
    bernstein = bernstein_rate(hy, cfg.q)
    results = {
        "jackson": jackson.to_json_dict(),
        "bernstein": bernstein.to_json_dict(),
    }
    checks = [
        _check("jackson_slope", abs(jackson.slope + 2.0) <= 0.15, jackson.slope, "-2 +/- 0.15")
    ]
    values = bernstein.values
    if cfg.q == 0.0:
        dev = max(abs(v - 1.0) for v in values)
        checks.append(_check("bernstein_flat_at_q0", dev <= 1e-10, dev, 1e-10))
    else:
        lo, hi = _growth_band(cfg.q)
        growth = [values[j + 1] / values[j] for j in range(3, len(values) - 1)]
        ok = all(lo <= gr <= hi for gr in growth) if growth else False
        worst = max(growth, key=lambda gr: abs(gr - 4.0**cfg.q)) if growth else None
        checks.append(_check("bernstein_growth", ok, worst, f"[{lo}, {hi}]"))
    rows = [["study", "level", "value", "slope"]]
    for rep, study in ((jackson, "jackson"), (bernstein, "bernstein")):
        for j, v in zip(rep.levels, rep.values):
            rows.append([study, j, repr(v), repr(rep.slope)])
    return results, checks, rows


def _cmd_norm_equiv(cfg: RunConfig, rng):
    j_max = _single_depth(cfg, 6)
    if not 0.0 < cfg.q < 1.5:
        raise DomainError(f"norm-equiv needs 0 < q < 3/2, got {cfg.q}")
    if cfg.samples < 2:  # the spread of one sample is 1 whatever the norms do
        raise UsageError(f"norm-equiv needs --samples of at least 2, got {cfg.samples}")
    hy = build_hierarchy(j_max)
    n = hy.fine_triple().n
    ratios = []
    for _ in range(cfg.samples):
        g = DualVector(rng.standard_normal(n))
        ratios.append(norm_equivalence_ratio(hy, cfg.q, g))
    ratios = np.asarray(ratios)
    g = DualVector(rng.standard_normal(n))
    r1 = norm_equivalence_ratio(hy, cfg.q, g)
    r2 = norm_equivalence_ratio(hy, cfg.q, DualVector(3.0 * g.action))  # unlike 2, scaling by 3 rounds
    homogeneity = abs(r2 - r1) / r1
    spread = float(ratios.max() / ratios.min())
    results = {
        "samples": cfg.samples,
        "r_min": float(ratios.min()),
        "r_max": float(ratios.max()),
        "spread": spread,
        "homogeneity_deviation": homogeneity,
    }
    checks = [
        _check("equivalence_spread", spread <= cfg.max_spread, spread, cfg.max_spread),
        _check("scaling_invariance", homogeneity <= 1e-12, homogeneity, 1e-12),
    ]
    return results, checks, None


def _cmd_bpx(cfg: RunConfig, rng):
    levels = cfg.j_levels or tuple(range(2, 8))
    if cfg.q == 0.0 and len(levels) < 2:  # growth needs two depths to compare
        raise UsageError(f"bpx --q 0 checks growth over depths, got the single depth {levels[0]}")
    # each depth's hierarchy is built once, up front: a depth past the cap fails before any bounds
    hierarchies = [build_hierarchy(j) for j in levels]

    def one(j, hy):
        b = bpx_bounds(hy, cfg.q)
        return {
            "J": j,
            "lower": b.lower,
            "upper": b.upper,
            "ratio": b.ratio,
            "kappa_single": stiffness_condition_number(hy.dims[j]),
        }

    rows_data = [one(j, hy) for j, hy in zip(levels, hierarchies)]
    results = {"q": cfg.q, "rows": rows_data}
    ratios = [r["ratio"] for r in rows_data]
    checks = []
    if cfg.q > 0.0:
        worst = max(ratios)
        checks.append(
            _check("bound_ratio_capped", worst <= cfg.max_ratio, worst, cfg.max_ratio)
        )
    else:
        increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
        checks.append(
            _check("ratio_grows_without_scaling", increasing, ratios[-1] / ratios[0], "strictly increasing")
        )
    kappas = [r["kappa_single"] for r in rows_data]
    growth = [b / a for a, b in zip(kappas, kappas[1:])]
    if growth:
        ok = all(3.2 <= gr <= 4.8 for gr in growth)
        worst_growth = max(growth, key=lambda gr: abs(gr - 4.0))
        checks.append(_check("single_level_kappa_growth", ok, worst_growth, "[3.2, 4.8]"))
    rows = [["J", "lower", "upper", "ratio", "kappa_single"]]
    for r in rows_data:
        rows.append([r["J"], repr(r["lower"]), repr(r["upper"]), repr(r["ratio"]), repr(r["kappa_single"])])
    return results, checks, rows


def _cmd_solve_poisson(cfg: RunConfig, rng):
    j_max = _single_depth(cfg, 6)
    hy = build_hierarchy(j_max)
    triple = hy.fine_triple(1.0)
    frame = bpx_frame(hy, 1.0)
    op = poisson_operator(triple)
    b = manufactured_sine_load(triple)
    sol = galerkin_solve(frame, op, b, tol=cfg.tol)
    u_direct = direct_solution(op, b)
    scale = primal_norm(triple, u_direct)
    err_direct = primal_norm(
        triple, PrimalVector(sol.solution.coeffs - u_direct.coeffs)
    ) / scale
    u_exact = manufactured_sine_solution(triple)
    err_interp = primal_norm(
        triple, PrimalVector(sol.solution.coeffs - u_exact.coeffs)
    ) / primal_norm(triple, u_exact)
    mn = min_norm_coefficients(frame, u_direct)
    mn_diff = float(np.linalg.norm(sol.coefficients - mn) / np.linalg.norm(mn))
    results = {
        "J": j_max,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "h1_error_vs_direct": err_direct,
        "h1_error_vs_interpolant": err_interp,
        "min_norm_deviation": mn_diff,
    }
    checks = [
        _check("matches_direct_solve", err_direct <= 10 * cfg.tol, err_direct, 10 * cfg.tol),
        _check("min_norm_coefficients", mn_diff <= 10 * cfg.tol, mn_diff, 10 * cfg.tol),
        _check(
            "h1_rate_vs_interpolant",
            err_interp <= 2.0 ** -float(j_max),
            err_interp,
            2.0 ** -float(j_max),
        ),
    ]
    return results, checks, None


def _identity_block(frame, op):
    m = matrix_representation(frame, frame, op)
    sym = float(np.abs(m - m.T).max()) / max(float(np.abs(m).max()), 1e-300)
    ritz_min = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
    gram = gram_identity_check(frame, op)
    comp = composition_check(frame, frame, op, op)
    pinv_res = pseudo_inverse_identity_check(frame, op)
    m_inv = inverse_representation(frame, op)
    rec_inv = operator_from_matrix(frame, frame, m_inv).matrix
    l_inv = np.linalg.inv(op.matrix)
    rec_inv_res = float(np.linalg.norm(rec_inv - l_inv) / np.linalg.norm(l_inv))
    dual = dual_frame(frame)
    rec_fwd = operator_from_matrix(dual, dual, m).matrix
    rec_fwd_res = float(np.linalg.norm(rec_fwd - op.matrix) / np.linalg.norm(op.matrix))
    return {
        "symmetry": sym,
        "ritz_min": ritz_min,
        "gram_left": gram.left_residual,
        "gram_right": gram.right_residual,
        "kernel_angle": gram.kernel_angle,
        "composition": comp,
        "pseudo_inverse": pinv_res,
        "reconstruct_inverse": rec_inv_res,
        "reconstruct_forward": rec_fwd_res,
    }


def _cmd_identities(cfg: RunConfig, rng):
    j_max = _single_depth(cfg, 3)
    f1 = fixtures.fixture_f1()
    instances = [
        ("F1", f1, make_operator(f1.triple, np.diag([3.0, 5.0]))),
    ]
    t = build_triple(3, 1.0)
    instances.append(("hat-basis", reference_frame(t), poisson_operator(t)))
    hy = build_hierarchy(j_max)
    tq = hy.fine_triple(1.0)
    instances.append((f"bpx-J{j_max}", bpx_frame(hy, 1.0), poisson_operator(tq)))
    results = {}
    checks = []
    for name, frame, op in instances:
        block = _identity_block(frame, op)
        results[name] = block
        for key, value in block.items():
            if key == "ritz_min":
                checks.append(
                    _check(f"{name}.non_negative", value >= -1e-10, value, -1e-10)
                )
            else:
                checks.append(_check(f"{name}.{key}", value <= 1e-8, value, 1e-8))
    return results, checks, None


# Each subcommand -> (handler, the RunConfig fields it reads): its options, besides --output.
_SUBCOMMANDS = {
    "bounds": (_cmd_bounds, ("fixture",)),
    "dual": (_cmd_dual, ("fixture", "samples", "seed")),
    "gramian": (_cmd_gramian, ("fixture", "j_levels", "q", "seed")),
    "rates": (_cmd_rates, ("j_levels", "q", "fmt")),
    "norm-equiv": (_cmd_norm_equiv, ("j_levels", "q", "samples", "seed", "max_spread")),
    "bpx": (_cmd_bpx, ("j_levels", "q", "max_ratio", "fmt")),
    "solve-poisson": (_cmd_solve_poisson, ("j_levels", "tol")),
    "identities": (_cmd_identities, ("j_levels",)),
}

COMMANDS = tuple(_SUBCOMMANDS)
CSV_COMMANDS = tuple(name for name, (_, reads) in _SUBCOMMANDS.items() if "fmt" in reads)


# -- report assembly -----------------------------------------------------------

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "results", "checks"],
    "properties": {
        "command": {"type": "string", "enum": list(COMMANDS)},
        "params": {"type": "object"},
        "results": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "value", "tolerance"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "value": {},
                    "tolerance": {},
                },
            },
        },
    },
}

RESULT_SCHEMAS = {
    "bounds": {
        "type": "object",
        "required": ["fixture", "lower", "upper", "ratio", "tight"],
        "properties": {
            "fixture": {"type": "string"},
            "lower": {"type": "number"},
            "upper": {"type": "number"},
            "ratio": {"type": "number"},
            "tight": {"type": "boolean"},
            "note": {"type": ["string", "null"]},
        },
    },
    "dual": {
        "type": "object",
        "required": [
            "frames_tested",
            "dual_bounds_deviation",
            "frame_operator_inverse_deviation",
            "reconstruction_deviation",
        ],
    },
    "gramian": {
        "type": "object",
        "required": [
            "frame",
            "idempotency",
            "symmetry",
            "transpose_pair",
            "svd_projector",
            "splitting",
        ],
    },
    "rates": {
        "type": "object",
        "required": ["jackson", "bernstein"],
        "properties": {
            "jackson": {
                "type": "object",
                "required": ["levels", "values", "slope", "constant", "fit_window"],
            },
            "bernstein": {
                "type": "object",
                "required": ["levels", "values", "slope", "constant", "fit_window"],
            },
        },
    },
    "norm-equiv": {
        "type": "object",
        "required": ["samples", "r_min", "r_max", "spread", "homogeneity_deviation"],
    },
    "bpx": {
        "type": "object",
        "required": ["q", "rows"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["J", "lower", "upper", "ratio", "kappa_single"],
                },
            }
        },
    },
    "solve-poisson": {
        "type": "object",
        "required": [
            "J",
            "iterations",
            "residual",
            "h1_error_vs_direct",
            "h1_error_vs_interpolant",
            "min_norm_deviation",
        ],
    },
    "identities": {"type": "object"},
}


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_jsonable) + "\n"


def render_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def run(config: RunConfig) -> int:
    """Execute one configured study; returns the process exit code."""
    if config.command not in _SUBCOMMANDS:
        raise UsageError(f"unknown command {config.command!r}")
    handler, reads = _SUBCOMMANDS[config.command]
    ignored = [
        f.metadata["flag"]
        for f in fields(config)
        if f.metadata and f.name not in reads and getattr(config, f.name) != f.default
    ]
    if ignored:
        raise UsageError(f"{config.command} does not read {', '.join(ignored)}")
    if config.output:  # checked, not opened: a file opened now would stay empty after a failed run
        # an existing file, such as /dev/null, needs no writable directory; a new file does
        target = config.output if os.path.exists(config.output) else os.path.dirname(config.output) or "."
        if os.path.isdir(config.output) or not os.access(target, os.W_OK):
            raise UsageError(f"cannot write --output {config.output}: not a writable file path")
    rng = np.random.default_rng(config.seed)
    try:
        results, checks, rows = handler(config, rng)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    except FramekitError as exc:
        results = {"error": str(exc)}
        checks = [_check("computation_completed", False, str(exc), None)]
        rows = None
    report = {
        "command": config.command,
        "params": config.params_dict(),
        "results": results,
        "checks": checks,
    }
    if config.fmt == "csv":
        payload = render_csv(rows or [])
    else:
        payload = render_json(report)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --output {config.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)
    return 0 if all(c["passed"] for c in checks) else 2


# -- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="framekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, reads) in _SUBCOMMANDS.items():
        # an option not given stays out of the namespace, so its field keeps its default
        command = sub.add_parser(name, help=f"run the {name} study", argument_default=argparse.SUPPRESS)
        command.add_argument("--output", help="report path (default: stdout)")
        for f in fields(RunConfig):
            if f.name in reads:
                command.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
    return parser


_parser = functools.cache(build_parser)  # one per process: building it costs far more than a parse


def config_from_args(argv) -> RunConfig:
    ns = _parser().parse_args(argv)
    if ns.command is None:
        raise UsageError("a subcommand is required")
    cfg = RunConfig(**vars(ns))
    if cfg.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {cfg.samples}")
    if not math.isfinite(cfg.q):
        raise UsageError(f"--q must be a finite number, got {cfg.q}")
    thresholds = (("--tol", cfg.tol), ("--max-ratio", cfg.max_ratio), ("--max-spread", cfg.max_spread))
    for flag, value in thresholds:
        if not (math.isfinite(value) and value > 0.0):
            raise UsageError(f"{flag} must be a finite positive number, got {value}")
    if cfg.tol < sys.float_info.epsilon:  # no float64 residual can reach it
        raise UsageError(f"--tol must be at least {sys.float_info.epsilon:.3g}, got {cfg.tol}")
    return cfg


def main(argv=None) -> int:
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.stderr.write(_parser().format_usage())
        return 1


if __name__ == "__main__":
    sys.exit(main())
