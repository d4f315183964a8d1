"""Batch front-end: every study as a subcommand with machine-readable output.

Reports are JSON objects {command, params, results, checks} (CSV for the
tabular studies).  A check passes when its value is at most its tolerance,
unless it states its own verdict.  A run exits 0 when every check passed, 2
when one failed (the failing quantity is named in the report), and 1 on
usage errors.  Identical config and seed produce byte-identical payloads.

The configuration is declared once, in ``RunConfig``: each option stores
into, and takes its default from, the field of its name, and the report's
params are the fields, renamed where ``PARAM_KEYS`` says so.  Each field also
declares the values it accepts, and ``run`` checks every field against them,
whether the config came from argv or was built in code.  ``_SUBCOMMANDS`` has a
row per subcommand, from which the parser, the CSV and ``RESULT_SCHEMAS`` derive
(``_schema`` also builds the closed, typed ``REPORT_SCHEMA``): no other option
parses, ``run`` refuses a config that sets another field, and an unwritable
``--output`` fails first.
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
from numbers import Integral, Real
from typing import Callable, NamedTuple, Optional, Union

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
    norm_equivalence_ratios,
)
from .numerics import RANK_RTOL
from .operator_repr import (
    direct_solution,
    galerkin_solve,
    make_operator,
    manufactured_sine_load,
    manufactured_sine_solution,
    poisson_operator,
    representation_identities,
)
from .spaces import DualVector, PrimalVector, build_triple, primal_norm, stiffness_condition_number

# Fields whose report key differs from the field name.
PARAM_KEYS = {"j_levels": "J", "fmt": "format"}


class UsageError(Exception):
    pass


def parse_level_range(text: str) -> tuple[int, ...]:
    """Expand '2..7' into (2, ..., 7); a single integer stays a singleton."""
    lo_s, dots, hi_s = text.partition("..")
    lo, hi = int(lo_s), int(hi_s if dots else lo_s)  # argparse reports a ValueError as a usage error
    if hi < lo:
        raise UsageError(f"empty level range {text!r}")
    return tuple(range(lo, hi + 1))


def _option(default, flag: str, help_text: str, valid, **keywords):
    """A RunConfig field set by ``flag``; ``valid`` is (test, wording); ``keywords`` go to argparse."""
    return field(default=default, metadata=dict(flag=flag, valid=valid, argparse={"help": help_text, **keywords}))


def _number(kind, wording: str, test=lambda v: True):
    """The ``valid`` pair of the finite numbers of ``kind`` that pass ``test``."""
    return (lambda v: isinstance(v, kind) and abs(v) < math.inf and test(v)), wording


def _at_least(low: int):
    return _number(Integral, f"an integer of at least {low}", lambda v: v >= low)


_EPS = sys.float_info.epsilon  # no float64 residual can reach a smaller tolerance
_TOLERANCE = _number(Real, f"a number of at least {_EPS:.3g} and below 1", lambda v: _EPS <= v < 1.0)
_POSITIVE = _number(Real, "a finite positive number", lambda v: v > 0.0)
MAX_SAMPLES = 1000  # at this count dual takes about 0.7 s and 70 MB, norm-equiv --J 10 0.7 s and 186 MB
_SAMPLES = _number(Integral, f"an integer from 1 to {MAX_SAMPLES}", lambda v: 1 <= v <= MAX_SAMPLES)
_LEVELS = (lambda v: isinstance(v, tuple) and all(isinstance(j, Integral) for j in v)), "a tuple of integers"
_NAME = (lambda v: v is None or isinstance(v, str)), "a fixture name"
_PATH = (lambda v: v is None or isinstance(v, (str, os.PathLike))), "a file path"
FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    command: str
    j_levels: tuple[int, ...] = _option(
        (), "--J", "hierarchy depth or range like 2..7", _LEVELS, type=parse_level_range
    )
    q: float = _option(1.0, "--q", "Sobolev exponent", _number(Real, "a finite number"), type=float)
    seed: int = _option(0, "--seed", "RNG seed for random-vector studies", _at_least(0), type=int)
    tol: float = _option(1e-8, "--tol", "solver tolerance", _TOLERANCE, type=float)
    output: str | os.PathLike | None = _option(None, "--output", "report path (default: stdout)", _PATH)
    fmt: str = _option("json", "--format", "report format", (FORMATS.__contains__, "json or csv"), choices=FORMATS)
    fixture: Optional[str] = _option(None, "--fixture", "named fixture (F1..F4)", _NAME)
    samples: int = _option(20, "--samples", "random sample count", _SAMPLES, type=int)
    max_ratio: float = _option(60.0, "--max-ratio", "bound-ratio cap checked by bpx", _POSITIVE, type=float)
    max_spread: float = _option(20.0, "--max-spread", "spread cap checked by norm-equiv", _POSITIVE, type=float)

    def params_dict(self) -> dict:
        """The report's params: every field but command and output, under its report key."""
        params = {"J_fine": None}  # the deleted --J-fine's key, until the benchmark reference drops it
        for f in fields(self):
            if f.name not in ("command", "output"):
                params[PARAM_KEYS.get(f.name, f.name)] = getattr(self, f.name)
        return params


def _check(name: str, value, tolerance, passed=None) -> dict:
    """A report check; it passes when ``value <= tolerance`` unless ``passed`` gives another verdict."""
    passed = value <= tolerance if passed is None else passed
    return {"name": name, "passed": bool(passed), "value": value, "tolerance": tolerance}


def _jsonable(obj):
    """``json.dumps`` hook for numpy arrays and scalars (np.float64 is a float and skips it)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _refuse_set(cfg: RunConfig, names, mode: str = "") -> None:
    """Refuse each field in ``names`` that ``cfg`` moves off its default: ``mode`` leaves it unread."""
    flags = [f.metadata["flag"] for f in fields(cfg) if f.name in names and getattr(cfg, f.name) != f.default]
    if flags:
        raise UsageError(f"{cfg.command}{mode} does not read {', '.join(flags)}")


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
        _check("lower_bound_positive", b.lower, 0.0, passed=b.lower > 0.0),
        _check("bounds_ordered", b.ratio, 1.0, passed=b.lower <= b.upper),
    ]
    return results, checks


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
        _refuse_set(cfg, ("samples",), " on a fixture")
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
        _check("dual_bounds_are_reciprocal", dev_bounds, 1e-8),
        _check("dual_frame_operator_is_inverse", dev_sop, 1e-9),
        _check("reconstruction_identities", dev_recon, 1e-10),
    ]
    return results, checks


def _projector_residuals(frame, rng):
    dual = dual_frame(frame)
    g = cross_gramian(frame, dual)
    g_rev = cross_gramian(dual, frame)
    gn = float(np.linalg.norm(g))
    idem = float(np.linalg.norm(g @ g - g)) / gn
    sym = float(np.linalg.norm(g - g.T)) / gn
    pair = float(np.linalg.norm(g - g_rev)) / gn
    u, s, _ = np.linalg.svd(frame.elements.T, full_matrices=False)
    keep = s > s[0] * RANK_RTOL
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
    if cfg.fixture or j is None:  # a fixture frame, F1 by default
        _refuse_set(cfg, ("j_levels", "q"), " on a fixture")
        source = (cfg.fixture or "F1").upper()
        frame = fixtures.by_name(source)
    else:
        frame = bpx_frame(build_hierarchy(j), cfg.q)
        source = f"bpx(J={j}, q={cfg.q})"
    res = _projector_residuals(frame, rng)
    results = {"frame": source, **res}
    checks = [_check(name, value, 1e-10) for name, value in res.items()]
    return results, checks


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
    checks = [_check("jackson_slope", jackson.slope, "-2 +/- 0.15", passed=abs(jackson.slope + 2.0) <= 0.15)]
    values = bernstein.values
    if cfg.q == 0.0:
        dev = max(abs(v - 1.0) for v in values)
        checks.append(_check("bernstein_flat_at_q0", dev, 1e-10))
    else:
        lo, hi = _growth_band(cfg.q)
        growth = [values[j + 1] / values[j] for j in range(3, len(values) - 1)]
        ok = all(lo <= gr <= hi for gr in growth) if growth else False
        worst = max(growth, key=lambda gr: abs(gr - 4.0**cfg.q)) if growth else None
        checks.append(_check("bernstein_growth", worst, f"[{lo}, {hi}]", passed=ok))
    return results, checks


def _cmd_norm_equiv(cfg: RunConfig, rng):
    j_max = _single_depth(cfg, 6)
    if cfg.samples < 2:  # the spread of one sample is 1 whatever the norms do
        raise UsageError(f"norm-equiv needs --samples of at least 2, got {cfg.samples}")
    hy = build_hierarchy(j_max)
    draws = rng.standard_normal((cfg.samples + 1, hy.dims[j_max]))  # the samples, then g
    block = np.vstack((draws, 3.0 * draws[-1])).T  # one column per functional: the samples, g and 3g
    ratios, (r1, r2) = np.split(norm_equivalence_ratios(hy, cfg.q, block), [-2])  # unlike 2, scaling by 3 rounds
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
        _check("equivalence_spread", spread, cfg.max_spread),
        _check("scaling_invariance", homogeneity, 1e-12),
    ]
    return results, checks


def _cmd_bpx(cfg: RunConfig, rng):
    levels = cfg.j_levels or tuple(range(2, 8))
    if cfg.q == 0.0 and len(levels) < 2:  # growth needs two depths to compare
        raise UsageError(f"bpx --q 0 checks growth over depths, got the single depth {levels[0]}")
    if cfg.q <= 0.0:  # only a positive q checks the ratio cap
        _refuse_set(cfg, ("max_ratio",), f" at --q {cfg.q:g}")
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
        checks.append(_check("bound_ratio_capped", max(ratios), cfg.max_ratio))
    else:
        increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
        checks.append(
            _check("ratio_grows_without_scaling", ratios[-1] / ratios[0], "strictly increasing", passed=increasing)
        )
    kappas = [r["kappa_single"] for r in rows_data]
    growth = [b / a for a, b in zip(kappas, kappas[1:])]
    if growth:
        lo, hi = _growth_band(1.0)
        ok = all(lo <= gr <= hi for gr in growth)
        worst_growth = max(growth, key=lambda gr: abs(gr - 4.0))
        checks.append(_check("single_level_kappa_growth", worst_growth, f"[{lo}, {hi}]", passed=ok))
    return results, checks


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
        _check("matches_direct_solve", err_direct, 10 * cfg.tol),
        _check("min_norm_coefficients", mn_diff, 10 * cfg.tol),
        _check("h1_rate_vs_interpolant", err_interp, 2.0 ** -float(j_max)),
    ]
    return results, checks


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
        block = representation_identities(frame, op)
        results[name] = block
        for key, value in block.items():
            if key == "ritz_min":
                checks.append(_check(f"{name}.non_negative", value, -1e-10, passed=value >= -1e-10))
            else:
                checks.append(_check(f"{name}.{key}", value, 1e-8))
    return results, checks


class _Command(NamedTuple):
    """A subcommand.  ``reads``: the RunConfig fields it reads, besides output and, with a table, fmt.

    ``results``: a key maps to a JSON type name (or a list of them), ``{key: shape}`` is an object
    with exactly those keys and ``[{...}]`` a list of such objects.
    """

    handler: Callable
    reads: tuple[str, ...]
    results: Union[str, dict]
    table: Optional[Callable[[dict], list]] = None  # results -> the CSV rows of --format csv

    @property
    def options(self) -> tuple[str, ...]:
        return self.reads + ("output",) + (("fmt",) if self.table else ())


def _bpx_table(results: dict) -> list[list]:
    return [list(results["rows"][0]), *(list(row.values()) for row in results["rows"])]


def _rates_table(results: dict) -> list[list]:
    return [["study", "level", "value", "slope"]] + [
        [study, j, v, r["slope"]] for study, r in results.items() for j, v in zip(r["levels"], r["values"])
    ]


def _numbers(*keys) -> dict:
    return dict.fromkeys(keys, "number")


_RATE = {"levels": "array", "values": "array", **_numbers("slope", "constant"), "fit_window": "array"}
_SUBCOMMANDS = {
    "bounds": _Command(_cmd_bounds, ("fixture",), {
        "fixture": "string", **_numbers("lower", "upper", "ratio"), "tight": "boolean", "note": ["string", "null"],
    }),
    "dual": _Command(_cmd_dual, ("fixture", "samples", "seed"), {
        "frames_tested": "integer",
        **_numbers("dual_bounds_deviation", "frame_operator_inverse_deviation", "reconstruction_deviation"),
    }),
    "gramian": _Command(_cmd_gramian, ("fixture", "j_levels", "q", "seed"), {
        "frame": "string", **_numbers("idempotency", "symmetry", "transpose_pair", "svd_projector", "splitting"),
    }),
    "rates": _Command(_cmd_rates, ("j_levels", "q"), {"jackson": _RATE, "bernstein": _RATE}, _rates_table),
    "norm-equiv": _Command(_cmd_norm_equiv, ("j_levels", "q", "samples", "seed", "max_spread"), {
        "samples": "integer", **_numbers("r_min", "r_max", "spread", "homogeneity_deviation"),
    }),
    "bpx": _Command(_cmd_bpx, ("j_levels", "q", "max_ratio"), {
        "q": "number", "rows": [{"J": "integer", **_numbers("lower", "upper", "ratio", "kappa_single")}],
    }, _bpx_table),
    "solve-poisson": _Command(_cmd_solve_poisson, ("j_levels", "tol"), {
        "J": "integer", "iterations": "integer",
        **_numbers("residual", "h1_error_vs_direct", "h1_error_vs_interpolant", "min_norm_deviation"),
    }),
    "identities": _Command(_cmd_identities, ("j_levels",), "object"),  # its keys are the frame instances' names
}

COMMANDS = tuple(_SUBCOMMANDS)
CSV_COMMANDS = tuple(name for name, row in _SUBCOMMANDS.items() if row.table)


# -- report assembly -----------------------------------------------------------

def _schema(shape) -> dict:
    """The JSON schema of a shape (see ``_Command``): every key required and typed, every object closed."""
    if isinstance(shape, dict):
        properties = {key: _schema(value) for key, value in shape.items()}
        return {"type": "object", "required": list(shape), "properties": properties, "additionalProperties": False}
    if isinstance(shape, list) and isinstance(shape[0], dict):
        return {"type": "array", "items": _schema(shape[0])}
    return {"type": shape}


RESULT_SCHEMAS = {name: _schema(row.results) for name, row in _SUBCOMMANDS.items()}
_CHECK = {"name": "string", "passed": "boolean", **dict.fromkeys(("value", "tolerance"), ["number", "string", "null"])}
REPORT_SCHEMA = _schema({"command": "string", "params": "object", "results": "object", "checks": [_CHECK]})
REPORT_SCHEMA["properties"]["command"]["enum"] = list(COMMANDS)


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
    row = _SUBCOMMANDS[config.command]
    options = [f for f in fields(config) if f.metadata]
    for f in options:  # every option, before any work
        (test, wording), value = f.metadata["valid"], getattr(config, f.name)
        if not test(value):
            raise UsageError(f"{f.metadata['flag']} must be {wording}, got {value!r}")
    _refuse_set(config, [f.name for f in options if f.name not in row.options])
    if config.output:  # checked, not opened: a file opened now would stay empty after a failed run
        # an existing file, such as /dev/null, needs no writable directory; a new file does
        target = config.output if os.path.exists(config.output) else os.path.dirname(config.output) or "."
        if os.path.isdir(config.output) or not os.access(target, os.W_OK):
            raise UsageError(f"cannot write --output {config.output}: not a writable file path")
    rng = np.random.default_rng(config.seed)
    try:
        results, checks = row.handler(config, rng)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    except FramekitError as exc:
        results = {"error": str(exc)}
        checks = [_check("computation_completed", str(exc), None, passed=False)]
    report = {
        "command": config.command,
        "params": config.params_dict(),
        "results": results,
        "checks": checks,
    }
    if config.fmt == "csv":  # a failed computation has no table: its CSV is empty
        payload = render_csv([] if "error" in results else row.table(results))
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
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser
    for name, row in _SUBCOMMANDS.items():
        # an option not given stays out of the namespace, so its field keeps its default
        command = sub.add_parser(name, help=f"run the {name} study", argument_default=argparse.SUPPRESS)
        for f in fields(RunConfig):
            if f.name in row.options:
                command.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
    return parser


_parser = functools.cache(build_parser)  # one per process: building it costs far more than a parse


def config_from_args(argv) -> RunConfig:
    return RunConfig(**vars(_parser().parse_args(argv)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(config_from_args(argv))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        # the failing subcommand's usage lists the options it takes; the top-level usage does not
        sys.stderr.write(_parser().commands.get(argv[0] if argv else None, _parser()).format_usage())
        return 1


if __name__ == "__main__":
    sys.exit(main())
