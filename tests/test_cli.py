import argparse
import copy
import csv
import io
import json
import math
import os
import pathlib
import re
import sys
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

import framekit.cli as cli
from framekit import operator_repr
from framekit.cli import (
    COMMANDS,
    CSV_COMMANDS,
    REPORT_SCHEMA,
    RESULT_SCHEMAS,
    RunConfig,
    UsageError,
    build_parser,
    main,
    parse_level_range,
    run,
)
from framekit.errors import NoConvergence

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from workloads import unseeded_cli_ops  # noqa: E402


def run_to_file(tmp_path, argv, name="report.json"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_bytes()


def subparser(command):
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


def record_handler_calls(monkeypatch, command):
    """Swap the command's handler for one that records its calls."""
    calls = []
    row = cli._SUBCOMMANDS[command]
    monkeypatch.setitem(cli._SUBCOMMANDS, command, row._replace(handler=lambda cfg, rng: calls.append(cfg)))
    return calls


def assert_refused(tmp_path, monkeypatch, argv, **config):
    """Bad input is a usage error before any work through both entry points.

    ``main(argv)`` exits 1 and ``run(RunConfig(**config))`` raises ``UsageError``, with no handler
    call and no output file.  ``argv`` is None for values that argv cannot express, such as a wrong type.
    """
    out = tmp_path / "report.json"
    calls = record_handler_calls(monkeypatch, config["command"])
    if argv is not None:
        assert main(argv + ["--output", str(out)]) == 1
    with pytest.raises(UsageError):
        run(RunConfig(**config, output=str(out)))
    assert calls == [] and not out.exists()


def bad_input(argv, **config):
    """A parametrize case for ``assert_refused``, named by its argv, else by its RunConfig fields."""
    name = " ".join(argv) if argv else "RunConfig(" + ", ".join(f"{k}={v!r}" for k, v in config.items()) + ")"
    return pytest.param(argv, config, id=name)


# The options each subcommand reads, besides --output: 31 (command, option) pairs in all.
DECLARED = {
    "bounds": {"--fixture"},
    "dual": {"--fixture", "--samples", "--seed"},
    "gramian": {"--fixture", "--J", "--q", "--seed"},
    "rates": {"--J", "--q", "--format"},
    "norm-equiv": {"--J", "--q", "--samples", "--seed", "--max-spread"},
    "bpx": {"--J", "--q", "--max-ratio", "--format"},
    "solve-poisson": {"--J", "--tol"},
    "identities": {"--J"},
}
# A valid value for every option, and for the deleted --J-fine.
VALUES = {
    "--J": "3", "--q": "0.5", "--seed": "1", "--tol": "1e-6", "--format": "json",
    "--fixture": "F1", "--samples": "3", "--max-ratio": "10", "--max-spread": "10", "--J-fine": "4",
}


class TestDeclaredOptions:
    @pytest.mark.parametrize("command", list(DECLARED))
    def test_a_command_takes_only_the_options_it_reads(self, tmp_path, monkeypatch, command):
        assert set(DECLARED) == set(COMMANDS)
        accepted = {s for a in subparser(command)._actions for s in a.option_strings}
        assert accepted - {"-h", "--help"} == DECLARED[command] | {"--output"}
        for flag in DECLARED[command]:
            assert cli.config_from_args([command, flag, VALUES[flag]]).command == command
        calls = record_handler_calls(monkeypatch, command)
        out = tmp_path / "report.json"
        for flag in set(VALUES) - DECLARED[command]:
            assert main([command, flag, VALUES[flag], "--output", str(out)]) == 1, flag
        assert calls == [] and not out.exists()

    def test_run_refuses_a_field_the_command_does_not_read(self):
        with pytest.raises(UsageError, match="bounds does not read --q"):
            run(RunConfig(command="bounds", q=0.3))


class TestParsing:
    def test_range_expansion(self):
        assert parse_level_range("2..7") == (2, 3, 4, 5, 6, 7)
        assert parse_level_range("6") == (6,)

    def test_bad_ranges_are_usage_errors(self):
        assert main(["bpx", "--J", "x..y"]) == 1
        assert main(["bpx", "--J", "5..2"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_fixture_is_usage_error(self, capsys):
        # the usage printed is the failing subcommand's, listing the options it takes, whether the
        # handler, the subparser or (for an option bounds does not take) the top-level parser refused
        for argv in (["bounds", "--fixture", "F9"], ["bounds", "--samples", "x"], ["bounds", "--q", "0.3"]):
            assert main(argv) == 1
            usage = capsys.readouterr().err.splitlines()[1]
            assert usage.startswith("usage: framekit bounds ") and "--fixture" in usage
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.splitlines()[1].startswith("usage: framekit [-h] command")

    def test_csv_only_for_tabular_commands(self):
        assert main(["bounds", "--fixture", "F1", "--format", "csv"]) == 1

    def test_bad_domain_parameter_is_usage_error(self):
        assert main(["norm-equiv", "--q", "0", "--J", "2"]) == 1

    def test_zero_samples_is_usage_error(self, tmp_path, monkeypatch):
        for command in ("norm-equiv", "dual"):  # dual would report frames_tested 0 and pass
            assert_refused(tmp_path, monkeypatch, [command, "--samples", "0"], command=command, samples=0)

    @pytest.mark.parametrize(
        "argv",
        [
            # a raw _ArrayMemoryError traceback, and hours of small frames, without the cap
            ["norm-equiv", "--q", "0.5", "--J", "10", "--samples", "100000000"],
            ["dual", "--samples", "100000000"],
            ["dual", "--samples", str(cli.MAX_SAMPLES + 1)],
        ],
    )
    def test_samples_above_the_cap_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        config = dict(command=argv[0], samples=int(argv[-1]))
        if argv[0] == "norm-equiv":
            config.update(q=0.5, j_levels=(10,))
        assert_refused(tmp_path, monkeypatch, argv, **config)
        err = capsys.readouterr().err
        assert f"--samples must be an integer from 1 to {cli.MAX_SAMPLES}" in err and "Traceback" not in err

    def test_samples_at_the_cap_runs(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["dual", "--samples", str(cli.MAX_SAMPLES), "--seed", "11"])
        assert code in (0, 2) and json.loads(payload)["results"]["frames_tested"] == cli.MAX_SAMPLES

    @pytest.mark.parametrize(
        "argv", [["bpx", "--q", "0", "--J", "3"], ["norm-equiv", "--samples", "1"]]
    )
    def test_check_over_a_single_sample_is_usage_error(self, tmp_path, monkeypatch, argv):
        # growth over one depth, or the spread of one ratio, would pass vacuously
        built = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j))
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 1
        assert built == [] and not out.exists()

    def test_bpx_q0_over_two_depths_runs(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["bpx", "--q", "0", "--J", "2..3"])
        assert code == 0 and len(json.loads(payload)["results"]["rows"]) == 2

    @pytest.mark.parametrize("j", ["2", "3", "4"])
    def test_rates_without_two_fit_levels_is_usage_error(self, tmp_path, j):
        out = tmp_path / "report.json"
        assert main(["rates", "--J", j, "--output", str(out)]) == 1
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch):
        argv = ["dual", "--samples", "3", "--seed", "-1"]
        assert_refused(tmp_path, monkeypatch, argv, command="dual", samples=3, seed=-1)
        assert_refused(tmp_path, monkeypatch, ["norm-equiv", "--seed", "-1"], command="norm-equiv", seed=-1)
        assert_refused(tmp_path, monkeypatch, None, command="dual", seed=1.5)

    @pytest.mark.parametrize(
        "command", ["rates", "norm-equiv", "solve-poisson", "identities", "gramian"]
    )
    def test_single_depth_command_rejects_a_range(self, tmp_path, monkeypatch, command):
        built = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j))
        out = tmp_path / "report.json"
        assert main([command, "--J", "2..7", "--output", str(out)]) == 1
        assert built == [] and not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            bad_input(["gramian", "--fixture", "F1", "--J", "5"], command="gramian", fixture="F1", j_levels=(5,)),
            bad_input(["gramian", "--q", "0.5"], command="gramian", q=0.5),
            bad_input(["gramian", "--fixture", "F1", "--q", "0.5"], command="gramian", fixture="F1", q=0.5),
            bad_input(["dual", "--fixture", "F3", "--samples", "5"], command="dual", fixture="F3", samples=5),
            bad_input(["bpx", "--q", "0", "--J", "2..4", "--max-ratio", "1"],
                      command="bpx", q=0.0, j_levels=(2, 3, 4), max_ratio=1.0),
        ],
    )
    def test_an_option_the_mode_does_not_read_is_usage_error(self, tmp_path, monkeypatch, argv, config):
        # the report's params would claim a value that no computation used
        work = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: work.append(j))
        monkeypatch.setattr(cli.fixtures, "by_name", lambda name: work.append(name))
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 1
        with pytest.raises(UsageError, match="does not read"):
            run(RunConfig(**config, output=str(out)))
        assert work == [] and not out.exists()

    def test_bpx_checks_every_depth_before_any_bounds(self, monkeypatch):
        bounded = []
        monkeypatch.setattr(cli, "bpx_bounds", lambda hy, q: bounded.append(hy))
        assert main(["bpx", "--J", "9..11"]) == 1
        assert bounded == []

    def test_bpx_builds_each_hierarchy_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_hierarchy
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j) or real(j))
        assert main(["bpx", "--J", "2..4", "--output", str(tmp_path / "r.json")]) == 0
        assert built == [2, 3, 4]

    @pytest.mark.parametrize("q", ["0.5", "0", "1.25", "1"])
    def test_solve_poisson_rejects_a_q_it_does_not_solve(self, tmp_path, monkeypatch, q):
        built = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j))
        out = tmp_path / "report.json"
        assert main(["solve-poisson", "--J", "3", "--q", q, "--output", str(out)]) == 1
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e-300", "2e-16", "1", "1e300"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, monkeypatch, tol):
        argv = ["solve-poisson", "--J", "2", "--tol", tol]
        assert_refused(tmp_path, monkeypatch, argv, command="solve-poisson", j_levels=(2,), tol=float(tol))

    def test_unreachable_tolerance_exits_2_with_the_true_residual(self, tmp_path):
        # on the exact H^1 Gram the attainable relative residual at J = 10 is about 7.4e-16 (217
        # iterations); 1e-14 and 1e-15 converge, and fail the direct-solve checks at 10 * tol instead
        for tol in ("5e-16", "2.3e-16"):
            code, payload = run_to_file(tmp_path, ["solve-poisson", "--J", "10", "--tol", tol])
            assert code == 2
            message = json.loads(payload)["results"]["error"]
            pattern = r"no convergence after (\d+) iterations \(relative residual (.+)\)"
            iterations, residual = re.fullmatch(pattern, message).groups()
            assert int(iterations) < 300 and float(tol) < float(residual) < 1e-14
        code, payload = run_to_file(tmp_path, ["solve-poisson", "--J", "10", "--tol", "1e-14"])
        results = json.loads(payload)["results"]
        assert code == 2 and "error" not in results and results["residual"] <= 1e-14

    @pytest.mark.parametrize("name", ["missing/r.json", "."])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, monkeypatch, name):
        calls = record_handler_calls(monkeypatch, "bounds")
        path = tmp_path / name
        assert main(["bounds", "--output", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write --output {path}: ")
        assert "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("output", [2, ["r.json"]])
    def test_output_that_is_not_a_path_is_usage_error(self, tmp_path, monkeypatch, output):
        calls = record_handler_calls(monkeypatch, "bounds")
        with pytest.raises(UsageError, match="--output must be a file path"):
            run(RunConfig(command="bounds", output=output))
        assert calls == []
        monkeypatch.undo()
        assert run(RunConfig(command="bounds", output=tmp_path / "r.json")) == 0  # a PathLike is a path

    @pytest.mark.parametrize("existing", ["devnull", "file"])
    def test_existing_writable_output_needs_no_writable_directory(self, tmp_path, monkeypatch, existing):
        path = os.devnull if existing == "devnull" else str(tmp_path / "r.json")
        if existing == "file":
            (tmp_path / "r.json").write_text("old")
        parent, real_access = os.path.dirname(path), os.access
        # /dev, like any directory a non-root user cannot write, refuses its entries
        monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != parent and real_access(p, mode))
        assert main(["bounds", "--fixture", "F1", "--output", path]) == 0
        if existing == "file":
            assert json.loads((tmp_path / "r.json").read_text())["command"] == "bounds"

    @pytest.mark.parametrize(
        "argv, config",
        [
            bad_input(["gramian", "--fixture", "F1", "--q", "nan"], command="gramian", fixture="F1", q=math.nan),
            bad_input(["norm-equiv", "--q", "inf"], command="norm-equiv", q=math.inf),
            bad_input(["rates", "--q", "-inf"], command="rates", q=-math.inf),
            bad_input(["norm-equiv", "--max-spread", "inf"], command="norm-equiv", max_spread=math.inf),
            bad_input(["norm-equiv", "--max-spread", "0"], command="norm-equiv", max_spread=0.0),
            bad_input(["bpx", "--max-ratio", "nan"], command="bpx", max_ratio=math.nan),
            bad_input(["bpx", "--max-ratio", "-1"], command="bpx", max_ratio=-1.0),
            bad_input(["rates", "--format", "xml"], command="rates", fmt="xml"),
            # values of the wrong type, which argparse cannot produce
            bad_input(None, command="gramian", q="0.5"),
            bad_input(None, command="rates", j_levels=5),
            bad_input(None, command="bounds", fixture=3),
        ],
    )
    def test_bad_threshold_is_usage_error(self, tmp_path, monkeypatch, argv, config):
        assert_refused(tmp_path, monkeypatch, argv, **config)


class TestDeterminism:
    def test_bounds_byte_identical(self, tmp_path):
        code1, b1 = run_to_file(tmp_path, ["bounds", "--fixture", "F2"], "a.json")
        code2, b2 = run_to_file(tmp_path, ["bounds", "--fixture", "F2"], "b.json")
        assert code1 == code2 == 0
        assert b1 == b2

    def test_seeded_random_study_byte_identical(self, tmp_path):
        argv = ["norm-equiv", "--q", "1", "--J", "4", "--samples", "25", "--seed", "7"]
        _, b1 = run_to_file(tmp_path, argv, "a.json")
        _, b2 = run_to_file(tmp_path, argv, "b.json")
        assert b1 == b2

    def test_different_seeds_differ(self, tmp_path):
        base = ["dual", "--samples", "3"]
        _, b1 = run_to_file(tmp_path, base + ["--seed", "1"], "a.json")
        _, b2 = run_to_file(tmp_path, base + ["--seed", "2"], "b.json")
        assert b1 != b2


class TestDualAccuracy:
    @pytest.mark.parametrize("seed", [737181561, 1458496961])
    def test_ill_conditioned_frames_keep_the_reconstruction_identities(self, tmp_path, seed):
        # each suite holds a frame operator of condition 3e6 to 9e6 (so dual_bounds_are_reciprocal
        # fails, as expected); the dense solves of its dual frame reconstruct to about 1e-10,
        # where a refinement step at the rounding floor would add noise up to 4e-8
        code, payload = run_to_file(tmp_path, ["dual", "--samples", "30", "--seed", str(seed)])
        results = json.loads(payload)["results"]
        assert code == 2
        assert results["reconstruction_deviation"] <= 1e-9
        assert results["frame_operator_inverse_deviation"] <= 1e-9


# One passing run of each command.
ONE_RUN_EACH = [
    ["bounds", "--fixture", "F1"],
    ["dual", "--samples", "4", "--seed", "3"],
    ["gramian", "--fixture", "F1"],
    ["rates", "--J", "5", "--q", "1"],
    ["norm-equiv", "--q", "1", "--J", "4", "--samples", "10"],
    ["bpx", "--q", "1", "--J", "2..3"],
    ["solve-poisson", "--J", "3", "--tol", "1e-8"],
    ["identities", "--J", "2"],
]


def objects_in(results):
    """Every JSON object in ``results``, itself first, in a fixed order."""
    yield results
    for value in results.values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                yield from objects_in(item)


def wrong_values(value):
    """JSON values of another type than ``value``'s."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return [1]  # for a string, boolean, null, list or object
    return ["3", 0.5] if isinstance(value, int) else ["3"]


def broken_copies(results):
    """(change, copy of results with one object given an extra key, a missing key or a mistyped value)."""
    for i, obj in enumerate(objects_in(results)):
        edits = [("extra key", lambda o: o.update(extra=0.0))]
        for key in obj:
            edits.append((f"no {key}", lambda o, key=key: o.pop(key)))
            for v in wrong_values(obj[key]):
                edits.append((f"{key}: {v!r}", lambda o, key=key, v=v: o.update({key: v})))
        for change, edit in edits:
            broken = copy.deepcopy(results)
            edit(list(objects_in(broken))[i])
            yield change, broken


class TestSchemas:
    @pytest.mark.parametrize("argv", ONE_RUN_EACH)
    def test_reports_validate(self, tmp_path, argv):
        code, payload = run_to_file(tmp_path, argv)
        assert code == 0
        report = json.loads(payload)
        jsonschema.validate(report, REPORT_SCHEMA)
        jsonschema.validate(report["results"], RESULT_SCHEMAS[report["command"]])

    @pytest.mark.parametrize("argv", ONE_RUN_EACH, ids=lambda argv: argv[0])
    def test_a_key_too_many_or_too_few_or_of_the_wrong_type_is_rejected(self, tmp_path, argv):
        _, payload = run_to_file(tmp_path, argv)
        results = json.loads(payload)["results"]
        validator = jsonschema.Draft202012Validator(RESULT_SCHEMAS[argv[0]])
        assert not validator.is_valid([results])
        if argv[0] == "identities":  # an open object: its keys are the frame instances' names
            return
        broken = list(broken_copies(results))
        assert len(broken) > 2 * len(results)  # an extra key, then a missing and a mistyped value per key
        assert [change for change, bad in broken if validator.is_valid(bad)] == []

    def test_every_command_has_a_results_schema(self):
        from framekit.cli import COMMANDS

        assert set(RESULT_SCHEMAS) == set(COMMANDS)


# The checks whose verdict is not ``value <= tolerance``; ``<instance>.non_negative`` is the eighth.
EXPLICIT_VERDICTS = {
    "lower_bound_positive",
    "bounds_ordered",
    "jackson_slope",
    "bernstein_growth",
    "ratio_grows_without_scaling",
    "single_level_kappa_growth",
    "computation_completed",
}
REFERENCE_OPS = unseeded_cli_ops()


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        _, payload = run_to_file(tmp_path_factory.mktemp("report"), ["bounds", "--fixture", "F1"])
        return json.loads(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.update(extra=0.0),
            lambda r: r["checks"][0].update(extra=0.0),
            lambda r: r["checks"][0].update(value=[1.0]),
            lambda r: r["checks"][0].update(tolerance={"limit": 1.0}),
            lambda r: r["checks"][0].pop("tolerance"),
            lambda r: r["checks"][0].update(passed=1),
            lambda r: r.update(command="nonsense"),
            lambda r: r.update(params=[]),
        ],
        ids=[
            "extra envelope key",
            "extra check field",
            "list value",
            "object tolerance",
            "no tolerance",
            "integer verdict",
            "unknown command",
            "params not an object",
        ],
    )
    def test_a_malformed_report_is_rejected(self, report, edit):
        validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
        assert validator.is_valid(report)
        broken = copy.deepcopy(report)
        edit(broken)
        assert not validator.is_valid(broken)

    def test_a_failed_computation_report_validates(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["solve-poisson", "--J", "8", "--tol", "2.3e-16"])
        report = json.loads(payload)
        jsonschema.validate(report, REPORT_SCHEMA)
        (check,) = report["checks"]
        assert code == 2 and check["name"] == "computation_completed"
        assert (check["passed"], check["tolerance"]) == (False, None) and isinstance(check["value"], str)

    @pytest.mark.parametrize("op", REFERENCE_OPS, ids=[op.label for op in REFERENCE_OPS])
    def test_a_check_passes_when_its_value_is_within_its_tolerance(self, tmp_path, op):
        _, payload = run_to_file(tmp_path, list(op.argv))
        for check in json.loads(payload)["checks"]:
            if check["name"] not in EXPLICIT_VERDICTS and not check["name"].endswith(".non_negative"):
                assert check["passed"] == (check["value"] <= check["tolerance"]), check


class TestReports:
    def test_f2_bounds_report_content(self, tmp_path):
        _, payload = run_to_file(tmp_path, ["bounds", "--fixture", "F2"])
        results = json.loads(payload)["results"]
        assert results["lower"] == 2.0
        assert results["upper"] == 2.0
        assert results["tight"] is True

    def test_f3_report_carries_note(self, tmp_path):
        _, payload = run_to_file(tmp_path, ["bounds", "--fixture", "F3"])
        results = json.loads(payload)["results"]
        assert results["lower"] == pytest.approx(0.5)
        assert results["upper"] == pytest.approx(8.0)
        assert "(1/2, 8)" in results["note"]

    def test_scaling_invariance_measures_rounding(self, tmp_path):
        # scaling g by a power of 2 is exact in binary floating point, so a
        # deviation that reads 0.0 for every seed would measure nothing
        deviations = []
        for seed in range(1, 6):
            argv = ["norm-equiv", "--q", "1", "--J", "5", "--samples", "3", "--seed", str(seed)]
            code, payload = run_to_file(tmp_path, argv, f"{seed}.json")
            assert code == 0
            deviations.append(json.loads(payload)["results"]["homogeneity_deviation"])
        assert max(deviations) > 0.0
        assert max(deviations) <= 1e-12

    def test_bpx_csv_layout(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, ["bpx", "--q", "1", "--J", "2..4", "--format", "csv"], "r.csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(payload.decode())))
        assert rows[0] == ["J", "lower", "upper", "ratio", "kappa_single"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
        for row in rows[1:]:
            assert float(row[3]) <= 60.0
        _, payload = run_to_file(tmp_path, ["bpx", "--q", "1", "--J", "2..4"])
        depths = json.loads(payload)["results"]["rows"]
        assert set(rows[0]) == set(depths[0])  # the report sorts its keys
        assert rows[1:] == [[str(depth[key]) for key in rows[0]] for depth in depths]

    def test_rates_csv_layout(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, ["rates", "--J", "5", "--q", "1", "--format", "csv"], "r.csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(payload.decode())))
        assert rows[0] == ["study", "level", "value", "slope"]
        studies = {r[0] for r in rows[1:]}
        assert studies == {"jackson", "bernstein"}
        _, payload = run_to_file(tmp_path, ["rates", "--J", "5", "--q", "1"])
        rates = json.loads(payload)["results"]
        assert rows[1:] == [
            [study, str(level), str(value), str(rates[study]["slope"])]
            for study in ("jackson", "bernstein")
            for level, value in zip(rates[study]["levels"], rates[study]["values"])
        ]

    def test_stdout_when_no_output_path(self, capsys):
        code = main(["bounds", "--fixture", "F4"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "bounds"

    def test_identities_forms_each_inverse_representation_once(self, tmp_path, monkeypatch):
        calls = []
        real = operator_repr.inverse_representation
        monkeypatch.setattr(operator_repr, "inverse_representation", lambda f, op: calls.append(f) or real(f, op))
        code, payload = run_to_file(tmp_path, ["identities", "--J", "5"])
        assert code == 0
        assert len(calls) == len(json.loads(payload)["results"]) == 3

    def test_solve_poisson_results(self, tmp_path):
        _, payload = run_to_file(tmp_path, ["solve-poisson", "--J", "4", "--tol", "1e-8"])
        report = json.loads(payload)
        assert report["results"]["h1_error_vs_direct"] <= 1e-7
        assert report["results"]["iterations"] > 0
        names = {c["name"] for c in report["checks"]}
        assert "min_norm_coefficients" in names


class TestExitCodes:
    def test_failed_mathematical_check_exits_2(self, tmp_path):
        # an impossible bound-ratio cap turns a correct computation into
        # a failed check; the failing quantity is named in the report
        path = tmp_path / "r.json"
        code = main(
            ["bpx", "--q", "1", "--J", "2..3", "--max-ratio", "1.0001", "--output", str(path)]
        )
        assert code == 2
        report = json.loads(path.read_bytes())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing and failing[0]["name"] == "bound_ratio_capped"

    def test_negative_control_passes_when_growth_observed(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["bpx", "--q", "0", "--J", "2..4"])
        assert code == 0
        report = json.loads(payload)
        names = {c["name"] for c in report["checks"]}
        assert "ratio_grows_without_scaling" in names

    def test_run_config_api(self, tmp_path):
        path = tmp_path / "direct.json"
        cfg = RunConfig(command="bounds", fixture="F1", output=str(path))
        assert run(cfg) == 0
        assert json.loads(path.read_bytes())["results"]["ratio"] == 2.0

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(cfg, rng):
            raise KeyError("internal")

        monkeypatch.setitem(cli._SUBCOMMANDS, "bounds", cli._SUBCOMMANDS["bounds"]._replace(handler=broken))
        with pytest.raises(KeyError):
            main(["bounds"])

    @pytest.mark.parametrize("command", CSV_COMMANDS)
    def test_failed_computation_writes_an_empty_csv(self, tmp_path, monkeypatch, command):
        def no_convergence(*args):
            raise NoConvergence(7, 0.5)

        monkeypatch.setattr(cli, "bpx_bounds", no_convergence)
        monkeypatch.setattr(cli, "jackson_rate", no_convergence)
        depths = "2..5" if command == "bpx" else "5"
        code, payload = run_to_file(tmp_path, [command, "--J", depths, "--format", "csv"])
        assert (code, payload) == (2, b"")

    def test_rates_at_q0_checks_a_flat_bernstein_rate(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["rates", "--q", "0", "--J", "6"])
        checks = {c["name"]: c["passed"] for c in json.loads(payload)["checks"]}
        assert code == 0 and checks == {"jackson_slope": True, "bernstein_flat_at_q0": True}

    def test_csv_commands_constant(self):
        assert set(CSV_COMMANDS) == {"rates", "bpx"}


class TestRunConfig:
    def test_an_unknown_command_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown command 'nope'"):
            run(RunConfig(command="nope"))

    @pytest.mark.parametrize("numpy_config, plain_config", [
        (dict(command="bpx", j_levels=tuple(np.arange(2, 5)), q=np.float64(0.5)),
         dict(command="bpx", j_levels=(2, 3, 4), q=0.5)),
        (dict(command="dual", seed=np.int64(3), samples=np.int64(7)), dict(command="dual", seed=3, samples=7)),
    ])
    def test_numpy_scalars_write_the_plain_report(self, tmp_path, numpy_config, plain_config):
        paths = [tmp_path / "numpy.json", tmp_path / "plain.json"]
        codes = [run(RunConfig(**config, output=str(path)))
                 for config, path in zip((numpy_config, plain_config), paths)]
        assert codes[0] == codes[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fields_are_the_parser_destinations(self):
        dests = {a.dest for command in COMMANDS for a in subparser(command)._actions} - {"help"}
        assert dests | {"command"} == {f.name for f in fields(RunConfig)}

    def test_params_keys(self):
        assert set(RunConfig(command="bounds").params_dict()) == {
            "J_fine", "J", "q", "seed", "tol", "format", "fixture", "samples",
            "max_ratio", "max_spread",
        }
