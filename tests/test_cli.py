import csv
import io
import json
from dataclasses import fields

import jsonschema
import pytest

import framekit.cli as cli
from framekit.cli import (
    CSV_COMMANDS,
    REPORT_SCHEMA,
    RESULT_SCHEMAS,
    RunConfig,
    build_parser,
    main,
    parse_level_range,
    run,
)


def run_to_file(tmp_path, argv, name="report.json"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_bytes()


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
        code = main(["bounds", "--fixture", "F9"])
        assert code == 1

    def test_csv_only_for_tabular_commands(self):
        assert main(["bounds", "--fixture", "F1", "--format", "csv"]) == 1

    def test_bad_domain_parameter_is_usage_error(self):
        assert main(["norm-equiv", "--q", "0", "--J", "2"]) == 1

    def test_zero_samples_is_usage_error(self, tmp_path):
        for command in ("norm-equiv", "dual"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--samples", "0", "--output", str(out)]) == 1
            assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["dual", "--samples", "3", "--seed", "-1", "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["rates", "norm-equiv", "solve-poisson", "identities", "gramian"]
    )
    def test_single_depth_command_rejects_a_range(self, tmp_path, monkeypatch, command):
        built = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j))
        out = tmp_path / "report.json"
        assert main([command, "--q", "0.5", "--J", "2..7", "--output", str(out)]) == 1
        assert built == [] and not out.exists()

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

    @pytest.mark.parametrize("q", ["0.5", "0", "1.25"])
    def test_solve_poisson_rejects_a_q_it_does_not_solve(self, tmp_path, monkeypatch, q):
        built = []
        monkeypatch.setattr(cli, "build_hierarchy", lambda j: built.append(j))
        out = tmp_path / "report.json"
        assert main(["solve-poisson", "--J", "3", "--q", q, "--output", str(out)]) == 1
        assert built == [] and not out.exists()

    def test_solve_poisson_accepts_q_one(self, tmp_path):
        code, payload = run_to_file(tmp_path, ["solve-poisson", "--J", "3", "--q", "1"])
        assert code == 0 and json.loads(payload)["params"]["q"] == 1.0

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, tol):
        out = tmp_path / "report.json"
        assert main(["solve-poisson", "--J", "2", "--tol", tol, "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--fixture", "F1", "--q", "nan"],
            ["dual", "--q", "inf"],
            ["rates", "--q", "-inf"],
            ["norm-equiv", "--max-spread", "inf"],
            ["norm-equiv", "--max-spread", "0"],
            ["bpx", "--max-ratio", "nan"],
            ["bpx", "--max-ratio", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_threshold_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 1
        assert not out.exists()


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


class TestSchemas:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--fixture", "F1"],
            ["dual", "--samples", "4", "--seed", "3"],
            ["gramian", "--fixture", "F1"],
            ["rates", "--J", "5", "--q", "1"],
            ["norm-equiv", "--q", "1", "--J", "4", "--samples", "10"],
            ["bpx", "--q", "1", "--J", "2..3"],
            ["solve-poisson", "--J", "3", "--tol", "1e-8"],
            ["identities", "--J", "2"],
        ],
    )
    def test_reports_validate(self, tmp_path, argv):
        code, payload = run_to_file(tmp_path, argv)
        assert code == 0
        report = json.loads(payload)
        jsonschema.validate(report, REPORT_SCHEMA)
        jsonschema.validate(report["results"], RESULT_SCHEMAS[report["command"]])

    def test_every_command_has_a_results_schema(self):
        from framekit.cli import COMMANDS

        assert set(RESULT_SCHEMAS) == set(COMMANDS)


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

    def test_rates_csv_layout(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, ["rates", "--J", "5", "--q", "1", "--format", "csv"], "r.csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(payload.decode())))
        assert rows[0] == ["study", "level", "value", "slope"]
        studies = {r[0] for r in rows[1:]}
        assert studies == {"jackson", "bernstein"}

    def test_stdout_when_no_output_path(self, capsys):
        code = main(["bounds", "--fixture", "F4"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "bounds"

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

        monkeypatch.setitem(cli._HANDLERS, "bounds", broken)
        with pytest.raises(KeyError):
            main(["bounds"])

    def test_csv_commands_constant(self):
        assert set(CSV_COMMANDS) == {"rates", "bpx"}


class TestRunConfig:
    def test_fields_are_the_parser_destinations(self):
        ns = build_parser().parse_args(["bounds"])
        assert set(vars(ns)) == {f.name for f in fields(RunConfig)}

    def test_params_keys(self):
        assert set(RunConfig(command="bounds").params_dict()) == {
            "J_fine", "J", "q", "seed", "tol", "format", "fixture", "samples",
            "max_ratio", "max_spread",
        }
