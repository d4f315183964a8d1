"""Golden reports: every unseeded benchmark op still reproduces its reference.

The reference file is the one the benchmark's correctness gate reads
(``perfbench/reference.json``), so the repository keeps a single golden
copy.  Fields are compared with the gate's ``compare``: rtol 1e-8, with
residual fields left to each report's own checks.  Every golden report also
validates against the closed, typed schemas the command table derives.
"""

import json
import pathlib
import sys

import jsonschema
import pytest

from framekit import cli

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from workloads import compare, load_reference, unseeded_cli_ops  # noqa: E402

OPS = unseeded_cli_ops()


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize("op", OPS, ids=[op.label for op in OPS])
def test_unseeded_op_matches_reference(reference, op, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(list(op.argv) + ["--output", str(out)]) == 0
    assert compare(reference[op.label], json.loads(out.read_text())) is None


@pytest.mark.parametrize("label", sorted(load_reference()))
def test_reference_report_validates(reference, label):
    report = reference[label]
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    jsonschema.validate(report["results"], cli.RESULT_SCHEMAS[report["command"]])
