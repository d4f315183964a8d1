#!/usr/bin/env python3
"""Capture the reference reports of every unseeded benchmark op.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes perfbench/reference.json ({op label: report}).  The committed file
was captured at the commit that introduced the benchmark; recapture only
when a change to a report is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import framekit.cli as cli  # noqa: E402
from workloads import REFERENCE_PATH, unseeded_cli_ops  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = os.path.join(tmp, "report.json")
        for op in unseeded_cli_ops():
            code = cli.main(list(op.argv) + ["--output", out])
            if code != 0:
                sys.stderr.write(f"{op.label}: exit code {code}, not a reference\n")
                return 1
            with open(out, encoding="utf-8") as fh:
                reference[op.label] = json.load(fh)
            print(f"captured {op.label}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
