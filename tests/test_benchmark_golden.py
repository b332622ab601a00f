"""The benchmark's recorded outputs, checked with the tests.

``perfbench/golden.json`` holds the sha256 digest of the output of each
``rho``/``cabled`` operation of the benchmark's default seed, and the least
number of comparisons each ``check`` operation must make.  The benchmark
reads them only when it runs, where a mismatch shows as an incorrect run;
here they are checked through ``cli.main``.  The file is read, never written.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from braidbowl.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)


@pytest.mark.parametrize("command, digest", sorted(GOLDEN["digests"].items()))
def test_output_matches_recorded_digest(capsys, command, digest):
    assert main(shlex.split(command)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, floor", sorted(GOLDEN["comparisons"].items()))
def test_check_passes_with_at_least_the_recorded_comparisons(capsys, command, floor):
    assert main(shlex.split(command)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] and all(r["passed"] for r in data["reports"])
    assert sum(r["checks"] for r in data["reports"]) >= floor
