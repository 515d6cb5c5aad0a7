"""Every number the CLI prints stays as it is: the exit code, the sha256 of
stdout and the whole of stderr of each command on each benchmark config,
in both output formats, at degree 3, of the text bracket table and
the JSON cup table of the README config (bracket-table) at degree 10, and
of the bracket table of a nonabelian group, S3 by the sign character
(`s3.json`), in both formats at degree 3, and of a field with N = 1
(`formal3.json`, one formal parameter and q = -1, 1), its bracket table in
both formats and its `dims --verify` in JSON at degree 3.
The JSON bracket table at degree 10 is pinned by the benchmark's golden
file.

The pinned values live in cli_digests.json.  After a change that is meant
to alter the output, regenerate them with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json

and say in the change why the output moved.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qhoch.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "perfbench" / "configs").glob("*.json"))
COMMANDS = (["dims"], ["dims", "--verify"], ["basis"], ["cup"], ["bracket"],
            ["verify"])
FORMATS = ("json", "text")
DEGREE = "3"
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def run_key(config, command, fmt, degree=DEGREE):
    key = f"{config.stem} {' '.join(command)} {fmt}"
    return key if degree == DEGREE else f"{key} --max-degree {degree}"


def run_once(config, command, fmt, degree=DEGREE):
    """(exit code, sha256 of stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command + ["--config", str(config), "--format", fmt,
                               "--max-degree", degree])
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


README_CONFIG = ROOT / "perfbench" / "configs" / "bracket-table.json"
S3_CONFIG = Path(__file__).resolve().parent / "s3.json"
FORMAL3_CONFIG = Path(__file__).resolve().parent / "formal3.json"
GRID = [(config, command, fmt, DEGREE) for config in CONFIGS
        for command in COMMANDS for fmt in FORMATS] + [
    (README_CONFIG, ["bracket"], "text", "10"),
    (README_CONFIG, ["cup"], "json", "10"),
] + [(S3_CONFIG, ["bracket"], fmt, DEGREE) for fmt in FORMATS] + [
    (FORMAL3_CONFIG, ["bracket"], fmt, DEGREE) for fmt in FORMATS] + [
    (FORMAL3_CONFIG, ["dims", "--verify"], "json", DEGREE),
]


def test_grid_covers_every_pinned_run():
    pinned = json.loads(DIGESTS.read_text())
    assert len(GRID) == 55
    assert sorted(pinned) == sorted(run_key(*run) for run in GRID)


@pytest.mark.parametrize("config, command, fmt, degree", GRID,
                         ids=[run_key(*run) for run in GRID])
def test_cli_output_is_pinned(config, command, fmt, degree):
    pinned = json.loads(DIGESTS.read_text())[
        run_key(config, command, fmt, degree)]
    assert run_once(config, command, fmt, degree) == pinned


if __name__ == "__main__":
    json.dump({run_key(*run): run_once(*run) for run in GRID}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
