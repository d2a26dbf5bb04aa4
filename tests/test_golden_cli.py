"""Golden outputs of the `config` and `stability` commands.

Pins the sha256 of stdout and the exit code of seven invocations on every
bundled space, so a refactor of the series or stability code cannot change
any byte of their output unnoticed.  The digests in `golden_cli.json` were
recorded before the zero-block factors became closed forms; re-record them
only for a deliberate output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from ocs.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _invocations():
    for res in sorted(resources.files("ocs").joinpath("specs", "spaces").iterdir(),
                      key=lambda r: r.name):
        if not res.name.endswith(".json"):
            continue
        spec = res.name.removesuffix(".json")
        nmax = "4" if json.loads(res.read_text())["orbits"] else "12"
        yield from (
            ["config", "e1", "--spec", spec, "--nmax", nmax],
            ["config", "e1", "--spec", spec, "--nmax", nmax, "--format", "csv"],
            ["config", "euler", "--spec", spec, "--nmax", nmax],
            ["config", "betti", "--spec", spec, "--n", nmax],
            ["stability", "report", "--spec", spec, "--verify", "--steps", "3", "--nmax", nmax],
            ["stability", "report", "--spec", spec, "--variant", "right", "--steps", "4"],
            ["stability", "report", "--spec", spec, "--variant", "bottom", "--steps", "6"],
        )


INVOCATIONS = [" ".join(argv) for argv in _invocations()]


def _digest(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    return {"rc": rc, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_covers_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(INVOCATIONS)
    assert len(INVOCATIONS) == 70


@pytest.mark.parametrize("cmd", INVOCATIONS)
def test_output_matches_golden(cmd):
    assert _digest(cmd.split()) == json.loads(GOLDEN.read_text())[cmd]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({cmd: _digest(cmd.split()) for cmd in INVOCATIONS},
                                 indent=1, sort_keys=True) + "\n")
