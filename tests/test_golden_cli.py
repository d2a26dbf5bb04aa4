"""Golden outputs of the `config`, `stability`, `poset` and `rep` commands.

Pins the sha256 of stdout and the exit code of seven invocations on every
bundled space, so a refactor of the series or stability code cannot change
any byte of their output unnoticed.  The digests in `golden_cli.json` were
recorded before the zero-block factors became closed forms.

A second set pins `poset homology`, `poset whitney` and `rep decompose` on
`dowling build` outputs of every bundled poset spec at n=3, plus dowling_z3
n=4 and partition n=5, keyed by spec and n.  Its digests in
`golden_homology.json` were recorded before the column reduction and the
Hall Euler characteristic replaced the old elimination and chain walks.

A third set pins the Dowling layer: `dowling build` of every bundled poset
spec at n=0..5, `dowling count` at n=6 (with and without a cap refusal),
`dowling interval` at the first element of each rank of typeB and
dowling_z3 at n=4, `poset mobius` on every built n=4 file and
`rep stability` of typeA_R2 at ranks 1 to 3 on n=4..7 and on n=8 (4140
elements).  Its digests in `golden_dowling.json` also pin stderr.  They
were recorded before the breadth-first enumeration kept each element's
covers for `build_poset`, except the n=8 ones: rank 1 was recorded before
`covers_of` built its covers directly in canonical form, and ranks 2 and 3
before the Whitney characters came from one fixed-point Möbius row.  All
six `rep stability` digests were recorded on the poset path; `rep
stability` now takes its characters from the cycle-length product and its
cap check from element counts, and one test still runs those six
invocations on the poset path (`poset_oracle.use_the_poset_path`) against
the same digests.

A fourth set pins `--help` of all 18 parsers (the top level, every group
and every command) at 80 columns.  Its digests in `golden_help.json` were
recorded before the parser was built from the `COMMANDS` table, except
`dowling --help`, re-recorded when the `count` help became "enumerated
count vs species count" (it said "BFS count", but nothing enumerates D_n
breadth-first).

A fifth set pins `rep stability` of typeA_R2 at ranks 0 to 5 on the wide
window n=4..14, where the character table, not the characters, is most of
the work.  Its digests in `golden_wide.json` also pin stderr; they were
recorded before the table came from one Frobenius sweep.

Re-record a set only for a deliberate output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
from importlib import resources
from pathlib import Path

import pytest

from ocs.cli import COMMANDS, run
from poset_oracle import use_the_poset_path

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_HOMOLOGY = Path(__file__).with_name("golden_homology.json")
GOLDEN_DOWLING = Path(__file__).with_name("golden_dowling.json")
GOLDEN_HELP = Path(__file__).with_name("golden_help.json")
GOLDEN_WIDE = Path(__file__).with_name("golden_wide.json")


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(argv: list[str], with_stderr: bool = False) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    digest = {"rc": rc, "stdout_sha256": _sha256(out.getvalue())}
    if with_stderr:
        digest["stderr_sha256"] = _sha256(err.getvalue())
    return digest


def test_golden_covers_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(INVOCATIONS)
    assert len(INVOCATIONS) == 70


@pytest.mark.parametrize("cmd", INVOCATIONS)
def test_output_matches_golden(cmd):
    assert _digest(cmd.split()) == json.loads(GOLDEN.read_text())[cmd]


POSETS = [(res.name.removesuffix(".json"), 3)
          for res in sorted(resources.files("ocs").joinpath("specs", "posets").iterdir(),
                            key=lambda r: r.name)
          if res.name.endswith(".json")] + [("dowling_z3", 4), ("partition", 5)]
POSET_COMMANDS = [
    "poset homology",
    "poset homology --format csv",
    "poset homology --proper",
    "poset homology --proper --format csv",
    "poset whitney",
    "poset whitney --format csv",
    "rep decompose",
]
HOMOLOGY_INVOCATIONS = [f"{spec} n={n}: {cmd}" for spec, n in POSETS for cmd in POSET_COMMANDS]


def _built(spec: str, n: int, directory: Path) -> Path:
    path = directory / f"{spec}-{n}.json"
    if not path.exists():
        assert _digest(["dowling", "build", "--spec", spec, "--n", str(n),
                        "--out", str(path)])["rc"] == 0
    return path


def _homology_digest(key: str, directory: Path) -> dict:
    spec_n, cmd = key.split(": ")
    spec, n = spec_n.split(" n=")
    return _digest(cmd.split() + ["--poset", str(_built(spec, int(n), directory))])


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("posets")


def test_golden_homology_covers_every_invocation():
    assert sorted(json.loads(GOLDEN_HOMOLOGY.read_text())) == sorted(HOMOLOGY_INVOCATIONS)
    assert len(POSETS) == 8


@pytest.mark.parametrize("key", HOMOLOGY_INVOCATIONS)
def test_homology_output_matches_golden(key, built_dir):
    assert _homology_digest(key, built_dir) == json.loads(GOLDEN_HOMOLOGY.read_text())[key]


POSET_SPECS = [spec for spec, n in POSETS if n == 3]
DOWLING_INVOCATIONS = (
    [f"dowling build --spec {spec} --n {n}" for spec in POSET_SPECS for n in range(6)]
    + [f"dowling count --spec {spec} --n 6 --cap {cap}"
       for spec in ("typeC", "dowling_z3") for cap in (100000, 1000)]
    + [f"{spec} n=4 rank={r}: dowling interval" for spec in ("typeB", "dowling_z3")
       for r in range(5)]
    + [f"{spec} n=4: poset mobius" for spec in POSET_SPECS]
    + [f"rep stability --spec typeA_R2 --rank {r} --window 4..7" for r in (1, 2, 3)]
    + [f"rep stability --spec typeA_R2 --rank {r} --window 8..8 --cap 100000"
       for r in (1, 2, 3)]
)


def _dowling_digest(key: str, directory: Path) -> dict:
    """Digest of one Dowling invocation.  A key `<spec> n=<n>...: <cmd>`
    runs cmd on that built poset: `poset mobius` reads the file, and
    `dowling interval` takes the first element of the rank named in the key."""
    if ": " not in key:
        return _digest(key.split(), with_stderr=True)
    spec_n, cmd = key.split(": ")
    spec, n, *rank = (word.split("=")[-1] for word in spec_n.split())
    path = _built(spec, int(n), directory)
    if cmd == "poset mobius":
        return _digest(cmd.split() + ["--poset", str(path)], with_stderr=True)
    built = json.loads(path.read_text())
    element = built["dowling"]["elements"][built["rank"].index(int(rank[0]))]
    return _digest(cmd.split() + ["--spec", spec, "--n", n, "--element", element],
                   with_stderr=True)


REP_STABILITY_INVOCATIONS = [key for key in DOWLING_INVOCATIONS if key.startswith("rep stability")]


@pytest.mark.parametrize("key", REP_STABILITY_INVOCATIONS)
def test_rep_stability_poset_path_matches_golden(key, monkeypatch):
    # `rep stability` builds no poset; the poset path, its oracle, must
    # still give the same bytes
    use_the_poset_path(monkeypatch)
    assert _digest(key.split(), with_stderr=True) == json.loads(GOLDEN_DOWLING.read_text())[key]


def test_golden_dowling_covers_every_invocation():
    assert sorted(json.loads(GOLDEN_DOWLING.read_text())) == sorted(DOWLING_INVOCATIONS)
    assert len(DOWLING_INVOCATIONS) == 62


@pytest.mark.parametrize("key", DOWLING_INVOCATIONS)
def test_dowling_output_matches_golden(key, built_dir):
    assert _dowling_digest(key, built_dir) == json.loads(GOLDEN_DOWLING.read_text())[key]


HELP_INVOCATIONS = (
    ["--help"]
    + [f"{group} --help" for group in COMMANDS]
    + [f"{group} {command} --help" for group, (_, commands) in COMMANDS.items()
       for command in commands]
)


def test_golden_help_covers_every_parser():
    assert sorted(json.loads(GOLDEN_HELP.read_text())) == sorted(HELP_INVOCATIONS)
    assert len(HELP_INVOCATIONS) == 18


@pytest.mark.parametrize("cmd", HELP_INVOCATIONS)
def test_help_matches_golden(cmd, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(cmd.split()) == json.loads(GOLDEN_HELP.read_text())[cmd]


WIDE_INVOCATIONS = [f"rep stability --spec typeA_R2 --rank {r} --window 4..14 --cap 500000000"
                    for r in range(6)]


def test_golden_wide_covers_every_invocation():
    assert sorted(json.loads(GOLDEN_WIDE.read_text())) == sorted(WIDE_INVOCATIONS)


@pytest.mark.parametrize("cmd", WIDE_INVOCATIONS)
def test_wide_rep_stability_matches_golden(cmd):
    assert _digest(cmd.split(), with_stderr=True) == json.loads(GOLDEN_WIDE.read_text())[cmd]


if __name__ == "__main__":
    import tempfile

    GOLDEN.write_text(json.dumps({cmd: _digest(cmd.split()) for cmd in INVOCATIONS},
                                 indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_HOMOLOGY.write_text(json.dumps(
            {key: _homology_digest(key, Path(tmp)) for key in HOMOLOGY_INVOCATIONS},
            indent=1, sort_keys=True) + "\n")
        GOLDEN_DOWLING.write_text(json.dumps(
            {key: _dowling_digest(key, Path(tmp)) for key in DOWLING_INVOCATIONS},
            indent=1, sort_keys=True) + "\n")
    os.environ["COLUMNS"] = "80"
    GOLDEN_HELP.write_text(json.dumps({cmd: _digest(cmd.split()) for cmd in HELP_INVOCATIONS},
                                      indent=1, sort_keys=True) + "\n")
    GOLDEN_WIDE.write_text(json.dumps(
        {cmd: _digest(cmd.split(), with_stderr=True) for cmd in WIDE_INVOCATIONS},
        indent=1, sort_keys=True) + "\n")
