import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import ocs
import ocs.cli
import ocs.symrep
from ocs.cli import COMMANDS, _load_descriptor, build_parser, run
from ocs.dowling import (
    _check_cap,
    build_poset,
    enumerate_levels,
    spec_from_json,
    spec_partition,
)
from ocs.errors import CapExceeded
from ocs.series import NMAX_CAP
from ocs.stability import STEPS_CAP
from ocs.symrep import (
    decompose,
    partitions_of,
    strip_top_row,
    sym_class_poset_perms,
    whitney_character,
)

SPACES = sorted(
    res.name.removesuffix(".json")
    for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
    if res.name.endswith(".json")
)


def test_all_bundled_spaces_listed():
    assert len(SPACES) == 10


@pytest.mark.parametrize("spec", SPACES)
def test_bottom_report_ends_after_its_corners(spec, capsys):
    # ROADMAP D1: the sweep used to exit 1 once --steps passed its corners
    rc = run(["stability", "report", "--spec", spec, "--variant", "bottom",
              "--steps", "6"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    steps = json.loads(out)["steps"]
    betti = json.loads(
        resources.files("ocs").joinpath("specs", "spaces", spec + ".json").read_text()
    )["betti"]
    assert len(steps) == sum(1 for b in betti if b) + 1
    assert [s["terminal"] for s in steps] == [False] * (len(steps) - 1) + [True]


def _single_json_error(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


PARTITION_N2 = {
    **json.loads(resources.files("ocs").joinpath("specs", "posets", "partition.json").read_text()),
    "n": 2,
}


@pytest.mark.parametrize("block", [
    {"elements": []},
    {"spec": PARTITION_N2},
    {"spec": PARTITION_N2, "elements": 7},
    {"spec": PARTITION_N2, "elements": []},
    "partition",
])
def test_rep_rejects_malformed_dowling_block(block, tmp_path, capsys):
    # ROADMAP D3: these used to escape as KeyError, TypeError or IndexError
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "rank": [0, 1], "dowling": block}))
    rc = run(["rep", "decompose", "--rank", "1", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err)["type"] == "input"


@pytest.mark.parametrize("cmd", [["poset", "mobius"], ["poset", "whitney"], ["rep", "decompose"]])
def test_non_object_poset_file_is_an_input_error(cmd, tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text("5")
    rc = run(cmd + ["--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {"type": "input", "message": "poset descriptor must be an object"}


def _refuses_descriptor(cmd: list[str], obj: dict, message: str, tmp_path, capsys) -> None:
    # JSON true and false are Python's ints 1 and 0, and used to pass as integers
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(obj))
    rc = run(cmd + [str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {"type": "input", "message": message}


@pytest.mark.parametrize("obj, message", [
    ({"n": True, "covers": []}, "poset descriptor needs integer 'n' and list 'covers'"),
    ({"n": 2, "covers": [[0, True]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, 1]], "rank": [0, True]}, "poset 'rank' must be a list of integers"),
])
def test_poset_descriptor_refuses_wrong_types(obj, message, tmp_path, capsys):
    _refuses_descriptor(["poset", "mobius", "--poset"], obj, message, tmp_path, capsys)


TYPE_B = json.loads(resources.files("ocs").joinpath("specs", "posets", "typeB.json").read_text())


@pytest.mark.parametrize("obj, message", [
    ({**TYPE_B, "n": True}, "dowling spec needs a ground set size n"),
    ({**TYPE_B, "n": 2, "name": 7}, "dowling spec 'name' must be a string"),
])
def test_dowling_spec_refuses_wrong_types(obj, message, tmp_path, capsys):
    _refuses_descriptor(["dowling", "count", "--spec"], obj, message, tmp_path, capsys)


@pytest.mark.parametrize("group, message", [
    ({"kind": "cyclic", "order": True}, "cyclic group descriptor needs integer 'order'"),
    ({"kind": "table", "mul": [[False]]},
     "table group descriptor needs a square integer table 'mul'"),
])
def test_group_descriptor_refuses_wrong_types(group, message, tmp_path, capsys):
    _refuses_descriptor(["dowling", "count", "--spec"], {**TYPE_B, "n": 2, "group": group},
                        message, tmp_path, capsys)


@pytest.mark.parametrize("gset", [
    {"size": False, "action": [], "T": []},
    {"size": 2, "action": [[0, True], [0, 1]], "T": [0]},
    {"size": 2, "action": [[0, 1], [0, 1]], "T": [True]},
])
def test_gset_descriptor_refuses_wrong_types(gset, tmp_path, capsys):
    _refuses_descriptor(
        ["dowling", "count", "--spec"], {**TYPE_B, "n": 2, "gset": gset},
        "gset descriptor needs integer 'size', integer table 'action', integer list 'T'",
        tmp_path, capsys)


TORIC_B = json.loads(resources.files("ocs").joinpath("specs", "spaces", "toricB.json").read_text())


@pytest.mark.parametrize("obj, message", [
    ({**TORIC_B, "betti": [1, True]}, "space descriptor needs an integer list 'betti'"),
    ({**TORIC_B, "name": {"x": [1]}}, "space descriptor 'name' must be a string"),
    ({**TORIC_B, "orbits": [{"stabilizer": {"kind": "cyclic", "order": True}, "inT": True}]},
     "cyclic group descriptor needs integer 'order'"),
])
def test_space_descriptor_refuses_wrong_types(obj, message, tmp_path, capsys):
    _refuses_descriptor(["config", "e1", "--nmax", "2", "--spec"], obj, message, tmp_path, capsys)


ORBIT_SPACES = [
    spec for spec in SPACES
    if json.loads(
        resources.files("ocs").joinpath("specs", "spaces", spec + ".json").read_text()
    )["orbits"]
]


@pytest.mark.parametrize("cmd", [["config", "e1", "--nmax", "12"], ["stability", "report", "--verify"]])
@pytest.mark.parametrize("spec", ORBIT_SPACES)
def test_orbit_spaces_reach_their_documented_caps(spec, cmd, capsys):
    # ROADMAP D2: the zero-block factors used to build the k-point poset's
    # order complex, so both commands hung from nmax 5 on
    assert len(ORBIT_SPACES) == 5
    rc = run(cmd + ["--spec", spec])
    _, err = capsys.readouterr()
    assert rc == 0, err


@pytest.mark.parametrize("spec", SPACES)
def test_verify_keeps_the_config_truncation_cap(spec, capsys):
    # ROADMAP D5: --verify used to build the quotient series to any --nmax;
    # typeA_R1 (the line) has no absolute step, and used to exit 0
    assert run(["config", "e1", "--spec", spec, "--nmax", str(NMAX_CAP + 1)]) == 1
    _, e1_err = capsys.readouterr()
    rc = run(["stability", "report", "--spec", spec, "--verify", "--nmax", str(NMAX_CAP + 1)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert _single_json_error(err) == _single_json_error(e1_err) == {
        "type": "domain", "message": f"truncation cap is {NMAX_CAP}, got {NMAX_CAP + 1}"}


@pytest.mark.parametrize("spec", SPACES)
def test_series_commands_run_at_the_nmax_cap(spec, capsys):
    for cmd in (["config", "e1", "--nmax"], ["config", "betti", "--n"],
                ["stability", "report", "--verify", "--steps", "3", "--nmax"]):
        rc = run(cmd + [str(NMAX_CAP), "--spec", spec])
        out, err = capsys.readouterr()
        assert rc == 0, err  # a violated generator bound exits 1


@pytest.mark.parametrize("spec", SPACES)
def test_verify_rejects_a_negative_nmax(spec, capsys):
    # toricB, typeA_R2 and rp2free used to escape from series_exp with an
    # IndexError traceback (exit 1); typeA_R1 used to exit 0
    rc = run(["stability", "report", "--spec", spec, "--verify", "--nmax", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {"type": "input", "message": "nmax must be nonnegative"}


@pytest.mark.parametrize("variant", ["left", "right", "bottom"])
def test_stability_report_keeps_the_steps_cap(variant, capsys):
    # on the line, typeA_R1, the left variant takes every step up to the cap
    rc = run(["stability", "report", "--spec", "typeA_R1", "--variant", variant,
              "--steps", str(STEPS_CAP)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    steps = json.loads(out)["steps"]
    assert len(steps) == STEPS_CAP if variant == "left" else steps[-1]["terminal"]
    rc = run(["stability", "report", "--spec", "typeA_R1", "--variant", variant,
              "--steps", str(STEPS_CAP + 1)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert _single_json_error(err) == {
        "type": "domain", "message": f"steps cap is {STEPS_CAP}, got {STEPS_CAP + 1}"}


FREE_SPACES = [spec for spec in SPACES if spec not in ORBIT_SPACES]


@pytest.mark.parametrize("spec", FREE_SPACES)
def test_euler_matches_the_closed_form_on_free_spaces(spec, capsys):
    assert len(FREE_SPACES) == 5
    rc = run(["config", "euler", "--spec", spec, "--nmax", str(NMAX_CAP), "--check-closed-form"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    obj = json.loads(out)
    assert obj["match"] is True and obj["closedForm"] == obj["euler"]


def test_euler_closed_form_refuses_an_orbit_space(capsys):
    rc = run(["config", "euler", "--spec", "toricB", "--nmax", "4", "--check-closed-form"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert _single_json_error(err) == {
        "type": "domain",
        "message": "closed-form Euler product requires a free action (no orbit data)"}


def test_betti_rejects_a_negative_n(capsys):
    # used to name --nmax, a flag that config betti does not have
    rc = run(["config", "betti", "--spec", "typeA_R2", "--n", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {"type": "input", "message": "n must be nonnegative"}


def test_verify_rejects_a_negative_defect(capsys):
    # ROADMAP D8: --j -1 used to exit 0 with "generatorBound": -2 and
    # "verified": true
    rc = run(["stability", "report", "--spec", "typeA_R2", "--verify", "--j", "-1",
              "--nmax", "6"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "defect j must be nonnegative, got -1"}


def test_report_rejects_a_negative_defect(capsys):
    # without --verify, --j -1 used to exit 0 with "generatorBound": -2
    rc = run(["stability", "report", "--spec", "typeA_R2", "--j", "-1", "--nmax", "6"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "defect j must be nonnegative, got -1"}


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["dowling", "count", "--spec", "partition", "--n", "4"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(ocs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "ocs", *argv], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_rep_rejects_duplicate_elements(tmp_path, capsys):
    # used to escape as a KeyError traceback from the element index
    path = tmp_path / "typeB-3.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "3", "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    built["dowling"]["elements"][2] = built["dowling"]["elements"][1]
    path.write_text(json.dumps(built))
    capsys.readouterr()
    rc = run(["rep", "decompose", "--rank", "1", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "'dowling' element strings must name distinct elements"}


@pytest.mark.parametrize("argv", [
    ["rep", "stability", "--spec", "typeA_R2", "--window", "4..5"],
    ["rep", "stability", "--spec", "toricB", "--window", "2..3"],
    ["rep", "decompose", "--poset", "BUILT"],
])
def test_rep_rejects_a_negative_rank(argv, tmp_path, capsys):
    # --rank -1 used to exit 0 with all-zero characters ("sizeBound": -2
    # in rep stability)
    path = tmp_path / "partition-3.json"
    assert run(["dowling", "build", "--spec", "partition", "--n", "3", "--out", str(path)]) == 0
    rc = run([str(path) if a == "BUILT" else a for a in argv] + ["--rank", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "rank must be nonnegative, got -1"}


def _space_json(spec: str) -> dict:
    path = resources.files("ocs").joinpath("specs", "spaces", spec + ".json")
    return json.loads(path.read_text())


# the spaces whose Dowling poset is the partition lattice Pi_n
PARTITION_LATTICE_SPACES = [
    spec for spec in SPACES
    if _space_json(spec)["group"]["order"] == 1 and not _space_json(spec)["orbits"]
]


def _rep_stability_both_paths(argv, capsys, monkeypatch):
    """(rc, stdout, stderr) of `rep stability` on the series path and on the
    poset path."""
    results = []
    for path in ("_series_characters", "_poset_characters"):
        with monkeypatch.context() as m:
            m.setattr(ocs.cli, "_series_characters", getattr(ocs.cli, path))
            rc = run(["rep", "stability", *argv])
            results.append((rc, *capsys.readouterr()))
    return results


def test_partition_lattice_spaces_are_the_type_a_specs():
    assert PARTITION_LATTICE_SPACES == ["typeA_C", "typeA_R1", "typeA_R2", "typeA_R3"]


def test_rep_stability_builds_a_poset_only_off_the_partition_lattice(monkeypatch, capsys):
    built = []
    real = ocs.cli.build_poset
    monkeypatch.setattr(ocs.cli, "build_poset",
                        lambda spec, cap: built.append(spec.n) or real(spec, cap))
    for spec in PARTITION_LATTICE_SPACES:
        assert run(["rep", "stability", "--spec", spec, "--rank", "2", "--window", "4..8",
                    "--cap", "5000"]) == 0
    assert built == []
    assert run(["rep", "stability", "--spec", "typeA_R2_punctured", "--rank", "1",
                "--window", "2..3"]) == 0
    assert built == [2, 3]


@pytest.mark.parametrize("spec", PARTITION_LATTICE_SPACES)
def test_series_path_matches_the_poset_path(spec, capsys, monkeypatch):
    for rank in range(5):
        series, poset = _rep_stability_both_paths(
            ["--spec", spec, "--rank", str(rank), "--window", "1..6"], capsys, monkeypatch)
        assert series == poset and series[0] == 0


def _names_from_the_poset(spec_obj: dict, rank: int, n: int) -> list:
    """The `rep stability` names at n, from the Whitney character of the
    Dowling poset that spec_obj builds."""
    spec = spec_from_json(spec_obj, n=n)
    p, elements = build_poset(spec)
    mult = decompose(whitney_character(p, sym_class_poset_perms(spec, elements), rank, n))
    names: dict = {}
    for lam, m in mult.items():
        names[strip_top_row(lam)] = names.get(strip_top_row(lam), 0) + m
    return [[list(name), m] for name, m in sorted(names.items())]


def _rep_stability_matches_the_poset(space_arg: str, spec_obj: dict, capsys) -> None:
    for rank in (1, 2):
        rc = run(["rep", "stability", "--spec", space_arg, "--rank", str(rank),
                  "--window", "2..4"])
        out, err = capsys.readouterr()
        assert rc == 0, err
        names = json.loads(out)["names"]
        assert names == {str(n): _names_from_the_poset(spec_obj, rank, n) for n in (2, 3, 4)}


@pytest.mark.parametrize("space, poset", [
    ("toricB", "typeB"), ("toricC", "typeC"), ("toricD", "typeD"),
    ("dowling_mu3", "dowling_z3"),
])
def test_rep_stability_rebuilds_the_bundled_g_set(space, poset, capsys):
    # each orbit is a fixed point, so the rebuilt G-set is the bundled one
    spec_obj = json.loads(
        resources.files("ocs").joinpath("specs", "posets", poset + ".json").read_text())
    _rep_stability_matches_the_poset(space, spec_obj, capsys)


@pytest.mark.parametrize("in_t", [True, False])
def test_rep_stability_rebuilds_a_free_orbit(in_t, tmp_path, capsys):
    # no bundled space has a free orbit
    z2 = {"kind": "cyclic", "order": 2}
    path = tmp_path / "free-orbit.json"
    path.write_text(json.dumps({
        "betti": [0, 0, 1], "group": z2, "iAcyclic": True,
        "orbits": [{"stabilizer": {"kind": "cyclic", "order": 1}, "inT": in_t}],
    }))
    spec_obj = {"group": z2,
                "gset": {"size": 2, "action": [[0, 1], [1, 0]], "T": [0, 1] if in_t else []}}
    _rep_stability_matches_the_poset(str(path), spec_obj, capsys)


def _cap_thresholds(n: int) -> list[int]:
    """The element counts after each rank level of the built Pi_n."""
    counts = [len(level) for level in enumerate_levels(spec_partition(n), cap=10**6)]
    return [sum(counts[:r + 1]) for r in range(len(counts))]


@pytest.mark.parametrize("n", range(1, 8))
def test_series_path_keeps_the_cap_contract(n, capsys, monkeypatch):
    # the same exit code and the same stderr (rank and partialCount) as
    # build_poset gives, at every cap around a refusal threshold
    caps = {0, 10000} | {t + d for t in _cap_thresholds(n) for d in (-1, 0)}
    for cap in sorted(caps):
        series, poset = _rep_stability_both_paths(
            ["--spec", "typeA_R2", "--rank", "2", "--window", f"{n}..{n}", "--cap", str(cap)],
            capsys, monkeypatch)
        assert series == poset
    if n == 1:
        assert series[0] == 0  # the bottom alone never refuses


def test_series_path_refuses_the_first_n_over_the_cap(capsys, monkeypatch):
    # around the sizes of Pi_1 .. Pi_7, the Bell numbers 1 .. 877
    bell = [_cap_thresholds(n)[-1] for n in range(1, 8)]
    for cap in sorted({0} | {b + d for b in bell for d in (-1, 0)}):
        series, poset = _rep_stability_both_paths(
            ["--spec", "typeA_R2", "--rank", "1", "--window", "1..7", "--cap", str(cap)],
            capsys, monkeypatch)
        assert series == poset
    assert series[0] == 0
    series, _ = _rep_stability_both_paths(
        ["--spec", "typeA_R2", "--rank", "1", "--window", "4..5", "--cap", "0"],
        capsys, monkeypatch)
    assert series[0] == 1 and _single_json_error(series[2]) == {
        "type": "cap", "message": "element cap 0 exceeded while enumerating rank 1",
        "partialCount": 7}


def _stirling_row_totals(top: int):
    """(n, r, elements of Pi_n up to rank r) for n <= top, row by row of the
    Stirling triangle, each n's levels S(n, n - r) summed in rank order."""
    stirling = [1]  # stirling[k] = S(m, k)
    for m in range(1, top + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, m)] + [1]
        total = 1
        for r in range(1, m):
            total += stirling[m - r]
            yield m, r, total


def _stirling_rows_cap_check(window: list[int], cap: int) -> None:
    """The series path's cap check with every Stirling row up to the top of
    the window."""
    for n, r, total in _stirling_row_totals(window[-1]):
        if n >= window[0]:
            _check_cap(cap, r, total)


def _cap_outcome(check, window: list[int], cap: int):
    try:
        check(window, cap)
    except CapExceeded as exc:
        return str(exc), exc.partial_count
    return None


def test_series_path_cap_matches_the_stirling_rows(monkeypatch):
    # the characters are not what is checked here, so none are computed
    monkeypatch.setattr(ocs.cli, "partition_lattice_whitney_characters",
                        lambda r, nmax: dict.fromkeys(range(1, nmax + 1)))
    def series(window, cap):
        ocs.cli._series_characters(None, 1, window, cap)

    caps = {-1, 0} | {t + d for _, _, t in _stirling_row_totals(12) for d in (-1, 0)}
    for lo in range(1, 13):
        for hi in range(lo, 15):
            window = list(range(lo, hi + 1))
            for cap in sorted(caps):
                assert (_cap_outcome(series, window, cap)
                        == _cap_outcome(_stirling_rows_cap_check, window, cap)), (window, cap)


@pytest.mark.parametrize("window", ["8000..8000", "4..8000"])
def test_series_path_refuses_a_large_n_at_once(window, capsys):
    # rank 1 of Pi_8000 alone has C(8000, 2) elements; building every
    # Stirling row up to n = 8000 before the first check took minutes
    start = time.perf_counter()
    assert run(["rep", "stability", "--spec", "typeA_R2", "--rank", "1", "--window", window]) == 1
    assert time.perf_counter() - start < 10
    rank, count = (1, 1 + 8000 * 7999 // 2) if window == "8000..8000" else (4, 10096)
    assert _single_json_error(capsys.readouterr().err) == {
        "type": "cap", "message": f"element cap 10000 exceeded while enumerating rank {rank}",
        "partialCount": count}


def _rep_stability_report(rank: int, window: str, capsys) -> dict:
    assert run(["rep", "stability", "--spec", "typeA_R2", "--rank", str(rank),
                "--window", window, "--cap", "5000000"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rep_stability_on_pi_n_is_stable_from_3r_plus_1(rank, capsys):
    # past the Bell(10) = 115975 elements the poset path cannot reach
    stable = _rep_stability_report(rank, f"{3 * rank + 1}..12", capsys)
    assert stable["stable"] is True and stable["firstViolation"] is None
    early = _rep_stability_report(rank, f"{3 * rank}..12", capsys)
    assert early["stable"] is False and early["firstViolation"] == 3 * rank + 1


def test_rep_stability_at_a_huge_rank_is_empty(capsys):
    # every rank >= n gives the zero character, with nothing of size r built
    rc = run(["rep", "stability", "--spec", "typeA_R2", "--rank", "1000000000",
              "--window", "4..5"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["names"] == {"4": [], "5": []}


def test_rank_three_multiplicities_are_constant_from_n_10(capsys):
    names = _rep_stability_report(3, "4..12", capsys)["names"]
    assert names["9"] != names["10"] == names["11"] == names["12"]


@pytest.mark.parametrize("a,b", [(-7, 3), (7, 3), (0, -1), (0, 7)])
def test_poset_mobius_rejects_elements_out_of_range(tmp_path, capsys, a, b):
    # -7 used to read as element 0 and print 0, and the others to escape as
    # IndexError or ValueError tracebacks
    path = tmp_path / "typeB-2.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = run(["poset", "mobius", "--poset", str(path), "--a", str(a), "--b", str(b)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": f"mobius elements out of range: {a}, {b}"}


@pytest.mark.parametrize("rank", range(4))
def test_rep_rejects_covers_that_do_not_match_the_elements(tmp_path, capsys, rank):
    # rank 1 used to print a character, and rank 2 to escape as a KeyError
    # traceback from the open-interval action
    path = tmp_path / "typeB-3.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "3", "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    lower = {}
    for a, b in built["covers"]:
        lower.setdefault(b, []).append(a)
    b = next(b for b, below in lower.items() if built["rank"][b] == 2 and len(below) >= 3)
    built["covers"].remove([lower[b][0], b])
    path.write_text(json.dumps(built))
    capsys.readouterr()
    rc = run(["rep", "decompose", "--rank", str(rank), "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "permutation is not order-preserving"}


def test_rep_decompose_checks_each_class_permutation_once(tmp_path, capsys, monkeypatch):
    # every rank used to check every permutation again
    path = tmp_path / "typeB-3.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    checked = []
    check = ocs.symrep._check_automorphism
    monkeypatch.setattr(ocs.symrep, "_check_automorphism",
                        lambda p, perm: checked.append(perm) or check(p, perm))
    assert run(["rep", "decompose", "--poset", str(path)]) == 0
    ranks = json.loads(capsys.readouterr().out)["ranks"]
    assert [r["rank"] for r in ranks] == [0, 1, 2, 3]
    assert len(checked) == len(partitions_of(3))


def test_rep_decompose_of_an_unranked_poset_is_an_input_error(tmp_path, capsys):
    # without --rank, a poset file with no "rank" used to escape as a TypeError
    path = tmp_path / "typeB-2.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "2", "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    del built["rank"]
    path.write_text(json.dumps(built))
    capsys.readouterr()
    rc = run(["rep", "decompose", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "whitney character needs a ranked poset"}


def test_rep_rejects_elements_not_closed_under_the_action(tmp_path, capsys):
    # distinct valid elements whose S_n images leave the list
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "rank": [0, 1], "dowling": {
        "spec": {**PARTITION_N2, "n": 3},
        "elements": ["0:0|0:1|0:2|Z{}", "0:0,0:1|0:2|Z{}"],
    }}))
    rc = run(["rep", "decompose", "--rank", "1", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input",
        "message": "the elements are not closed under the symmetric group action"}


USAGE_ERRORS = (
    [[group, command] for group, (_, commands) in COMMANDS.items() for command in commands]
    + [[], ["nope"], ["config"], ["config", "e1", "--spec", "toricB", "--nmax", "x"]]
)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_one_json_input_error(argv, capsys):
    # missing options, a bad int, an unknown or missing command used to
    # print argparse's usage text instead of a JSON error
    rc = run(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err)["type"] == "input"


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_an_input_error(where, tmp_path, capsys):
    # ROADMAP D6: a missing directory or a directory as --out used to
    # escape as FileNotFoundError or IsADirectoryError
    rc = run(["config", "e1", "--spec", "rp2free", "--nmax", "2", "--out", str(tmp_path / where)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err)["type"] == "input"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", [
    ["poset", "mobius", "--poset"],
    ["rep", "decompose", "--poset"],
    ["config", "e1", "--nmax", "2", "--spec"],
    ["dowling", "build", "--spec"],
])
def test_undecodable_descriptor_is_an_input_error(cmd, tmp_path, capsys):
    # ROADMAP D7: bytes that are not UTF-8 used to escape as UnicodeDecodeError
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    rc = run(cmd + [str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    error = _single_json_error(err)
    assert error["type"] == "input"
    assert error["message"].startswith(f"malformed JSON in {path}: ")


BUNDLED = [
    (kind, res.name)
    for kind in ("posets", "spaces")
    for res in sorted(resources.files("ocs").joinpath("specs", kind).iterdir(), key=lambda r: r.name)
    if res.name.endswith(".json")
]


@pytest.mark.parametrize("kind, name", BUNDLED)
def test_every_bundled_name_resolves(kind, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(resources.files("ocs").joinpath("specs", kind, name).read_text())
    assert _load_descriptor(name, kind) == expected
    assert _load_descriptor(name.removesuffix(".json"), kind) == expected


@pytest.mark.parametrize("arg", [
    "{tmp}/r2file",
    "{tmp}/sub/../r2file",
    "../spaces/typeA_R2",
    "./typeA_R2",
    "specs/spaces/typeA_R2",
])
def test_a_path_never_falls_back_to_a_bundled_spec(arg, tmp_path, monkeypatch, capsys):
    # the bundled fallback used to join any argument onto specs/<kind>/, so
    # an absolute name read <name>.json outside it
    (tmp_path / "sub").mkdir()
    (tmp_path / "r2file.json").write_text(
        resources.files("ocs").joinpath("specs", "spaces", "typeA_R2.json").read_text())
    monkeypatch.chdir(tmp_path / "sub")
    arg = arg.format(tmp=tmp_path)
    rc = run(["config", "euler", "--spec", arg, "--nmax", "3"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "message": f"spec not found: {arg} (no file, no bundled spaces spec)", "type": "input"}


def test_one_parser_serves_every_run(capsys):
    # a default must not keep the value that an earlier call parsed
    assert build_parser() is build_parser()
    assert run(["stability", "report", "--spec", "toricB", "--variant", "bottom"]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "bottom"
    assert run(["stability", "report", "--spec", "toricB"]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "left"


def test_import_builds_no_parser_and_three_runs_build_one():
    script = (
        "import ocs.cli\n"
        "assert ocs.cli.build_parser.cache_info().currsize == 0\n"
        "for _ in range(3):\n"
        "    assert ocs.cli.run(['config', 'e1', '--spec', 'rp2free', '--nmax', '2']) == 0\n"
        "assert ocs.cli.build_parser.cache_info().misses == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ocs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag,descriptor", [
    ("--poset", {"n": 3, "covers": [[0, 1, 2]]}),
    ("--poset", {"n": 3, "covers": [["a", 1]]}),
    ("--poset", {"n": 3, "covers": [5]}),
    ("--poset", {"n": 2, "covers": [[0, 1]], "rank": 5}),
    ("--poset", {"n": 2, "covers": [[0, 1]], "rank": [0, "x"]}),
    ("--spec", {**PARTITION_N2, "group": {"kind": "table", "mul": [[0, 1], [1]]}}),
    ("--spec", {**PARTITION_N2, "group": {"kind": "table", "mul": [1, 2]}}),
    ("--spec", {**PARTITION_N2, "gset": {"size": 1, "action": ["x"], "T": []}}),
    ("--spec", {**PARTITION_N2, "gset": {"size": 1, "action": [[0]], "T": ["a"]}}),
    ("--spec", {**PARTITION_N2, "gset": {"size": 1, "action": [[0]], "T": [[0]]}}),
], ids=["cover-triple", "cover-string", "cover-int", "rank-int", "rank-string",
        "mul-ragged", "mul-flat", "action-string", "T-string", "T-nested"])
def test_malformed_descriptor_is_one_json_input_error(flag, descriptor, tmp_path, capsys):
    # these used to escape as ValueError, TypeError or IndexError tracebacks;
    # a non-integer rank used to pass the parser and fail in `poset whitney`
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(descriptor))
    cmd = ["poset", "whitney"] if flag == "--poset" else ["dowling", "build"]
    rc = run(cmd + [flag, str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err)["type"] == "input"


@pytest.fixture
def posets(tmp_path):
    """Poset files that load but have no bottom (ANTICHAIN), or do not load
    (CYCLE)."""
    paths = {}
    for name, covers in [("ANTICHAIN", []), ("CYCLE", [[0, 1], [1, 0]])]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"n": 2, "covers": covers}))
    return {name: str(path) for name, path in paths.items()}


FAILING_RUNS = {
    ("dowling", "build"): ["--spec", "partition", "--n", "6", "--cap", "10"],
    ("dowling", "count"): ["--spec", "partition", "--n", "6", "--cap", "10"],
    ("dowling", "interval"): ["--spec", "partition", "--n", "3", "--element", "bogus"],
    ("poset", "mobius"): ["--poset", "ANTICHAIN", "--a", "0", "--b", "9"],
    ("poset", "homology"): ["--poset", "CYCLE"],
    ("poset", "whitney"): ["--poset", "ANTICHAIN"],
    ("config", "e1"): ["--spec", "toricB", "--nmax", str(NMAX_CAP + 1)],
    ("config", "betti"): ["--spec", "toricB", "--n", str(NMAX_CAP + 1)],
    ("config", "euler"): ["--spec", "toricB", "--nmax", str(NMAX_CAP + 1)],
    ("stability", "report"): ["--spec", "toricB", "--verify", "--nmax", str(NMAX_CAP + 1)],
    ("rep", "decompose"): ["--poset", "ANTICHAIN"],
    ("rep", "stability"): ["--spec", "typeA_R2", "--rank", "1", "--window", "4..5", "--cap", "10"],
}


def test_failing_runs_cover_every_command():
    assert set(FAILING_RUNS) == {
        (group, command) for group, (_, commands) in COMMANDS.items() for command in commands
    }


@pytest.mark.parametrize("cmd", sorted(FAILING_RUNS), ids=" ".join)
def test_a_failing_run_leaves_no_out_file(cmd, posets, tmp_path, capsys):
    # the output is written only after the command has succeeded
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [posets.get(a, a) for a in FAILING_RUNS[cmd]]
    rc = run(list(cmd) + argv + ["--out", str(out_dir / "result.json")])
    out, err = capsys.readouterr()
    assert rc in (1, 2) and out == ""
    assert _single_json_error(err)["type"] in ("input", "domain", "cap")
    assert list(out_dir.iterdir()) == []


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    missing = [f"ocs {group} {command}" for group, (_, commands) in COMMANDS.items()
               for command in commands if f"`ocs {group} {command}`" not in readme]
    assert missing == []
