import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ocs
import ocs.cli
import ocs.dowling
import ocs.homology
import ocs.posets
import ocs.symrep
from ocs.cli import (
    COMMANDS,
    WINDOW_CAP,
    _json_text,
    _load_descriptor,
    _rat,
    build_parser,
    run,
)
from ocs.dowling import (
    DEFAULT_CAP,
    DowlingSpec,
    _check_window_cap,
    build_poset,
    count_elements_species,
    enumerate_levels,
    spec_from_json,
    spec_from_orbit_data,
    spec_partition,
    spec_to_json,
)
from ocs.errors import CapExceeded, DomainError
from ocs.homology import reduced_homology, whitney_homology
from ocs.groups import cyclic_group
from ocs.posets import CLOSURE_CAP, poset_from_json, proper_part
from ocs.series import NMAX_CAP, space_from_json
from ocs.stability import STEPS_CAP
from ocs.symrep import (
    decompose,
    partitions_of,
    sym_class_poset_perms,
    whitney_character,
)
from poset_oracle import (
    KLEIN,
    coset_gset,
    levels_outcome,
    poset_characters,
    use_the_poset_path,
)
from helpers import strip_top_row

SPACES = sorted(
    res.name.removesuffix(".json")
    for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
    if res.name.endswith(".json")
)
POSET_SPECS = sorted(
    res.name.removesuffix(".json")
    for res in resources.files("ocs").joinpath("specs", "posets").iterdir()
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


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.fractions(),
    st.integers(-9, 9).map(lambda d: d * 10**499 - 1),  # 500 digits, or -1
    st.text(), st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "Möbius μ 🙂"]),
)
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.lists(st.integers(), max_size=6), st.lists(st.one_of(st.integers(), st.booleans())),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()})
@example([True, 1, False, 0, None, Fraction(4, 2), Fraction(-1, 3)])
def test_json_text_is_the_text_of_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2, default=_rat) + "\n"


_BIG = 9 * 10**499 - 1  # 500 digits
_PAIR_ITEMS = st.one_of(st.integers(), st.sampled_from([_BIG, -_BIG]))
_PAIRS = st.lists(st.lists(_PAIR_ITEMS, min_size=2, max_size=2), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _PAIRS,
    # a pair list with one item that is no pair of ints, anywhere in it
    st.tuples(_PAIRS, st.sampled_from([[1, True], [False, 0], (1, 2), [1, 2, 3], [1],
                                       [1, None], [Fraction(1, 2), 0], [[1, 2], [3, 4]]]),
              st.integers(0, 6)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    st.lists(_PAIRS, min_size=1, max_size=3),  # nested pair lists
    st.dictionaries(st.text(max_size=3), _PAIRS, max_size=3),
))
@example([[1, True], [2, 3]])
@example([[_BIG, -_BIG], [-1, 0]])
@example([[1, 2], (3, 4), [5, 6, 7]])
@example([[[1, 2], [3, 4]], [[5, 6]]])
def test_json_text_writes_int_pairs_as_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2, default=_rat) + "\n"


@pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2: "b"}], {(1,): 0}])
def test_json_text_refuses_a_key_that_is_not_a_str(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


PARTITION_N2 = {
    **json.loads(resources.files("ocs").joinpath("specs", "posets", "partition.json").read_text()),
    "n": 2,
}


MALFORMED_DOWLING_BLOCKS = [
    {"elements": []},
    {"spec": PARTITION_N2},
    {"spec": PARTITION_N2, "elements": 7},
    {"spec": PARTITION_N2, "elements": []},
    "partition",
]


def _two_chain_with(block, tmp_path) -> Path:
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "rank": [0, 1], "dowling": block}))
    return path


@pytest.mark.parametrize("block", MALFORMED_DOWLING_BLOCKS)
def test_rep_rejects_malformed_dowling_block(block, tmp_path, capsys):
    # ROADMAP D3: these used to escape as KeyError, TypeError or IndexError
    path = _two_chain_with(block, tmp_path)
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


@pytest.mark.parametrize("cmd", [["poset", "mobius"], ["poset", "homology"], ["poset", "whitney"],
                                 ["rep", "decompose"]])
def test_every_poset_command_refuses_a_family_spec(cmd, capsys):
    # rep decompose used to ask for group provenance instead, with exit 1
    rc = run(cmd + ["--poset", "typeB"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input",
        "message": "this descriptor is a dowling family spec; build it first with "
                   "'ocs dowling build'",
    }


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
    # every other JSON type, where the covers are checked by exact type
    ({"n": 2.0, "covers": []}, "poset descriptor needs integer 'n' and list 'covers'"),
    ({"n": 2, "covers": [[0, 1.0]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, "1"]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[None, 1]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, [1]]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, 1, 1]]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, 1], 1]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [{"0": 1}]}, "each poset cover must be an integer pair [a, b]"),
    ({"n": 2, "covers": [[0, 1]], "rank": [0, 1.5]}, "poset 'rank' must be a list of integers"),
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


def _rep_stability_both_paths(argv, capsys, monkeypatch, make_spec=spec_from_orbit_data):
    """(rc, stdout, stderr) of `rep stability` as it runs, and on the poset
    path, its oracle, with make_spec laying out each poset."""
    results = []
    for poset_path in (False, True):
        with monkeypatch.context() as m:
            if poset_path:
                use_the_poset_path(m, make_spec)
            rc = run(["rep", "stability", *argv])
            results.append((rc, *capsys.readouterr()))
    return results


def test_partition_lattice_spaces_are_the_type_a_specs():
    assert PARTITION_LATTICE_SPACES == ["typeA_C", "typeA_R1", "typeA_R2", "typeA_R3"]


def test_dowling_build_names_each_element_once(tmp_path, monkeypatch):
    named = []
    real = ocs.dowling.element_to_string
    for module in (ocs.dowling, ocs.cli):
        monkeypatch.setattr(module, "element_to_string", lambda e: named.append(e) or real(e))
    for spec in POSET_SPECS:
        named.clear()
        path = tmp_path / f"{spec}-4.json"
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(path)]) == 0
        names = json.loads(path.read_text())["dowling"]["elements"]
        assert len(named) == len(names) == len(set(names))
        assert sorted(map(real, named)) == sorted(names)


def test_rep_stability_builds_no_poset(monkeypatch, capsys):
    built = []
    for module, name in [(ocs.cli, "build_poset"), (ocs.cli, "_levels"),
                         (ocs.dowling, "build_poset"), (ocs.dowling, "enumerate_levels"),
                         (ocs.dowling, "_levels")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda spec, cap=DEFAULT_CAP, real=real:
                            built.append(spec.n) or real(spec, cap))
    for spec in SPACES:
        assert run(["rep", "stability", "--spec", spec, "--rank", "2", "--window", "4..8",
                    "--cap", "1000000000"]) == 0
    assert built == []
    assert run(["dowling", "build", "--spec", "typeB", "--n", "2"]) == 0
    assert built and set(built) == {2}


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
    p, elements, _ = build_poset(spec)
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


@pytest.mark.parametrize("in_t", [True, False])
def test_rep_stability_answers_a_stabilizer_strictly_between(in_t, tmp_path, capsys,
                                                            monkeypatch):
    # a Z2 stabilizer in Z4 does not say how Z4 acts on the orbit, but the
    # characters need only its table: they are those of Z4 on the cosets of
    # its Z2, laid out by hand
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({
        "betti": [0, 0, 1], "group": {"kind": "cyclic", "order": 4}, "iAcyclic": True,
        "orbits": [{"stabilizer": {"kind": "cyclic", "order": 2}, "inT": in_t}],
    }))

    def cosets(group, orbit_data, n):
        return DowlingSpec(group=group, gset=coset_gset(group, [([0, 2], in_t)]), n=n)

    for rank in range(5):
        series, poset = _rep_stability_both_paths(
            ["--spec", str(path), "--rank", str(rank), "--window", "1..4"],
            capsys, monkeypatch, cosets)
        assert series == poset and series[0] == 0


@pytest.mark.parametrize("window, message", [
    ("4", "window must look like 4..6"),
    ("4..5..6", "window must look like 4..6"),
    ("a..7", "window bounds must be integers"),
    ("7..4", "window bounds must satisfy 1 <= lo <= hi"),
    ("0..3", "window bounds must satisfy 1 <= lo <= hi"),
])
def test_rep_stability_refuses_a_malformed_window(window, message, capsys):
    rc = run(["rep", "stability", "--spec", "typeA_R2", "--rank", "1", "--window", window])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {"type": "input", "message": message}


@pytest.mark.parametrize("argv", [
    ["dowling", "build", "--spec", "typeB", "--n", "3"],
    ["dowling", "count", "--spec", "typeB", "--n", "3"],
    ["dowling", "interval", "--spec", "typeB", "--n", "3", "--element", "0:0|0:1|0:2|Z{}"],
    ["rep", "stability", "--spec", "toricB", "--rank", "1", "--window", "2..3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_negative_cap_is_an_input_error(argv, capsys):
    rc = run(argv + ["--cap", "-5"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == {
        "type": "input", "message": "cap must be nonnegative, got -5"}
    # a cap of 0 is a cap: the first rank refuses
    rc = run(argv + ["--cap", "0"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert _single_json_error(err)["message"] == "element cap 0 exceeded while enumerating rank 1"


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


def _stirling_levels(top: int) -> dict:
    """{n: [S(n, n - r) for r < n]} for n <= top: the rank level sizes of
    Pi_n, from the rows of the Stirling triangle."""
    levels, row = {}, [1]  # row[k] = S(m, k)
    for m in range(1, top + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
        levels[m] = [row[m - r] for r in range(m)]
    return levels


def _cap_outcome(space, window: list[int], cap: int):
    try:
        _check_window_cap(space.group, space.orbit_data, window, cap)
    except CapExceeded as exc:
        return str(exc), exc.partial_count
    return None


@pytest.mark.parametrize("spec", SPACES)
def test_window_cap_matches_the_enumerated_levels(spec):
    space = space_from_json(_space_json(spec))
    top = {"dowling_mu3": 4}.get(spec, 7 if spec in PARTITION_LATTICE_SPACES else 5)
    levels = {n: [len(level) for level in enumerate_levels(
                  spec_from_orbit_data(space.group, space.orbit_data, n), cap=10**6)]
              for n in range(1, top + 1)}
    if spec == "typeA_R2":
        # past the sizes enumerated here, the Stirling rows give the levels
        assert _stirling_levels(top) == levels
        levels = _stirling_levels(14)
    caps = {-1, 0} | {sum(sizes[:r + 1]) + d for n, sizes in levels.items() if n <= 12
                      for r in range(len(sizes)) for d in (-1, 0, 1)}
    for lo in levels:
        for hi in range(lo, max(levels) + 1):
            window = list(range(lo, hi + 1))
            for cap in sorted(caps):
                assert (_cap_outcome(space, window, cap)
                        == levels_outcome(levels, window, cap)), (window, cap)
    # D_1 with no rank-1 element has no level to check, so no cap refuses it
    assert (_cap_outcome(space, [1], 0) is None) == (levels[1] == [1])


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


@pytest.mark.parametrize("spec, rank", [("typeA_R2", 287), ("toricB", 266)])
def test_a_late_refusal_counts_one_n(spec, rank, capsys):
    # summing the rank levels of every n up to the top took 30-40 s
    cap = 10**600
    start = time.perf_counter()
    assert run(["rep", "stability", "--spec", spec, "--rank", "1", "--window", "4..400",
                "--cap", str(cap)]) == 1
    assert time.perf_counter() - start < 5
    error = _single_json_error(capsys.readouterr().err)
    assert error["message"] == f"element cap {cap} exceeded while enumerating rank {rank}"
    if spec == "typeA_R2":
        assert ((error["message"], error["partialCount"])
                == levels_outcome(_stirling_levels(400), list(range(4, 401)), cap))


@pytest.mark.parametrize("spec", ["typeA_R2", "toricB"])
def test_the_cap_check_holds_nothing_of_size_n(spec):
    # one list of length n per Stirling diagonal took 52 MB at n = 10**6
    space = space_from_json(_space_json(spec))
    n = 10**6
    tracemalloc.start()
    try:
        outcomes = [_cap_outcome(space, [n], cap) for cap in (DEFAULT_CAP, 10**20)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
    assert [message for message, _ in outcomes] == [
        f"element cap {cap} exceeded while enumerating rank {r}"
        for cap, r in ((DEFAULT_CAP, 1), (10**20, 2))]
    if spec == "typeA_R2":  # Pi_n: S(n, n-1) = C(n, 2), S(n, n-2) = C(n, 3) (3n - 5) / 4
        rank_one = 1 + comb(n, 2)
        assert [count for _, count in outcomes] == [
            rank_one, rank_one + comb(n, 3) * (3 * n - 5) // 4]


def test_an_orbit_space_refuses_a_large_n_before_building_it(capsys):
    # the poset path enumerated all C(300, 2) 2 + 301 rank-1 elements first
    start = time.perf_counter()
    assert run(["rep", "stability", "--spec", "toricB", "--rank", "1",
                "--window", "300..300"]) == 1
    assert time.perf_counter() - start < 1
    assert _single_json_error(capsys.readouterr().err) == {
        "type": "cap", "message": "element cap 10000 exceeded while enumerating rank 1",
        "partialCount": 90001}


@pytest.mark.parametrize("lo, hi", [(WINDOW_CAP + 1, WINDOW_CAP + 1), (4, WINDOW_CAP + 1),
                                    (4, 60)])
def test_rep_stability_refuses_a_window_past_its_cap(lo, hi, capsys):
    # with --cap raised past |D_n|, nothing bounded n: toricB at 22..22
    # took 4.2 s, and each 2 n more about 3.5 times as long.  Here --cap is
    # |D_hi|, so no element count refuses.
    space = space_from_json(_space_json("toricB"))
    cap = count_elements_species(spec_from_orbit_data(space.group, space.orbit_data, hi))
    start = time.perf_counter()
    assert run(["rep", "stability", "--spec", "toricB", "--rank", "2", "--window", f"{lo}..{hi}",
                "--cap", str(cap)]) == 1
    assert time.perf_counter() - start < 1
    assert _single_json_error(capsys.readouterr().err) == {
        "type": "domain", "message": f"window cap is {WINDOW_CAP}, got {hi}"}
    # one element less, and the element cap refuses first, as before
    assert run(["rep", "stability", "--spec", "toricB", "--rank", "2", "--window", f"{lo}..{hi}",
                "--cap", str(cap - 1)]) == 1
    assert _single_json_error(capsys.readouterr().err)["type"] == "cap"


def test_a_cap_past_the_whole_window_skips_the_rank_scan(capsys, monkeypatch):
    # toricB at 4..200 with --cap 10**600 spent about 5 s scanning the
    # ranks of every n before the window cap refused.  |D_200| has 324
    # digits, so no element count can refuse: |D_0|, ..., |D_200| draw
    # Z_0, ..., Z_200 once, and no rank scan draws them again.
    drawn = []
    real = ocs.dowling._zero_block_counts

    def counted(w, orbit_data):
        drawn.append(0)
        for z in real(w, orbit_data):
            drawn[-1] += 1
            yield z

    monkeypatch.setattr(ocs.dowling, "_zero_block_counts", counted)
    assert run(["rep", "stability", "--spec", "toricB", "--rank", "1", "--window", "4..200",
                "--cap", str(10**600)]) == 1
    assert drawn == [201]
    assert _single_json_error(capsys.readouterr().err) == {
        "type": "domain", "message": f"window cap is {WINDOW_CAP}, got 200"}


def test_a_stabilizer_that_is_no_subgroup_is_refused(tmp_path, capsys):
    # Z4 has one element of order 2 and the Klein group three, so no G-set
    # of Z4 has a Klein stabilizer; its order 4 divides |Z4|, and the
    # descriptor used to load
    space = {**_space_json("toricB"), "group": {"kind": "cyclic", "order": 4},
             "orbits": [{"stabilizer": {"kind": "table", "mul": [list(r) for r in KLEIN.mul]},
                         "inT": True}]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    for argv in (["rep", "stability", "--rank", "2", "--window", "3..4"],
                 ["config", "e1", "--nmax", "3"]):
        rc = run(argv + ["--spec", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert _single_json_error(err) == {
            "type": "input",
            "message": "orbit stabilizer is not isomorphic to a subgroup of the group"}
    # the same orbit with a Z4 stabilizer, a fixed point, loads
    space["orbits"][0]["stabilizer"] = {"kind": "cyclic", "order": 4}
    path.write_text(json.dumps(space))
    assert run(["rep", "stability", "--rank", "2", "--window", "3..4", "--spec", str(path)]) == 0


@pytest.mark.parametrize("command", ["count", "build"])
def test_dowling_refuses_a_large_n_before_building_it(command, capsys):
    # the rank-1 level, all C(300, 2) 2 + 300 elements of it, used to be
    # built before the first check: about 1.7 s and 246 MB
    start = time.perf_counter()
    assert run(["dowling", command, "--spec", "typeB", "--n", "300"]) == 1
    assert time.perf_counter() - start < 1
    assert _single_json_error(capsys.readouterr().err) == {
        "type": "cap", "message": "element cap 10000 exceeded while enumerating rank 1",
        "partialCount": 90001}


def _rep_stability_report(rank: int, window: str, capsys, spec: str = "typeA_R2",
                          cap: int = 5000000) -> dict:
    assert run(["rep", "stability", "--spec", spec, "--rank", str(rank),
                "--window", window, "--cap", str(cap)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rep_stability_on_pi_n_is_stable_from_3r_plus_1(rank, capsys):
    # past the Bell(10) = 115975 elements the poset path cannot reach
    stable = _rep_stability_report(rank, f"{3 * rank + 1}..12", capsys)
    assert stable["stable"] is True and stable["firstViolation"] is None
    early = _rep_stability_report(rank, f"{3 * rank}..12", capsys)
    assert early["stable"] is False and early["firstViolation"] == 3 * rank + 1


@pytest.mark.parametrize("spec, onset", [
    ("toricB", 11), ("dowling_mu3", 11), ("rp2free", 11), ("typeA_R2_punctured", 10),
])
def test_rank_three_multiplicities_settle_past_the_poset_sizes(spec, onset, capsys):
    # D_14 of toricB has about 10^11 elements; the poset path ended at n = 7
    space = space_from_json(_space_json(spec))
    cap = count_elements_species(spec_from_orbit_data(space.group, space.orbit_data, 14))
    start = time.perf_counter()
    early = _rep_stability_report(3, f"{onset - 1}..14", capsys, spec, cap)
    assert time.perf_counter() - start < 3
    assert early["stable"] is False and early["firstViolation"] == onset
    stable = _rep_stability_report(3, f"{onset}..14", capsys, spec, cap)
    assert stable["stable"] is True and stable["firstViolation"] is None


def test_rep_stability_at_a_huge_rank_is_empty(capsys):
    # every rank > n gives the zero character, with nothing of size r built
    for spec in ("typeA_R2", "toricB"):
        rc = run(["rep", "stability", "--spec", spec, "--rank", "1000000000",
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


NOT_ITS_SPEC = {
    "type": "input",
    "message": "the poset does not match its 'dowling' spec; build it with 'ocs dowling build'"}


@pytest.mark.parametrize("rank", range(4))
def test_rep_rejects_covers_that_do_not_match_the_elements(tmp_path, capsys, rank):
    # rank 1 used to print a character, and rank 2 to escape as a KeyError
    # traceback from the open-interval action; later, each rank was refused
    # as a permutation that is not order-preserving
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
    assert _single_json_error(err) == NOT_ITS_SPEC


def test_rep_decompose_builds_no_order_complex(tmp_path, capsys, monkeypatch):
    # the characters used to come from the order complexes of every lower
    # interval and the element permutation of every cycle type
    called = []
    for module in (ocs.cli, ocs.homology, ocs.symrep):
        for name in ("reduced_homology", "order_complex_chains", "sym_class_poset_perms",
                     "whitney_character"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                                    called.append(name) or real(*a, **k))
    for spec in POSET_SPECS:
        path = tmp_path / f"{spec}-4.json"
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(path)]) == 0
        assert run(["rep", "decompose", "--poset", str(path)]) == 0
        assert run(["rep", "decompose", "--rank", "2", "--poset", str(path)]) == 0
    assert called == []
    # an antichain is no cone, so its order complex is reduced
    path.write_text(json.dumps({"n": 2, "covers": []}))
    assert run(["poset", "homology", "--poset", str(path)]) == 0
    assert "reduced_homology" in called and "order_complex_chains" in called


def test_rep_decompose_of_an_unranked_poset_is_an_input_error(tmp_path, capsys):
    # without --rank, a poset file with no "rank" used to escape as a
    # TypeError; D_n has rank labels, so a file without them is not D_n
    path = tmp_path / "typeB-2.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "2", "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    del built["rank"]
    path.write_text(json.dumps(built))
    capsys.readouterr()
    rc = run(["rep", "decompose", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == NOT_ITS_SPEC


def test_rep_rejects_elements_not_closed_under_the_action(tmp_path, capsys):
    # distinct valid elements whose S_n images leave the list: two of the
    # five elements of Pi_3
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "rank": [0, 1], "dowling": {
        "spec": {**PARTITION_N2, "n": 3},
        "elements": ["0:0|0:1|0:2|Z{}", "0:0,0:1|0:2|Z{}"],
    }}))
    rc = run(["rep", "decompose", "--rank", "1", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == NOT_ITS_SPEC


@pytest.mark.parametrize("n", [3, 100000])
def test_the_check_counts_no_d_n_larger_than_the_file(n, tmp_path, capsys):
    # a D_n larger than the file is refused from its counts; counting all
    # of |D_100000| would take minutes
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "rank": [0, 1], "dowling": {
        "spec": {**PARTITION_N2, "n": n}, "elements": ["0:0|0:1|0:2|Z{}", "0:0,0:1,0:2|Z{}"]}}))
    start = time.perf_counter()
    rc = run(["rep", "decompose", "--poset", str(path)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == NOT_ITS_SPEC if n == 3 else {
        "type": "input", "message": "blocks and zero block must partition the ground set"}


def _permuted(built: dict, seed: int) -> dict:
    """The same poset file with its elements, and its cover list, in a
    seed-chosen order."""
    rng = random.Random(seed)
    order = list(range(built["n"]))  # new index i holds old element order[i]
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    covers = [[new_index[a], new_index[b]] for a, b in built["covers"]]
    rng.shuffle(covers)
    return {**built, "covers": covers, "rank": [built["rank"][old] for old in order],
            "dowling": {**built["dowling"],
                        "elements": [built["dowling"]["elements"][old] for old in order]}}


def _decompose_matches_the_poset_oracle(path: Path, spec: DowlingSpec, capsys) -> None:
    """`rep decompose` on the built file, at every rank, on its own and as a
    file in another order, against the Whitney characters of the poset
    path (`whitney_character` on `sym_class_poset_perms`)."""
    built = json.loads(path.read_text())
    shuffled = path.with_name("permuted-" + path.name)
    shuffled.write_text(json.dumps(_permuted(built, spec.n)))
    n = spec.n
    chars = poset_characters(spec, range(n + 4))
    for rank in [None, *range(n + 2), n + 3]:
        ranks = sorted(set(built["rank"])) if rank is None else [rank]
        expected = {"action": "sym", "n": n, "ranks": [
            {"rank": r,
             "character": [[list(mu), int(v)] for mu, v in chars[r].values],
             "multiplicities": [[list(lam), m] for lam, m in sorted(decompose(chars[r]).items())]}
            for r in ranks]}
        outs = []
        for file in (path, shuffled):
            argv = ["rep", "decompose", "--poset", str(file)]
            assert run(argv + ([] if rank is None else ["--rank", str(rank)])) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outs.append(out)
        assert json.loads(outs[0]) == expected, rank
        assert outs[1] == outs[0]


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in POSET_SPECS for n in range(5)]
                         + [("partition", 5)])
def test_rep_decompose_matches_the_poset_oracle(spec, n, tmp_path, capsys):
    path = tmp_path / f"{spec}-{n}.json"
    assert run(["dowling", "build", "--spec", spec, "--n", str(n), "--out", str(path)]) == 0
    spec_obj = json.loads(path.read_text())["dowling"]["spec"]
    _decompose_matches_the_poset_oracle(path, spec_from_json(spec_obj), capsys)


# each orbit is the cosets of a subgroup, neither trivial nor the whole
# group, given by its elements, with its in-T flag
STABILIZERS_STRICTLY_BETWEEN = [
    pytest.param(cyclic_group(4), [([0, 2], True)], id="Z4-Z2-in-T"),
    pytest.param(cyclic_group(4), [([0, 2], False)], id="Z4-Z2"),
    pytest.param(KLEIN, [([0, 1], False), ([0, 2], True)], id="Klein-two-Z2"),
    pytest.param(cyclic_group(6), [([0, 3], True), ([0, 2, 4], False)], id="Z6-Z2-Z3"),
]


def _built_between(group, orbits, n: int, tmp_path) -> tuple[Path, DowlingSpec]:
    spec = DowlingSpec(group=group, gset=coset_gset(group, orbits), n=n)
    spec_path, path = tmp_path / "spec.json", tmp_path / "built.json"
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    assert run(["dowling", "build", "--spec", str(spec_path), "--out", str(path)]) == 0
    return path, spec


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("group, orbits", STABILIZERS_STRICTLY_BETWEEN)
def test_rep_decompose_on_a_stabilizer_strictly_between(group, orbits, n, tmp_path, capsys):
    path, spec = _built_between(group, orbits, n, tmp_path)
    _decompose_matches_the_poset_oracle(path, spec, capsys)


def _typeb3_with(tmp_path, edit) -> Path:
    """A built typeB n=3 file, changed by edit(built) in place."""
    path = tmp_path / "typeB-3.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "3", "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    edit(built)
    path.write_text(json.dumps(built))
    return path


def _swap_rank_one_labels(built: dict) -> None:
    # two rank-1 elements with different upper covers trade element strings,
    # so the covers no longer belong to their labels
    up = {}
    for a, b in built["covers"]:
        up.setdefault(a, set()).add(b)
    x, y = [i for i, r in enumerate(built["rank"]) if r == 1][:2]
    assert up[x] != up[y]
    labels = built["dowling"]["elements"]
    labels[x], labels[y] = labels[y], labels[x]


NOT_ITS_SPEC_EDITS = [
    pytest.param(lambda built: built["rank"].__setitem__(1, 2), id="rank-label"),
    pytest.param(_swap_rank_one_labels, id="swapped-labels"),
    # typeC: T = {0, 1}, so the typeB elements are a part of its D_3
    pytest.param(lambda built: built["dowling"]["spec"]["gset"].__setitem__("T", [0, 1]),
                 id="spec-with-more-elements"),
]


@pytest.mark.parametrize("edit", NOT_ITS_SPEC_EDITS)
def test_rep_decompose_refuses_a_poset_that_is_not_its_spec(edit, tmp_path, capsys):
    path = _typeb3_with(tmp_path, edit)
    capsys.readouterr()
    for rank in ([], ["--rank", "1"]):
        rc = run(["rep", "decompose", "--poset", str(path), *rank])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert _single_json_error(err) == NOT_ITS_SPEC


# the two commands that answer a D_n file from one Mobius row
POSET_COMMANDS = [["poset", "whitney"], ["poset", "homology", "--proper"]]


def _order_complex_answers(path: Path) -> list:
    """(exit code, JSON output or error) of each of POSET_COMMANDS on the
    poset of a file, computed from order complexes: `whitney_homology`,
    and `reduced_homology` of `proper_part`."""
    p = poset_from_json(json.loads(path.read_text()))
    whitney = {"whitney": [[r, k, d] for (r, k), d in sorted(whitney_homology(p).items())]}
    try:
        betti = reduced_homology(proper_part(p))
        homology = (0, {"proper": True, "betti": [[k, r] for k, r in sorted(betti.items())]})
    except DomainError as exc:
        homology = (1, {"type": "domain", "message": str(exc)})
    return [(0, whitney), homology]


def _poset_outputs(path: Path, capsys) -> list:
    """(exit code, stdout, stderr) of each of POSET_COMMANDS on a file, in
    JSON and then in CSV."""
    outs = []
    for cmd in POSET_COMMANDS:
        for fmt in ("json", "csv"):
            rc = run(cmd + ["--format", fmt, "--poset", str(path)])
            outs.append((rc, *capsys.readouterr()))
    return outs


def _answers_as_the_order_complex(path: Path, capsys) -> list:
    """POSET_COMMANDS on a file give what the order complex gives for its
    poset, and the same bytes in both formats as a copy of the file with
    no `dowling` block, which every command reduces as it stands; returns
    the outputs (`_poset_outputs`)."""
    capsys.readouterr()
    outs = _poset_outputs(path, capsys)
    for (rc, out, err), expected in zip(outs[0::2], _order_complex_answers(path)):
        assert (rc, json.loads(out) if rc == 0 else _single_json_error(err)) == expected
    plain = json.loads(path.read_text())
    del plain["dowling"]
    plain_path = path.with_name("plain-" + path.name)
    plain_path.write_text(json.dumps(plain))
    assert _poset_outputs(plain_path, capsys) == outs
    return outs


def _spec_path_matches_the_order_complex(path: Path, capsys) -> None:
    """_answers_as_the_order_complex, and a copy of the file in another
    order gives the same bytes."""
    outs = _answers_as_the_order_complex(path, capsys)
    built = json.loads(path.read_text())
    shuffled = path.with_name("permuted-" + path.name)
    shuffled.write_text(json.dumps(_permuted(built, built["n"])))
    assert _poset_outputs(shuffled, capsys) == outs


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in POSET_SPECS for n in range(5)]
                         + [("partition", 5)])
def test_poset_commands_match_the_order_complex(spec, n, tmp_path, capsys):
    path = tmp_path / f"{spec}-{n}.json"
    assert run(["dowling", "build", "--spec", spec, "--n", str(n), "--out", str(path)]) == 0
    _spec_path_matches_the_order_complex(path, capsys)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("group, orbits", STABILIZERS_STRICTLY_BETWEEN)
def test_poset_commands_on_a_stabilizer_strictly_between(group, orbits, n, tmp_path, capsys):
    path, _ = _built_between(group, orbits, n, tmp_path)
    _spec_path_matches_the_order_complex(path, capsys)


@pytest.mark.parametrize("block", MALFORMED_DOWLING_BLOCKS)
def test_poset_commands_fall_back_on_a_malformed_dowling_block(block, tmp_path, capsys):
    # rep decompose refuses these files; the poset commands reduce them
    path = _two_chain_with(block, tmp_path)
    assert [rc for rc, _ in _order_complex_answers(path)] == [0, 0]
    _answers_as_the_order_complex(path, capsys)


@pytest.mark.parametrize("edit", NOT_ITS_SPEC_EDITS)
def test_poset_commands_fall_back_on_a_poset_that_is_not_its_spec(edit, tmp_path, capsys):
    path = _typeb3_with(tmp_path, edit)
    # typeB n = 3 has no top, so the proper part is refused with exit 1
    assert [rc for rc, _ in _order_complex_answers(path)] == [0, 1]
    _answers_as_the_order_complex(path, capsys)


def test_poset_commands_on_a_built_file_build_no_order_complex(tmp_path, capsys, monkeypatch):
    called, rows = [], []
    real = ocs.homology.order_complex_chains
    monkeypatch.setattr(ocs.homology, "order_complex_chains",
                        lambda *a, **k: called.append(1) or real(*a, **k))
    # nor a Mobius row: the Whitney numbers come from the spec's product
    real_row = ocs.posets._mobius_row
    for module in (ocs.posets, ocs.homology):
        monkeypatch.setattr(module, "_mobius_row",
                            lambda *a, **k: rows.append(1) or real_row(*a, **k))
    for spec in POSET_SPECS:
        path = tmp_path / f"{spec}-4.json"
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(path)]) == 0
        assert run(["poset", "whitney", "--poset", str(path)]) == 0
        # typeB, typeC and typeD have no top: refused before any chain
        assert run(["poset", "homology", "--proper", "--poset", str(path)]) == (
            0 if spec in ("dowling_z2", "dowling_z3", "partition") else 1)
    assert called == [] and rows == []
    built = json.loads(path.read_text())
    del built["dowling"]
    path.write_text(json.dumps(built))
    assert run(["poset", "whitney", "--poset", str(path)]) == 0
    assert called and rows


def _closures_built(monkeypatch) -> list[int]:
    """The sizes of the posets whose order closure `Poset.leq` is built on
    first read from here on; a closure handed in by its constructor is not
    counted."""
    built = []
    build = ocs.posets.Poset.leq.func
    spy = cached_property(lambda p: built.append(p.n_elems) or build(p))
    spy.__set_name__(ocs.posets.Poset, "leq")
    monkeypatch.setattr(ocs.posets.Poset, "leq", spy)
    return built


def test_dowling_paths_build_no_order_closure(tmp_path, capsys, monkeypatch):
    built, ordered = _closures_built(monkeypatch), []
    # nor any pass that needs a topological order: a closure that from_covers
    # builds and hands in, or geq
    real = ocs.posets._topo_order
    monkeypatch.setattr(ocs.posets, "_topo_order", lambda n, hasse: ordered.append(n)
                        or real(n, hasse))
    for spec in POSET_SPECS:
        path = tmp_path / f"{spec}-4.json"
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(path)]) == 0
        assert run(["poset", "whitney", "--poset", str(path)]) == 0
        assert run(["rep", "decompose", "--poset", str(path)]) == 0
        # typeB, typeC and typeD have no top: refused before any chain
        assert run(["poset", "homology", "--proper", "--poset", str(path)]) == (
            0 if spec in ("dowling_z2", "dowling_z3", "partition") else 1)
    assert built == [] and ordered == []
    path = tmp_path / "partition-4.json"
    assert run(["poset", "mobius", "--poset", str(path)]) == 0
    assert built
    built.clear()
    plain = json.loads(path.read_text())
    del plain["dowling"]
    path.write_text(json.dumps(plain))
    assert run(["poset", "whitney", "--poset", str(path)]) == 0
    assert built
    # the interval reads the closure of the interval, never of the whole D_n
    built.clear()
    capsys.readouterr()
    path = tmp_path / "typeB-3.json"
    assert run(["dowling", "build", "--spec", "typeB", "--n", "3", "--out", str(path)]) == 0
    d_n = json.loads(path.read_text())
    top = d_n["dowling"]["elements"][-1]
    assert run(["dowling", "interval", "--spec", "typeB", "--n", "3", "--element", top]) == 0
    assert built and d_n["n"] not in built and json.loads(capsys.readouterr().out)["isomorphic"]


def _non_canonical(text: str, mul) -> str:
    """The element string text rewritten as a valid string of the same
    element that is not canonical: every block's colors times a g other
    than the identity on the right (when the group has one), so its minimum
    is not colored by the identity; the entries of each block, the blocks
    and the Z{} entries each in reverse order."""
    e = next(x for x, row in enumerate(mul) if row == list(range(len(mul))))
    g = next((x for x in range(len(mul)) if x != e), e)
    *blocks, zero = text.split("|")
    blocks = [",".join(f"{mul[int(c)][g]}:{x}" for c, x in
                       reversed([entry.split(":") for entry in block.split(",")]))
              for block in reversed(blocks)]
    return "|".join(blocks + ["Z{" + ",".join(reversed(zero[2:-1].split(","))) + "}"])


# the commands whose answer on a D_n file comes from its spec
SPEC_COMMANDS = [["poset", "whitney"], ["poset", "homology", "--proper"], ["rep", "decompose"]]


def _rewritten(path: Path, edit) -> Path:
    """A copy of a built file with each element string text replaced by
    edit(text, mul), mul the multiplication table of its group."""
    built = json.loads(path.read_text())
    mul = built["dowling"]["spec"]["group"]["mul"]
    built["dowling"]["elements"] = [edit(t, mul) for t in built["dowling"]["elements"]]
    other = path.with_name("rewritten-" + path.name)
    other.write_text(json.dumps(built))
    return other


@pytest.mark.parametrize("spec, n", [(spec, 3) for spec in POSET_SPECS]
                         + [("dowling_z3", 4), ("partition", 5)])
def test_non_canonical_strings_give_the_same_answers(spec, n, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{spec}-{n}.json"
    assert run(["dowling", "build", "--spec", spec, "--n", str(n), "--out", str(path)]) == 0
    rewritten = _rewritten(path, _non_canonical)
    elements = json.loads(path.read_text())["dowling"]["elements"]
    changed = json.loads(rewritten.read_text())["dowling"]["elements"]
    assert sum(a != b for a, b in zip(elements, changed)) >= len(elements) // 2
    shuffled = path.with_name("permuted-" + path.name)
    shuffled.write_text(json.dumps(_permuted(json.loads(rewritten.read_text()), n)))
    capsys.readouterr()
    expected = [(run(cmd + ["--poset", str(path)]), *capsys.readouterr()) for cmd in SPEC_COMMANDS]
    assert expected[-1][0] == 0
    # the rewritten files pass the check: no order complex is reduced
    for name in ("whitney_homology", "reduced_homology"):
        monkeypatch.setattr(ocs.cli, name, lambda *a, name=name: pytest.fail(name))
    for file in (rewritten, shuffled):
        assert [(run(cmd + ["--poset", str(file)]), *capsys.readouterr())
                for cmd in SPEC_COMMANDS] == expected


def _swap(x: int, y: int, canonical: bool):
    """An edit for `_rewritten`: the strings of elements x and y trade
    places, the one that moves to x written non-canonically unless
    canonical."""
    def edit(built: dict) -> None:
        labels = built["dowling"]["elements"]
        mul = built["dowling"]["spec"]["group"]["mul"]
        labels[x], labels[y] = labels[y], labels[x]
        if not canonical:
            labels[x] = _non_canonical(labels[x], mul)
    return edit


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("x, y", [(1, 2), (1, 3), (1, 12), (4, 20), (0, 30)])
def test_a_swapped_in_string_is_not_its_spec(x, y, canonical, tmp_path, capsys):
    # typeB n = 3: 1, 2 and 3 share rank 1 but not their covers; the
    # other pairs lie at different ranks
    path = _typeb3_with(tmp_path, _swap(x, y, canonical))
    capsys.readouterr()
    rc = run(["rep", "decompose", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _single_json_error(err) == NOT_ITS_SPEC


def test_the_check_parses_no_string_of_a_built_file(tmp_path, capsys, monkeypatch):
    parsed = []
    real = ocs.cli.parse_element
    monkeypatch.setattr(ocs.cli, "parse_element",
                        lambda spec, text: parsed.append(text) or real(spec, text))
    for spec in POSET_SPECS:
        path = tmp_path / f"{spec}-4.json"
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(path)]) == 0
        for cmd in SPEC_COMMANDS:
            run(cmd + ["--poset", str(path)])
    assert parsed == []
    # only the strings that are not canonical names are parsed
    bottom = json.loads(path.read_text())["dowling"]["elements"][0]
    rewritten = _rewritten(path, lambda text, mul: _non_canonical(text, mul)
                           if text == bottom else text)
    assert run(["rep", "decompose", "--poset", str(rewritten)]) == 0
    assert parsed == [json.loads(rewritten.read_text())["dowling"]["elements"][0]] != [bottom]


def _without_its_block(tmp_path, spec: str, n: int) -> Path:
    """A built D_n file with its `dowling` block removed, so that every
    poset command reads its order complexes."""
    path = tmp_path / f"{spec}-{n}.json"
    assert run(["dowling", "build", "--spec", spec, "--n", str(n), "--cap", "100000",
                "--out", str(path)]) == 0
    built = json.loads(path.read_text())
    del built["dowling"]
    path.write_text(json.dumps(built))
    return path


def test_poset_commands_refuse_past_the_chain_cap(tmp_path, capsys, monkeypatch):
    # nothing bounded the order complex: Pi_8 without its block ran out of
    # memory in `poset homology --proper`
    path = _without_its_block(tmp_path, "partition", 5)
    anti = tmp_path / "bowtie.json"  # no cone, so plain `poset homology` reduces it
    anti.write_text(json.dumps({"n": 4, "covers": BOWTIE}))
    commands = [["whitney", "--poset", str(path)], ["homology", "--proper", "--poset", str(path)],
                ["homology", "--poset", str(anti)]]
    answers = []
    for argv in commands:
        capsys.readouterr()
        assert run(["poset", *argv]) == 0
        answers.append(capsys.readouterr().out)
    monkeypatch.setattr(ocs.homology, "CHAIN_CAP", 3)
    for argv in commands:
        capsys.readouterr()
        assert run(["poset", *argv]) == 1
        out, err = capsys.readouterr()
        error = _single_json_error(err)
        assert out == "" and error["type"] == "cap" and error["partialCount"] > 3
        assert error["message"] == (
            "chain cap 3 exceeded while counting the chains of the order complex")
    # the same files are answered again under the documented cap
    monkeypatch.undo()
    for argv, answer in zip(commands, answers):
        assert run(["poset", *argv]) == 0
        assert capsys.readouterr().out == answer


def test_pi_8_without_its_block_refuses_before_building_a_chain(tmp_path, capsys, monkeypatch):
    path = _without_its_block(tmp_path, "partition", 8)
    called = []
    monkeypatch.setattr(ocs.homology, "order_complex_chains", lambda *a: called.append(1))
    for argv in (["homology", "--proper"], ["whitney"]):
        capsys.readouterr()
        start = time.perf_counter()
        assert run(["poset", *argv, "--poset", str(path)]) == 1
        assert time.perf_counter() - start < 5
        error = _single_json_error(capsys.readouterr().err)
        assert error["type"] == "cap" and error["partialCount"] > ocs.homology.CHAIN_CAP
    assert called == []


BOWTIE = [[0, 2], [0, 3], [1, 2], [1, 3]]
CONE_TEST_POSETS = {
    "empty": {"n": 0, "covers": []},
    "one-element": {"n": 1, "covers": []},
    "antichain": {"n": 3, "covers": []},
    "bowtie": {"n": 4, "covers": BOWTIE},
    "bowtie-with-bottom": {"n": 5, "covers": BOWTIE + [[4, 0], [4, 1]]},
    "bowtie-with-top": {"n": 5, "covers": BOWTIE + [[2, 4], [3, 4]]},
}


def _poset_homology_both_formats(path: Path, capsys) -> list:
    outs = []
    for fmt in ("json", "csv"):
        assert run(["poset", "homology", "--format", fmt, "--poset", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    return outs


def _reduced_homology_both_formats(path: Path) -> list:
    p = poset_from_json(json.loads(path.read_text()))
    pairs = [[k, r] for k, r in sorted(reduced_homology(p).items())]
    return [json.dumps({"betti": pairs, "proper": False}, indent=2, sort_keys=True) + "\n",
            "".join(f"{k},{r}\n" for k, r in [("degree", "rank"), *pairs])]


@pytest.mark.parametrize("name", sorted(CONE_TEST_POSETS))
def test_poset_homology_matches_the_order_complex(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONE_TEST_POSETS[name]))
    assert _poset_homology_both_formats(path, capsys) == _reduced_homology_both_formats(path)


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in POSET_SPECS for n in range(5)])
def test_poset_homology_of_a_built_file_matches_the_order_complex(spec, n, tmp_path, capsys):
    path = tmp_path / f"{spec}-{n}.json"
    assert run(["dowling", "build", "--spec", spec, "--n", str(n), "--out", str(path)]) == 0
    assert _poset_homology_both_formats(path, capsys) == _reduced_homology_both_formats(path)


def test_poset_homology_of_a_cone_builds_no_chain(tmp_path, capsys, monkeypatch):
    # a file with a bottom or a top is a cone; Pi_7 took 8.9 s to reduce
    called = []
    real = ocs.homology.order_complex_chains
    monkeypatch.setattr(ocs.homology, "order_complex_chains",
                        lambda *a, **k: called.append(1) or real(*a, **k))
    paths = []
    for spec in POSET_SPECS:
        paths.append(tmp_path / f"{spec}-4.json")
        assert run(["dowling", "build", "--spec", spec, "--n", "4", "--out", str(paths[-1])]) == 0
    for name in ("one-element", "bowtie-with-bottom", "bowtie-with-top"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(CONE_TEST_POSETS[name]))
    for path in paths:
        _poset_homology_both_formats(path, capsys)
    assert called == []
    paths[-1].write_text(json.dumps(CONE_TEST_POSETS["bowtie"]))
    _poset_homology_both_formats(paths[-1], capsys)
    assert called


def test_dowling_count_expands_no_cover(capsys, monkeypatch):
    def no_covers(spec, elem):
        raise AssertionError("covers expanded")

    # the cover rule, as codes and as decoded elements
    monkeypatch.setattr(ocs.dowling, "_code_and_deltas", no_covers)
    monkeypatch.setattr(ocs.dowling, "covers_of", no_covers)
    for spec in POSET_SPECS:
        assert run(["dowling", "count", "--spec", spec, "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"]


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


def _run_limited(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """`python -m ocs argv` in a child under a 1 GB address-space limit, so
    an allocation of the poset's size fails there, and the child's CPU
    seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(ocs.__file__).parents[1])}
    limit = 1 << 30
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "ocs", *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


@pytest.mark.parametrize("command", ["mobius", "whitney", "homology"])
def test_a_huge_file_without_ranks_is_refused_at_once(command, tmp_path):
    # it used to allocate one cover list per element: the kernel killed the
    # process, or under a 1 GB limit it printed a MemoryError traceback after
    # 7 s.  The child runs under that limit, so a regression fails here.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10**12, "covers": []}))
    proc, cpu = _run_limited(["poset", command, "--poset", str(path)])
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert _single_json_error(proc.stderr) == {"type": "domain", "message": (
        f"closure cap is {CLOSURE_CAP} elements for a poset that is not graded by its "
        f"rank labels, got {10**12}")}
    assert cpu < 1


def _chain_file(tmp_path, n: int, ranked: bool) -> Path:
    path = tmp_path / f"chain-{n}{'-ranked' if ranked else ''}.json"
    chain = {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]}
    path.write_text(json.dumps({**chain, "rank": list(range(n))} if ranked else chain))
    return path


@pytest.mark.parametrize("ranked", [False, True], ids=["rank-less", "ranked"])
@pytest.mark.parametrize("argv", [["whitney"], ["homology", "--proper"]], ids=" ".join)
def test_a_long_chain_is_refused_by_the_chain_cap_at_once(argv, ranked, tmp_path):
    # the keys of every lower interval, or the closure of the proper part,
    # were built before the chains were counted: 13 to 17 s, or a
    # MemoryError traceback under 1 GB
    proc, cpu = _run_limited(["poset", *argv, "--poset", str(_chain_file(tmp_path, 5000, ranked))])
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    error = _single_json_error(proc.stderr)
    assert error["type"] == "cap" and error["partialCount"] > ocs.homology.CHAIN_CAP
    assert cpu < 1


def test_a_graded_file_past_the_closure_cap_is_refused_by_mobius(tmp_path):
    # a graded file escapes the cap of from_covers; its closure, built on the
    # first read, had none
    n = 30000
    proc, cpu = _run_limited(["poset", "mobius", "--poset", str(_chain_file(tmp_path, n, True))])
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert _single_json_error(proc.stderr) == {
        "type": "domain", "message": f"closure cap is {CLOSURE_CAP} elements, got {n}"}
    assert cpu < 1


def test_dowling_interval_answers_an_interval_deeper_than_the_recursion_limit():
    # the isomorphism search took one Python frame per element, so the
    # 4140-element top interval of Pi_8 printed a RecursionError traceback
    top = "0:0,0:1,0:2,0:3,0:4,0:5,0:6,0:7|Z{}"
    proc, _ = _run_limited(["dowling", "interval", "--spec", "partition", "--n", "8",
                            "--element", top])
    assert proc.returncode == 0 and proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["isomorphic"] is True and out["intervalSize"] == out["productSize"] == 4140


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
