import json
import random
import re
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from ocs.errors import DomainError, InputError
from ocs.groups import cyclic_group
import ocs.series
import ocs.stability
from ocs.series import (
    SpaceInput,
    WeightedSeries,
    _diagonal_argument,
    e1_series,
    series_exp,
    space_from_json,
)
from ocs.stability import (
    LIMIT,
    Family,
    GenerationLocus,
    STEPS_CAP,
    bottom_step,
    classify_step,
    iterate_report,
    locus_from_space,
    point_norm,
    point_xy,
    quotient_series,
    remove_point,
    verify_generator_bound,
)
from helpers import taxicab_extrema

TRIV = cyclic_group(1)


def space(betti, name="", i_acyclic=True):
    return SpaceInput(
        betti=tuple(betti), group=TRIV, orbit_data=(), i_acyclic=i_acyclic, name=name
    )


R2 = space([0, 0, 1], "R2")
R3 = space([0, 0, 0, 1], "R3")


def test_locus_families_follow_nonzero_betti():
    loc = locus_from_space(space([1, 0, 2]))
    assert [f.degree for f in loc.families] == [0, 2]
    assert loc.limit_present


def test_point_geometry():
    assert point_xy(("family", 2, 1)) == (0, 2)
    assert point_xy(("family", 3, 2)) == (Fraction(1, 2), Fraction(3, 2))
    assert point_xy(LIMIT) == (1, 0)
    assert point_norm(("family", 2, 4)) == Fraction(5, 4)


def test_extrema_r2():
    ext = taxicab_extrema(locus_from_space(R2), 2)
    (m1, att1, pts1), (m2, att2, pts2) = ext
    assert m1 == 2 and att1 and pts1 == [("family", 2, 1)]
    assert m2 == Fraction(3, 2) and att2


def test_extrema_d1_tie_includes_limit():
    ext = taxicab_extrema(locus_from_space(space([1, 1])), 1)
    norm, attained, pts = ext[0]
    assert norm == 1 and attained
    assert LIMIT in pts and ("family_tail", 1, 1) in pts


def test_primary_steps_d1_to_d5():
    # the full-homology walkthrough table
    expect = {
        1: ("bounded", ("family", 1, 1), Fraction(1)),
        2: ("absolute", ("family", 2, 1), Fraction(1, 2)),
        3: ("absolute", ("family", 3, 1), Fraction(1)),
        4: ("absolute", ("family", 4, 1), Fraction(1)),
        5: ("absolute", ("family", 5, 1), Fraction(1)),
    }
    for d, (cls, pt, eps) in expect.items():
        step = iterate_report(space([1] * (d + 1)), "left", 1).steps[0]
        assert (step.classification, step.point, step.epsilon) == (cls, pt, eps)


def test_bounds_2j_and_j():
    s2 = iterate_report(R2, "left", 1).steps[0]
    assert [s2.bound(j) for j in (1, 2, 3)] == [2, 4, 6]
    s3 = iterate_report(R3, "left", 1).steps[0]
    assert [s3.bound(j) for j in (1, 2, 3)] == [1, 2, 3]
    # relation bound shifts by m * norm
    assert s2.bound(1, m=1) == 6


def test_bound_requires_absolute():
    step = iterate_report(space([1, 1]), "left", 1).steps[0]
    with pytest.raises(DomainError):
        step.bound(1)


def test_secondary_and_tertiary_steps():
    rep = iterate_report(space([1] * 6), "left", 3)
    pts = [(s.point, s.classification, s.epsilon) for s in rep.steps]
    assert pts[0] == (("family", 5, 1), "absolute", 1)
    assert pts[1] == (("family", 4, 1), "absolute", 1)
    assert pts[2] == (("family", 3, 1), "bounded", 1)
    rep4 = iterate_report(space([1] * 5), "left", 2)
    assert rep4.steps[1].point == ("family", 3, 1)
    assert rep4.steps[1].epsilon == Fraction(1, 2)


def test_left_tie_picks_leftmost():
    rep = iterate_report(space([1] * 4), "left", 2)
    tie_step = rep.steps[1]
    assert tie_step.point == ("family", 2, 1)
    assert tie_step.classification == "bounded"
    assert tie_step.slope == Fraction(0)  # -1 + epsilon with epsilon 1


def test_right_tie_goes_to_limit_and_terminates():
    rep = iterate_report(space([1, 1]), "right", 5)
    assert len(rep.steps) == 1
    step = rep.steps[0]
    assert step.point == LIMIT and step.classification == "truncated"
    assert step.terminal and step.slope == Fraction(-2)


def _remaining_points(loc, nmax=80):
    pts = [("family", f.degree, n)
           for f in loc.families for n in range(1, nmax + 1) if f.allows(n)]
    return pts + [LIMIT] if loc.limit_present else pts


@pytest.mark.parametrize("betti, variant, expect", [
    # a rightmost tie off the limit point: (0, 3) against (1/2, 3/2)
    ((0, 0, 1, 1), "right", [
        ("main(1,3)", "absolute", Fraction(1), None),
        ("main(2,3)", "truncated", Fraction(1), Fraction(-2)),
        ("main(1,2)", "absolute", Fraction(1, 3), None),
    ]),
    # at the second tie, (1/2, 3/2), the degree-4 family is trimmed past its
    # first member right of x = 1/2
    ((0, 0, 1, 1, 1), "right", [
        ("main(1,4)", "absolute", Fraction(1), None),
        ("main(1,3)", "absolute", Fraction(1, 2), None),
        ("main(2,4)", "absolute", Fraction(1, 2), None),
        ("main(3,4)", "truncated", Fraction(1), Fraction(-2)),
        ("main(2,3)", "truncated", Fraction(1), Fraction(-2)),
        ("main(1,2)", "absolute", Fraction(1, 4), None),
    ]),
    # the second tie, at (1/2, 3/2), has the corner (0, 0) strictly left of it
    ((1, 0, 0, 1, 0, 1), "left", [
        ("main(1,5)", "absolute", Fraction(2), None),
        ("main(1,3)", "bounded", Fraction(1), Fraction(0)),
        ("main(2,5)", "absolute", Fraction(2, 3), None),
        ("main(3,5)", "absolute", Fraction(1, 3), None),
        ("main(2,3)", "bounded", Fraction(1), Fraction(0)),
        ("main(4,5)", "absolute", Fraction(1, 5), None),
    ]),
])
def test_tie_steps_off_the_limit(betti, variant, expect):
    rep = iterate_report(space(betti), variant, len(expect))
    assert [(s.factor, s.classification, s.epsilon, s.slope) for s in rep.steps] == expect
    loc = locus_from_space(space(betti))
    for step in rep.steps:
        if step.slope is not None:
            # the separating line keeps every remaining point on or below it
            for pt in _remaining_points(loc):
                x, y = point_xy(pt)
                assert y <= step.y + step.slope * (x - step.x), (step.factor, pt)
        loc = remove_point(loc, step.point)


def strictly_left_points_reference(loc, x0):
    """Every locus point with x < x0, one family member at a time."""
    pts = []
    for f in loc.families:
        n = f.first
        while Fraction(n - 1, n) < x0:
            pts.append(("family", f.degree, n))
            n += 1
    return pts


def left_tie_epsilon_reference(loc, step):
    """epsilon of a leftmost tie step from every point left of it: the least
    gap/run, capped at 1."""
    ratios = [Fraction(1)]
    for pt in strictly_left_points_reference(loc, step.x):
        gap, run = step.norm - point_norm(pt), step.x - point_xy(pt)[0]
        assert gap > 0, (step.factor, pt)
        ratios.append(gap / run)
    return min(ratios)


def _check_left_ties(betti, steps):
    rep = iterate_report(space(betti), "left", steps)
    loc = locus_from_space(space(betti))
    for step in rep.steps:
        if step.classification == "bounded":
            assert step.epsilon == left_tie_epsilon_reference(loc, step), step.factor
            assert step.slope == step.epsilon - 1
        loc = remove_point(loc, step.point)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=7))
def test_left_ties_match_the_enumeration_of_every_left_point(betti):
    # only each family's first member and its last one left of x0 are read
    if not any(betti):
        betti = betti + [1]
    _check_left_ties(betti, 60)


def test_left_ties_with_a_degree_zero_family_match_the_enumeration():
    # the degree-0 family is never trimmed, so every left tie has the whole
    # family from n = 1 up to x0 to its left
    _check_left_ties((1, 0, 1, 0, 1), 300)


def test_left_ties_with_a_degree_zero_family_take_linear_time():
    # enumerating every left point took 3 s at 2000 steps and 12.5 s at 4000
    start = time.perf_counter()
    rep = iterate_report(space((1, 0, 1, 0, 1)), "left", STEPS_CAP)
    assert len(rep.steps) == STEPS_CAP and not rep.steps[-1].terminal
    assert time.perf_counter() - start < 30


def test_iterate_report_keeps_the_steps_cap():
    # space [1] stops at its first, terminal, step, so the cap itself is cheap
    assert len(iterate_report(space([1]), "left", STEPS_CAP).steps) == 1
    with pytest.raises(DomainError, match=f"steps cap is {STEPS_CAP}, got {STEPS_CAP + 1}"):
        iterate_report(space([1]), "left", STEPS_CAP + 1)


def test_degenerate_unique_limit_max():
    rep = iterate_report(space([1]), "left", 3)
    step = rep.steps[0]
    assert step.point == LIMIT and step.epsilon == 0
    assert not step.epsilon_attained and step.terminal


def test_absolute_separation_invariant():
    # every other locus point sits at norm <= M - epsilon
    for betti in [[0, 0, 1], [0, 0, 0, 1], [1, 1, 1], [0, 1, 0, 2]]:
        loc = locus_from_space(space(betti))
        step = classify_step(loc, "left")
        if step.classification != "absolute" or not step.epsilon:
            continue
        for f in loc.families:
            for n in range(1, 60):
                if not f.allows(n):
                    continue
                pt = ("family", f.degree, n)
                if pt == step.point:
                    continue
                assert point_norm(pt) <= step.norm - step.epsilon
        if step.point != LIMIT:
            assert point_norm(LIMIT) <= step.norm - step.epsilon


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_classify_step_total_on_random_spaces(betti):
    if not any(betti):
        betti = betti + [1]
    loc = locus_from_space(space(betti))
    for variant in ("left", "right"):
        step = classify_step(loc, variant)
        assert step.classification in {"absolute", "bounded", "truncated"}
        assert step.norm == point_norm(step.point)
        if step.classification == "absolute" and step.epsilon:
            assert step.epsilon > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_bottom_sweep_ends_on_its_terminal_step(betti):
    if not any(betti):
        betti = betti + [1]
    nnz = sum(1 for b in betti if b)
    rep = iterate_report(space(betti), "bottom", nnz + 2)
    # one step per corner (0, k), then the closing step
    assert [s.terminal for s in rep.steps] == [False] * nnz + [True]
    corner, closing = rep.steps[-2:]
    # the closing step lies on the last corner's separating line
    assert closing.slope == corner.slope
    assert closing.y - closing.slope * closing.x == corner.y
    loc = locus_from_space(space(betti))
    for step in rep.steps:
        loc = remove_point(loc, step.point)
        remaining = [("family", f.degree, n)
                     for f in loc.families for n in range(1, 41) if f.allows(n)]
        if loc.limit_present:
            remaining.append(LIMIT)
        for pt in remaining:
            x, y = point_xy(pt)
            assert y >= step.y + step.slope * (x - step.x), (step.factor, pt)


def test_bottom_sweep_full3():
    rep = iterate_report(space([1] * 4), "bottom", 4)
    assert [s.point for s in rep.steps] == [
        ("family", 0, 1),
        ("family", 1, 1),
        ("family", 2, 1),
        ("family", 3, 1),
    ]
    assert rep.steps[0].classification == "absolute"
    assert rep.steps[0].epsilon == Fraction(1, 2)
    assert [s.slope for s in rep.steps] == [0, -2, -4, -6]


def test_bottom_r2_slope():
    step = iterate_report(R2, "bottom", 1).steps[0]
    assert step.point == ("family", 2, 1)
    assert step.classification == "bounded" and step.slope == Fraction(-2)


def test_bottom_exhausts_corners():
    rep = iterate_report(R2, "bottom", 3)
    assert len(rep.steps) == 2  # after both corners nothing remains
    with pytest.raises(DomainError):
        bottom_step(remove_point(remove_point(locus_from_space(R2),
                                              ("family", 2, 1)),
                                 ("family", 2, 2)))


def test_bottom_step_reads_a_trimmed_family_from_its_first_member():
    # family 0 trimmed to n >= 4: the corner (0, 1)'s steepest line runs
    # through (3/4, 0), not through the removed (1/2, 0)
    loc = locus_from_space(space([1, 1]))
    for n in (1, 2, 3):
        loc = remove_point(loc, ("family", 0, n))
    step = bottom_step(loc)
    assert step.point == ("family", 1, 1) and step.slope == Fraction(-4, 3)


def test_remove_point_bookkeeping():
    loc = locus_from_space(R2)
    loc2 = remove_point(loc, ("family", 2, 1))
    assert not loc2.family(2).allows(1)
    with pytest.raises(DomainError):
        remove_point(loc2, ("family", 2, 1))
    loc3 = remove_point(loc2, LIMIT)
    assert not loc3.limit_present


@pytest.mark.parametrize("removed, pt", [
    ([], ("family", 2, 2)),
    ([("family", 2, 1)], ("family", 2, 3)),
    ([("family", 2, 1), ("family", 2, 2)], ("family", 2, 1)),
])
def test_remove_point_takes_only_the_first_remaining_member(removed, pt):
    # every step removes a family's first remaining member, so the members
    # left always form a tail
    loc = locus_from_space(R2)
    for done in removed:
        loc = remove_point(loc, done)
    with pytest.raises(DomainError):
        remove_point(loc, pt)


def test_iterate_report_validity_tag():
    rep = iterate_report(space([0, 0, 1], i_acyclic=False), "left", 1)
    assert rep.validity == "first-page only"
    assert iterate_report(R2, "left", 1).validity == "homology"


def test_variant_validation():
    with pytest.raises(InputError):
        iterate_report(R2, "sideways", 1)
    with pytest.raises(InputError):
        iterate_report(R2, "left", 0)


def test_quotient_vanishing_r2_r3():
    for sp, dmax in [(R2, 2), (R3, 1)]:
        rep = iterate_report(sp, "left", 1)
        for j in (1, 2, 3):
            ok, info = verify_generator_bound(sp, rep, 0, j, 8)
            assert ok, info
            assert info["bound"] == Fraction(j) / rep.steps[0].epsilon


def test_quotient_diagonal_inhabited_inside_bound():
    # the bound is tight for the plane: at k = 2j the diagonal is nonzero
    q = quotient_series(R2, [("family", 2, 1)], 8)
    for j in (1, 2, 3):
        k = 2 * j
        diag = 2 * k - j
        total = sum(
            c for (n, p, qq), c in q.coeffs.items() if n == k and p + qq == diag
        )
        assert total != 0


def test_quotient_of_everything_is_one():
    pts = [("family", 2, n) for n in range(1, 7)]
    assert quotient_series(R2, pts, 6).is_one()


def test_quotient_rejects_limit_point():
    with pytest.raises(InputError):
        quotient_series(R2, [LIMIT], 4)


def test_verify_rejects_a_negative_defect():
    # ROADMAP D8: j = -1 used to check a diagonal above every entry and pass
    rep = iterate_report(R2, "left", 1)
    with pytest.raises(InputError):
        verify_generator_bound(R2, rep, 0, -1, 6)


def test_bound_rejects_a_negative_defect():
    # without --verify, j = -1 used to give a generator bound of -2
    step = iterate_report(R2, "left", 1).steps[0]
    assert step.bound(0) == 0
    with pytest.raises(InputError, match="^defect j must be nonnegative, got -1$"):
        step.bound(-1)


def test_verify_requires_absolute_step():
    rep = iterate_report(space([1, 1]), "left", 1)
    with pytest.raises(DomainError):
        verify_generator_bound(space([1, 1]), rep, 0, 1, 6)


BUNDLED = {
    res.name.removesuffix(".json"): space_from_json(json.loads(res.read_text()))
    for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
    if res.name.endswith(".json")
}


def quotient_as_product(sp, points, trunc):
    """The product form that quotient_series replaced: e1_series times
    exp(-packet) per point, each packet filtered out of a size-n diagonal."""
    s = e1_series(sp, trunc)
    for _, i, n in points:
        arg = _diagonal_argument(sp, (n,), trunc)
        packet = WeightedSeries(arg.w, trunc, {k: c for k, c in arg.coeffs.items() if k[2] == i})
        s = s * series_exp(-packet)
    return s


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_quotient_equals_the_product_form(name):
    assert len(BUNDLED) == 10
    sp = BUNDLED[name]
    degrees = [i for i, b in enumerate(sp.betti) if b]
    rng = random.Random(name)
    for trunc in range(13):
        for _ in range(2):
            pts = [("family", rng.choice(degrees), rng.randint(1, trunc + 2))
                   for _ in range(rng.randint(1, 4))]
            # a repeated point, and one above the truncation order
            pts += [pts[0], ("family", rng.choice(degrees), trunc + 1)]
            rng.shuffle(pts)
            got = quotient_series(sp, pts, trunc)
            assert got.coeffs == quotient_as_product(sp, pts, trunc).coeffs, (trunc, pts)
            # the stored dimensions of a quotient stay ints
            assert all(type(got.unweighted_dim(*k)) is int for k in got.coeffs), (trunc, pts)
        assert quotient_series(sp, [], trunc).coeffs == e1_series(sp, trunc).coeffs


def test_quotient_takes_one_exp(monkeypatch):
    calls = []
    real = ocs.series.series_exp
    for module in (ocs.series, ocs.stability):
        monkeypatch.setattr(module, "series_exp", lambda arg: calls.append(arg) or real(arg),
                            raising=False)
    for sp in BUNDLED.values():
        calls.clear()
        degree = next(i for i, b in enumerate(sp.betti) if b)
        quotient_series(sp, [("family", degree, n) for n in (1, 1, 3, 9)], 8)
        assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_quotient_rejects_a_negative_truncation(name):
    # used to escape from series_exp as IndexError
    with pytest.raises(InputError, match="nmax must be nonnegative"):
        quotient_series(BUNDLED[name], [], -1)


@pytest.mark.parametrize("pt", [("family", -1, 2), ("family", 3, 2), ("family", 2, 0),
                                ("family", 2, -1)])
def test_quotient_rejects_points_off_the_families(pt):
    # degree -1 used to read betti[-1] and divide by 1, and size 0 to raise
    # ZeroDivisionError
    with pytest.raises(InputError):
        quotient_series(R2, [pt], 4)


@pytest.mark.parametrize("index", [-2, -1, 1, 5])
def test_verify_rejects_step_indices_outside_the_report(index):
    # -1 used to raise IndexError
    rep = iterate_report(R2, "left", 1)
    with pytest.raises(InputError):
        verify_generator_bound(R2, rep, index, 1, 6)


def test_classify_step_refuses_an_unknown_variant():
    with pytest.raises(InputError, match="^variant must be 'left' or 'right'$"):
        classify_step(locus_from_space(R2), "bottom")


def test_classify_step_refuses_a_maximum_that_is_only_approached():
    # the degree-0 family's norms (n - 1)/n approach 1 from below
    with pytest.raises(DomainError, match="^maximal norm is not attained in the locus$"):
        classify_step(GenerationLocus((Family(0),), False))


@pytest.mark.parametrize("variant", ["left", "right"])
def test_the_limit_point_alone_is_an_absolute_terminal_step(variant):
    step = classify_step(GenerationLocus((), True), variant)
    assert step.point == LIMIT
    assert step.classification == "absolute" and step.terminal and step.epsilon is None


def test_a_rightmost_tie_without_the_limit_point_is_refused():
    # every member of the degree-1 family has norm 1, and none is rightmost
    with pytest.raises(DomainError, match="^rightmost tie has no attained maximal point$"):
        classify_step(GenerationLocus((Family(1),), False), variant="right")


def test_verify_generator_bound_reports_a_violation():
    report = iterate_report(R2, "left", 1)
    step = report.steps[0]._replace(epsilon=Fraction(100))
    ok, info = verify_generator_bound(R2, report._replace(steps=(step,)), 0, 1, 12)
    assert not ok
    assert info["violations"] == [{"size": 2, "diagonal": 3, "dim": 1}]


def test_dividing_a_factor_out_twice_is_refused():
    report = iterate_report(R2, "left", 1)
    twice = report._replace(steps=report.steps * 2)
    with pytest.raises(DomainError, match="^" + re.escape(
            "negative dimension -1 at (1, 0, 2) after division") + "$"):
        verify_generator_bound(R2, twice, 1, 1, 12)
