"""Generation loci and the iterative stabilization procedure.

The generators of the first-page algebra sit, after normalizing bidegrees by
configuration size, on a locus in [0,1] x [0,d]:

  * one parametric family {((n-1)/n, i/n) : n >= 1} per homology degree i
    with b_i != 0 (the size-n diagonal generators), and
  * the point (1, 0), which is both the accumulation point of every family
    and the location of all zero-block generators.

A stabilization step picks the point of maximal taxi-cab norm x + y.  A
unique maximum gives finite generation outright with a quantitative bound
governed by the gap to the second-largest norm; a tie is resolved toward
the leftmost point (giving generation of filtration-bounded submodules,
witnessed by a separating line of slope > -1) or the rightmost (truncated
quotients, slope < -1).  The bottom-corner sweep instead walks the corners
(0, k) upward, each with the steepest line through it that keeps the rest
of the locus on or above it.  After the last corner it takes one closing
step, at the leftmost locus point on that corner's line, and stops there:
the closing step is terminal.  All geometry is exact rational arithmetic;
the infinite families are handled by closed-form monotonicity, never by
truncation.

Every step removes the first remaining member of some family: for degree
>= 2 the norm falls strictly in n, so a maximum sits at the first member;
the degree-1 tie point, the bottom corners and the closing step's
("family", min degree, 2) are first members too.  The members left thus
always form a tail n >= first, and `remove_point` refuses any other member.

A step's bound is checked on the first page with the chosen generators
divided out (`quotient_series`): their packets leave the diagonal exponent.

PAPER.md holds only the abstract, which does not say how the sweep ends.
The closing step and its terminal mark are this module's rule; the tests
pin it for the plane (one corner, then the closing step at (1/2, 1)) and
nothing beyond that.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import DomainError, InputError
from .series import (
    SpaceInput,
    WeightedSeries,
    _check_nmax_cap,
    _diagonal_argument,
    _first_page,
)

__all__ = [
    "Family",
    "GenerationLocus",
    "StabilityStep",
    "StabilityReport",
    "locus_from_space",
    "point_xy",
    "point_norm",
    "point_factor_id",
    "classify_step",
    "bottom_step",
    "iterate_report",
    "remove_point",
    "quotient_series",
    "verify_generator_bound",
]

LIMIT = ("limit",)
# on a shared 2-core VM, `stability report` runs 20000 steps of any bundled
# space, or of Betti (1, 0, 1, 0, 1), in under 3 s and 90 MB; 40000 take 6 s
STEPS_CAP = 20000


class Family(NamedTuple):
    """The generator family {((n-1)/n, degree/n) : n >= first}."""

    degree: int
    first: int = 1

    def allows(self, n: int) -> bool:
        return n >= self.first


class GenerationLocus(NamedTuple):
    families: tuple[Family, ...]
    limit_present: bool

    def family(self, degree: int) -> Family | None:
        for f in self.families:
            if f.degree == degree:
                return f
        return None


def locus_from_space(space: SpaceInput) -> GenerationLocus:
    families = tuple(Family(degree=i) for i, b in enumerate(space.betti) if b)
    return GenerationLocus(families=families, limit_present=True)


def point_xy(pt) -> tuple[Fraction, Fraction]:
    if pt == LIMIT:
        return Fraction(1), Fraction(0)
    _, i, n = pt
    return Fraction(n - 1, n), Fraction(i, n)


def point_norm(pt) -> Fraction:
    x, y = point_xy(pt)
    return x + y


def point_factor_id(pt) -> str:
    if pt == LIMIT:
        return "limit"
    _, i, n = pt
    return f"main({n},{i})"


def _family_norm(i: int, n: int) -> Fraction:
    return Fraction(n - 1 + i, n)


def _candidates(locus: GenerationLocus):
    """Norm suprema with attainment data, enough to identify the largest and
    second-largest norms exactly.

    Yields (norm, attained, point) where point is a locus point, a
    ("family_tail", i, first) marker for a degree-1 family (all of whose
    members attain norm 1), or a ("family_sup", i) marker for a
    non-attained supremum (degree-0 families approach 1 from below).
    """
    out = []
    for f in locus.families:
        if f.degree == 0:
            out.append((Fraction(1), False, ("family_sup", 0)))
        elif f.degree == 1:
            out.append((Fraction(1), True, ("family_tail", 1, f.first)))
        else:
            for n in (f.first, f.first + 1):
                out.append((_family_norm(f.degree, n), True, ("family", f.degree, n)))
            # the rest of the family is strictly below the second value
    if locus.limit_present:
        out.append((Fraction(1), True, LIMIT))
    return out


class StabilityStep(NamedTuple):
    point: tuple
    classification: str  # "absolute" | "bounded" | "truncated"
    epsilon: Fraction | None
    epsilon_attained: bool
    slope: Fraction | None
    terminal: bool

    @property
    def x(self) -> Fraction:
        return point_xy(self.point)[0]

    @property
    def y(self) -> Fraction:
        return point_xy(self.point)[1]

    @property
    def norm(self) -> Fraction:
        return point_norm(self.point)

    @property
    def factor(self) -> str:
        return point_factor_id(self.point)

    def bound(self, j: int, m: int = 0) -> Fraction:
        """Largest size in which generators (m = 0) or relations of an
        m-generated presentation can appear, in degree-j defect from the
        stabilized diagonal: (m * norm + j) / epsilon.  A negative j is an
        InputError, a step that is not absolute a DomainError."""
        if j < 0:
            raise InputError(f"defect j must be nonnegative, got {j}")
        if self.classification != "absolute" or not self.epsilon:
            raise DomainError("quantitative bound requires an absolute step")
        return (m * self.norm + j) / self.epsilon


def classify_step(locus: GenerationLocus, variant: str = "left") -> StabilityStep:
    """One stabilization step at the maximal taxi-cab norm.

    A unique attained maximum is "absolute" with epsilon the gap to the
    second-largest norm (sup over the rest of the locus; flagged when that
    sup is only approached).  A tie picks the leftmost ("bounded", with an
    exact separating line of slope -1 + epsilon) or rightmost ("truncated",
    slope -1 - epsilon) attained point per the variant; a rightmost tie with
    no attained maximal x falls to the limit point and is terminal.
    """
    if variant not in ("left", "right"):
        raise InputError("variant must be 'left' or 'right'")
    cands = _candidates(locus)
    maxnorm = max(norm for norm, _, _ in cands)
    attaining = [pt for norm, att, pt in cands if norm == maxnorm and att]
    if not attaining:
        raise DomainError("maximal norm is not attained in the locus")

    unique = len(attaining) == 1 and attaining[0][0] != "family_tail"
    if unique:
        v0 = attaining[0]
        rest = [
            (norm, att)
            for norm, att, pt in cands
            if not (pt == v0 and norm == maxnorm)
        ]
        if not rest:
            return StabilityStep(v0, "absolute", None, False, None, True)
        second = max(norm for norm, _ in rest)
        second_attained = any(att for norm, att in rest if norm == second)
        eps = maxnorm - second
        if eps == 0:
            # the rest of the locus accumulates at the chosen norm
            return StabilityStep(v0, "absolute", Fraction(0), False, None, True)
        return StabilityStep(v0, "absolute", eps, second_attained, None, False)

    # Tie.  Concretize markers to their extreme representatives.
    reps = []
    has_tail = False
    for pt in attaining:
        if pt[0] == "family_tail":
            has_tail = True
            reps.append(("family", pt[1], pt[2]))
        else:
            reps.append(pt)
    if variant == "left":
        v0 = min(reps, key=lambda p: (point_xy(p)[0], point_factor_id(p)))
        x0 = point_xy(v0)[0]
        ratios = [Fraction(1)]
        for f in locus.families:
            # gap/run is fractional-linear in 1/n; it falls toward x0 only for
            # a degree above v0's, whose members left of x0 would outnorm v0,
            # so each family's least ratio is at its first member
            pt = ("family", f.degree, f.first)
            run = x0 - point_xy(pt)[0]
            if run <= 0:
                continue
            gap = maxnorm - point_norm(pt)
            if gap <= 0:
                raise DomainError("leftmost tie point is not leftmost")
            ratios.append(gap / run)
        eps = min(ratios)
        return StabilityStep(v0, "bounded", eps, True, Fraction(-1) + eps, False)

    # rightmost
    if LIMIT in reps:
        return StabilityStep(LIMIT, "truncated", Fraction(1), True, Fraction(-2), True)
    if has_tail:
        # only without the limit point, which would have tied at norm 1
        raise DomainError("rightmost tie has no attained maximal point")
    v0 = max(reps, key=lambda p: (point_xy(p)[0], point_factor_id(p)))
    x0 = point_xy(v0)[0]
    ratios = []
    right_of_x0 = 1 // (1 - x0) + 1  # the least n with (n-1)/n > x0
    for f in locus.families:
        # strictly-right members form the tail n > 1/(1-x0); the ratio is a
        # monotone fractional-linear function of 1/n, so its infimum over
        # the tail is min(value at the first tail member, the n -> oo limit).
        # That limit, and the limit point's ratio, is (maxnorm - 1)/(1 - x0)
        # = deg v0 - 1 >= 1 (a degree-1 maximum is the tail marker, handled
        # above), so the cap at 1 below already covers it.
        pt = ("family", f.degree, max(f.first, right_of_x0))
        gap = maxnorm - point_norm(pt)
        run = point_xy(pt)[0] - x0
        if gap <= 0:
            raise DomainError("rightmost tie point is not rightmost")
        ratios.append(gap / run)
    positive = [r for r in ratios if r > 0]
    if not positive:
        raise DomainError("no separating slope below -1 exists")
    eps = min(min(positive), Fraction(1))
    return StabilityStep(v0, "truncated", eps, True, Fraction(-1) - eps, False)


def _corner_slope(locus: GenerationLocus, k: int) -> Fraction:
    """The steepest exact slope of a line through the corner (0, k) with
    every remaining x > 0 point on or above it: min over them of (y - k)/x."""
    slopes = [Fraction(-k)]  # the limit point (1, 0)
    for f in locus.families:
        i = f.degree
        # (i - k n)/(n - 1) over n >= 2 is monotone; minimum at the first
        # member when i < k, at the n -> oo limit -k when i >= k.
        if i < k:
            n = max(2, f.first)
            slopes.append(Fraction(i - k * n, n - 1))
        else:
            slopes.append(Fraction(-k))
    return min(slopes)


def bottom_step(locus: GenerationLocus) -> StabilityStep:
    """One bottom-corner step: pick the lowest remaining corner (0, k).

    For k = 0 the corner is the unique norm minimum and the step is
    "absolute" with epsilon the gap to the second-smallest attained norm
    (typically 1/2, from the degree-0 family at size 2); for k >= 1 the
    corner generates filtration-bounded submodules: "bounded" with the
    steepest exact separating slope min over x > 0 points of (y - k)/x.

    Once no corner is left, the step closes the sweep: it takes the
    leftmost locus point on the last corner's separating line (the corner
    of the top degree k), "bounded" with that line's slope, and is marked
    terminal.  For the plane the line is y = 2 - 2x; its leftmost remaining
    point is (1/2, 1).  The line holds the whole degree-2 family and runs on
    into the limit point (1, 0), where every family accumulates, so walking
    on along it would never end; hence the step is terminal.  With lower
    families present the line is steeper and its leftmost point is the
    lowest family's size-2 member; the step is terminal all the same.
    PAPER.md holds only the abstract, which does not say how the sweep
    ends: this rule is fixed by the tests only as far as they pin it (the
    plane's two steps).

    Raises:
        DomainError: "bottom corners exhausted" when no corner is left and
            a non-corner point (a member of size >= 2, or the limit point)
            has also been removed, so the sweep has already been closed.
    """
    corner_fam = None
    for f in sorted(locus.families, key=lambda f: f.degree):
        if f.allows(1):
            corner_fam = f
            break
    if corner_fam is None:
        return _closing_step(locus)
    k = corner_fam.degree
    v0 = ("family", k, 1)
    if k == 0:
        # the corner's own family goes on at size 2
        norms = [_family_norm(f.degree, 2 if f.degree == 0 else f.first)
                 for f in locus.families]
        if locus.limit_present:
            norms.append(Fraction(1))
        return StabilityStep(v0, "absolute", min(norms), True, Fraction(0), False)
    return StabilityStep(v0, "bounded", None, True, _corner_slope(locus, k), False)


def _closing_step(locus: GenerationLocus) -> StabilityStep:
    """The terminal step after the last corner (see `bottom_step`)."""
    swept = not locus.families or not locus.limit_present or any(
        f.first > 2 for f in locus.families
    )
    if swept:
        raise DomainError("bottom corners exhausted")
    k = max(f.degree for f in locus.families)
    slope = _corner_slope(locus, k)
    # with only the corners gone every remaining point has x >= 1/2, and the
    # line y = k + slope x meets x = 1/2 at the lowest family's size-2 member
    v0 = ("family", min(f.degree for f in locus.families), 2)
    return StabilityStep(v0, "bounded", None, True, slope, True)


def remove_point(locus: GenerationLocus, pt) -> GenerationLocus:
    """The locus without pt: the limit point, or the first remaining member
    of its family, the only points a step removes.

    Raises:
        DomainError: for any other member, removed already or not.
    """
    if pt == LIMIT:
        return locus._replace(limit_present=False)
    _, i, n = pt
    fams = []
    for f in locus.families:
        if f.degree == i:
            if n != f.first:
                raise DomainError(
                    f"only the first remaining member main({f.first},{i}) can be removed"
                )
            f = f._replace(first=n + 1)
        fams.append(f)
    return locus._replace(families=tuple(fams))


class StabilityReport(NamedTuple):
    label: str
    variant: str
    steps: tuple[StabilityStep, ...]
    homology_valid: bool  # steps speak about homology itself iff i-acyclic

    @property
    def validity(self) -> str:
        return "homology" if self.homology_valid else "first-page only"


def iterate_report(
    space: SpaceInput, variant: str = "left", steps: int = 1
) -> StabilityReport:
    """Run the stabilization procedure for up to `steps` steps, each step
    removing its chosen point; stops early at a terminal step.

    The bottom sweep always ends this way: one step per corner (0, k),
    that is per nonzero Betti number, then the terminal closing step of
    `bottom_step`, so more steps than that are never taken and it never
    reaches "bottom corners exhausted"."""
    if steps < 1:
        raise InputError("steps must be >= 1")
    if steps > STEPS_CAP:
        raise DomainError(f"steps cap is {STEPS_CAP}, got {steps}")
    if variant not in ("left", "right", "bottom"):
        raise InputError("variant must be 'left', 'right', or 'bottom'")
    locus = locus_from_space(space)
    out = []
    for _ in range(steps):
        step = bottom_step(locus) if variant == "bottom" else classify_step(locus, variant)
        out.append(step)
        if step.terminal:
            break
        locus = remove_point(locus, step.point)
    return StabilityReport(
        label=space.name,
        variant=variant,
        steps=tuple(out),
        homology_valid=space.i_acyclic,
    )


def _factor_argument(space: SpaceInput, pt, trunc: int) -> WeightedSeries:
    """The packet b_i x^(n-1) t^n / (w n) that ("family", i, n) names, of
    dimension b_i (n-1)! w^(n-1)."""
    if pt == LIMIT:
        raise InputError("the limit point does not name a single series factor")
    _, i, n = pt
    b = space.betti[i] if 0 <= i < len(space.betti) else 0
    if not b:
        raise InputError(f"space has no generators in homology degree {i}")
    if n < 1:
        raise InputError(f"generator size must be >= 1, got {n}")
    w = space.group.order
    packet = {(n - 1, i): b * factorial(n - 1) * w ** (n - 1)}
    return WeightedSeries._of(w, trunc, [packet if m == n else {} for m in range(trunc + 1)])


def quotient_series(space: SpaceInput, points, trunc: int) -> WeightedSeries:
    """The first-page series with the named generator factors divided out:
    each point's packet leaves the diagonal argument, then one exp.

    Raises:
        InputError: for a negative trunc, the limit point, or a point
            outside the families.
        DomainError: past the truncation cap that e1_table also keeps.
    """
    _check_nmax_cap(trunc)
    arg = _diagonal_argument(space, range(1, trunc + 1), trunc)
    for pt in points:
        arg = arg - _factor_argument(space, pt, trunc)
    return _first_page(space, arg)


def verify_generator_bound(
    space: SpaceInput, report: StabilityReport, step_index: int, j: int, n_max: int
):
    """Brute-force confirmation of a step's generator-degree bound.

    Divides the first-page series by the factors chosen in steps
    0..step_index, then checks that on the defect-j diagonal
    p + q = norm * size - j the quotient vanishes for sizes beyond
    bound(j, 0).  Returns (ok, info).

    Raises:
        InputError: if step_index is not the index of a step in the report,
            or j is negative.
        DomainError: if the quotient has a negative dimension (the factors
            would not have been free) or the step is not absolute.
    """
    if j < 0:
        raise InputError(f"defect j must be nonnegative, got {j}")
    if not 0 <= step_index < len(report.steps):
        raise InputError(f"step index {step_index} is outside the report")
    step = report.steps[step_index]
    if step.classification != "absolute" or not step.epsilon:
        raise DomainError("bound verification requires an absolute step")
    q = quotient_series(space, [s.point for s in report.steps[: step_index + 1]], n_max)
    diagonals: dict[tuple[int, int], int] = {}  # (size, p + q) -> dim
    for (n, p, qq), dim in sorted(q._entries()):
        if dim < 0:
            raise DomainError(f"negative dimension {dim} at {(n, p, qq)} after division")
        diagonals[n, p + qq] = diagonals.get((n, p + qq), 0) + dim
    bound = step.bound(j, 0)
    norm = step.norm
    violations = []
    for size in range(1, n_max + 1):
        diag = norm * size - j
        if diag.denominator != 1 or diag < 0:
            continue
        total = diagonals.get((size, int(diag)), 0)
        if size > bound and total != 0:
            violations.append({"size": size, "diagonal": int(diag), "dim": int(total)})
    return (not violations), {
        "bound": bound,
        "norm": norm,
        "epsilon": step.epsilon,
        "violations": violations,
        "sizes_checked": n_max,
    }
