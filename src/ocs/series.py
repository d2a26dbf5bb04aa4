"""Weighted exponential generating functions in three variables and the
first-page product factorization for orbit configuration spaces.

A series tracks coefficients of t^n x^p y^q with exact rational values,
where t counts configuration size, x the stratification rank, and y the
geometric homology degree.  The weight convention divides the dimension at
size n by w^n n! (w the group order), which turns induction products into
literal series multiplication and free generators into exponentials.

The first page of the collision spectral sequence for a space X with
Borel-Moore Betti numbers b_q factors as a product of
  * one "diagonal" factor per size n >= 1: exp of (sum_q b_q y^q) x^(n-1)
    t^n / (w n), and
  * one zero-block factor per orbit of excluded/singular points, whose t^k
    coefficient is the top homology rank h_k of the k-point single-orbit
    poset (divided by c^k k!, c = |G_s|), sitting in bidegree (k, 0).

The zero-block ranks are closed forms, with u = xt.  When the orbit lies in
T the k-point poset is the Dowling lattice Q_k(G_s), whose Mobius number
is |mu(Q_k)| = prod_{i<k} (1 + i c) (Dowling 1973), so the factor is
(1 - u)^(-1/c).  When it does not, the singleton zero blocks are missing,
which multiplies the factor by (1 - u/c) and gives h_k - k h_{k-1}.  That
these posets have homology only in the top degree k - 2, so that the
Mobius number is the homology rank, is pinned by the brute-force oracle in
the tests, not recomputed here.

Each diagonal factor is the exp of one packet of the summed argument, so
dividing generator factors out (stability.quotient_series) subtracts their
packets from that argument before the one exp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import DomainError, InputError, is_int_list
from .dowling import DowlingSpec, build_poset
from .groups import GroupTable, group_from_json, subgroup_table
from .homology import whitney_homology

__all__ = [
    "WeightedSeries",
    "SpaceInput",
    "series_one",
    "series_exp",
    "series_log",
    "main_factor",
    "orbit_factor",
    "orbit_generator_dim",
    "e1_series",
    "e1_table",
    "bm_betti",
    "euler_series",
    "closed_form_euler",
    "whitney_factorization_check",
    "space_from_json",
    "space_to_json",
]


@dataclass(frozen=True, eq=True)
class WeightedSeries:
    """Truncated series sum c_{n,p,q} t^n x^p y^q with exact rational
    coefficients; the unweighted dimension at (n,p,q) is c * w^n * n!."""

    w: int
    trunc: int
    coeffs: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.w < 1:
            raise InputError("weight must be a positive group order")
        if self.trunc < 0:
            raise InputError("truncation order must be nonnegative")
        for (n, p, q), c in list(self.coeffs.items()):
            if n > self.trunc:
                raise InputError("coefficient beyond truncation order")
            if n < 0 or p < 0 or q < 0:
                raise InputError("negative exponent")
            if c == 0:
                del self.coeffs[(n, p, q)]

    def coeff(self, n: int, p: int, q: int) -> Fraction:
        return self.coeffs.get((n, p, q), Fraction(0))

    def _compat(self, other: "WeightedSeries"):
        if self.w != other.w:
            raise InputError("series weight mismatch")
        if self.trunc != other.trunc:
            raise InputError("series truncation mismatch")

    def __add__(self, other: "WeightedSeries") -> "WeightedSeries":
        self._compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return WeightedSeries(self.w, self.trunc, out)

    def __neg__(self) -> "WeightedSeries":
        return WeightedSeries(self.w, self.trunc, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "WeightedSeries") -> "WeightedSeries":
        return self + (-other)

    def __mul__(self, other: "WeightedSeries") -> "WeightedSeries":
        self._compat(other)
        out: dict[tuple[int, int, int], Fraction] = {}
        for (n1, p1, q1), c1 in self.coeffs.items():
            for (n2, p2, q2), c2 in other.coeffs.items():
                n = n1 + n2
                if n > self.trunc:
                    continue
                k = (n, p1 + p2, q1 + q2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return WeightedSeries(self.w, self.trunc, out)

    def scale(self, r) -> "WeightedSeries":
        r = Fraction(r)
        return WeightedSeries(self.w, self.trunc, {k: v * r for k, v in self.coeffs.items()})

    def unweighted_dim(self, n: int, p: int, q: int) -> Fraction:
        return self.coeff(n, p, q) * self.w**n * factorial(n)

    def is_one(self) -> bool:
        return self.coeffs == {(0, 0, 0): Fraction(1)}


def series_one(w: int, trunc: int) -> WeightedSeries:
    return WeightedSeries(w, trunc, {(0, 0, 0): Fraction(1)})


def _power_sum(u: WeightedSeries, coeff, out: WeightedSeries) -> WeightedSeries:
    """out + sum_{k >= 1} coeff(k) u^k, for u with zero constant term."""
    term = series_one(u.w, u.trunc)
    for k in range(1, u.trunc + 1):
        term = term * u
        if not term.coeffs:
            break
        out = out + term.scale(coeff(k))
    return out


def series_exp(arg: WeightedSeries) -> WeightedSeries:
    """exp of a series with zero constant term (every term has n >= 1, so
    the sum truncates after trunc powers)."""
    if any(n == 0 for (n, _, _) in arg.coeffs):
        raise InputError("exp requires zero constant term")
    return _power_sum(arg, lambda k: Fraction(1, factorial(k)), series_one(arg.w, arg.trunc))


def series_log(s: WeightedSeries) -> WeightedSeries:
    """log of a series with constant term 1; round-trips with series_exp."""
    if s.coeff(0, 0, 0) != 1:
        raise InputError("log requires constant term 1")
    u = s - series_one(s.w, s.trunc)
    if any(n == 0 for (n, _, _) in u.coeffs):
        raise InputError("log requires constant coefficient exactly 1")
    return _power_sum(u, lambda k: Fraction((-1) ** (k + 1), k), WeightedSeries(s.w, s.trunc, {}))


@dataclass(frozen=True)
class SpaceInput:
    """A space description: Borel-Moore Betti numbers of X, the acting
    group, one (stabilizer, in-T) entry per orbit of excluded or singular
    points, and whether ordinary homology maps to Borel-Moore homology by
    zero (which makes the first page compute Betti numbers directly)."""

    betti: tuple[int, ...]
    group: GroupTable
    orbit_data: tuple[tuple[GroupTable, bool], ...]
    i_acyclic: bool
    name: str = ""

    def __post_init__(self):
        if not self.betti or all(b == 0 for b in self.betti):
            raise InputError("betti table must have a nonzero entry")
        if any(b < 0 for b in self.betti):
            raise InputError("betti numbers must be nonnegative")
        for stab, _ in self.orbit_data:
            if self.group.order % stab.order != 0:
                raise InputError("orbit stabilizer order must divide the group order")

    @property
    def top_degree(self) -> int:
        return max(q for q, b in enumerate(self.betti) if b)

    @property
    def euler_compact(self) -> int:
        return sum((-1) ** q * b for q, b in enumerate(self.betti))


def _diagonal_argument(space: SpaceInput, sizes, trunc: int) -> WeightedSeries:
    """Sum over n in sizes of the diagonal exponents P_b(y) x^(n-1) t^n / (w n)."""
    w = space.group.order
    return WeightedSeries(
        w,
        trunc,
        {
            (n, n - 1, q): Fraction(b, w * n)
            for n in sizes
            if n <= trunc
            for q, b in enumerate(space.betti)
            if b
        },
    )


def main_factor(space: SpaceInput, n: int, trunc: int) -> WeightedSeries:
    """The size-n diagonal factor exp(P_b(y) x^(n-1) t^n / (w n)); its
    single generator packet has unweighted dimension (n-1)! w^(n-1) b_q in
    bidegree (n-1, q)."""
    if n < 1:
        raise InputError("diagonal factor needs n >= 1")
    return series_exp(_diagonal_argument(space, (n,), trunc))


def orbit_generator_dim(stab: GroupTable, in_t: bool, k: int) -> int:
    """dim of the degree-k generator space of one zero-block factor: the
    reduced homology in dimension k-2 of the proper part of the k-point
    single-orbit poset, with c = |stab|.

    In T this is Dowling's |mu(Q_k(G_s))| = h_k = prod_{i<k} (1 + i c), the
    t^k coefficient of (1 - xt)^(-1/c); outside T the factor (1 - xt/c)
    removes the singleton zero blocks, leaving h_k - k h_{k-1}.  The tests
    compare both against the homology of the built posets.
    """
    h = prev = 1
    for i in range(k):
        prev, h = h, h * (1 + i * stab.order)
    return h if in_t else h - k * prev


def orbit_factor(space: SpaceInput, orbit_index: int, trunc: int) -> WeightedSeries:
    """The zero-block factor for one orbit: sum_k h_k x^k t^k/(|G_s|^k k!)
    with h_k = orbit_generator_dim; the group-change induction cancels
    against the weight, leaving |G_s| in place of |G|."""
    stab, in_t = space.orbit_data[orbit_index]
    c = stab.order
    coeffs = {}
    for k in range(trunc + 1):
        h = orbit_generator_dim(stab, in_t, k)
        if h:
            coeffs[(k, k, 0)] = Fraction(h, c**k * factorial(k))
    return WeightedSeries(space.group.order, trunc, coeffs)


def _first_page(space: SpaceInput, arg: WeightedSeries) -> WeightedSeries:
    """exp of a diagonal argument times every zero-block factor."""
    s = series_exp(arg)
    for i in range(len(space.orbit_data)):
        s = s * orbit_factor(space, i, arg.trunc)
    return s


def e1_series(space: SpaceInput, trunc: int) -> WeightedSeries:
    """The full weighted first-page series: the product of all diagonal
    factors with n <= trunc, taken as the exp of their summed arguments,
    and all zero-block factors."""
    return _first_page(space, _diagonal_argument(space, range(1, trunc + 1), trunc))


def _table_from_series(space: SpaceInput, s: WeightedSeries, nmax: int):
    w = space.group.order
    d = space.top_degree
    has_orbits = bool(space.orbit_data)
    table: dict[int, dict[tuple[int, int], int]] = {n: {} for n in range(nmax + 1)}
    for (n, p, q), c in s.coeffs.items():
        if n > nmax:
            continue
        dim = c * w**n * factorial(n)
        assert dim.denominator == 1 and dim >= 0, (
            f"non-integer or negative dimension {dim} at {(n, p, q)}"
        )
        assert p <= n, f"entry at p={p} > n={n}"
        if not has_orbits and n >= 1:
            assert p <= n - 1, f"diagonal-only entry at p={p} >= n={n}"
        assert q <= d * n, f"entry at q={q} > d*n={d * n}"
        if dim:
            table[n][(p, q)] = int(dim)
    return table


# The largest size that e1_table and stability.quotient_series compute to.
NMAX_CAP = 12


def _check_nmax_cap(nmax: int) -> None:
    if nmax > NMAX_CAP:
        raise DomainError(f"truncation cap is {NMAX_CAP}, got {nmax}")


def e1_table(space: SpaceInput, nmax: int) -> dict[int, dict[tuple[int, int], int]]:
    """Per size n <= nmax, the map (p, q) -> dim of the first-page entry.

    Every dimension is asserted to be a nonnegative integer after
    unweighting; size 0 is the single entry (0,0) -> 1.
    """
    if nmax < 0:
        raise InputError("nmax must be nonnegative")
    _check_nmax_cap(nmax)
    return _table_from_series(space, e1_series(space, nmax), nmax)


def bm_betti(space: SpaceInput, n: int) -> dict[int, int]:
    """Borel-Moore Betti numbers of the size-n orbit configuration space in
    each total degree m = p + q; valid precisely when the space is
    i-acyclic (otherwise the page carries differentials and this refuses)."""
    if not space.i_acyclic:
        raise DomainError(
            "space is not flagged i-acyclic: the first page does not compute "
            "Betti numbers; use the e1 table instead"
        )
    table = e1_table(space, n)[n]
    out: dict[int, int] = {}
    for (p, q), dim in table.items():
        out[p + q] = out.get(p + q, 0) + dim
    return dict(sorted(out.items()))


def euler_series(space: SpaceInput, nmax: int) -> list[int]:
    """Compactly-supported Euler characteristics of the size-n spaces,
    n = 0..nmax: alternating sums over the first page (invariant under the
    differentials, so valid without the i-acyclic flag)."""
    table = e1_table(space, nmax)
    out = []
    for n in range(nmax + 1):
        out.append(sum((-1) ** (p + q) * dim for (p, q), dim in table[n].items()))
    return out


def closed_form_euler(space: SpaceInput, nmax: int) -> list[int] | None:
    """prod_{i=0}^{n-1} (chi_c(X) - i w) for the free unpunctured case
    (no orbit data); None when orbit factors are present."""
    if space.orbit_data:
        return None
    chi = space.euler_compact
    w = space.group.order
    out = []
    for n in range(nmax + 1):
        val = 1
        for i in range(n):
            val *= chi - i * w
        out.append(val)
    return out


def whitney_factorization_check(spec: DowlingSpec, cap: int = 10000):
    """Compare the bigraded Whitney homology of the built poset against the
    coefficient extraction from the series product (diagonal factors with a
    single degree-0 generator, one zero-block factor per orbit of S).

    Returns (ok, mismatches); a mismatch entry carries the rank, both
    values, and the side that disagrees.  Off-diagonal Whitney buckets are
    reported as mismatches too (the series side lives on the diagonal).
    """
    poset, _ = build_poset(spec, cap=cap)
    table = whitney_homology(poset)
    n = spec.n
    orbit_data = tuple(
        (subgroup_table(spec.group, stab)[0], in_t)
        for _i, _orbit, _rep, stab, in_t in spec.orbit_info()
    )
    s = e1_series(SpaceInput((1,), spec.group, orbit_data, i_acyclic=True), n)
    mismatches = []
    for (r, k), v in sorted(table.items()):
        if k != r:
            mismatches.append(
                {"rank": r, "degree": k, "poset": v, "series": 0, "why": "off-diagonal"}
            )
    for r in range(n + 1):
        series_val = s.unweighted_dim(n, r, 0)
        assert series_val.denominator == 1
        poset_val = table.get((r, r), 0)
        if int(series_val) != poset_val:
            mismatches.append(
                {"rank": r, "degree": r, "poset": poset_val, "series": int(series_val)}
            )
    return (not mismatches), mismatches


# JSON ------------------------------------------------------------------------

def space_from_json(obj, name: str = "") -> SpaceInput:
    """Parse {"betti":[...], "group":{...}, "orbits":[{"stabilizer":{...},
    "inT":bool}], "iAcyclic":bool}."""
    if not isinstance(obj, dict):
        raise InputError("space descriptor must be an object")
    extra = set(obj) - {"betti", "group", "orbits", "iAcyclic", "name"}
    if extra:
        raise InputError(f"unknown space descriptor fields: {sorted(extra)}")
    betti = obj.get("betti")
    if not is_int_list(betti):
        raise InputError("space descriptor needs an integer list 'betti'")
    group = group_from_json(obj.get("group"))
    orbits = obj.get("orbits", [])
    if not isinstance(orbits, list):
        raise InputError("'orbits' must be a list")
    orbit_data = []
    for entry in orbits:
        if not isinstance(entry, dict) or set(entry) - {"stabilizer", "inT"}:
            raise InputError("each orbit entry is {'stabilizer':..., 'inT':...}")
        stab = group_from_json(entry.get("stabilizer"))
        in_t = entry.get("inT")
        if not isinstance(in_t, bool):
            raise InputError("orbit entry needs boolean 'inT'")
        orbit_data.append((stab, in_t))
    i_acyclic = obj.get("iAcyclic")
    if not isinstance(i_acyclic, bool):
        raise InputError("space descriptor needs boolean 'iAcyclic'")
    return SpaceInput(
        betti=tuple(betti),
        group=group,
        orbit_data=tuple(orbit_data),
        i_acyclic=i_acyclic,
        name=name or obj.get("name", ""),
    )


def space_to_json(space: SpaceInput) -> dict:
    return {
        "betti": list(space.betti),
        "group": {"kind": "table", "mul": [list(r) for r in space.group.mul]},
        "orbits": [
            {
                "stabilizer": {"kind": "table", "mul": [list(r) for r in stab.mul]},
                "inT": in_t,
            }
            for stab, in_t in space.orbit_data
        ],
        "iAcyclic": space.i_acyclic,
    }
