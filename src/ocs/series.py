"""Weighted exponential generating functions in three variables and the
first-page product factorization for orbit configuration spaces.

A series tracks coefficients c of t^n x^p y^q, where t counts configuration
size, x the stratification rank, and y the geometric homology degree.  The
weight convention divides the dimension at size n by w^n n! (w the group
order), which turns induction products into literal series multiplication
and free generators into exponentials.  Series are stored as those
dimensions d = c w^n n!, so a product is the binomial convolution
D_n = sum_k C(n, k) A_k B_(n-k) and exp the recurrence E_n = sum_{k=1..n}
C(n-1, k-1) A_k E_(n-k) of the exponential formula (Stanley, EC2 5.1).
No step divides, so first-page series stay in ints.

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
which multiplies the factor by (1 - u/c) and gives h_k - k h_{k-1}.  Both
posets are geometric lattices, so Cohen-Macaulay (Folkman 1966; Bjorner
1980): their homology lies in the top degree k - 2 only, and the Mobius
number is the homology rank.  The brute-force oracle in the tests checks
that against the built posets; it is not recomputed here.

Each diagonal factor is the exp of one packet of the summed argument, so
dividing generator factors out (stability.quotient_series) subtracts their
packets from that argument before the one exp.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError, InputError, is_int_list
from .groups import GroupTable, _Value, embeds, group_from_json

__all__ = [
    "WeightedSeries",
    "SpaceInput",
    "series_exp",
    "main_factor",
    "orbit_factor",
    "orbit_generator_dim",
    "e1_series",
    "e1_table",
    "bm_betti",
    "euler_series",
    "closed_form_euler",
    "space_from_json",
]


def _clean(poly: dict) -> dict:
    """poly without its zero entries, with integral Fractions as ints."""
    return {k: (v.numerator if type(v) is Fraction and v.denominator == 1 else v)
            for k, v in poly.items() if v}


def _convolve(a: list, b: list, n: int, shift: int = 0) -> dict:
    """sum_k C(n - shift, k - shift) A_k B_(n-k), cleaned, over
    shift <= k <= n with A_k given: the t^n part of a binomial convolution
    of t-graded lists of polynomials {(p, q): d} in x and y."""
    out: dict = {}
    for k in range(shift, min(n + 1, len(a))):
        scale = comb(n - shift, k - shift)
        for (p1, q1), x in a[k].items():
            x *= scale
            for (p2, q2), y in b[n - k].items():
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + x * y
    return _clean(out)


class WeightedSeries(_Value):
    """Truncated series sum c_{n,p,q} t^n x^p y^q, built from its exact
    weighted coefficients c and stored as the dimensions d = c * w^n * n!:
    per t-degree n <= trunc a map (p, q) -> d, an int wherever d is
    integral.  Series compare by value and, being mutable, do not hash."""

    __slots__ = _fields = ("w", "trunc", "_dims")
    __hash__ = None

    def __init__(self, w: int, trunc: int, coeffs: dict | None = None):
        if w < 1:
            raise InputError("weight must be a positive group order")
        if trunc < 0:
            raise InputError("truncation order must be nonnegative")
        graded: list[dict] = [{} for _ in range(trunc + 1)]
        for (n, p, q), c in (coeffs or {}).items():
            if n > trunc:
                raise InputError("coefficient beyond truncation order")
            if n < 0 or p < 0 or q < 0:
                raise InputError("negative exponent")
            graded[n][p, q] = c * w**n * factorial(n)
        self.w, self.trunc, self._dims = w, trunc, [_clean(poly) for poly in graded]

    @classmethod
    def _of(cls, w: int, trunc: int, graded: list[dict]) -> WeightedSeries:
        """The series whose t^n part has the nonzero dimensions graded[n]."""
        s = cls.__new__(cls)
        s.w, s.trunc, s._dims = w, trunc, graded
        return s

    def _entries(self):
        for n, poly in enumerate(self._dims):
            for (p, q), d in poly.items():
                yield (n, p, q), d

    @property
    def coeffs(self) -> dict[tuple[int, int, int], Fraction]:
        """The weighted coefficients, derived from the dimensions on read."""
        return {k: Fraction(d, self.w ** k[0] * factorial(k[0])) for k, d in self._entries()}

    def coeff(self, n: int, p: int, q: int) -> Fraction:
        d = self.unweighted_dim(n, p, q)
        return Fraction(d, self.w**n * factorial(n)) if d else Fraction(0)

    def unweighted_dim(self, n: int, p: int, q: int):
        return self._dims[n].get((p, q), 0) if 0 <= n <= self.trunc else 0

    def _compat(self, other: WeightedSeries):
        if self.w != other.w:
            raise InputError("series weight mismatch")
        if self.trunc != other.trunc:
            raise InputError("series truncation mismatch")

    def __add__(self, other: WeightedSeries) -> WeightedSeries:
        self._compat(other)
        graded = [_clean({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()})
                  for a, b in zip(self._dims, other._dims)]
        return WeightedSeries._of(self.w, self.trunc, graded)

    def __neg__(self) -> WeightedSeries:
        graded = [{k: -v for k, v in poly.items()} for poly in self._dims]
        return WeightedSeries._of(self.w, self.trunc, graded)

    def __sub__(self, other: WeightedSeries) -> WeightedSeries:
        return self + (-other)

    def __mul__(self, other: WeightedSeries) -> WeightedSeries:
        """The binomial convolution D_n = sum_k C(n, k) A_k B_(n-k)."""
        self._compat(other)
        graded = [_convolve(self._dims, other._dims, n) for n in range(self.trunc + 1)]
        return WeightedSeries._of(self.w, self.trunc, graded)

    def is_one(self) -> bool:
        return self._dims[0] == {(0, 0): 1} and not any(self._dims[1:])


def series_exp(arg: WeightedSeries) -> WeightedSeries:
    """exp of a series with zero constant term, by the exponential formula
    E_0 = 1, E_n = sum_{k=1..n} C(n-1, k-1) A_k E_(n-k)."""
    a = arg._dims
    if a[0]:
        raise InputError("exp requires zero constant term")
    e = [{(0, 0): 1}]
    for n in range(1, arg.trunc + 1):
        e.append(_convolve(a, e, n, 1))
    return WeightedSeries._of(arg.w, arg.trunc, e)


class SpaceInput(_Value):
    """A space description: Borel-Moore Betti numbers of X, the acting
    group, one (stabilizer, in-T) entry per orbit of excluded or singular
    points, and whether ordinary homology maps to Borel-Moore homology by
    zero (which makes the first page compute Betti numbers directly)."""

    __slots__ = _fields = ("betti", "group", "orbit_data", "i_acyclic", "name")

    def __init__(self, betti: tuple[int, ...], group: GroupTable,
                 orbit_data: tuple[tuple[GroupTable, bool], ...], i_acyclic: bool,
                 name: str = ""):
        self.betti, self.group, self.orbit_data = betti, group, orbit_data
        self.i_acyclic, self.name = i_acyclic, name
        if not self.betti or all(b == 0 for b in self.betti):
            raise InputError("betti table must have a nonzero entry")
        if any(b < 0 for b in self.betti):
            raise InputError("betti numbers must be nonnegative")
        for stab, _ in self.orbit_data:
            if self.group.order % stab.order != 0:
                raise InputError("orbit stabilizer order must divide the group order")
            # an orbit G/H needs H to be a subgroup of G, up to isomorphism
            if not embeds(stab, self.group):
                raise InputError("orbit stabilizer is not isomorphic to a subgroup of the group")

    @property
    def top_degree(self) -> int:
        return max(q for q, b in enumerate(self.betti) if b)

    @property
    def euler_compact(self) -> int:
        return sum((-1) ** q * b for q, b in enumerate(self.betti))


def _diagonal_argument(space: SpaceInput, sizes, trunc: int) -> WeightedSeries:
    """Sum over n in sizes of the diagonal exponents P_b(y) x^(n-1) t^n / (w n),
    whose packets have the dimensions b_q (n-1)! w^(n-1)."""
    w = space.group.order
    return WeightedSeries._of(w, trunc, [
        {(n - 1, q): b * factorial(n - 1) * w ** (n - 1) for q, b in enumerate(space.betti) if b}
        if n in sizes else {}
        for n in range(trunc + 1)
    ])


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
    against the weight, leaving |G_s| in place of |G|.  Its dimensions are
    h_k (w/|G_s|)^k."""
    stab, in_t = space.orbit_data[orbit_index]
    w = space.group.order
    dims = [orbit_generator_dim(stab, in_t, k) * (w // stab.order) ** k for k in range(trunc + 1)]
    return WeightedSeries._of(w, trunc, [{(k, 0): d} if d else {} for k, d in enumerate(dims)])


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


def _table_from_series(space: SpaceInput, s: WeightedSeries):
    d = space.top_degree
    has_orbits = bool(space.orbit_data)
    table: dict[int, dict[tuple[int, int], int]] = {n: {} for n in range(s.trunc + 1)}
    for (n, p, q), dim in s._entries():
        assert type(dim) is int and dim >= 0, (
            f"non-integer or negative dimension {dim} at {(n, p, q)}"
        )
        assert p <= n, f"entry at p={p} > n={n}"
        if not has_orbits and n >= 1:
            assert p <= n - 1, f"diagonal-only entry at p={p} >= n={n}"
        assert q <= d * n, f"entry at q={q} > d*n={d * n}"
        table[n][(p, q)] = dim
    return table


# The largest size that e1_table and stability.quotient_series compute to,
# set from a budget of 5 s per command: at 48 the slowest bundled command,
# `stability report --verify --steps 3` on toricB, takes about 1 s on a
# shared 2-core VM, and about 2 to 3.3 s at 64.
NMAX_CAP = 48


def _check_nmax_cap(nmax: int) -> None:
    if nmax < 0:
        raise InputError("nmax must be nonnegative")
    if nmax > NMAX_CAP:
        raise DomainError(f"truncation cap is {NMAX_CAP}, got {nmax}")


def e1_table(space: SpaceInput, nmax: int) -> dict[int, dict[tuple[int, int], int]]:
    """Per size n <= nmax, the map (p, q) -> dim of the first-page entry.

    Every dimension is asserted to be a nonnegative integer after
    unweighting; size 0 is the single entry (0,0) -> 1.
    """
    _check_nmax_cap(nmax)
    return _table_from_series(space, e1_series(space, nmax))


def bm_betti(space: SpaceInput, n: int) -> dict[int, int]:
    """Borel-Moore Betti numbers of the size-n orbit configuration space in
    each total degree m = p + q; valid precisely when the space is
    i-acyclic (otherwise the page carries differentials and this refuses)."""
    if n < 0:
        raise InputError("n must be nonnegative")
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


# JSON ------------------------------------------------------------------------

def space_from_json(obj) -> SpaceInput:
    """Parse {"betti":[...], "group":{...}, "orbits":[{"stabilizer":{...},
    "inT":bool}], "iAcyclic":bool}."""
    if not isinstance(obj, dict):
        raise InputError("space descriptor must be an object")
    extra = set(obj) - {"betti", "group", "orbits", "iAcyclic", "name"}
    if extra:
        raise InputError(f"unknown space descriptor fields: {sorted(extra)}")
    if not isinstance(obj.get("name", ""), str):
        raise InputError("space descriptor 'name' must be a string")
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
        name=obj.get("name", ""),
    )
