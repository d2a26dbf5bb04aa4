"""Symmetric-group characters and multiplicity-stability checks.

Characters come from one sweep of Frobenius' formula (Macdonald I.7), class
functions are decomposed against them with exact integer inner products, and
Whitney homology characters of a poset with a symmetric-group action are
read off one Mobius row of each permutation's fixed points (refusing
whenever interval homology is not concentrated in its expected degree, so a
character is never fabricated from an alternating sum).

For the partition lattice Pi_n, the Whitney characters also come with no
poset at all (`partition_lattice_whitney_characters`).  Their Frobenius
characteristics are the degree-(n, r) parts of the plethystic exponential
Exp[sum_b ch(sgn (x) Lie_b) t^(b-1)] (Lehrer-Solomon 1986; Wachs 2007),
with ch Lie_b = (1/b) sum_(d | b) mu(d) p_d^(b/d) (Reutenauer 1993).  Read
at one permutation, that exponential factors by cycle length into binomial
series, and the character value is the t^r coefficient of Lehrer's integer
product (Lehrer 1987), which is what is computed.  The poset path is the
oracle of this one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .dowling import DowlingSpec, _wreath_act
from .errors import DomainError, InputError
from .groups import WreathElement
from .homology import _check_automorphism, _interval_tables
from .posets import Poset, _mobius_above

__all__ = [
    "check_partition",
    "partitions_of",
    "conjugacy_class_size",
    "character_table",
    "ClassFunction",
    "decompose",
    "strip_top_row",
    "cycle_type_permutation",
    "sym_class_poset_perms",
    "whitney_character",
    "partition_lattice_whitney_characters",
    "stable_multiplicity_check",
]


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(a) for a in lam)
    if any(a <= 0 for a in lam):
        raise InputError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of m, in reverse lexicographic order."""
    if m < 0:
        raise InputError("partition size must be >= 0")

    def gen(rest, largest):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail

    return tuple(gen(m, m))


def _z_order(mu: tuple[int, ...]) -> int:
    """Centralizer order z_mu = prod k^{m_k} m_k!."""
    z = 1
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for k, mk in counts.items():
        z *= k**mk * factorial(mk)
    return z


def conjugacy_class_size(mu) -> int:
    mu = check_partition(mu)
    return factorial(sum(mu)) // _z_order(mu)


def _times_power_sum(terms: dict, r: int) -> dict:
    """{beta: c} (beta-sets increasing) for sum_beta c a_beta times p_r: r joins
    one beta-number, with the sign (-1)^(beta-numbers jumped); a repeat cancels."""
    out: dict[tuple[int, ...], int] = {}
    for beta, coeff in terms.items():
        for j, b in enumerate(beta):
            c = b + r
            if c in beta:
                continue
            i = bisect_left(beta, c, j)
            new = beta[:j] + beta[j + 1:i] + (c,) + beta[i:]
            out[new] = out.get(new, 0) + (coeff if (i - j) % 2 else -coeff)
    return {beta: c for beta, c in out.items() if c}


@lru_cache(maxsize=None)
def character_table(m: int):
    """{lam: {mu: chi^lam(mu)}} over all partitions of m: chi^lam(mu) is the
    coefficient of a_(lam + delta) in a_delta p_mu, delta = (m-1, ..., 0)
    (Frobenius; Macdonald, *Symmetric Functions and Hall Polynomials*, I.7).
    One depth-first sweep shares the products of common leading parts."""
    parts = partitions_of(m)
    table = {lam: dict.fromkeys(parts, 0) for lam in parts}
    lam_of = {tuple(a + i for i, a in enumerate(reversed(lam + (0,) * (m - len(lam))))): lam
              for lam in parts}
    products = [{tuple(range(m)): 1}]  # products[k]: a_delta p_(mu[:k])
    prev: tuple[int, ...] = ()
    for mu in parts:
        k = 0
        while k < len(prev) and prev[k] == mu[k]:
            k += 1
        del products[k + 1:]
        for r in mu[k:]:
            products.append(_times_power_sum(products[-1], r))
        for beta, c in products[-1].items():
            table[lam_of[beta]][mu] = c
        prev = mu
    return table


@dataclass(frozen=True)
class ClassFunction:
    """An exact class function on the degree-m symmetric group, stored by
    conjugacy class (cycle type partition)."""

    m: int
    values: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        expected = set(partitions_of(self.m))
        got = [mu for mu, _ in self.values]
        if len(got) != len(set(got)):
            raise InputError("duplicate conjugacy class in class function")
        if set(got) != expected:
            raise InputError(
                f"class function must be defined on all partitions of {self.m}"
            )

    @staticmethod
    def from_dict(m: int, values: dict) -> "ClassFunction":
        items = tuple(
            sorted((check_partition(mu), Fraction(v)) for mu, v in values.items())
        )
        return ClassFunction(m=m, values=items)


def decompose(cf: ClassFunction) -> dict[tuple[int, ...], int]:
    """Multiplicities of cf against the irreducible characters.

    Raises:
        DomainError: if any multiplicity is not an integer (the input was
            not a virtual character).
    """
    table = character_table(cf.m)
    vals = dict(cf.values)
    # <cf, chi> = sum_mu cf(mu) chi(mu) / z_mu; times m! and the values'
    # common denominator, each term is an integer, m!/z_mu being a class size
    scale = factorial(cf.m) * lcm(*(v.denominator for v in vals.values()))
    weights = {mu: int(v * scale) // _z_order(mu) for mu, v in vals.items()}
    out: dict[tuple[int, ...], int] = {}
    for lam, row in table.items():
        total = sum(w * row[mu] for mu, w in weights.items())
        if total % scale:
            raise DomainError(f"non-integer multiplicity {Fraction(total, scale)} at {lam}: "
                              "not a virtual character")
        if total:
            out[lam] = total // scale
    # characters form a basis of class functions, so this must reconstruct
    for mu in vals:
        assert sum(c * table[lam][mu] for lam, c in out.items()) == vals[mu]
    return out


def strip_top_row(lam) -> tuple[int, ...]:
    lam = check_partition(lam)
    return lam[1:]


def cycle_type_permutation(mu) -> tuple[int, ...]:
    """The permutation of {0..m-1} with consecutive cycles of sizes mu."""
    mu = check_partition(mu)
    perm = []
    start = 0
    for part in mu:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(perm)


def sym_class_poset_perms(spec: DowlingSpec, elements) -> dict:
    """For each cycle type of the degree-n symmetric group, the induced
    permutation of the poset's elements (restricting the wreath action to
    identity colors), as a tuple: element i goes to element perm[i].

    Only the n-1 adjacent transpositions act on the elements, one
    `_wreath_act` sweep each; they generate the group, so they check its
    closure.  The cycle (s ... s+k-1) of a `cycle_type_permutation` is
    (s s+1)(s+1 s+2)...(s+k-2 s+k-1), one list lookup per element each.

    The elements must be valid and canonical, as build_poset and
    parse_element return them; they are not checked again.

    Raises:
        InputError: if an image of an element is not in elements.
    """
    n = spec.n
    ident = (spec.group.identity,) * n
    index = {e: i for i, e in enumerate(elements)}
    swaps = []  # swaps[i]: the element permutation of (i i+1)
    for i in range(n - 1):
        w = WreathElement(colors=ident, perm=(*range(i), i + 1, i, *range(i + 2, n)))
        images = [index.get(_wreath_act(spec, w, e)) for e in elements]
        if None in images:
            raise InputError("the elements are not closed under the symmetric group action")
        swaps.append(images)
    out = {}
    for mu in partitions_of(n):
        perm = list(range(len(elements)))
        start = 0
        for part in mu:
            for swap in reversed(swaps[start:start + part - 1]):
                perm = [swap[x] for x in perm]
            start += part
        out[mu] = tuple(perm)
    return out


def whitney_character(
    p: Poset, class_perms: dict, r: int, m: int
) -> ClassFunction:
    """Character of the symmetric-group action on the rank-r Whitney
    homology of p.

    Only elements fixed by a permutation sigma contribute (the action
    permutes the interval summands).  A fixed x contributes the trace on
    the concentrated interval homology: (-1)^r times the Lefschetz number
    of sigma on the open interval (bottom, x), which by Hall's theorem is
    mu(0^, x) in the subposet F of sigma-fixed points other than the bottom,
    with a new bottom 0^ (Stanley, *Some aspects of groups acting on finite
    posets*, JCTA 1982).  So one Mobius row of F serves every fixed x.

    Raises:
        InputError: if some permutation is not an automorphism of p.
        DomainError: if some rank-r lower interval has homology spread over
            several degrees, where a single Lefschetz number cannot be
            attributed to one of them.
    """
    return _whitney_characters(p, class_perms, [r], m)[r]


def _whitney_characters(p: Poset, class_perms: dict, ranks, m: int) -> dict[int, ClassFunction]:
    """{r: `whitney_character(p, class_perms, r, m)`} for r in ranks (None: all
    ranks of p), with one check and one Mobius row per permutation."""
    if p.rank is None:
        raise InputError("whitney character needs a ranked poset")
    for perm in class_perms.values():
        _check_automorphism(p, perm)
    bottom = p.bottom()
    rows = {
        mu: _mobius_above(p, [x for x in range(p.n_elems) if perm[x] == x and x != bottom])
        for mu, perm in class_perms.items()
    }
    ranks = sorted(set(p.rank)) if ranks is None else ranks
    levels = {r: [x for x in range(p.n_elems) if p.rank[x] == r] for r in ranks}
    tables = _interval_tables(
        p, [x for level in levels.values() for x in level if x != bottom])
    out = {}
    for r, level in levels.items():
        for x in level:
            if x != bottom and set(tables[x]) - {r}:
                raise DomainError(
                    "lower-interval homology is not concentrated; character refused"
                )
        sign = (-1) ** r
        values = {
            mu: Fraction(sum(1 if x == bottom else sign * rows[mu][x]
                             for x in level if perm[x] == x))
            for mu, perm in class_perms.items()
        }
        out[r] = ClassFunction.from_dict(m, values)
    return out


def _moebius(d: int) -> int:
    """The number-theoretic Mobius function, by trial division."""
    out, k = 1, 2
    while k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            out = -out
        k += 1
    return -out if d > 1 else out


def partition_lattice_whitney_characters(r: int, nmax: int) -> dict[int, ClassFunction]:
    """{n: character of S_n on the rank-r Whitney homology of the partition
    lattice Pi_n} for 1 <= n <= nmax, from Lehrer's product formula, with
    no poset.

    The Frobenius characteristic of the rank-r Whitney homology of Pi_n is
    the degree-(n, r) part of Exp[sum_b ch(sgn (x) Lie_b) t^(b-1)]: the
    interval below a set partition is the product of the partition lattices
    of its blocks, a block of size b contributes the top homology
    sgn (x) Lie_b of Pi_b in degree b - 1, and the blocks of equal size
    are permuted with the Koszul sign of their degrees (Lehrer-Solomon, *On
    the action of the symmetric group on the cohomology of the complement
    of its reflecting hyperplanes*, 1986; Wachs, *Poset topology: tools and
    applications*, 2007).  Here ch Lie_b = (1/b) sum_(d | b) mu(d)
    p_d^(b/d), mu the number-theoretic Mobius function (Reutenauer, *Free
    Lie algebras*, 1993), the twist by sgn multiplies p_lam by
    (-1)^(|lam| - len(lam)), and a generator of odd t-degree e enters p_k
    with the sign (-1)^((k-1) e), as in an exterior power.

    The character value at a cycle type lam is z_lam times the coefficient
    of p_lam.  Every term of the plethysm p_k[ch(sgn (x) Lie_b) t^(b-1)]
    is a power of the single p_(kd), so the exponential splits into one
    factor per cycle length j, and that factor is the binomial series
    (1 - (-1)^(j-1) t^j p_j)^(-a_j(t) / (j t^j)), with
    a_j(t) = sum_(d | j) mu(d) (-1)^(j/d - 1) t^(j - j/d).  Read at lam,
    with m_j parts equal to j, the character value is the t^r coefficient
    of

        prod_j prod_(s < m_j) (-1)^(j-1) (a_j(t) + s j t^j)

    (Lehrer, *On the Poincare series associated with Coxeter group actions
    on complements of hyperplanes*, 1987).  The product has degree n - 1,
    so ranks r < 0 and r >= n give the zero character, and every
    polynomial is cut at t^r.
    """
    out = {}
    for n in range(1, nmax + 1):
        values = dict.fromkeys(partitions_of(n), 0)
        if 0 <= r < n:
            for lam in values:
                poly = [1] + [0] * r
                for j in set(lam):
                    a = [0] * (r + 1)
                    for d in range(1, j + 1):
                        if j % d == 0 and j - j // d <= r:
                            a[j - j // d] += _moebius(d) * (-1) ** (j // d - 1)
                    sign = (-1) ** (j - 1)
                    for s in range(lam.count(j)):
                        f = a.copy()
                        if j <= r:
                            f[j] += s * j
                        poly = [sign * sum(poly[i] * f[k - i] for i in range(k + 1))
                                for k in range(r + 1)]
                values[lam] = poly[r]
        out[n] = ClassFunction.from_dict(n, values)
    return out


def stable_multiplicity_check(
    chars: dict[int, ClassFunction],
    degree: int | None = None,
    epsilon: Fraction | None = None,
) -> dict:
    """Decompose a window of characters, rename each irreducible by its
    top-row-stripped partition, and report whether the named multiplicity
    pattern is constant across the window.

    When `degree` and `epsilon` are given, also checks the size bound
    |name| <= degree/epsilon on every name that occurs.
    """
    if not chars:
        raise InputError("empty character window")
    named: dict[int, dict[tuple[int, ...], int]] = {}
    for n in sorted(chars):
        mult = decompose(chars[n])
        names: dict[tuple[int, ...], int] = {}
        for lam, c in mult.items():
            names[strip_top_row(lam)] = names.get(strip_top_row(lam), 0) + c
        named[n] = names
    ns = sorted(named)
    base = named[ns[0]]
    stable = True
    first_violation = None
    for n in ns[1:]:
        if named[n] != base:
            stable = False
            first_violation = n
            break
    report = {
        "window": ns,
        "stable": stable,
        "names": {n: dict(sorted(named[n].items())) for n in ns},
        "first_violation": first_violation,
    }
    if degree is not None and epsilon:
        bound = Fraction(degree) / epsilon
        oversized = sorted(
            {name for names in named.values() for name in names if sum(name) > bound}
        )
        report["size_bound"] = bound
        report["size_bound_ok"] = not oversized
        report["oversized_names"] = oversized
    return report
