"""Symmetric-group characters and multiplicity-stability checks.

Characters come from one sweep of Frobenius' formula (Macdonald I.7), and
class functions are decomposed against them with exact integer inner
products.

The Whitney characters of a Dowling poset D_n(G, S) come with no poset at
all (`dowling_whitney_characters`); both `rep` commands read them there.
Their values at the identity, the signless Whitney numbers
(`dowling_whitney_numbers`), answer `poset whitney` and `poset homology
--proper` on a D_n file.
Their Frobenius characteristics are the degree-(n, r) parts of the paper's
product factorization read S_n-equivariantly: the plethystic exponential of
the colored blocks, sgn (x) Lie_b in degree b - 1 (Lehrer-Solomon 1986;
Wachs 2007), times one zero-block factor per orbit.  Read at one
permutation, that product factors by cycle length into binomial series,
and the character value is the t^r coefficient of a product of integer
polynomials, Lehrer's (Lehrer 1987) for the partition lattice.

The poset path, `whitney_character` on the element permutations of
`sym_class_poset_perms`, is the oracle of the product in the tests: one
Mobius row of each permutation's fixed points, refused whenever interval
homology is not concentrated in its expected degree, so a character is
never fabricated from an alternating sum.  Its order complexes make it
exponential, so no command takes it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .dowling import DowlingSpec, _wreath_act
from .errors import DomainError, InputError
from .groups import GroupTable, WreathElement, _Value
from .homology import _check_automorphism, _interval_tables
from .posets import Poset, _mobius_above

__all__ = [
    "check_partition",
    "partitions_of",
    "character_table",
    "ClassFunction",
    "decompose",
    "sym_class_poset_perms",
    "whitney_character",
    "dowling_whitney_characters",
    "dowling_whitney_numbers",
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


def _times_power_sum(terms: dict, r: int) -> dict:
    """{beta: c} (a beta-set as an int, bit b set for beta-number b: beads
    on an abacus, James-Kerber 2.7) for sum_beta c a_beta times p_r: a bead
    moves from b to b + r, with the sign (-1)^(beads jumped); a move onto a
    bead cancels."""
    out: dict[int, int] = {}
    for beta, coeff in terms.items():
        movable = beta & ~(beta >> r)  # beads b with no bead at b + r
        while movable:
            low = movable & -movable  # 1 << b
            movable ^= low
            high = low << r
            jumped = (beta & (high - (low << 1))).bit_count()  # beads strictly between
            new = beta ^ low | high
            out[new] = out.get(new, 0) + (-coeff if jumped & 1 else coeff)
    return {beta: c for beta, c in out.items() if c}


@lru_cache(maxsize=None)
def character_table(m: int):
    """{lam: {mu: chi^lam(mu)}} over all partitions of m: chi^lam(mu) is the
    coefficient of a_(lam + delta) in a_delta p_mu, delta = (m-1, ..., 0)
    (Frobenius; Macdonald, *Symmetric Functions and Hall Polynomials*, I.7).
    One depth-first sweep shares the products of common leading parts."""
    parts = partitions_of(m)
    table = {lam: dict.fromkeys(parts, 0) for lam in parts}
    lam_of = {sum(1 << (a + m - 1 - i) for i, a in enumerate(lam + (0,) * (m - len(lam)))): lam
              for lam in parts}
    products = [{(1 << m) - 1: 1}]  # products[k]: a_delta p_(mu[:k])
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


class ClassFunction(_Value):
    """An exact class function on the degree-m symmetric group, stored by
    conjugacy class (cycle type partition)."""

    __slots__ = _fields = ("m", "values")

    def __init__(self, m: int, values: tuple[tuple[tuple[int, ...], Fraction], ...]):
        self.m, self.values = m, values
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


def sym_class_poset_perms(spec: DowlingSpec, elements) -> dict:
    """For each cycle type of the degree-n symmetric group, the induced
    permutation of the poset's elements (restricting the wreath action to
    identity colors), as a tuple: element i goes to element perm[i].

    Only the n-1 adjacent transpositions act on the elements, one
    `_wreath_act` sweep each; they generate the group, so they check its
    closure.  The cycle (s ... s+k-1) of a cycle type is
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
        InputError: if p is unranked, or some permutation is not an
            automorphism of p.
        DomainError: if some rank-r lower interval has homology spread over
            several degrees, where a single Lefschetz number cannot be
            attributed to one of them.
    """
    if p.rank is None:
        raise InputError("whitney character needs a ranked poset")
    for perm in class_perms.values():
        _check_automorphism(p, perm)
    bottom = p.bottom()
    level = [x for x in range(p.n_elems) if p.rank[x] == r]
    tables = _interval_tables(p, [x for x in level if x != bottom])
    if any(set(table) - {r} for table in tables.values()):
        raise DomainError("lower-interval homology is not concentrated; character refused")
    sign = (-1) ** r
    values = {}
    for mu, perm in class_perms.items():
        row = _mobius_above(p, [x for x in range(p.n_elems) if perm[x] == x and x != bottom])
        values[mu] = sum(1 if x == bottom else sign * row[x] for x in level if perm[x] == x)
    return ClassFunction.from_dict(m, values)


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


def _roots(group: GroupTable, d: int) -> int:
    """r_d(group) = #{g in group : g^d = 1}."""
    powers = [group.identity] * group.order
    for _ in range(d):
        powers = [group.mul[x][g] for g, x in enumerate(powers)]
    return powers.count(group.identity)


def _times(p: list[int], q: list[int], r: int) -> list[int]:
    """p q cut at t^r, for polynomials in t given by r + 1 coefficients."""
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(r + 1)]


def _cycle_factor(group: GroupTable, orbit_data, j: int, r: int, nmax: int) -> list[list[int]]:
    """[V_j(0), ..., V_j(nmax // j)] of `dowling_whitney_characters`, each
    cut at t^r: the factor that i cycles of length j contribute."""
    w = group.order
    a = [0] * (r + 1)
    for d in range(1, j + 1):
        mu = _moebius(d) if j % d == 0 else 0
        if mu and j - j // d <= r:
            a[j - j // d] += mu * _roots(group, d) * (-1) ** (j // d - 1)
        if mu and j <= r:
            a[j] += mu * sum(w // h.order * _roots(h, d) for h, _ in orbit_data)
    v = [[1] + [0] * r]
    for s in range(nmax // j):
        f = a.copy()
        if j <= r:
            f[j] += s * j * w
        v.append([(-1) ** (j - 1) * x for x in _times(v[-1], f, r)])
    for h, in_t in orbit_data if j == 1 else ():
        if not in_t:  # (1 - t p_1), with p_1 -> (w/|H|) p_1
            v = [v[0]] + [[x - i * (w // h.order) * y for x, y in zip(v[i], [0] + v[i - 1])]
                          for i in range(1, len(v))]
    return v


def dowling_whitney_numbers(group: GroupTable, orbit_data, n: int) -> list[int]:
    """[w_0, ..., w_n], the signless Whitney numbers of the first kind of
    D_n(G, S), w_r = sum of |mu(bottom, x)| over the rank-r x, with no
    poset: the Whitney characters of `dowling_whitney_characters` at the
    identity, which are the coefficients of V_1(n)."""
    return _cycle_factor(group, orbit_data, 1, n, n)[n]


def dowling_whitney_characters(group: GroupTable, orbit_data, r: int,
                               nmax: int) -> dict[int, ClassFunction]:
    """{n: character of S_n on the rank-r Whitney homology of D_n(G, S)} for
    1 <= n <= nmax, with no poset; orbit_data holds one (stabilizer H, in T)
    pair per orbit of S, as `DowlingSpec.orbit_data` does.

    With w = |G| and r_d(K) = #{k in K : k^d = 1}, a block of b = dm points
    adds r_d(G) w^(m-1) (-1)^(b-m) mu(d)/b p_d^m in t-degree b - 1: sgn (x)
    Lie_b (Reutenauer 1993) times the colorings, up to translation, that a
    cycle type d^m fixes.  An orbit adds the zero-block factor fixed by the
    Mobius identity of the Dowling lattice Q_k(H), with p_j -> (w/|H|) p_j.
    Every term is a power of one p_j, so the value at lam, with m_j parts
    equal to j, is the t^r coefficient of prod_j V_j(m_j), where

        A_j(t) = sum_(d | j) mu(d) r_d(G) (-1)^(j/d - 1) t^(j - j/d)
                 + t^j sum_orbits (w/|H|) sum_(d | j) mu(d) r_d(H),
        V_j(i) = prod_(s < i) (-1)^(j-1) (A_j(t) + s j w t^j),

    and each orbit outside T, its factor (1 - t p_1), replaces V_1(i) by
    V_1(i) - i (w/|H|) t V_1(i-1).  With w = 1 and no orbits this is
    Lehrer's product for Pi_n (Lehrer 1987).  The product has degree at most
    n, so ranks r < 0 and r > n give the zero character, and every
    polynomial is cut at t^r.
    """
    factors = {j: _cycle_factor(group, orbit_data, j, r, nmax)
               for j in (range(1, nmax + 1) if 0 <= r <= nmax else ())}
    out = {}
    for n in range(1, nmax + 1):
        values = dict.fromkeys(partitions_of(n), 0)
        for lam in values if 0 <= r <= n else ():
            poly = [1] + [0] * r
            for j in set(lam):
                poly = _times(poly, factors[j][lam.count(j)], r)
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
        names: dict[tuple[int, ...], int] = {}
        for lam, c in decompose(chars[n]).items():  # lam from partitions_of: valid
            names[lam[1:]] = names.get(lam[1:], 0) + c
        named[n] = names
    ns = sorted(named)
    first_violation = next((n for n in ns[1:] if named[n] != named[ns[0]]), None)
    report = {
        "window": ns,
        "stable": first_violation is None,
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
