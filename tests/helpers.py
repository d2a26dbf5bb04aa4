"""Constructions that the tests use as fixtures and oracles and that no
`ocs` command needs: the wreath group law, the Boolean lattice, Hall's
Euler characteristic of a whole poset, the series unit and logarithm, a
space written back as JSON, the taxi-cab extrema of a locus, class sizes,
cycle-type permutations and top-row stripping; the rank of a Dowling
element and the element counts of D_n as direct sums of binomials;
`from_covers` as it was before graded lists skipped the closure; and the
closure of a direct product by the product formula, as `direct_product`
handed it in before it was left to `Poset.leq`.
"""

from fractions import Fraction
from itertools import count
from math import comb, factorial

from ocs.errors import DomainError, InputError
from ocs.groups import GroupTable, WreathElement
from ocs.homology import _hall_euler
from ocs.posets import Poset, _bits, _topo_order, from_covers
from ocs.series import SpaceInput, WeightedSeries, _clean, _convolve
from ocs.stability import GenerationLocus, _candidates
from ocs.symrep import _z_order, check_partition


def wreath_identity(group: GroupTable, n: int) -> WreathElement:
    return WreathElement(colors=(group.identity,) * n, perm=tuple(range(n)))


def wreath_compose(group: GroupTable, w2: WreathElement, w1: WreathElement) -> WreathElement:
    """Compose two wreath elements (w1 applied first)."""
    if w1.n != w2.n:
        raise InputError("wreath element length mismatch")
    perm = tuple(w2.perm[w1.perm[i]] for i in range(w1.n))
    colors = tuple(group.mul[w2.colors[w1.perm[i]]][w1.colors[i]] for i in range(w1.n))
    return WreathElement(colors=colors, perm=perm)


def wreath_inverse(group: GroupTable, w: WreathElement) -> WreathElement:
    inv_perm = [0] * w.n
    for i, j in enumerate(w.perm):
        inv_perm[j] = i
    colors = tuple(group.inv[w.colors[inv_perm[j]]] for j in range(w.n))
    return WreathElement(colors=colors, perm=tuple(inv_perm))


def boolean_lattice(k: int) -> Poset:
    """Subsets of a k-set ordered by inclusion; element index = subset bitmask."""
    covers = []
    for s in range(1 << k):
        for i in range(k):
            if not s >> i & 1:
                covers.append((s, s | 1 << i))
    rank = tuple(bin(s).count("1") for s in range(1 << k))
    return from_covers(1 << k, covers, rank=rank)


def reduced_euler_characteristic(p: Poset) -> int:
    """Euler characteristic of the reduced order complex, by Hall's theorem."""
    return _hall_euler(p, range(p.n_elems))


def series_one(w: int, trunc: int) -> WeightedSeries:
    return WeightedSeries(w, trunc, {(0, 0, 0): Fraction(1)})


def series_log(s: WeightedSeries) -> WeightedSeries:
    """log of a series with constant term 1: the exp recurrence solved for
    A_n = E_n - sum_{k<n} C(n-1, k-1) A_k E_(n-k)."""
    e = s._dims
    if e[0].get((0, 0)) != 1:
        raise InputError("log requires constant term 1")
    if len(e[0]) != 1:
        raise InputError("log requires constant coefficient exactly 1")
    a: list[dict] = [{}]
    for n in range(1, s.trunc + 1):
        rest = _convolve(a, e, n, 1)
        a.append(_clean({k: e[n].get(k, 0) - rest.get(k, 0) for k in e[n].keys() | rest.keys()}))
    return WeightedSeries._of(s.w, s.trunc, a)


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


def taxicab_extrema(locus: GenerationLocus, count: int = 2):
    """The `count` largest distinct norm values over the locus closure.

    Returns a list of (norm, attained, points) in decreasing norm order;
    points lists the attaining locus points/markers (empty for a supremum
    only approached, as with degree-0 families accumulating at norm 1).
    """
    if not locus.families and not locus.limit_present:
        raise DomainError("empty locus")
    merged: dict[Fraction, tuple[bool, list]] = {}
    for norm, attained, pt in _candidates(locus):
        att, pts = merged.get(norm, (False, []))
        if attained:
            pts.append(pt)
        merged[norm] = (att or attained, pts)
    out = [(norm, att, pts) for norm, (att, pts) in merged.items()]
    out.sort(key=lambda e: e[0], reverse=True)
    return out[:count]


def conjugacy_class_size(mu) -> int:
    mu = check_partition(mu)
    return factorial(sum(mu)) // _z_order(mu)


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


def element_rank(spec, elem) -> int:
    """The rank of a Dowling element: n minus its number of blocks."""
    return spec.n - len(elem.blocks)


def zero_block_counts_by_comb(w: int, orbit_data):
    """Z_0, Z_1, ... as `ocs.dowling._zero_block_counts` gives them, with
    every coefficient summed afresh: Z_k of the product of the orbit
    factors, each sum_k (w/|G_s|)^k x^k/k! with its x term dropped outside
    T, convolved through C(k, i)."""
    factors = [(w // stab.order, in_t) for stab, in_t in orbit_data]
    partial = [[] for _ in range(len(factors) + 1)]
    for k in count():
        partial[0].append(int(k == 0))
        for (c, in_t), prev, cur in zip(factors, partial, partial[1:]):
            cur.append(sum(comb(k, i) * c**i * prev[k - i] for i in range(k + 1)
                           if i != 1 or in_t))
        yield partial[-1][k]


def element_counts_by_comb(w: int, orbit_data):
    """|D_0|, |D_1|, ... as `ocs.dowling._element_counts` gives them, with
    every binomial and power computed afresh: |D_n| = sum_k C(n, k) Z_k
    B(n - k), and B(m) = sum_j C(m - 1, j) w^j B(m - 1 - j)."""
    zero_counts = zero_block_counts_by_comb(w, orbit_data)
    zero, blocks = [], []
    for n in count():
        zero.append(next(zero_counts))
        blocks.append(sum(comb(n - 1, j) * w**j * blocks[n - 1 - j] for j in range(n)) if n else 1)
        yield sum(comb(n, k) * zero[k] * blocks[n - k] for k in range(n + 1))


def from_covers_by_closure(n: int, covers, rank=None) -> Poset:
    """`ocs.posets.from_covers` with every list checked through its
    closure, graded or not: the oracle of the graded shortcut."""
    pairs = [tuple(c) for c in covers]
    seen = set()
    adj = [[] for _ in range(n)]
    for pair in pairs:
        a, b = pair
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"cover ({a},{b}) out of range")
        if a == b:
            raise InputError(f"cover ({a},{b}) is a self-loop")
        if pair in seen:
            raise InputError(f"duplicate cover ({a},{b})")
        seen.add(pair)
        adj[a].append(b)
    hasse = tuple(tuple(sorted(u)) for u in adj)
    leq = [0] * n
    above = [0] * n
    for a in reversed(_topo_order(n, hasse)):
        strict = up = 0
        for c in hasse[a]:
            strict |= leq[c] ^ (1 << c)
            up |= leq[c]
        above[a] = strict
        leq[a] = up | 1 << a
    leq = tuple(leq)
    for a, b in pairs:
        if above[a] >> b & 1:
            between = leq[a] & ~(1 << a) & ~(1 << b)
            c = next(c for c in _bits(between) if leq[c] >> b & 1)
            raise InputError(f"cover ({a},{b}) is implied by transitivity via {c}")
    if rank is not None:
        rank = tuple(rank)
        if len(rank) != n:
            raise InputError("rank label list has wrong length")
    return Poset(n, hasse, rank, leq)


def direct_product_leq(p: Poset, q: Poset) -> tuple[int, ...]:
    """The leq table of `ocs.posets.direct_product(p, q)` by the product
    formula: (i, j) <= (i2, j2) iff i <= i2 in p and j <= j2 in q, with
    (i, j) at index i*|q| + j."""
    nq = q.n_elems
    leq = []
    for i in range(p.n_elems):
        for j in range(nq):
            m = 0
            for i2 in _bits(p.leq[i]):
                m |= q.leq[j] << (i2 * nq)
            leq.append(m)
    return tuple(leq)
