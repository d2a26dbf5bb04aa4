"""Generic finite posets.

Elements are integer indices ``0..n_elems-1``.  The order relation is stored
as a bit-packed reachability table: ``leq[a]`` is an int whose bit ``b`` is
set iff a <= b.  Its transpose ``geq``, built on first use, gives each
lower interval without a scan.  The closures, the Hasse-diagram checks and
the Mobius rows are bitset passes: one big-int OR per cover, and one pass per
Mobius source whose cost is the number of comparable pairs above it.  That
covers the largest posets this package builds (thousands of elements).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InputError, is_int, is_int_list

__all__ = [
    "Poset",
    "from_covers",
    "mobius",
    "lower_interval",
    "induced_subposet",
    "direct_product",
    "proper_part",
    "connected_components",
    "is_isomorphic",
    "chain_poset",
    "boolean_lattice",
    "poset_to_json",
    "poset_from_json",
]


@dataclass
class Poset:
    n_elems: int
    hasse: tuple[tuple[int, ...], ...]  # hasse[a] = sorted upper covers of a
    leq: tuple[int, ...]  # bitmask reachability, reflexive
    rank: tuple[int, ...] | None = None

    def is_leq(self, a: int, b: int) -> bool:
        return bool(self.leq[a] >> b & 1)

    @cached_property
    def geq(self) -> tuple[int, ...]:
        """geq[b]: bitset of the elements a <= b, the transpose of leq.
        Built once, by one big-int OR per cover in topological order."""
        geq = [1 << x for x in range(self.n_elems)]
        for a in _topo_order(self.n_elems, self.hasse):
            for b in self.hasse[a]:
                geq[b] |= geq[a]
        return tuple(geq)

    def minimal_elements(self) -> list[int]:
        has_lower = [False] * self.n_elems
        for a in range(self.n_elems):
            for b in self.hasse[a]:
                has_lower[b] = True
        return [x for x in range(self.n_elems) if not has_lower[x]]

    def maximal_elements(self) -> list[int]:
        return [x for x in range(self.n_elems) if not self.hasse[x]]

    def bottom(self) -> int:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise DomainError("poset has no unique minimum")
        return mins[0]

    def top(self) -> int:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise DomainError("poset has no unique maximum")
        return maxs[0]

    def height(self) -> tuple[int, ...]:
        """Longest-chain-from-below label per element (minimal elements at 0)."""
        order = _topo_order(self.n_elems, self.hasse)
        h = [0] * self.n_elems
        for a in order:
            for b in self.hasse[a]:
                if h[a] + 1 > h[b]:
                    h[b] = h[a] + 1
        return tuple(h)

    def __repr__(self):
        return f"Poset(n_elems={self.n_elems})"


def _bits(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _strictly_above(elems, leq) -> int:
    """Bitset of the elements strictly above some element of elems."""
    above = 0
    for c in elems:
        above |= leq[c] ^ (1 << c)
    return above


def _topo_order(n: int, hasse) -> list[int]:
    indeg = [0] * n
    for a in range(n):
        for b in hasse[a]:
            indeg[b] += 1
    stack = [x for x in range(n) if indeg[x] == 0]
    out = []
    while stack:
        a = stack.pop()
        out.append(a)
        for b in hasse[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                stack.append(b)
    if len(out) != n:
        raise InputError("cover relation contains a cycle")
    return out


def _hasse_from_leq(n: int, leq) -> tuple[tuple[int, ...], ...]:
    # the covers of a are the strict up-set minus everything strictly above it
    hasse = []
    for a in range(n):
        strict = leq[a] ^ (1 << a)
        hasse.append(tuple(_bits(strict & ~_strictly_above(_bits(strict), leq))))
    return tuple(hasse)


def from_covers(n: int, covers, rank=None) -> Poset:
    """Build a poset from its Hasse diagram, with one big-int OR per cover
    for the closure and the redundancy check together.

    Args:
        n: number of elements.
        covers: iterable of (a, b) pairs meaning a is covered by b.
        rank: optional rank labels.

    Raises:
        InputError: on a cycle, an out-of-range index, a duplicate cover, or
            a cover already implied by transitivity (the list must be the
            minimal Hasse diagram).
    """
    pairs = [tuple(c) for c in covers]
    seen = set()
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"cover ({a},{b}) out of range")
        if a == b:
            raise InputError(f"cover ({a},{b}) is a self-loop")
        if (a, b) in seen:
            raise InputError(f"duplicate cover ({a},{b})")
        seen.add((a, b))
        adj[a].append(b)
    hasse = tuple(tuple(sorted(u)) for u in adj)
    # Closure in reverse topological order, so each leq[b] is final before
    # a reads it.  A listed cover (a, b) is redundant iff b is strictly above
    # another listed cover of a, that is iff above[a] has bit b.
    leq = [0] * n
    above = [0] * n
    for a in reversed(_topo_order(n, hasse)):
        above[a] = _strictly_above(hasse[a], leq)
        leq[a] = above[a] | sum(1 << b for b in hasse[a]) | 1 << a
    leq = tuple(leq)
    for a, b in pairs:
        if above[a] >> b & 1:
            # report the lowest-index element strictly between a and b
            between = leq[a] & ~(1 << a) & ~(1 << b)
            c = next(c for c in _bits(between) if leq[c] >> b & 1)
            raise InputError(f"cover ({a},{b}) is implied by transitivity via {c}")
    if rank is not None:
        rank = tuple(rank)
        if len(rank) != n:
            raise InputError("rank label list has wrong length")
    return Poset(n_elems=n, hasse=hasse, leq=leq, rank=rank)


def _mobius_above(p: Poset, elems) -> dict[int, int]:
    """{x: mu(0^, x)} for the subposet of p on elems with a new bottom 0^.

    The package's one Mobius recursion: mu(0^, x) = -1 - sum of mu(0^, y)
    over the chosen y < x, in order of decreasing up-set size (a linear
    extension), each value pushed into the running sums of the chosen
    elements above it.  The pass costs the comparable pairs among elems.
    """
    order = sorted(elems, key=lambda x: -p.leq[x].bit_count())
    chosen = sum(1 << x for x in order)
    below = [0] * p.n_elems  # x -> sum of mu(0^, y) over chosen y < x so far
    row = {}
    for x in order:
        mu = -1 - below[x]
        row[x] = mu
        if mu:
            for z in _bits((p.leq[x] & chosen) ^ (1 << x)):
                below[z] += mu
    return row


def _mobius_row(p: Poset, a: int) -> dict[int, int]:
    """{d: mu(a, d)} for every d >= a: `_mobius_above` on the strict up-set
    of a, with a itself as the adjoined bottom."""
    row = _mobius_above(p, _bits(p.leq[a] ^ (1 << a)))
    row[a] = 1
    return row


def mobius(p: Poset, a: int, b: int):
    """Mobius function mu(a, b), read off the row mu(a, .) (`_mobius_row`).

    Raises:
        InputError: if a or b is not an element, or a is not <= b.
    """
    if not (0 <= a < p.n_elems and 0 <= b < p.n_elems):
        raise InputError(f"mobius elements out of range: {a}, {b}")
    if not p.is_leq(a, b):
        raise InputError(f"mobius requires comparable pair, got {a} !<= {b}")
    return _mobius_row(p, a)[b]


def _restricted_leq(p: Poset, elems) -> tuple[tuple[int, ...], dict[int, int]]:
    """The leq table of p restricted to the sorted elems, re-indexed so that
    elems[i] becomes i; also returns the map original -> new index."""
    pos = {e: i for i, e in enumerate(elems)}
    mask = 0
    for e in elems:
        mask |= 1 << e
    leq = []
    for e in elems:
        packed = 0
        for x in _bits(p.leq[e] & mask):
            packed |= 1 << pos[x]
        leq.append(packed)
    return tuple(leq), pos


def induced_subposet(p: Poset, elements) -> tuple[Poset, tuple[int, ...]]:
    """Induced subposet on a subset, recomputing the Hasse diagram.

    Returns (subposet, sorted tuple of original indices); new index i
    corresponds to original index ``elements_sorted[i]``.
    """
    elems = tuple(sorted(set(elements)))
    leq, _ = _restricted_leq(p, elems)
    hasse = _hasse_from_leq(len(elems), leq)
    rank = tuple(p.rank[e] for e in elems) if p.rank is not None else None
    return Poset(n_elems=len(elems), hasse=hasse, leq=leq, rank=rank), elems


def _lower_hasse(p: Poset, b: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The sorted elements x <= b and the Hasse diagram of the interval they
    form, re-indexed so that elems[i] becomes i; no leq is built.  A
    down-closed subset inherits its Hasse diagram by restriction."""
    elems = tuple(_bits(p.geq[b]))
    pos = {e: i for i, e in enumerate(elems)}
    return elems, tuple(tuple(pos[u] for u in p.hasse[e] if u in pos) for e in elems)


def lower_interval(p: Poset, b: int) -> tuple[Poset, tuple[int, ...]]:
    """The induced subposet on {x : x <= b}, read off `p.geq`.

    Returns (interval, sorted tuple of original indices).
    """
    if not (0 <= b < p.n_elems):
        raise InputError("interval top out of range")
    return induced_subposet(p, _bits(p.geq[b]))


def direct_product(p: Poset, q: Poset) -> Poset:
    """Componentwise-order product; element (i, j) gets index i*|q| + j."""
    nq = q.n_elems
    n = p.n_elems * nq
    covers = []
    for i in range(p.n_elems):
        for j in range(nq):
            a = i * nq + j
            for i2 in p.hasse[i]:
                covers.append((a, i2 * nq + j))
            for j2 in q.hasse[j]:
                covers.append((a, i * nq + j2))
    leq = []
    for i in range(p.n_elems):
        pm = p.leq[i]
        for j in range(nq):
            qm = q.leq[j]
            m = 0
            for i2 in _bits(pm):
                m |= qm << (i2 * nq)
            leq.append(m)
    hasse = [[] for _ in range(n)]
    for a, b in covers:
        hasse[a].append(b)
    rank = None
    if p.rank is not None and q.rank is not None:
        rank = tuple(p.rank[i] + q.rank[j] for i in range(p.n_elems) for j in range(nq))
    return Poset(
        n_elems=n,
        hasse=tuple(tuple(sorted(u)) for u in hasse),
        leq=tuple(leq),
        rank=rank,
    )


def connected_components(p: Poset) -> list[list[int]]:
    """Components of the comparability graph, each sorted ascending."""
    parent = list(range(p.n_elems))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(p.n_elems):
        for b in p.hasse[a]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for x in range(p.n_elems):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def proper_part(p: Poset) -> Poset:
    """Remove the unique minimum and unique maximum of every connected
    component.

    Raises:
        DomainError: if some component lacks a unique minimal or unique
            maximal element.
    """
    minimal = set(p.minimal_elements())
    drop = set()
    for comp in connected_components(p):
        mins = [x for x in comp if x in minimal]
        maxs = [x for x in comp if not p.hasse[x]]
        if len(mins) != 1:
            raise DomainError("component lacks a unique minimum")
        if len(maxs) != 1:
            raise DomainError("component lacks a unique maximum")
        drop.add(mins[0])
        drop.add(maxs[0])
    keep = [x for x in range(p.n_elems) if x not in drop]
    sub, _ = induced_subposet(p, keep)
    return sub


def _refine_invariants(p: Poset) -> tuple[int, ...]:
    """Per-element invariant labels, stable under isomorphism, computed by
    iterated neighborhood refinement over the Hasse diagram."""
    down_hasse = [[] for _ in range(p.n_elems)]
    for a in range(p.n_elems):
        for b in p.hasse[a]:
            down_hasse[b].append(a)
    height = p.height()
    labels = [
        (height[x], p.geq[x].bit_count() - 1, p.leq[x].bit_count() - 1,
         len(p.hasse[x]), len(down_hasse[x]))
        for x in range(p.n_elems)
    ]
    canon = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    cur = [canon[lab] for lab in labels]
    for _ in range(p.n_elems):
        nxt_labels = [
            (
                cur[x],
                tuple(sorted(cur[y] for y in p.hasse[x])),
                tuple(sorted(cur[y] for y in down_hasse[x])),
            )
            for x in range(p.n_elems)
        ]
        canon = {lab: i for i, lab in enumerate(sorted(set(nxt_labels)))}
        nxt = [canon[lab] for lab in nxt_labels]
        if nxt == cur:
            break
        cur = nxt
    return tuple(cur)


def is_isomorphic(p: Poset, q: Poset):
    """Search for an order-isomorphism.

    Returns:
        A tuple ``f`` with ``f[i]`` the q-index of p-element i, or None.

    Backtracking over cover-compatible assignments with invariant-class
    pruning; intended for posets up to a couple hundred elements.
    """
    n = p.n_elems
    if q.n_elems != n:
        return None
    if sum(len(u) for u in p.hasse) != sum(len(u) for u in q.hasse):
        return None
    ip = _refine_invariants(p)
    iq = _refine_invariants(q)
    if sorted(ip) != sorted(iq):
        return None
    by_class: dict[int, list[int]] = {}
    for y, c in enumerate(iq):
        by_class.setdefault(c, []).append(y)
    # Assign the most constrained elements first.
    order = sorted(range(n), key=lambda x: (len(by_class[ip[x]]), x))
    f = [-1] * n
    used = [False] * n
    pleq, qleq = p.leq, q.leq

    def ok(x: int, y: int, depth: int) -> bool:
        for x2 in order[:depth]:
            y2 = f[x2]
            if (pleq[x] >> x2 & 1) != (qleq[y] >> y2 & 1):
                return False
            if (pleq[x2] >> x & 1) != (qleq[y2] >> y & 1):
                return False
        return True

    def rec(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        for y in by_class[ip[x]]:
            if used[y]:
                continue
            if ok(x, y, k):
                f[x] = y
                used[y] = True
                if rec(k + 1):
                    return True
                used[y] = False
                f[x] = -1
        return False

    if rec(0):
        return tuple(f)
    return None


def chain_poset(k: int) -> Poset:
    """The k-element chain 0 < 1 < ... < k-1."""
    return from_covers(k, [(i, i + 1) for i in range(k - 1)], rank=tuple(range(k)))


def boolean_lattice(k: int) -> Poset:
    """Subsets of a k-set ordered by inclusion; element index = subset bitmask."""
    covers = []
    for s in range(1 << k):
        for i in range(k):
            if not s >> i & 1:
                covers.append((s, s | 1 << i))
    rank = tuple(bin(s).count("1") for s in range(1 << k))
    return from_covers(1 << k, covers, rank=rank)


# JSON I/O -------------------------------------------------------------------

def poset_to_json(p: Poset) -> dict:
    covers = [[a, b] for a in range(p.n_elems) for b in p.hasse[a]]
    obj = {"n": p.n_elems, "covers": covers}
    if p.rank is not None:
        obj["rank"] = list(p.rank)
    return obj


def poset_from_json(obj) -> Poset:
    if not isinstance(obj, dict):
        raise InputError("poset descriptor must be an object")
    known = {"n", "covers", "rank", "dowling"}
    extra = set(obj) - known
    if extra:
        raise InputError(f"unknown poset descriptor fields: {sorted(extra)}")
    n = obj.get("n")
    covers = obj.get("covers")
    rank = obj.get("rank")
    if not is_int(n) or not isinstance(covers, list):
        raise InputError("poset descriptor needs integer 'n' and list 'covers'")
    if not all(is_int_list(c, 2) for c in covers):
        raise InputError("each poset cover must be an integer pair [a, b]")
    if rank is not None and not is_int_list(rank):
        raise InputError("poset 'rank' must be a list of integers")
    return from_covers(n, covers, rank=rank)


def canonical_poset_bytes(p: Poset) -> bytes:
    """Deterministic serialization: equal for posets with equal covers and ranks."""
    return json.dumps(poset_to_json(p), sort_keys=True, separators=(",", ":")).encode()
