"""Generic finite posets.

Elements are integer indices ``0..n_elems-1``.  A poset stores its Hasse
diagram and rank labels.  Its order closure, ``leq[a]`` an int whose bit
``b`` is set iff a <= b, and its transpose ``geq``, is built from the Hasse
diagram on first read (`Poset.leq`, `Poset.geq`), the one place that builds
a closure from covers, and refused past CLOSURE_CAP elements.  So a command
that reads only covers and ranks never pays for it: `from_covers` checks a
graded list without it, and a lower interval or a proper part is p's Hasse
diagram restricted.  The closures and the Mobius rows are bitset passes:
one big-int OR per cover, and one pass per Mobius source whose cost is the
number of comparable pairs above it.
"""

from __future__ import annotations

import json
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
    "poset_to_json",
    "poset_from_json",
]

# The most elements of a poset whose order closure is built, on the first
# read of `leq` or `geq`, or by `from_covers` for a list not graded by its
# rank labels.  It takes n^2/2 bits: on a shared 2-core VM a rank-less chain
# of 20000 loads in 0.14 s and 126 MB.
CLOSURE_CAP = 20000


class Poset:
    """A finite poset: n_elems, hasse[a] the sorted upper covers of a, and
    optional rank labels.  `leq` and `geq` are built from the Hasse diagram
    on first read; only `induced_subposet`, which restricts p's closure,
    hands in a leq.  Posets compare equal when their sizes, Hasse diagrams
    and ranks are equal, which fix leq."""

    def __init__(self, n_elems: int, hasse: tuple[tuple[int, ...], ...],
                 rank: tuple[int, ...] | None = None, leq: tuple[int, ...] | None = None):
        self.n_elems = n_elems
        self.hasse = hasse
        self.rank = rank
        if leq is not None:
            self.leq = leq

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return (self.n_elems, self.hasse, self.rank) == (other.n_elems, other.hasse, other.rank)

    def is_leq(self, a: int, b: int) -> bool:
        return bool(self.leq[a] >> b & 1)

    @cached_property
    def leq(self) -> tuple[int, ...]:
        """leq[a]: bitset of the elements b >= a, reflexive.  Built once, by
        one big-int OR per cover in reverse topological order."""
        order = self._closure_order()
        leq = [1 << x for x in range(self.n_elems)]
        for a in reversed(order):
            up = leq[a]
            for b in self.hasse[a]:
                up |= leq[b]
            leq[a] = up
        return tuple(leq)

    @cached_property
    def geq(self) -> tuple[int, ...]:
        """geq[b]: bitset of the elements a <= b, the transpose of leq.
        Built once, by one big-int OR per cover in topological order."""
        order = self._closure_order()
        geq = [1 << x for x in range(self.n_elems)]
        for a in order:
            for b in self.hasse[a]:
                geq[b] |= geq[a]
        return tuple(geq)

    def _closure_order(self) -> list[int]:
        """A topological order for a closure's first build, past CLOSURE_CAP refused."""
        if self.n_elems > CLOSURE_CAP:
            raise DomainError(f"closure cap is {CLOSURE_CAP} elements, got {self.n_elems}")
        return _topo_order(self.n_elems, self.hasse)

    def minimal_elements(self) -> list[int]:
        return [x for x, lower in enumerate(_lower_covers(self)) if not lower]

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


def _lower_covers(p: Poset) -> list[list[int]]:
    """lower[b]: the lower covers of b, ascending."""
    lower = [[] for _ in range(p.n_elems)]
    for a, ups in enumerate(p.hasse):
        for u in ups:
            lower[u].append(a)
    return lower


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


def _closure_cap_error(n: int) -> DomainError:
    return DomainError(f"closure cap is {CLOSURE_CAP} elements for a poset that is "
                       f"not graded by its rank labels, got {n}")


def from_covers(n: int, covers, rank=None) -> Poset:
    """Build a poset from its Hasse diagram.

    A graded list, one with rank labels for all n elements and every cover
    raising the rank by exactly one, is a Hasse diagram once its indices
    are in range and no cover repeats, so no closure is built: `leq` is
    left to its first read.  Any other list is checked through `leq`, read
    at once: a cycle fails its topological order, and a listed cover (a, b)
    is redundant iff b is strictly above another listed cover of a.

    Args:
        n: number of elements.
        covers: iterable of (a, b) pairs meaning a is covered by b.
        rank: optional rank labels.

    Raises:
        DomainError: if n is over CLOSURE_CAP and the list is not graded.
            A list without a rank for each element is refused before
            anything is allocated.
        InputError: on a cycle, an out-of-range index, a duplicate cover, or
            a cover already implied by transitivity (the list must be the
            minimal Hasse diagram).
    """
    if rank is not None:
        rank = tuple(rank)
    if n > CLOSURE_CAP and (rank is None or len(rank) != n):
        raise _closure_cap_error(n)
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
    p = Poset(n, tuple(tuple(sorted(u)) for u in adj), rank)
    if rank is not None and len(rank) == n and all(rank[b] - rank[a] == 1 for a, b in pairs):
        return p
    if n > CLOSURE_CAP:
        raise _closure_cap_error(n)
    leq = p.leq
    above = [_strictly_above(up, leq) for up in p.hasse]
    for a, b in pairs:
        if above[a] >> b & 1:
            # report the lowest-index element strictly between a and b
            between = leq[a] & ~(1 << a) & ~(1 << b)
            c = next(c for c in _bits(between) if leq[c] >> b & 1)
            raise InputError(f"cover ({a},{b}) is implied by transitivity via {c}")
    if rank is not None and len(rank) != n:
        raise InputError("rank label list has wrong length")
    return p


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
    return Poset(len(elems), hasse, rank, leq), elems


def _restricted_hasse(p: Poset, elems) -> tuple[tuple[int, ...], ...]:
    """p's Hasse diagram on the sorted elems, re-indexed: the subposet's when
    every element between two kept ones is kept, as in a down-set, or in p
    less the bottom and top of each component."""
    pos = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(pos[u] for u in p.hasse[e] if u in pos) for e in elems)


def _restriction(p: Poset, elems) -> Poset:
    """The subposet on the sorted elems, restricted (`_restricted_hasse`)."""
    rank = tuple(p.rank[e] for e in elems) if p.rank is not None else None
    return Poset(len(elems), _restricted_hasse(p, elems), rank)


def _lower_hasse(p: Poset, b: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The sorted elements x <= b, read off `p.geq`, and the re-indexed Hasse
    diagram of their interval, with no Poset built."""
    elems = tuple(_bits(p.geq[b]))
    return elems, _restricted_hasse(p, elems)


def lower_interval(p: Poset, b: int) -> tuple[Poset, tuple[int, ...]]:
    """The induced subposet on {x : x <= b}, found by walking down the
    covers from b, so neither p's closure nor the interval's is built.

    Returns (interval, sorted tuple of original indices).
    """
    if not (0 <= b < p.n_elems):
        raise InputError("interval top out of range")
    lower = _lower_covers(p)
    below = frontier = {b}
    while frontier:
        frontier = {a for x in frontier for a in lower[x]} - below
        below |= frontier
    elems = tuple(sorted(below))
    return _restriction(p, elems), elems


def direct_product(p: Poset, q: Poset) -> Poset:
    """Componentwise-order product; element (i, j) gets index i*|q| + j."""
    nq = q.n_elems
    hasse = []
    for i in range(p.n_elems):
        for j in range(nq):
            hasse.append(tuple(sorted([i2 * nq + j for i2 in p.hasse[i]]
                                      + [i * nq + j2 for j2 in q.hasse[j]])))
    rank = None
    if p.rank is not None and q.rank is not None:
        rank = tuple(p.rank[i] + q.rank[j] for i in range(p.n_elems) for j in range(nq))
    return Poset(p.n_elems * nq, tuple(hasse), rank)


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
    component.  That adds no cover, so the Hasse diagram is p's,
    restricted (`_restriction`), and no closure is read.

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
    return _restriction(p, [x for x in range(p.n_elems) if x not in drop])


def _refine_invariants(p: Poset) -> tuple[int, ...]:
    """Per-element invariant labels, stable under isomorphism, computed by
    iterated neighborhood refinement over the Hasse diagram."""
    down_hasse = _lower_covers(p)
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
    pruning.  A candidate y for x must have as many assigned elements above
    and below it as x has, counted through the bitsets of the assigned
    elements.  Then only the assigned elements comparable to x are checked:
    their images must be comparable to y the same way, and as f is
    injective, the equal counts leave no other assigned element comparable
    to y.
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
    pleq, qleq, pgeq, qgeq = p.leq, q.leq, p.geq, q.geq

    def ok(x: int, y: int, assigned: int, used: int) -> bool:
        up, down = pleq[x] & assigned, pgeq[x] & assigned
        return (up.bit_count() == (qleq[y] & used).bit_count()
                and down.bit_count() == (qgeq[y] & used).bit_count()
                and all(qleq[y] >> f[x2] & 1 for x2 in _bits(up))
                and all(qgeq[y] >> f[x2] & 1 for x2 in _bits(down)))

    if n == 0:
        return ()
    # Depth-first on an explicit stack, so no interval is too deep for it;
    # frame k holds the bitsets before order[k] and its untried candidates.
    stack = [(0, 0, iter(by_class[ip[order[0]]]))]
    while stack:
        assigned, used, candidates = stack[-1]
        x = order[len(stack) - 1]
        y = next((y for y in candidates if not used >> y & 1 and ok(x, y, assigned, used)), None)
        if y is None:
            stack.pop()
            continue
        f[x] = y
        if len(stack) == n:
            return tuple(f)
        stack.append((assigned | 1 << x, used | 1 << y, iter(by_class[ip[order[len(stack)]]])))
    return None


def chain_poset(k: int) -> Poset:
    """The k-element chain 0 < 1 < ... < k-1."""
    return from_covers(k, [(i, i + 1) for i in range(k - 1)], rank=tuple(range(k)))


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
    # inline type tests: this runs once per cover, 10^5 or more per file
    if not all(type(c) is list and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
               for c in covers):
        raise InputError("each poset cover must be an integer pair [a, b]")
    if rank is not None and not is_int_list(rank):
        raise InputError("poset 'rank' must be a list of integers")
    return from_covers(n, covers, rank=rank)


def canonical_poset_bytes(p: Poset) -> bytes:
    """Deterministic serialization: equal for posets with equal covers and ranks."""
    return json.dumps(poset_to_json(p), sort_keys=True, separators=(",", ":")).encode()
