"""Dowling-style posets of partial colored partitions.

An element over ground set {0,...,n-1} is a partition of a subset into
blocks, each block carrying a coloring into the group G (taken up to a
global right translation per block), together with a coloring of the
remaining "zero block" Z into the G-set S.  A point coloring hitting a
G-orbit of S exactly once is allowed only when that orbit lies in the
distinguished invariant subset T.

Covers come in two kinds: merging two blocks with a relative twist g, and
absorbing one block into the zero block along a point s of S.  Rank is
n minus the number of blocks.

Canonical form: within a block, the minimal element carries the group
identity; blocks are sorted by minimal element; the canonical string joins
blocks as comma-separated ``g:e`` entries with a final ``Z{e:s,...}``
segment, e.g. ``0:0,1:1|Z{2:0}``.  Poset element order is breadth-first by
rank, lexicographic by canonical string within a rank.

One pass produces the rank levels: ``_levels`` generates each element
once, from its canonical parent, and keeps no set of elements seen.
``enumerate_levels`` names each element once and sorts each level by
name; ``ocs dowling count`` needs only the level sizes.

Covers are found by integer arithmetic on point codes.  With B = n|G| + |S|,
the code of a canonical element is sum_x v(x) B^x, where a point x of a
block with minimum m, colored c, has v(x) = m|G| + c, and a point of the
zero block colored s has v(x) = n|G| + s.  The canonical form is unique, so
the code is injective.  A cover changes only the points of the blocks it
touches, so its code is the element's code plus a delta read from per-block
tables (`_block_code`): ``_code_and_deltas`` gives the code and the deltas
of one element, and ``_cover_lists`` finds each cover's index in a
``{code: index}`` dict of the level above, with no cover element built.
``build_poset`` takes its Hasse diagram from there and hands the names on
for the output file; ``covers_of`` decodes the same codes into elements, so
there is one cover rule.  Elements are NamedTuples, hashed and compared in
C; an element compares equal to the plain tuple ``(blocks, zero)`` of the
same fields.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from itertools import count, islice
from math import comb
from typing import NamedTuple

from .errors import CapExceeded, DomainError, InputError, is_int
from .groups import (
    GroupTable,
    GSetSpec,
    WreathElement,
    _Value,
    cyclic_group,
    gset_from_json,
    group_from_json,
    orbits_and_stabilizers,
    subgroup_table,
)
from .posets import Poset, from_covers

__all__ = [
    "DowlingElement",
    "DowlingSpec",
    "IntervalFactor",
    "bottom_element",
    "element_to_string",
    "parse_element",
    "validate_element",
    "covers_of",
    "enumerate_levels",
    "build_poset",
    "count_elements_species",
    "factor_interval",
    "wreath_act",
    "spec_from_orbit_data",
    "spec_partition",
    "spec_single_point",
    "spec_from_json",
    "spec_to_json",
]

DEFAULT_CAP = 10000


class DowlingElement(NamedTuple):
    """An element as the pair (blocks, zero).  Being a NamedTuple, it hashes
    and compares in C, and equals the plain tuple of the same fields."""

    # blocks: tuple of blocks; a block is a tuple of (element, color) pairs
    # sorted by element, with the minimal element colored by the identity.
    blocks: tuple[tuple[tuple[int, int], ...], ...]
    # zero: tuple of (element, s-point) pairs sorted by element.
    zero: tuple[tuple[int, int], ...]

    def support_check(self, n: int) -> bool:
        seen = [x for b in self.blocks for x, _ in b] + [x for x, _ in self.zero]
        return sorted(seen) == list(range(n))


class DowlingSpec(_Value):
    """The data of D_n^T(G, S): a group, a G-set with its subset T, and the
    ground set size n.  It has no __slots__: its cached properties live in
    its __dict__, computed once per spec."""

    _fields = ("group", "gset", "n", "name")

    def __init__(self, group: GroupTable, gset: GSetSpec, n: int, name: str = ""):
        self.group, self.gset, self.n, self.name = group, gset, n, name
        if self.n < 0:
            raise InputError("ground set size must be nonnegative")
        if self.gset.group is not self.group and self.gset.group != self.group:
            raise InputError("gset must act under the same group")

    @cached_property
    def orbit_data(self) -> tuple[tuple[GroupTable, bool], ...]:
        """One (stabilizer, in T) pair per G-orbit of S, in the order of the
        orbits' least points; each stabilizer is re-extracted as a
        standalone group.  A zero block depends on nothing else: this is
        the description that `spec_from_orbit_data` inverts."""
        return tuple((subgroup_table(self.group, stab)[0], rep in self.gset.t_subset)
                     for _orbit, rep, stab in orbits_and_stabilizers(self.gset))

    @cached_property
    def _orbit_table(self) -> tuple[tuple[int, ...], tuple[bool, ...]]:
        """(orbit id of each point of S, whether each orbit lies in T),
        computed once per spec."""
        ids = [0] * self.gset.size
        in_t = []
        for i, (orbit, rep, _stab) in enumerate(orbits_and_stabilizers(self.gset)):
            for pt in orbit:
                ids[pt] = i
            in_t.append(rep in self.gset.t_subset)
        return tuple(ids), tuple(in_t)

    @cached_property
    def _code_base(self) -> int:
        """B = n|G| + |S|, the base of the point codes: every point value
        v(x) is below it."""
        return self.n * self.group.order + self.gset.size

    @cached_property
    def _zero_values(self) -> list[list[int]]:
        """_zero_values[x][s] = (n|G| + s) B^x, the code term of a zero-block
        point x colored s."""
        top, base = self.n * self.group.order, self._code_base
        return [[(top + s) * base**x for s in range(self.gset.size)] for x in range(self.n)]

    @cached_property
    def _block_codes(self) -> dict:
        """block -> its `_block_code`, filled as elements meet each block, so
        the tables are built once per spec and block, not once per element,
        and live as long as the spec."""
        return {}

    @cached_property
    def _entries(self) -> list[list[tuple[int, int]]]:
        """_entries[x][c] = (x, c) for each point x and each c below |G| and
        |S|: the elements that `_levels` and `covers_of` build hold these
        objects, not a copy per element."""
        colors = max(self.group.order, self.gset.size)
        return [[(x, c) for c in range(colors)] for x in range(self.n)]


def spec_from_orbit_data(group: GroupTable, orbit_data, n: int, name: str = "") -> DowlingSpec:
    """The spec whose S has one G-orbit per (stabilizer, in T) pair, in the
    given order, so that its `orbit_data` is the given one.  Only the
    extreme stabilizers fix the action without an embedding: the trivial
    one (a free orbit) and the whole group (a fixed point).

    Raises:
        DomainError: for any other stabilizer.
    """
    action = [()] * group.order
    t_points: list[int] = []
    for stab, in_t in orbit_data:
        start = len(action[0])
        if stab.order == 1:  # a free orbit: g.(start + h) = start + gh
            orbit = [tuple(start + gh for gh in row) for row in group.mul]
        elif stab.order == group.order:  # a fixed point
            orbit = [(start,)] * group.order
        else:
            raise DomainError(
                "cannot reconstruct the singular G-set: orbit stabilizer is "
                "neither trivial nor the full group"
            )
        action = [a + o for a, o in zip(action, orbit)]
        if in_t:
            t_points += orbit[group.identity]
    gset = GSetSpec(group=group, size=len(action[0]), action=tuple(action),
                    t_subset=frozenset(t_points))
    return DowlingSpec(group=group, gset=gset, n=n, name=name)


def spec_partition(n: int, name: str = "") -> DowlingSpec:
    """The partition lattice Q_n as the trivial-group, empty-S case."""
    return spec_from_orbit_data(cyclic_group(1), (), n, name)


def spec_single_point(group: GroupTable, n: int, in_t: bool, name: str = "") -> DowlingSpec:
    """S a single G-fixed point, optionally in T (the classical lattice case
    when in_t is true)."""
    return spec_from_orbit_data(group, ((group, in_t),), n, name)


def bottom_element(spec: DowlingSpec) -> DowlingElement:
    e = spec.group.identity
    return DowlingElement(
        blocks=tuple(((x, e),) for x in range(spec.n)),
        zero=(),
    )


def _canonical_block(spec: DowlingSpec, entries) -> tuple[tuple[int, int], ...]:
    """Sort by element and right-translate so the minimal element carries
    the identity."""
    entries = sorted(entries)
    ginv = spec.group.inv[entries[0][1]]
    if ginv == spec.group.identity:
        return tuple(entries)
    mul = spec.group.mul
    return tuple([(x, mul[c][ginv]) for x, c in entries])


def _zero_valid(spec: DowlingSpec, zero) -> bool:
    counts: dict[int, int] = {}
    orbit_id, in_t = spec._orbit_table
    for _, s in zero:
        o = orbit_id[s]
        counts[o] = counts.get(o, 0) + 1
    return all(c != 1 or in_t[o] for o, c in counts.items())


def validate_element(spec: DowlingSpec, elem: DowlingElement) -> None:
    """Raise InputError unless elem is a valid canonical element."""
    if not elem.support_check(spec.n):
        raise InputError("blocks and zero block must partition the ground set")
    for b in elem.blocks:
        if list(b) != sorted(b):
            raise InputError("block entries must be sorted by element")
        if b[0][1] != spec.group.identity:
            raise InputError("block coloring not canonical at its minimal element")
        for _, c in b:
            if not (0 <= c < spec.group.order):
                raise InputError("block color out of range")
    if list(elem.blocks) != sorted(elem.blocks, key=lambda b: b[0][0]):
        raise InputError("blocks must be sorted by minimal element")
    if list(elem.zero) != sorted(elem.zero):
        raise InputError("zero entries must be sorted by element")
    for _, s in elem.zero:
        if not (0 <= s < spec.gset.size):
            raise InputError("zero color out of range")
    if not _zero_valid(spec, elem.zero):
        raise InputError("zero coloring violates the distinguished-subset restriction")


def element_to_string(elem: DowlingElement) -> str:
    segs = [",".join([f"{c}:{x}" for x, c in b]) for b in elem.blocks]
    segs.append("Z{" + ",".join([f"{x}:{s}" for x, s in elem.zero]) + "}")
    return "|".join(segs)


_Z_RE = re.compile(r"^Z\{(.*)\}$")
_PAIR_RE = re.compile(r"^(\d+):(\d+)$")


def parse_element(spec: DowlingSpec, text: str) -> DowlingElement:
    """Parse the canonical string format; the block colorings are
    re-canonicalized, everything else must be exact."""
    segs = text.split("|")
    m = _Z_RE.match(segs[-1])
    if m is None:
        raise InputError("element string must end with a Z{...} segment")
    zero = []
    if m.group(1):
        for part in m.group(1).split(","):
            pm = _PAIR_RE.match(part)
            if pm is None:
                raise InputError(f"bad zero entry {part!r}")
            zero.append((int(pm.group(1)), int(pm.group(2))))
    blocks = []
    for seg in segs[:-1]:
        entries = []
        for part in seg.split(","):
            pm = _PAIR_RE.match(part)
            if pm is None:
                raise InputError(f"bad block entry {part!r}")
            c, x = int(pm.group(1)), int(pm.group(2))
            if not (0 <= c < spec.group.order):
                raise InputError("block color out of range")
            entries.append((x, c))
        if not entries:
            raise InputError("empty block segment")
        blocks.append(_canonical_block(spec, entries))
    blocks.sort(key=lambda b: b[0][0])
    elem = DowlingElement(blocks=tuple(blocks), zero=tuple(sorted(zero)))
    validate_element(spec, elem)
    return elem


def _block_code(spec: DowlingSpec, b) -> tuple[int, list[list[int]], list[int]]:
    """(value, merges, moves) of the canonical block b with minimum m, in
    point codes (B = n|G| + |S|):
      - value = sum_(x in b) (m|G| + c_x) B^x, b's share of a code;
      - merges[m'][g], for each m' < m, is what merging b into a block with
        minimum m' along g adds: (m' - m)|G| sum_(x in b) B^x +
        sum_(x in b) (c_x g - c_x) B^x;
      - moves[s] = sum_(x in b) (n|G| + c_x.s) B^x - value, what moving b
        into the zero block along s adds.
    Built on b's first use, then read from the spec's `_block_codes`."""
    table = spec._block_codes.get(b)
    if table is None:
        mul, action, order = spec.group.mul, spec.gset.action, spec.group.order
        base, m = spec._code_base, b[0][0]
        powers = [base**x for x, _ in b]
        weight = order * sum(powers)
        value = m * weight + sum([c * p for (_, c), p in zip(b, powers)])
        twists = [sum([(mul[c][g] - c) * p for (_, c), p in zip(b, powers)]) - m * weight
                  for g in range(order)]
        to_zero = spec.n * weight - value  # each point's value becomes n|G| + its color
        table = spec._block_codes[b] = (
            value,
            [[low * weight + t for t in twists] for low in range(m)],
            [to_zero + sum([action[c][s] * p for (_, c), p in zip(b, powers)])
             for s in range(spec.gset.size)],
        )
    return table


def _code_and_deltas(spec: DowlingSpec, elem: DowlingElement) -> tuple[int, list[int]]:
    """The point code of elem, its blocks' values plus its zero block's
    terms, and what each cover of elem adds to it, in generation order:
    merges by block pair i < j and twist g, then color moves by block and
    point s of S.  Each block's table (`_block_code`) is read once for both.

    A merge of blocks i < j gives every point of block j block i's minimum
    and its color times g; a color move of a block along s sends its
    points into the zero block, each color c to c.s.  The covers are
    distinct: a merge colors block j's minimum by g, a move puts s on its
    block's minimum, and a merge keeps the zero block while a move grows it.

    A color move along s adds len(b) points to the orbit of s and changes
    no other orbit, so the orbit counts of elem.zero, taken once, decide
    every move; a move is kept exactly when its zero coloring is valid,
    even if elem's own is not.
    """
    blocks, zero = elem.blocks, elem.zero
    tables = [_block_code(spec, b) for b in blocks]
    zero_values = spec._zero_values
    code = (sum([value for value, _, _ in tables])
            + sum([zero_values[x][s] for x, s in zero]))
    out = []
    for i in range(len(blocks) - 1):
        m = blocks[i][0][0]
        for _, merges, _ in tables[i + 1 :]:
            out += merges[m]
    orbit_id, in_t = spec._orbit_table
    if all(in_t):  # no zero coloring is invalid, so every move is kept
        for _, _, moves in tables:
            out += moves
        return code, out
    counts = [0] * len(in_t)
    for _, s in zero:
        counts[orbit_id[s]] += 1
    # orbits hit exactly once outside T; a move must land in the only one
    bad = [o for o, c in enumerate(counts) if c == 1 and not in_t[o]]
    if len(bad) > 1:
        return code, out
    points = [s for s in range(spec.gset.size) if not bad or orbit_id[s] == bad[0]]
    # a singleton block must not hit a new orbit outside T exactly once
    single_points = [s for s in points if counts[orbit_id[s]] or in_t[orbit_id[s]]]
    for b, (_, _, moves) in zip(blocks, tables):
        out += [moves[s] for s in (single_points if len(b) == 1 else points)]
    return code, out


def _decode(spec: DowlingSpec, code: int) -> DowlingElement:
    """The canonical element of a point code.  Points are read in
    increasing order, so each block starts at its minimum, the blocks come
    out sorted by minimum and every entry list sorted by point."""
    order, base, entries = spec.group.order, spec._code_base, spec._entries
    top = spec.n * order
    blocks: dict[int, list] = {}
    zero = []
    for x in range(spec.n):
        code, v = divmod(code, base)
        if v < top:
            m, c = divmod(v, order)
            blocks.setdefault(m, []).append(entries[x][c])
        else:
            zero.append(entries[x][v - top])
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple
    return tuple.__new__(DowlingElement, (tuple(map(tuple, blocks.values())), tuple(zero)))


def covers_of(spec: DowlingSpec, elem: DowlingElement) -> list[DowlingElement]:
    """All covers of the canonical element elem, in generation order
    (`_code_and_deltas`), each decoded from its point code, so in canonical
    form and distinct."""
    code, deltas = _code_and_deltas(spec, elem)
    return [_decode(spec, code + d) for d in deltas]


def _zero_block_counts(w: int, orbit_data):
    """Z_0, Z_1, ...: Z_k counts the valid zero-block colorings of k
    labeled points.  Their exponential generating function has one factor
    per orbit, sum_k (w/|G_s|)^k x^k/k!, with its x term dropped outside T;
    each partial product grows by one coefficient per k.  Each factor
    keeps its row C(k, i) c^i, stepped to the next k by Pascal's rule, so
    no binomial or power is computed from scratch."""
    factors = [(w // stab.order, in_t) for stab, in_t in orbit_data]
    rows = [[1] for _ in factors]  # rows[j][i] = C(k, i) c^i for factor j
    # partial[j][k]: coefficient k of the product of the first j factors
    partial = [[] for _ in range(len(factors) + 1)]
    for k in count():
        partial[0].append(int(k == 0))
        for j, ((c, in_t), prev, cur) in enumerate(zip(factors, partial, partial[1:])):
            if k:
                rows[j] = [a + c * b for a, b in zip(rows[j] + [0], [0, *rows[j]])]
            row = rows[j]
            term = sum(map(operator.mul, row, reversed(prev)))
            cur.append(term if in_t or not k else term - row[1] * prev[k - 1])
        yield partial[-1][k]


def _element_counts(w: int, orbit_data):
    """|D_0|, |D_1|, ...: |D_n| = sum_k C(n, k) Z_k B(n - k), with Z_k the
    zero-block colorings of k points (`_zero_block_counts`) and B(m) =
    sum_b S(m, b) w^(m-b) the partitions of m points into blocks, w^(b-1)
    colorings of a b-block (w = |G|).  The rows C(n, k) and C(n - 1, j) w^j
    are stepped from one n to the next by Pascal's rule."""
    zero_counts = _zero_block_counts(w, orbit_data)
    zero, blocks = [], []  # blocks[m] = B(m)
    binomial, colored = [1], [1]  # C(n, k) for k <= n; C(n - 1, j) w^j for j < n
    for n in count():
        zero.append(next(zero_counts))
        if n > 1:
            colored = [a + w * b for a, b in zip(colored + [0], [0, *colored])]
        if n:
            binomial = [a + b for a, b in zip(binomial + [0], [0, *binomial])]
        # B(0) = 1; otherwise the block of point n - 1 has j other points
        blocks.append(sum(map(operator.mul, colored, reversed(blocks))) if n else 1)
        yield sum(map(operator.mul, map(operator.mul, binomial, zero), reversed(blocks)))


def _check_window_cap(group: GroupTable, orbit_data, window: list[int], cap: int) -> None:
    """Refuse the first n of the window whose D_n passes cap elements
    through some rank level, naming the first such rank and the total
    through it, from element counts alone; every `dowling` and `rep
    stability` cap is this check.

    The total through the last rank is |D_n|, which only grows with n,
    since D_n embeds in D_(n+1).  So the n that refuses is the first of the
    window with |D_n| > max(cap, 1): a D_n that holds only its bottom has no
    level to check.  The counts |D_n| are taken in order of n and stop
    there, so a small cap with a far top costs only a few.  Then only that
    D_n has its levels counted: rank r has sum_(k <= r) C(n, k) Z_k w^(r-k)
    S(n-k, n-r) elements (w = |G|), k points in the zero block and the rest
    in n - r blocks.  Those Stirling numbers are one column, kept for one
    rank at a time, so nothing of size n is held: S(n, n-r) is
    sum_j <<r, j>> C(n+r-1-j, 2r), with <<r, j>> the second-order Eulerian
    numbers (Graham, Knuth and Patashnik, *Concrete Mathematics*, eq.
    6.43), and the rest of the column follows from the column of rank r - 1
    by the recurrence S(m, c) = c S(m-1, c) + S(m-1, c-1), read backwards."""
    w = group.order
    for n, size in enumerate(_element_counts(w, orbit_data)):
        if size > max(cap, 1):
            break
        if n == window[-1]:
            return
    n = max(n, window[0])
    zero_counts = _zero_block_counts(w, orbit_data)
    zero = [next(zero_counts)]  # zero[k] = Z_k for k <= r
    eulerian = [1]  # eulerian[j] = <<r, j>>, for j < max(r, 1)
    column = [1]  # column[k] = S(n-k, n-r), for k <= r
    total = 1
    # the total through the top rank n is |D_n|, over the cap
    for r in range(1, n + 1):
        zero.append(next(zero_counts))
        padded = [0, *eulerian, 0]
        eulerian = [(j + 1) * padded[j + 1] + (2 * r - 1 - j) * padded[j] for j in range(r)]
        top, a = 0, n + r - 1
        binomial = comb(a, 2 * r)
        for e in eulerian:  # the term of <<r, j>>, with a = n + r - 1 - j
            top += e * binomial
            binomial = binomial * (a - 2 * r) // a  # C(a - 1, 2r)
            a -= 1
        column.append(0)  # S(n-r, n-r+1)
        column = [top] + [column[k - 1] - (n - r + 1) * column[k] for k in range(1, r + 1)]
        total += sum(comb(n, k) * zero[k] * w ** (r - k) * column[k] for k in range(r + 1))
        if total > cap:
            raise CapExceeded(f"element cap {cap} exceeded while enumerating rank {r}",
                              partial_count=total)


def _levels(spec: DowlingSpec, cap: int):
    """D_n's rank levels from the bottom up, each element generated exactly
    once, from its canonical parent (reverse search), so nothing is looked
    up or deduplicated and no element is kept once its level is done.  The
    cap is checked from element counts before anything is built.  Within a
    level the order is that of generation.

    The parent rule.  For c other than the bottom, let m be c's largest
    point that is not a singleton block: m lies in Z or in a block of at
    least 2 points.  Then parent(c) is, one rank down and covered by c:
      - m in a block: c with m split off as a singleton {m};
      - m in Z, and the orbit O of its point s_m lies in T or Z hits O
        k != 2 times: c with m moved out of Z into a singleton {m};
      - m in Z, O outside T, and Z hits O exactly twice, at m' < m: c with
        both points replaced by the block {m', m} colored (e, g), g the
        least element with g.s_m' = s_m.
    Read backwards, with M the largest non-singleton point of e (-1 at the
    bottom), the children of e are:
      1. for each singleton {x} with x > M, each block A before it (so
         max A < x) and each g: A gains (x, g);
      2. for each singleton {x} with x > M and each s whose orbit lies in
         T or is hit at least twice by Z(e): Z gains (x, s);
      3. when M's block is a pair {m', M} colored (e, g): for each s whose
         orbit lies outside T and is not hit by Z(e), with g the least h
         such that h.s = g.s: the pair is absorbed into Z along s.
    Every block after the last one holding a point <= M is a singleton
    {x} with x > M, and x exceeds every point of Z(e), so cases 1 and 2
    append without a sort.
    """
    _check_window_cap(spec.group, spec.orbit_data, [spec.n], cap)
    group_order, action = spec.group.order, spec.gset.action
    orbit_id, in_t = spec._orbit_table
    orbit_points = [[] for _ in in_t]
    for s, o in enumerate(orbit_id):
        orbit_points[o].append(s)
    in_t_points = [s for s, o in enumerate(orbit_id) if in_t[o]]
    # absorb[g]: the points s outside T for which g is the least h with h.s = g.s
    absorb = [[s for s, o in enumerate(orbit_id) if not in_t[o]
               and next(h for h in range(group_order) if action[h][s] == action[g][s]) == g]
              for g in range(group_order)]
    outside_t = not all(in_t)
    # colored[x]: the entries (x, g), one per g
    colored = [row[:group_order] for row in spec._entries]
    new = tuple.__new__
    level = [bottom_element(spec)]
    while level:
        yield level
        children = []
        for blocks, zero in level:
            top, pair = (zero[-1][0] if zero else -1), -1
            for i, b in enumerate(blocks):
                if len(b) > 1 and b[-1][0] > top:
                    top, pair = b[-1][0], i
            points, counts = in_t_points, None
            if outside_t:  # orbit counts matter only outside T
                counts = [0] * len(in_t)
                for _, s in zero:
                    counts[orbit_id[s]] += 1
                points = in_t_points + [s for o, c in enumerate(counts) if c >= 2 and not in_t[o]
                                        for s in orbit_points[o]]
            first = len(blocks)
            while first and blocks[first - 1][0][0] > top:
                first -= 1
            for j in range(first, len(blocks)):
                x = blocks[j][0][0]
                tail = blocks[j + 1 :]
                for i in range(j):
                    head, a, mid = blocks[:i], blocks[i], blocks[i + 1 : j]
                    children += [new(DowlingElement, ((*head, (*a, xg), *mid, *tail), zero))
                                 for xg in colored[x]]
                rest = blocks[:j] + tail
                children += [new(DowlingElement, (rest, (*zero, (x, s)))) for s in points]
            if outside_t and pair >= 0 and len(blocks[pair]) == 2:
                (low, _), (_, g) = blocks[pair]
                rest = blocks[:pair] + blocks[pair + 1 :]
                for s in absorb[g]:
                    if not counts[orbit_id[s]]:
                        moved = [*zero, (low, s)]
                        moved.sort()
                        moved.append((top, action[g][s]))
                        children.append(new(DowlingElement, (rest, tuple(moved))))
        level = children


def enumerate_levels(spec: DowlingSpec, cap: int = DEFAULT_CAP
                     ) -> list[list[tuple[str, DowlingElement]]]:
    """Rank levels from the bottom element, generated by canonical parent
    (`_levels`), as (canonical string, element) pairs sorted by string: each
    string is built once, and no covers are built.  The strings are
    distinct, so the sort never compares two elements.

    Raises:
        CapExceeded: before anything is built, when D_n has more than cap
            elements through some rank level; carries the count through
            the first such level.
    """
    return [sorted(zip(map(element_to_string, level), level)) for level in _levels(spec, cap)]


def _cover_lists(spec: DowlingSpec, cap: int = DEFAULT_CAP
                 ) -> tuple[list[str], list[DowlingElement], list[int], list[tuple[int, ...]]]:
    """(names, elements, rank, up) of D_n from the levels of
    `enumerate_levels`: elements[i] is the canonical element at index i,
    names[i] its canonical string and rank[i] its level, and up[i] is the
    sorted tuple of the indices of its covers.  Indices go rank by
    rank, lexicographic by canonical string within a rank.  Each cover
    index is one addition and one lookup in a {code: index} dict: the
    element's point code plus one of its deltas (`_code_and_deltas`).
    Covers lie one level up, so the levels are walked from the top and
    each dict holds the codes of one level.

    Raises:
        CapExceeded: as `enumerate_levels`.
    """
    levels = enumerate_levels(spec, cap)
    names = [name for level in levels for name, _ in level]
    elements = [e for level in levels for _, e in level]
    rank = [r for r, level in enumerate(levels) for _ in level]
    sizes = [len(level) for level in levels]
    del levels  # its (name, element) pairs, before the covers add to the peak
    up = [()] * len(elements)
    index: dict[int, int] = {}  # code -> index, over the level above
    end = len(elements)
    for size in reversed(sizes):
        start, below = end - size, {}
        for i in range(start, end):
            code, deltas = _code_and_deltas(spec, elements[i])
            up[i] = tuple(sorted([index[code + d] for d in deltas]))
            below[code] = i
        index, end = below, start
    return names, elements, rank, up


def build_poset(spec: DowlingSpec, cap: int = DEFAULT_CAP
                ) -> tuple[Poset, list[DowlingElement], list[str]]:
    """Materialize the poset from the cover lists of `_cover_lists`.

    Returns (poset, elements, names) with elements[i] the canonical element
    at poset index i and names[i] its canonical string; indices go rank by
    rank, lexicographic by canonical string within a rank; poset rank
    labels are the level indices, n - #blocks.
    """
    names, elements, rank, up = _cover_lists(spec, cap)
    pairs = [(i, j) for i, js in enumerate(up) for j in js]
    del up
    return from_covers(len(elements), pairs, rank=rank), elements, names


def count_elements_species(spec: DowlingSpec) -> int:
    """|D_n^T(G,S)| from counts, no enumeration (`_element_counts`)."""
    return next(islice(_element_counts(spec.group.order, spec.orbit_data), spec.n, None))


class IntervalFactor(NamedTuple):
    kind: str  # "partition" or "orbit"
    ground: tuple[int, ...]  # original ground-set labels
    spec: DowlingSpec


def factor_interval(spec: DowlingSpec, elem: DowlingElement) -> list[IntervalFactor]:
    """Factor the lower interval below elem.

    One partition-lattice factor per block (on the block's elements) and one
    single-point factor per G-orbit of S (on the zero elements colored into
    that orbit, with the stabilizer of the orbit representative re-extracted
    as a standalone group).  The direct product of the factors' posets is
    isomorphic to the lower interval below elem.
    """
    validate_element(spec, elem)
    factors = [IntervalFactor(kind="partition", ground=tuple(x for x, _ in b),
                              spec=spec_partition(len(b)))
               for b in elem.blocks]
    orbit_id = spec._orbit_table[0]
    for i, (stab, in_t) in enumerate(spec.orbit_data):
        ground = tuple(x for x, s in elem.zero if orbit_id[s] == i)
        factors.append(IntervalFactor(kind="orbit", ground=ground,
                                      spec=spec_single_point(stab, len(ground), in_t)))
    return factors


def wreath_act(spec: DowlingSpec, w: WreathElement, elem: DowlingElement) -> DowlingElement:
    """Act by a wreath element: positions move by w.perm and the attached
    group elements multiply colors on the left; zero colors move through the
    G-action on S.  The result is re-canonicalized.

    Raises:
        InputError: if w has the wrong length or elem is not a valid
            canonical element.
    """
    if w.n != spec.n:
        raise InputError("wreath element length must match the ground set")
    validate_element(spec, elem)
    return _wreath_act(spec, w, elem)


def _wreath_act(spec: DowlingSpec, w: WreathElement, elem: DowlingElement) -> DowlingElement:
    """wreath_act on a w of length spec.n and an elem already known to be
    valid, so nothing is checked."""
    mul, action, perm, colors = spec.group.mul, spec.gset.action, w.perm, w.colors
    blocks = sorted([_canonical_block(spec, [(perm[x], mul[colors[x]][c]) for x, c in b])
                     for b in elem.blocks])
    zero = tuple(sorted([(perm[x], action[colors[x]][s]) for x, s in elem.zero]))
    return DowlingElement(blocks=tuple(blocks), zero=zero)


# JSON descriptors -----------------------------------------------------------

def spec_from_json(obj, n: int | None = None) -> DowlingSpec:
    """Parse {"group": {...}, "gset": {"size":..,"action":..,"T":..}} plus an
    optional "n"; an explicit n argument overrides the file."""
    if not isinstance(obj, dict):
        raise InputError("dowling spec must be an object")
    extra = set(obj) - {"group", "gset", "n", "name"}
    if extra:
        raise InputError(f"unknown dowling spec fields: {sorted(extra)}")
    if not isinstance(obj.get("name", ""), str):
        raise InputError("dowling spec 'name' must be a string")
    group = group_from_json(obj.get("group"))
    gset = gset_from_json(group, obj.get("gset"))
    if n is None:
        n = obj.get("n")
    if not is_int(n):
        raise InputError("dowling spec needs a ground set size n")
    return DowlingSpec(group=group, gset=gset, n=n, name=obj.get("name", ""))


def spec_to_json(spec: DowlingSpec) -> dict:
    group = {"kind": "table", "mul": [list(r) for r in spec.group.mul]}
    return {
        "group": group,
        "gset": {
            "size": spec.gset.size,
            "action": [list(r) for r in spec.gset.action],
            "T": sorted(spec.gset.t_subset),
        },
        "n": spec.n,
    }
