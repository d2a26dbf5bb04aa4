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
rank, lexicographic by canonical string within a rank.  One breadth-first
pass expands each element once; no caller reads the generation order in
which ``covers_of`` lists the covers.

``covers_of`` builds every cover directly in canonical form, and the covers
of one element are distinct by construction, so nothing is deduplicated or
re-sorted.  Elements are NamedTuples, hashed and compared in C; an element
compares equal to the plain tuple ``(blocks, zero)`` of the same fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import CapExceeded, InputError, is_int
from .groups import (
    GroupTable,
    GSetSpec,
    WreathElement,
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
    "element_rank",
    "element_to_string",
    "parse_element",
    "validate_element",
    "covers_of",
    "enumerate_levels",
    "build_poset",
    "count_elements_species",
    "factor_interval",
    "wreath_act",
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


@dataclass(frozen=True)
class DowlingSpec:
    group: GroupTable
    gset: GSetSpec
    n: int
    name: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise InputError("ground set size must be nonnegative")
        if self.gset.group is not self.group and self.gset.group != self.group:
            raise InputError("gset must act under the same group")

    def orbit_info(self):
        """[(orbit id, frozenset points, rep, stabilizer elems, in_T)] sorted by rep."""
        out = []
        for i, (orbit, rep, stab) in enumerate(orbits_and_stabilizers(self.gset)):
            out.append((i, orbit, rep, stab, rep in self.gset.t_subset))
        return out

    @cached_property
    def _orbit_table(self) -> tuple[tuple[int, ...], tuple[bool, ...]]:
        """(orbit id of each point of S, whether each orbit lies in T),
        computed once per spec; the frozen dataclass still has a __dict__
        for the cached value."""
        ids = [0] * self.gset.size
        in_t = []
        for i, orbit, _rep, _stab, orbit_in_t in self.orbit_info():
            for pt in orbit:
                ids[pt] = i
            in_t.append(orbit_in_t)
        return tuple(ids), tuple(in_t)


def spec_partition(n: int, name: str = "") -> DowlingSpec:
    """The partition lattice Q_n as the trivial-group, empty-S case."""
    g = cyclic_group(1)
    gs = GSetSpec(group=g, size=0, action=((),), t_subset=frozenset())
    return DowlingSpec(group=g, gset=gs, n=n, name=name)


def spec_single_point(group: GroupTable, n: int, in_t: bool, name: str = "") -> DowlingSpec:
    """S a single G-fixed point, optionally in T (the classical lattice case
    when in_t is true)."""
    gs = GSetSpec(
        group=group,
        size=1,
        action=tuple((0,) for _ in range(group.order)),
        t_subset=frozenset({0} if in_t else ()),
    )
    return DowlingSpec(group=group, gset=gs, n=n, name=name)


def bottom_element(spec: DowlingSpec) -> DowlingElement:
    e = spec.group.identity
    return DowlingElement(
        blocks=tuple(((x, e),) for x in range(spec.n)),
        zero=(),
    )


def element_rank(spec: DowlingSpec, elem: DowlingElement) -> int:
    return spec.n - len(elem.blocks)


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


def covers_of(spec: DowlingSpec, elem: DowlingElement) -> list[DowlingElement]:
    """All covers of the canonical element elem, each built directly in
    canonical form, in generation order: merges by block pair i < j and
    twist g, then color moves by block and point s of S.

    The covers are distinct by construction, so none is deduplicated: a
    merge of blocks i < j with twist g colors b = blocks[j]'s minimum by g,
    a color move of a block along s puts s on that block's minimum, and a
    merge keeps the zero block while a color move grows it.

    The merged block keeps block i's minimum, so it takes block i's place
    and the block tuple needs no re-sort.  A color move along s adds
    len(b) points to the orbit of s and changes no other orbit, so the
    orbit counts of elem.zero, taken once, decide every move before its
    zero block is built; a move is kept exactly when its zero coloring is
    valid, even if elem's own is not.
    """
    mul, e = spec.group.mul, spec.group.identity
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple
    new = tuple.__new__
    out = []
    blocks, zero = elem.blocks, elem.zero
    # twisted[j][g]: block j with every color multiplied by g on the right;
    # block 0 is never twisted
    twisted = [()] + [[b if g == e else tuple([(x, mul[c][g]) for x, c in b])
                       for g in range(spec.group.order)]
                      for b in blocks[1:]]
    for i, a in enumerate(blocks):
        head = blocks[:i]
        for j in range(i + 1, len(blocks)):
            tail = blocks[i + 1 : j] + blocks[j + 1 :]
            for b in twisted[j]:
                merged = [*a, *b]
                merged.sort()
                out.append(new(DowlingElement, ((*head, tuple(merged), *tail), zero)))
    orbit_id, in_t = spec._orbit_table
    counts = [0] * len(in_t)
    for _, s in zero:
        counts[orbit_id[s]] += 1
    # orbits hit exactly once outside T; a move must land in the only one
    bad = [o for o, c in enumerate(counts) if c == 1 and not in_t[o]]
    if len(bad) > 1:
        return out
    points = [s for s in range(spec.gset.size) if not bad or orbit_id[s] == bad[0]]
    # a singleton block must not hit a new orbit outside T exactly once
    single_points = [s for s in points if counts[orbit_id[s]] or in_t[orbit_id[s]]]
    action = spec.gset.action
    for i, b in enumerate(blocks):
        rest = blocks[:i] + blocks[i + 1 :]
        for s in single_points if len(b) == 1 else points:
            moved = [(x, action[c][s]) for x, c in b]
            moved += zero
            moved.sort()
            out.append(new(DowlingElement, (rest, tuple(moved))))
    return out


def _check_cap(cap: int, rank: int, total: int) -> None:
    """Refuse an enumeration that has found total elements up to rank."""
    if total > cap:
        raise CapExceeded(
            f"element cap {cap} exceeded while enumerating rank {rank}",
            partial_count=total,
        )


def _breadth_first(spec: DowlingSpec, cap: int, covers: list | None = None):
    """The one pass behind enumerate_levels and build_poset: it expands
    every element by covers_of once, and appends each element's covers, in
    element order, to covers when that is a list."""
    levels = [[bottom_element(spec)]]
    total = 1
    while True:
        found: dict[DowlingElement, DowlingElement] = {}
        for e in levels[-1]:
            # setdefault keeps one object per element, shared by every cover list
            up = [found.setdefault(c, c) for c in covers_of(spec, e)]
            if covers is not None:
                covers.append(up)
        if not found:
            return levels
        total += len(found)
        _check_cap(cap, len(levels), total)
        levels.append(sorted(found, key=element_to_string))


def enumerate_levels(spec: DowlingSpec, cap: int = DEFAULT_CAP) -> list[list[DowlingElement]]:
    """Breadth-first rank levels from the bottom element, each sorted by
    canonical string; no covers are kept.

    Raises:
        CapExceeded: when more than cap elements appear; carries the count
            of elements found so far.
    """
    return _breadth_first(spec, cap)


def build_poset(spec: DowlingSpec, cap: int = DEFAULT_CAP) -> tuple[Poset, list[DowlingElement]]:
    """Materialize the poset from the covers that one breadth-first pass
    keeps as it expands each element.

    Returns (poset, elements) with elements[i] the canonical element at
    poset index i; indices go rank by rank, lexicographic by canonical
    string within a rank; poset rank labels are n - #blocks.
    """
    covers: list[list[DowlingElement]] = []
    elements = [e for level in _breadth_first(spec, cap, covers) for e in level]
    index = {e: i for i, e in enumerate(elements)}
    pairs = [(i, index[c]) for i, up in enumerate(covers) for c in up]
    rank = tuple(element_rank(spec, e) for e in elements)
    return from_covers(len(elements), pairs, rank=rank), elements


def count_elements_species(spec: DowlingSpec) -> int:
    """|D_n^T(G,S)| by generating-function algebra, no enumeration.

    In the weighted convention (tau^n coefficient = count / (w^n n!), with
    w = |G|), the poset's element species factors as exp over block sizes
    (w^(m-1) colorings of an m-block) times one zero-block factor per orbit
    of S ((w/|G_s|)^k colorings of a k-point zero block); the orbit factor's
    degree-1 term is present exactly when the orbit lies in T.  The count is
    the x = y = 0 case of a WeightedSeries.
    """
    # imported here because series imports this module
    from .series import WeightedSeries, series_exp

    n, w = spec.n, spec.group.order
    f = series_exp(WeightedSeries._of(w, n, [{(0, 0): w ** (m - 1)} if m else {}
                                             for m in range(n + 1)]))
    for _i, _orbit, _rep, stab, in_t in spec.orbit_info():
        c = len(stab)
        f = f * WeightedSeries._of(
            w, n, [{(0, 0): (w // c) ** k} if k != 1 or in_t else {} for k in range(n + 1)]
        )
    total = f.unweighted_dim(n, 0, 0)
    assert type(total) is int and total >= 0
    return total


@dataclass(frozen=True)
class IntervalFactor:
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
    for i, _orbit, _rep, stab, in_t in spec.orbit_info():
        ground = tuple(x for x, s in elem.zero if orbit_id[s] == i)
        stab_group, _ = subgroup_table(spec.group, stab)
        factors.append(IntervalFactor(kind="orbit", ground=ground,
                                      spec=spec_single_point(stab_group, len(ground), in_t)))
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

def spec_from_json(obj, n: int | None = None, name: str = "") -> DowlingSpec:
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
    return DowlingSpec(group=group, gset=gset, n=n, name=name or obj.get("name", ""))


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
