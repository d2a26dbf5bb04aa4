"""Finite groups as explicit multiplication tables, finite G-sets, and
wreath-product elements.

Groups are always given by their full multiplication table over element
indices ``0..order-1``.  All the groups appearing in the intended
applications are tiny (|G| <= 4 or so), and table form makes orbits,
stabilizers and inverses exact and trivial to compute.
"""

from __future__ import annotations

from .errors import InputError, is_int, is_int_list

__all__ = [
    "GroupTable",
    "GSetSpec",
    "WreathElement",
    "cyclic_group",
    "group_from_table",
    "subgroup_table",
    "embeds",
    "orbits_and_stabilizers",
    "group_from_json",
    "gset_from_json",
]


class _Value:
    """Equality, hashing and repr by the fields named in ``_fields``: two
    objects are equal when they are of one class and their fields are
    equal.  Written once here, so no class has methods generated for it
    at import."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class GroupTable(_Value):
    """A finite group presented by its multiplication table.

    Attributes:
        order: number of elements.
        mul: tuple of tuples; ``mul[a][b]`` is the product ``a*b``.
        identity: index of the identity element.
        inv: tuple; ``inv[a]`` is the two-sided inverse of ``a``.
    """

    __slots__ = _fields = ("order", "mul", "identity", "inv")

    def __init__(self, order: int, mul: tuple[tuple[int, ...], ...], identity: int,
                 inv: tuple[int, ...]):
        self.order, self.mul, self.identity, self.inv = order, mul, identity, inv
        n = self.order
        if n < 1:
            raise InputError("group order must be positive")
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise InputError("multiplication table must be order x order")
        for row in self.mul:
            for v in row:
                if not (0 <= v < n):
                    raise InputError("table entry out of range")
        e = self.identity
        for a in range(n):
            if self.mul[e][a] != a or self.mul[a][e] != a:
                raise InputError("identity is not two-sided")
        for a in range(n):
            b = self.inv[a]
            if self.mul[a][b] != e or self.mul[b][a] != e:
                raise InputError("inverse table is not two-sided")
        # Associativity on all triples: n <= 4ish in practice, cubic is fine.
        mul = self.mul
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                row_b = mul[b]
                row_ab = mul[ab]
                for c in range(n):
                    if row_ab[c] != mul[a][row_b[c]]:
                        raise InputError("multiplication table is not associative")

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def _find_identity(mul: tuple[tuple[int, ...], ...]) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            return e
    raise InputError("no two-sided identity in table")


def group_from_table(mul) -> GroupTable:
    """Build a GroupTable from a raw multiplication table, locating the
    identity and inverses by brute-force search."""
    tmul = tuple(tuple(row) for row in mul)
    n = len(tmul)
    if n == 0:
        raise InputError("empty multiplication table")
    e = _find_identity(tmul)
    inv = []
    for a in range(n):
        cands = [b for b in range(n) if tmul[a][b] == e and tmul[b][a] == e]
        if len(cands) != 1:
            raise InputError(f"element {a} lacks a unique two-sided inverse")
        inv.append(cands[0])
    return GroupTable(order=n, mul=tmul, identity=e, inv=tuple(inv))


def cyclic_group(k: int) -> GroupTable:
    """The cyclic group Z_k with mul[i][j] = (i + j) mod k.

    Args:
        k: order, must be >= 1.
    """
    if k < 1:
        raise InputError("cyclic group order must be >= 1")
    mul = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    inv = tuple((-i) % k for i in range(k))
    return GroupTable(order=k, mul=mul, identity=0, inv=inv)


def subgroup_table(group: GroupTable, elements) -> tuple[GroupTable, tuple[int, ...]]:
    """Re-extract a subgroup as a standalone GroupTable by index compression.

    Args:
        group: the ambient group.
        elements: iterable of element indices closed under multiplication
            and inverse and containing the identity.

    Returns:
        (subgroup as its own GroupTable, sorted tuple of ambient indices);
        new index i corresponds to ambient index ``sorted(elements)[i]``.
    """
    elems = tuple(sorted(set(elements)))
    pos = {g: i for i, g in enumerate(elems)}
    if group.identity not in pos:
        raise InputError("subgroup must contain the identity")
    for a in elems:
        if group.inv[a] not in pos:
            raise InputError("subgroup not closed under inverse")
        for b in elems:
            if group.mul[a][b] not in pos:
                raise InputError("subgroup not closed under multiplication")
    mul = tuple(tuple(pos[group.mul[a][b]] for b in elems) for a in elems)
    sub = GroupTable(
        order=len(elems),
        mul=mul,
        identity=pos[group.identity],
        inv=tuple(pos[group.inv[a]] for a in elems),
    )
    return sub, elems


def _element_orders(group: GroupTable) -> list[int]:
    orders = []
    for a in range(group.order):
        k, x = 1, a
        while x != group.identity:
            k, x = k + 1, group.mul[x][a]
        orders.append(k)
    return orders


def _spread(sub: GroupTable, group: GroupTable, gens, images) -> dict[int, int] | None:
    """The map from the subgroup of sub generated by gens into group that
    sends the identity to the identity and gens[i] to images[i], spread by
    right multiplication with the generators; None when two products
    disagree or two elements share an image."""
    image = {sub.identity: group.identity}
    frontier = [sub.identity]
    while frontier:
        x = frontier.pop()
        for s, t in zip(gens, images):
            y, v = sub.mul[x][s], group.mul[image[x]][t]
            if y not in image:
                image[y] = v
                frontier.append(y)
            elif image[y] != v:
                return None
    return image if len(set(image.values())) == len(image) else None


def embeds(sub: GroupTable, group: GroupTable) -> bool:
    """Whether some injective homomorphism maps sub into group.

    Backtracking over the images of a generating set of sub, each taken
    among the elements of group of the same order; a branch dies as soon
    as its partial map (`_spread`) is no injective homomorphism.  A map
    that agrees on every product x*s, s a generator, is a homomorphism,
    since every element of a finite group is a word in its generators.
    """
    gens: list[int] = []
    span = {sub.identity}
    for a in range(sub.order):
        if a not in span:
            gens.append(a)
            span = _spread(sub, sub, gens, gens).keys()
    sub_orders, orders = _element_orders(sub), _element_orders(group)

    def extend(images: list[int]) -> bool:
        k = len(images)
        if _spread(sub, group, gens[:k], images) is None:
            return False
        return k == len(gens) or any(extend(images + [y]) for y in range(group.order)
                                     if orders[y] == sub_orders[gens[k]])

    return extend([])


class GSetSpec(_Value):
    """A finite G-set S together with a distinguished G-invariant subset T.

    Attributes:
        group: the acting group.
        size: number of points of S.
        action: tuple of tuples; ``action[g][s]`` is the point g.s.
        t_subset: frozenset of point indices, closed under the action.
    """

    __slots__ = _fields = ("group", "size", "action", "t_subset")

    def __init__(self, group: GroupTable, size: int, action: tuple[tuple[int, ...], ...],
                 t_subset: frozenset[int]):
        self.group, self.size, self.action, self.t_subset = group, size, action, t_subset
        G = self.group
        m = self.size
        if m < 0:
            raise InputError("G-set size must be nonnegative")
        if len(self.action) != G.order or any(len(row) != m for row in self.action):
            raise InputError("action table must be order x size")
        for row in self.action:
            for v in row:
                if not (0 <= v < m):
                    raise InputError("action entry out of range")
        # Identity acts as the identity permutation.
        if tuple(self.action[G.identity]) != tuple(range(m)):
            raise InputError("identity must act trivially")
        # Homomorphism to permutations: (gh).s = g.(h.s), and each row a bijection.
        for g in range(G.order):
            if len(set(self.action[g])) != m:
                raise InputError(f"group element {g} does not act by a permutation")
            for h in range(G.order):
                gh = G.mul[g][h]
                for s in range(m):
                    if self.action[gh][s] != self.action[g][self.action[h][s]]:
                        raise InputError("action is not a group homomorphism")
        for s in self.t_subset:
            if not (0 <= s < m):
                raise InputError("T contains a point outside S")
            for g in range(G.order):
                if self.action[g][s] not in self.t_subset:
                    raise InputError("T is not G-invariant")

    def orbit_of(self, s: int) -> frozenset[int]:
        return frozenset(self.action[g][s] for g in range(self.group.order))

    def __repr__(self):
        return f"GSetSpec(|G|={self.group.order}, size={self.size}, |T|={len(self.t_subset)})"


def orbits_and_stabilizers(gset: GSetSpec):
    """Orbit decomposition of a G-set.

    Returns:
        List of (orbit: frozenset of points, representative: minimal point
        index in the orbit, stabilizer: sorted tuple of group elements
        fixing the representative), ordered by representative.
    """
    G = gset.group
    seen = set()
    out = []
    for s in range(gset.size):
        if s in seen:
            continue
        orbit = gset.orbit_of(s)
        seen |= orbit
        rep = min(orbit)
        stab = tuple(g for g in range(G.order) if gset.action[g][rep] == rep)
        if len(orbit) * len(stab) != G.order:
            raise InputError("orbit-stabilizer count mismatch; action table is inconsistent")
        out.append((orbit, rep, stab))
    return out


class WreathElement(_Value):
    """An element (colors, perm) of the wreath product G^n x| S_n.

    ``perm`` maps positions: i goes to perm[i].  ``colors[i]`` is the group
    element attached to source position i.  Composition follows the rule
    (w2 o w1).perm = w2.perm o w1.perm and
    (w2 o w1).colors[i] = w2.colors[w1.perm[i]] * w1.colors[i].
    """

    __slots__ = _fields = ("colors", "perm")

    def __init__(self, colors: tuple[int, ...], perm: tuple[int, ...]):
        self.colors, self.perm = colors, perm
        n = len(self.perm)
        if len(self.colors) != n:
            raise InputError("colors and perm must have equal length")
        if sorted(self.perm) != list(range(n)):
            raise InputError("perm is not a bijection")

    @property
    def n(self) -> int:
        return len(self.perm)


# JSON descriptors ----------------------------------------------------------

def group_from_json(obj) -> GroupTable:
    """Parse {"kind":"cyclic","order":k} or {"kind":"table","mul":[[...]]}."""
    if not isinstance(obj, dict):
        raise InputError("group descriptor must be an object")
    kind = obj.get("kind")
    if kind == "cyclic":
        order = obj.get("order")
        if not is_int(order):
            raise InputError("cyclic group descriptor needs integer 'order'")
        extra = set(obj) - {"kind", "order"}
        if extra:
            raise InputError(f"unknown group descriptor fields: {sorted(extra)}")
        return cyclic_group(order)
    if kind == "table":
        mul = obj.get("mul")
        if not isinstance(mul, list) or not all(is_int_list(row, len(mul)) for row in mul):
            raise InputError("table group descriptor needs a square integer table 'mul'")
        extra = set(obj) - {"kind", "mul"}
        if extra:
            raise InputError(f"unknown group descriptor fields: {sorted(extra)}")
        return group_from_table(mul)
    raise InputError("group descriptor kind must be 'cyclic' or 'table'")


def gset_from_json(group: GroupTable, obj) -> GSetSpec:
    """Parse {"size":m,"action":[[...]],"T":[...]} against a given group."""
    if not isinstance(obj, dict):
        raise InputError("gset descriptor must be an object")
    extra = set(obj) - {"size", "action", "T"}
    if extra:
        raise InputError(f"unknown gset descriptor fields: {sorted(extra)}")
    size = obj.get("size")
    action = obj.get("action")
    t = obj.get("T", [])
    if (not is_int(size) or not isinstance(action, list)
            or not all(is_int_list(row) for row in action) or not is_int_list(t)):
        raise InputError(
            "gset descriptor needs integer 'size', integer table 'action', integer list 'T'")
    return GSetSpec(
        group=group,
        size=size,
        action=tuple(tuple(row) for row in action),
        t_subset=frozenset(t),
    )
