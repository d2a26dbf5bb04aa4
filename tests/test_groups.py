import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocs.errors import InputError
from ocs.groups import (
    GroupTable,
    GSetSpec,
    WreathElement,
    cyclic_group,
    embeds,
    group_from_json,
    group_from_table,
    gset_from_json,
    orbits_and_stabilizers,
    subgroup_table,
)
from helpers import wreath_compose, wreath_identity, wreath_inverse


def all_wreath_elements(group: GroupTable, n: int):
    """Iterate over the full wreath product G^n x| S_n (desk scale only)."""
    for perm in itertools.permutations(range(n)):
        for colors in itertools.product(range(group.order), repeat=n):
            yield WreathElement(colors=colors, perm=perm)


def orbit_count_burnside(gset: GSetSpec) -> int:
    """Number of orbits via the averaging formula, an oracle for
    orbits_and_stabilizers."""
    G = gset.group
    total = sum(
        sum(1 for s in range(gset.size) if gset.action[g][s] == s) for g in range(G.order)
    )
    q = Fraction(total, G.order)
    if q.denominator != 1:
        raise InputError("fixed-point average is not an integer; bad action table")
    return int(q)


def klein_four():
    # Z2 x Z2 as xor on {0,1,2,3}
    return group_from_table([[i ^ j for j in range(4)] for i in range(4)])


def test_cyclic_group_axioms():
    for k in range(1, 7):
        g = cyclic_group(k)
        assert g.order == k
        assert g.identity == 0
        assert all(g.mul[g.inv[a]][a] == 0 for a in range(k))


def test_cyclic_group_rejects_nonpositive():
    with pytest.raises(InputError):
        cyclic_group(0)


def test_group_from_table_rejects_non_associative():
    # a Latin square with identity that fails associativity (an order-5 loop)
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(InputError):
        group_from_table(bad)


def test_group_from_table_rejects_non_bijective_rows():
    with pytest.raises(InputError):
        group_from_table([[0, 0], [1, 1]])


def test_subgroup_table_extracts_even_part():
    z4 = cyclic_group(4)
    sub, ambient = subgroup_table(z4, [0, 2])
    assert sub.order == 2
    assert ambient == (0, 2)
    assert sub.mul == ((0, 1), (1, 0))


def test_subgroup_table_rejects_non_closed():
    z4 = cyclic_group(4)
    with pytest.raises(InputError):
        subgroup_table(z4, [0, 1])


def _permutation_group(perms) -> GroupTable:
    """The group of the given permutations (closed under composition)."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return group_from_table([[index[tuple(a[i] for i in b)] for b in perms] for a in perms])


def _product(g: GroupTable, h: GroupTable) -> GroupTable:
    m = h.order
    return group_from_table([[g.mul[a // m][b // m] * m + h.mul[a % m][b % m]
                              for b in range(g.order * m)] for a in range(g.order * m)])


SMALL_GROUPS = {
    "Z1": cyclic_group(1), "Z2": cyclic_group(2), "Z3": cyclic_group(3), "Z4": cyclic_group(4),
    "Klein": _product(cyclic_group(2), cyclic_group(2)), "Z6": cyclic_group(6),
    "S3": _permutation_group(itertools.permutations(range(3))),
    "Z2xZ4": _product(cyclic_group(2), cyclic_group(4)), "Z8": cyclic_group(8),
}


def _embeds_by_brute_force(sub: GroupTable, group: GroupTable) -> bool:
    return any(all(f[sub.mul[a][b]] == group.mul[f[a]][f[b]]
                   for a in range(sub.order) for b in range(sub.order))
               for f in itertools.permutations(range(group.order), sub.order))


@pytest.mark.parametrize("group", SMALL_GROUPS)
@pytest.mark.parametrize("sub", SMALL_GROUPS)
def test_embeds_finds_exactly_the_subgroups(sub, group):
    h, g = SMALL_GROUPS[sub], SMALL_GROUPS[group]
    expected = g.order % h.order == 0 and _embeds_by_brute_force(h, g)
    assert embeds(h, g) is expected
    if sub == "Klein":
        assert expected is (group in ("Klein", "Z2xZ4"))


def test_gset_validation_catches_non_action():
    z2 = cyclic_group(2)
    with pytest.raises(InputError):
        # identity must act trivially
        GSetSpec(group=z2, size=2, action=((1, 0), (0, 1)), t_subset=frozenset())


def test_gset_requires_invariant_t():
    z2 = cyclic_group(2)
    with pytest.raises(InputError):
        GSetSpec(group=z2, size=2, action=((0, 1), (1, 0)), t_subset=frozenset({0}))


def test_orbits_and_stabilizers_swap_action():
    z2 = cyclic_group(2)
    gs = GSetSpec(group=z2, size=2, action=((0, 1), (1, 0)), t_subset=frozenset())
    info = orbits_and_stabilizers(gs)
    assert len(info) == 1
    orbit, rep, stab = info[0]
    assert orbit == frozenset({0, 1}) and rep == 0 and stab == (0,)


def test_orbits_and_stabilizers_fixed_points():
    z2 = cyclic_group(2)
    gs = GSetSpec(group=z2, size=2, action=((0, 1), (0, 1)), t_subset=frozenset())
    info = orbits_and_stabilizers(gs)
    assert [orbit for orbit, _, _ in info] == [frozenset({0}), frozenset({1})]
    assert all(stab == (0, 1) for _, _, stab in info)


def test_burnside_counts_necklaces():
    z4 = cyclic_group(4)
    # Z4 rotating 4 beads: orbits of the regular action on positions
    gs = GSetSpec(
        group=z4,
        size=4,
        action=tuple(tuple((g + x) % 4 for x in range(4)) for g in range(4)),
        t_subset=frozenset(),
    )
    assert orbit_count_burnside(gs) == 1 == len(orbits_and_stabilizers(gs))


def _wreath_strategy(group, n):
    colors = st.tuples(*[st.integers(0, group.order - 1)] * n)
    perms = st.permutations(list(range(n)))
    return st.tuples(colors, perms).map(
        lambda cp: WreathElement(colors=cp[0], perm=tuple(cp[1]))
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wreath_group_law(data):
    group = data.draw(st.sampled_from([cyclic_group(2), cyclic_group(3), klein_four()]))
    n = data.draw(st.integers(1, 4))
    w1 = data.draw(_wreath_strategy(group, n))
    w2 = data.draw(_wreath_strategy(group, n))
    w3 = data.draw(_wreath_strategy(group, n))
    a = wreath_compose(group, w3, wreath_compose(group, w2, w1))
    b = wreath_compose(group, wreath_compose(group, w3, w2), w1)
    assert a == b
    ident = wreath_identity(group, n)
    assert wreath_compose(group, w1, wreath_inverse(group, w1)) == ident
    assert wreath_compose(group, wreath_inverse(group, w1), w1) == ident
    assert wreath_compose(group, ident, w1) == w1


def test_all_wreath_elements_count():
    z2 = cyclic_group(2)
    elems = list(all_wreath_elements(z2, 3))
    assert len(elems) == 2**3 * 6
    assert len(set(elems)) == len(elems)


def test_group_from_json_cyclic_and_table():
    g = group_from_json({"kind": "cyclic", "order": 3})
    assert g.order == 3
    h = group_from_json({"kind": "table", "mul": [[0, 1], [1, 0]]})
    assert h.order == 2
    with pytest.raises(InputError):
        group_from_json({"kind": "cyclic", "order": 3, "extra": 1})
    with pytest.raises(InputError):
        group_from_json({"kind": "unknown"})


def test_gset_from_json():
    z2 = cyclic_group(2)
    gs = gset_from_json(z2, {"size": 2, "action": [[0, 1], [1, 0]], "T": []})
    assert gs.size == 2
    with pytest.raises(InputError):
        gset_from_json(z2, {"size": 2, "action": [[0, 1], [1, 0]], "T": [0]})
    with pytest.raises(InputError):
        gset_from_json(z2, {"size": 2, "action": [[0, 1], [1, 0]], "bogus": 1})
