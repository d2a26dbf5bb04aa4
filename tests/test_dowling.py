import json
from importlib import resources
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from ocs.dowling import (
    DowlingElement,
    DowlingSpec,
    _code_and_deltas,
    _element_counts,
    _levels,
    _wreath_act,
    _zero_block_counts,
    _zero_valid,
    bottom_element,
    build_poset,
    count_elements_species,
    covers_of,
    element_to_string,
    enumerate_levels,
    factor_interval,
    parse_element,
    spec_from_json,
    spec_from_orbit_data,
    spec_partition,
    spec_single_point,
    spec_to_json,
    validate_element,
    wreath_act,
)
from ocs.errors import CapExceeded, InputError
from ocs.groups import GSetSpec, WreathElement, cyclic_group
from ocs.series import space_from_json
from helpers import (
    element_counts_by_comb,
    element_rank,
    wreath_compose,
    zero_block_counts_by_comb,
)
from test_groups import SMALL_GROUPS, all_wreath_elements
from poset_oracle import KLEIN, coset_gset
from ocs.posets import is_isomorphic, lower_interval, mobius


def spec_dowling(k, n):
    """Classical Dowling spec: cyclic group, one fixed color, T = S."""
    return spec_single_point(cyclic_group(k), n, in_t=True)


def spec_toric(n, t_points):
    z2 = cyclic_group(2)
    gs = GSetSpec(
        group=z2,
        size=2,
        action=((0, 1), (0, 1)),
        t_subset=frozenset(t_points),
    )
    return DowlingSpec(group=z2, gset=gs, n=n)


def strings(spec, cap=10000):
    return [
        element_to_string(e)
        for level in enumerate_levels(spec, cap)
        for _, e in level
    ]


def test_partition_poset_q3_strings():
    assert strings(spec_partition(3)) == [
        "0:0|0:1|0:2|Z{}",
        "0:0,0:1|0:2|Z{}",
        "0:0,0:2|0:1|Z{}",
        "0:0|0:1,0:2|Z{}",
        "0:0,0:1,0:2|Z{}",
    ]


def test_dowling_z2_n2_strings():
    assert strings(spec_dowling(2, 2)) == [
        "0:0|0:1|Z{}",
        "0:0,0:1|Z{}",
        "0:0,1:1|Z{}",
        "0:0|Z{1:0}",
        "0:1|Z{0:0}",
        "Z{0:0,1:0}",
    ]


def test_zero_spec_has_single_empty_element():
    assert strings(spec_partition(0)) == ["Z{}"]


def test_element_rank_counts_merges():
    spec = spec_dowling(2, 3)
    bot = bottom_element(spec)
    assert element_rank(spec, bot) == 0
    top = parse_element(spec, "Z{0:0,1:0,2:0}")
    assert element_rank(spec, top) == 3


def test_parse_roundtrip_and_canonicalization():
    spec = spec_dowling(3, 3)
    e = parse_element(spec, "0:0,2:2|Z{1:0}")
    assert element_to_string(e) == "0:0,2:2|Z{1:0}"
    # a non-identity leading color is re-translated to canonical form
    f = parse_element(spec, "1:0,0:2|Z{1:0}")
    assert element_to_string(f) == "0:0,2:2|Z{1:0}"


def test_parse_rejects_malformed():
    spec = spec_dowling(2, 2)
    for bad in ["", "0:0|0:1", "0:0|Z{9:0}", "0:0|Z{1:7}", "5:1|Z{0:0}", "0:0,0:0|Z{}"]:
        with pytest.raises(InputError):
            parse_element(spec, bad)


def test_t_restriction_blocks_singleton_zero():
    # with the color outside T a singleton zero block is not allowed
    spec = spec_single_point(cyclic_group(2), 2, in_t=False)
    with pytest.raises(InputError):
        parse_element(spec, "0:0|Z{1:0}")
    # but two zero points are fine
    parse_element(spec, "Z{0:0,1:0}")


def test_covers_of_bottom_counts():
    # from the discrete partition: one merge per pair per group element,
    # plus one zero-coloring per point per allowed color
    spec = spec_dowling(2, 3)
    cov = covers_of(spec, bottom_element(spec))
    assert len(cov) == 3 * 2 + 3 * 1


def covers_of_reference(spec, elem):
    """covers_of as it was before it built each cover in canonical form:
    every candidate is re-sorted, checked with _zero_valid and deduplicated
    through a dict."""
    mul = spec.group.mul
    out = {}
    blocks = elem.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            a, b = blocks[i], blocks[j]
            rest = blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :]
            for g in range(spec.group.order):
                merged = tuple(sorted(a + tuple((x, mul[c][g]) for x, c in b)))
                new_blocks = tuple(sorted(rest + (merged,), key=lambda bl: bl[0][0]))
                out[DowlingElement(blocks=new_blocks, zero=elem.zero)] = None
    action = spec.gset.action
    for i, b in enumerate(blocks):
        rest = blocks[:i] + blocks[i + 1 :]
        for s in range(spec.gset.size):
            zero = tuple(sorted(elem.zero + tuple((x, action[c][s]) for x, c in b)))
            if _zero_valid(spec, zero):
                out[DowlingElement(blocks=rest, zero=zero)] = None
    return list(out)


def bundled_poset_specs(nmax):
    return [spec_from_json(json.loads(res.read_text()), n=n)
            for res in sorted(resources.files("ocs").joinpath("specs", "posets").iterdir(),
                              key=lambda r: r.name)
            if res.name.endswith(".json")
            for n in range(nmax + 1)]


def _check_covers_against_reference(spec, elem, valid=True):
    got = covers_of(spec, elem)
    assert got == covers_of_reference(spec, elem)
    assert len(set(got)) == len(got)
    assert all(type(c) is DowlingElement for c in got)
    if valid:
        for c in got:
            validate_element(spec, c)


@pytest.mark.parametrize("spec", bundled_poset_specs(4) + [
    spec_single_point(cyclic_group(2), 3, in_t=False),
    spec_toric(3, []),
    spec_toric(3, [0]),
    spec_toric(3, [0, 1]),
    # S3 is not abelian, so a twist by g on the right is not one on the left
    spec_single_point(SMALL_GROUPS["S3"], 3, in_t=True),
    spec_from_orbit_data(SMALL_GROUPS["S3"], ((cyclic_group(1), False),), 3),
])
def test_covers_of_matches_the_dedup_reference(spec):
    for level in enumerate_levels(spec):
        for _, e in level:
            _check_covers_against_reference(spec, e)


@pytest.mark.parametrize("strict,loose", [
    (spec_single_point(cyclic_group(2), 3, in_t=False),
     spec_single_point(cyclic_group(2), 3, in_t=True)),
    (spec_toric(3, []), spec_toric(3, [0, 1])),
    (spec_toric(3, [0]), spec_toric(3, [0, 1])),
])
def test_covers_of_matches_the_reference_on_invalid_zero_blocks(strict, loose):
    # the elements of the loose spec include zero blocks that hit an orbit
    # outside the strict spec's T exactly once (one such orbit or two)
    invalid = 0
    for level in enumerate_levels(loose):
        for _, e in level:
            invalid += not _zero_valid(strict, e.zero)
            _check_covers_against_reference(strict, e, valid=False)
    assert invalid


def test_private_wreath_action_matches_wreath_act():
    spec = spec_dowling(2, 3)
    _, elems, _ = build_poset(spec)
    for w in all_wreath_elements(spec.group, spec.n):
        for e in elems:
            assert _wreath_act(spec, w, e) == wreath_act(spec, w, e)


def test_elements_equal_plain_tuples():
    e = parse_element(spec_dowling(2, 2), "0:0,1:1|Z{}")
    assert e == ((((0, 0), (1, 1)),), ()) and hash(e) == hash(tuple(e))
    assert e.blocks == (((0, 0), (1, 1)),) and e.zero == ()


@pytest.mark.parametrize("name,n", [("dowling_z3", 4), ("partition", 5)])
def test_build_poset_expands_each_element_once(monkeypatch, name, n):
    spec = spec_from_json(json.loads(
        resources.files("ocs").joinpath("specs", "posets", f"{name}.json").read_text()), n=n)
    expanded = []

    def counting_code_and_deltas(spec, elem):
        expanded.append(elem)
        return _code_and_deltas(spec, elem)

    monkeypatch.setattr("ocs.dowling._code_and_deltas", counting_code_and_deltas)
    p, elems, _ = build_poset(spec)
    assert len(expanded) == p.n_elems == len(elems)
    assert set(expanded) == set(elems)


def _coset_specs(n):
    """Dowling specs over coset G-sets of Z4 and the Klein group: one orbit
    per stabilizer, in and out of T, and pairs of orbits that mix
    stabilizers and T."""
    z4 = cyclic_group(4)
    subgroups = {z4: [(0,), (0, 2), (0, 1, 2, 3)], KLEIN: [(0,), (0, 1), (0, 3), (0, 1, 2, 3)]}
    pairs = {
        z4: [[((0, 2), False), ((0, 2), True)], [((0,), False), ((0, 1, 2, 3), False)],
             [((0, 2), False), ((0,), True)]],
        KLEIN: [[((0, 1), False), ((0, 3), False)], [((0,), False), ((0, 3), True)],
                [((0, 1, 2, 3), True), ((0, 1), False)]],
    }
    return [DowlingSpec(group=group, gset=coset_gset(group, orbits), n=n)
            for group, subs in subgroups.items()
            for orbits in [[(k, in_t)] for k in subs for in_t in (False, True)] + pairs[group]]


def _breadth_first(spec):
    """(levels, covers): the rank levels of spec's D_n as the breadth-first
    closure of covers_of from the bottom, each level deduplicated by a set
    and sorted by canonical string, and covers[e] = covers_of(spec, e)."""
    levels, covers = [[bottom_element(spec)]], {}
    while True:
        for e in levels[-1]:
            covers[e] = covers_of(spec, e)
        found = {c for e in levels[-1] for c in covers[e]}
        if not found:
            return levels, covers
        levels.append(sorted(found, key=element_to_string))


LEVEL_SPECS = (bundled_poset_specs(5)
               + [spec_partition(6)]
               + [spec_toric(n, t) for n in range(5) for t in ([], [0], [0, 1])]
               + [spec_single_point(cyclic_group(k), n, in_t)
                  for k in (1, 2, 3) for n in range(5) for in_t in (False, True)]
               + [spec for n in range(5) for spec in _coset_specs(n)])


@pytest.mark.parametrize("spec", LEVEL_SPECS)
def test_levels_are_the_breadth_first_levels(spec):
    # generated by canonical parent, each element once: sorted, the levels
    # are the breadth-first closure's, and build_poset has its covers
    levels, covers = _breadth_first(spec)
    assert [sorted(level, key=element_to_string) for level in _levels(spec, 10**6)] == levels
    p, elements, _ = build_poset(spec, cap=10**6)
    assert [e for level in levels for e in level] == elements
    assert [len(level) for level in levels] == [p.rank.count(r) for r in range(len(levels))]
    index = {e: i for i, e in enumerate(elements)}
    assert ({(i, j) for i, up in enumerate(p.hasse) for j in up}
            == {(index[e], index[c]) for e, up in covers.items() for c in up})


@pytest.mark.parametrize("spec", LEVEL_SPECS + [
    # S3 is not abelian, so a twist by g on the right is not one on the left
    spec_single_point(SMALL_GROUPS["S3"], 3, in_t=True),
    spec_from_orbit_data(SMALL_GROUPS["S3"], ((cyclic_group(1), False),), 3),
])
def test_build_poset_has_the_covers_of_the_reference(spec):
    # the covers found from point codes are the dedup reference's, by index
    p, elements, _ = build_poset(spec, cap=10**6)
    index = {e: i for i, e in enumerate(elements)}
    assert list(p.hasse) == [tuple(sorted(index[c] for c in covers_of_reference(spec, e)))
                             for e in elements]


@pytest.mark.parametrize("spec", [
    spec_single_point(cyclic_group(12), 3, in_t=True),
    spec_from_orbit_data(cyclic_group(1), ((cyclic_group(1), True),) * 11, 3),
])
def test_levels_are_in_canonical_string_order(spec):
    # colors of two digits: "10:1" sorts before "2:1", so tuple order is not
    # string order, and the levels must follow the string
    levels = list(_levels(spec, 10**6))
    assert any(sorted(level) != sorted(level, key=element_to_string) for level in levels)
    named = enumerate_levels(spec, 10**6)
    assert [[e for _, e in level] for level in named] == [
        sorted(level, key=element_to_string) for level in levels]
    assert all(name == element_to_string(e) for level in named for name, e in level)
    _, elements, names = build_poset(spec, 10**6)
    assert names == [element_to_string(e) for e in elements]


def test_cap_exceeded_carries_partial_count():
    spec = spec_dowling(3, 4)
    with pytest.raises(CapExceeded) as exc:
        enumerate_levels(spec, cap=100)
    assert exc.value.partial_count is not None and exc.value.partial_count > 100


def test_counts_match_species_small_grid():
    z1, z2, z3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
    specs = [
        spec_partition(4),
        spec_dowling(2, 4),
        spec_dowling(3, 3),
        spec_single_point(z2, 3, in_t=False),
        spec_toric(3, [0]),
        spec_toric(3, [0, 1]),
        spec_toric(3, []),
    ]
    for spec in specs + bundled_poset_specs(4):
        assert sum(len(l) for l in enumerate_levels(spec)) == count_elements_species(spec)


def test_frozen_counts():
    assert count_elements_species(spec_partition(3)) == 5
    assert count_elements_species(spec_partition(5)) == 52
    assert count_elements_species(spec_dowling(2, 2)) == 6
    assert count_elements_species(spec_dowling(2, 4)) == 116
    assert count_elements_species(spec_dowling(3, 4)) == 214
    assert count_elements_species(spec_toric(4, [0, 1])) == 257


def test_build_poset_ranks_are_bfs_levels():
    spec = spec_dowling(2, 3)
    p, elems, _ = build_poset(spec)
    assert p.rank is not None
    assert all(element_rank(spec, e) == p.rank[i] for i, e in enumerate(elems))
    assert p.bottom() == 0


def test_single_color_full_t_is_partition_lattice_shifted():
    # the Dowling poset of the trivial group on one in-T color matches the
    # partition lattice on one more point
    for n in range(0, 5):
        spec = spec_single_point(cyclic_group(1), n, in_t=True)
        p, _, _ = build_poset(spec)
        q, _, _ = build_poset(spec_partition(n + 1))
        assert p.n_elems == q.n_elems
        assert is_isomorphic(p, q) is not None


def test_mobius_of_dowling_lattice_top():
    # |mu| of D_n(Z2) equals the falling product 1*3*5*...*(2n-1)
    spec = spec_dowling(2, 3)
    p, _, _ = build_poset(spec)
    assert abs(mobius(p, p.bottom(), p.top())) == 1 * 3 * 5


def test_interval_factorization_shapes():
    spec = spec_toric(3, [0])
    e = parse_element(spec, "0:0,0:2|Z{1:0}")
    kinds = sorted(f.kind for f in factor_interval(spec, e))
    assert kinds == ["orbit", "orbit", "partition"]
    # ground sets partition the support
    grounds = sorted(x for f in factor_interval(spec, e) for x in f.ground)
    assert grounds == [0, 1, 2]


def test_interval_factorization_is_isomorphic_spot():
    from ocs.posets import chain_poset, direct_product

    spec = spec_dowling(2, 3)
    p, elems, _ = build_poset(spec)
    for idx, e in enumerate(elems):
        interval, _ = lower_interval(p, idx)
        prod = chain_poset(1)
        for f in factor_interval(spec, e):
            prod = direct_product(prod, build_poset(f.spec)[0])
        assert is_isomorphic(interval, prod) is not None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wreath_action_is_a_group_action(data):
    spec = spec_dowling(2, 3)
    _, elems, _ = build_poset(spec)
    e = data.draw(st.sampled_from(elems))
    ws = list(all_wreath_elements(spec.group, 3))
    w1 = data.draw(st.sampled_from(ws))
    w2 = data.draw(st.sampled_from(ws))
    a = wreath_act(spec, w2, wreath_act(spec, w1, e))
    b = wreath_act(spec, wreath_compose(spec.group, w2, w1), e)
    assert a == b


def test_wreath_action_preserves_order():
    for spec in [spec_dowling(2, 3), spec_toric(2, [0])]:
        p, elems, _ = build_poset(spec)
        index = {e: i for i, e in enumerate(elems)}
        for w in all_wreath_elements(spec.group, spec.n):
            img = [index[wreath_act(spec, w, e)] for e in elems]
            for a in range(p.n_elems):
                for b in p.hasse[a]:
                    assert p.is_leq(img[a], img[b])


def test_wreath_orbit_of_twisted_pair():
    # the twisted and untwisted 2-blocks lie in one wreath orbit: conjugating
    # by a color on one point flips the twist
    spec = spec_dowling(2, 2)
    e = parse_element(spec, "0:0,1:1|Z{}")
    orbit = set()
    for w in all_wreath_elements(spec.group, 2):
        orbit.add(element_to_string(wreath_act(spec, w, e)))
    assert orbit == {"0:0,0:1|Z{}", "0:0,1:1|Z{}"}


def test_spec_json_roundtrip():
    spec = spec_toric(3, [0])
    obj = spec_to_json(spec)
    back = spec_from_json(obj)
    assert back.n == 3 and back.gset.t_subset == frozenset({0})
    assert back.group.mul == spec.group.mul
    with pytest.raises(InputError):
        spec_from_json({"group": {"kind": "cyclic", "order": 2}})
    with pytest.raises(InputError):
        spec_from_json({**obj, "surprise": 1})


def spec_partition_reference(n, name=""):
    """spec_partition as it was written before specs were built from orbit
    data: a hand-built empty G-set of the trivial group."""
    g = cyclic_group(1)
    gs = GSetSpec(group=g, size=0, action=((),), t_subset=frozenset())
    return DowlingSpec(group=g, gset=gs, n=n, name=name)


def spec_single_point_reference(group, n, in_t, name=""):
    """spec_single_point as it was written before specs were built from
    orbit data: a hand-built one-point G-set."""
    gs = GSetSpec(
        group=group,
        size=1,
        action=tuple((0,) for _ in range(group.order)),
        t_subset=frozenset({0} if in_t else ()),
    )
    return DowlingSpec(group=group, gset=gs, n=n, name=name)


@pytest.mark.parametrize("n", range(5))
def test_spec_partition_matches_the_hand_built_g_set(n):
    assert spec_partition(n) == spec_partition_reference(n)
    assert spec_partition(n, "pi") == spec_partition_reference(n, "pi")


@pytest.mark.parametrize("in_t", [True, False])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_spec_single_point_matches_the_hand_built_g_set(order, in_t):
    g = cyclic_group(order)
    for n in range(4):
        assert spec_single_point(g, n, in_t) == spec_single_point_reference(g, n, in_t)
        assert (spec_single_point(g, n, in_t, name="q")
                == spec_single_point_reference(g, n, in_t, name="q"))


@pytest.mark.parametrize("spec", bundled_poset_specs(4), ids=lambda s: f"{s.name}-n{s.n}")
def test_spec_from_orbit_data_inverts_orbit_data_on_the_bundled_specs(spec):
    # every orbit of a bundled spec is a fixed point
    assert all(stab == spec.group for stab, _ in spec.orbit_data)
    assert spec_from_orbit_data(spec.group, spec.orbit_data, spec.n, spec.name) == spec


def test_spec_from_orbit_data_lays_out_free_orbits_and_fixed_points():
    z1, z3 = cyclic_group(1), cyclic_group(3)
    orbit_data = ((z1, True), (z3, False), (z1, False))
    spec = spec_from_orbit_data(z3, orbit_data, 2)
    assert spec.gset.size == 7
    assert spec.gset.action[1] == (1, 2, 0, 3, 5, 6, 4)
    assert spec.gset.t_subset == frozenset({0, 1, 2})
    assert spec.orbit_data == orbit_data
    assert sum(len(l) for l in enumerate_levels(spec)) == count_elements_species(spec)


def test_validate_element_catches_foreign_support():
    spec = spec_dowling(2, 2)
    good = parse_element(spec, "0:0,0:1|Z{}")
    bad_spec = spec_dowling(2, 3)
    with pytest.raises(InputError):
        validate_element(spec, parse_element(bad_spec, "0:0,0:1,0:2|Z{}"))


SPACES = sorted(res.name for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
                if res.name.endswith(".json"))


@pytest.mark.parametrize("name", SPACES)
def test_counts_stepped_by_pascal_match_the_binomial_sums(name):
    space = space_from_json(json.loads(
        resources.files("ocs").joinpath("specs", "spaces", name).read_text()))
    w, orbit_data = space.group.order, space.orbit_data
    assert (list(islice(_zero_block_counts(w, orbit_data), 61))
            == list(islice(zero_block_counts_by_comb(w, orbit_data), 61)))
    assert (list(islice(_element_counts(w, orbit_data), 61))
            == list(islice(element_counts_by_comb(w, orbit_data), 61)))
