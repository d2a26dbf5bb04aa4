import json
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import ocs.homology
import ocs.posets
from ocs.dowling import build_poset, spec_from_json, spec_partition, spec_single_point
from ocs.errors import CapExceeded, DomainError, InputError
from ocs.groups import cyclic_group
from ocs.homology import (
    _boundary_matrices,
    _check_chain_cap,
    _boundary_ranks,
    _interval_tables,
    interval_degree_table,
    lefschetz_character,
    order_complex_chains,
    reduced_homology,
    sparse_rank,
    whitney_homology,
)
from ocs.posets import (
    Poset,
    _lower_hasse,
    chain_poset,
    from_covers,
    induced_subposet,
    lower_interval,
    mobius,
    proper_part,
)
from ocs.symrep import sym_class_poset_perms
from helpers import boolean_lattice, reduced_euler_characteristic


def crown4():
    # 2 minima under 2 maxima: order complex is a 4-cycle (a circle)
    return from_covers(4, [[0, 2], [0, 3], [1, 2], [1, 3]])


def empty_poset():
    return from_covers(0, [])


def antichain(k):
    return from_covers(k, [])


def dense_rank(rows):
    """Fraction Gaussian elimination oracle for small dense matrices."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _columns(rows):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(len(rows[0]))]


@st.composite
def small_matrices(draw):
    """Integer matrices up to 8x8 with entries in -3..3, some columns zero
    and some repeated."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cols = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero":
            cols.append([0] * n_rows)
        elif kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            cols.append(draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows)))
    return [[cols[c][r] for c in range(n_cols)] for r in range(n_rows)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example([
    [1, 2, 3, 0],
    [2, 4, 6, 0],
    [0, 1, 1, 1],
    [1, 0, 5, -7],
])
def test_sparse_rank_matches_dense_oracle(rows):
    cols = _columns(rows)
    assert sparse_rank(cols) == dense_rank(rows)
    assert cols == _columns(rows)  # the input columns are left as they were


def test_sparse_rank_empty_and_zero():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}]) == 0


def test_order_complex_chains_of_boolean():
    b = boolean_lattice(2)
    chains = order_complex_chains(b)
    assert len(chains[0]) == 4
    assert len(chains[1]) == 5  # 4 cover pairs plus 0<3
    assert len(chains[2]) == 2  # two maximal chains


def test_reduced_homology_empty():
    assert reduced_homology(empty_poset()) == {-1: 1}


def test_reduced_homology_point_and_antichain():
    assert reduced_homology(chain_poset(1)) == {}
    assert reduced_homology(antichain(2)) == {0: 1}
    assert reduced_homology(antichain(5)) == {0: 4}


def test_reduced_homology_chain_is_contractible():
    assert reduced_homology(chain_poset(4)) == {}


def test_reduced_homology_circle():
    assert reduced_homology(crown4()) == {1: 1}


def test_proper_part_of_boolean_3_is_circle():
    pp = proper_part(boolean_lattice(3))
    assert reduced_homology(pp) == {1: 1}


def test_reduced_euler_characteristic():
    assert reduced_euler_characteristic(empty_poset()) == -1
    assert reduced_euler_characteristic(chain_poset(3)) == 0
    assert reduced_euler_characteristic(crown4()) == -1  # a circle
    assert reduced_euler_characteristic(antichain(3)) == 2


def test_euler_characteristic_equals_mobius_on_boolean_lattices():
    # Philip Hall at small scale
    for k in range(2, 5):
        b = boolean_lattice(k)
        pp = proper_part(b)
        assert reduced_euler_characteristic(pp) == mobius(b, 0, b.n_elems - 1)


def test_interval_degree_table_buckets():
    b = boolean_lattice(3)
    assert interval_degree_table(b, 0) == {0: 1}
    atom = 0b001
    assert interval_degree_table(b, atom) == {1: 1}
    assert interval_degree_table(b, 0b111) == {3: 1}


@pytest.mark.parametrize("x", [-1, 3])
def test_interval_degree_table_refuses_a_top_out_of_range(x):
    # -1 would otherwise read element 2 through a negative index
    with pytest.raises(InputError, match="interval top out of range"):
        interval_degree_table(from_covers(3, [(0, 1)]), x)


def test_interval_degree_table_requires_bottom():
    with pytest.raises(DomainError):
        interval_degree_table(from_covers(3, [(0, 1)]), 1)


def test_whitney_homology_boolean():
    for k in range(1, 5):
        b = boolean_lattice(k)
        wh = whitney_homology(b)
        # binomial pattern: rank r bucket has C(k, r) intervals each giving 1
        from math import comb

        assert wh == {(r, r): comb(k, r) for r in range(k + 1)}


def test_whitney_homology_requires_bottom():
    with pytest.raises(DomainError):
        whitney_homology(antichain(2))


def test_lefschetz_identity_is_euler():
    p = crown4()
    ident = tuple(range(4))
    assert lefschetz_character(p, ident) == reduced_euler_characteristic(p)


def test_lefschetz_free_action_on_circle():
    p = crown4()
    # rotate the crown: swaps the two minima and the two maxima
    rot = (1, 0, 3, 2)
    assert lefschetz_character(p, rot) == -1 + 0  # no fixed points: chi of empty


def test_lefschetz_reflection_on_circle():
    p = crown4()
    # swap maxima only: fixed subposet is the 2-antichain of minima
    refl = (0, 1, 3, 2)
    assert lefschetz_character(p, refl) == 1


def chain_count_euler(p: Poset) -> int:
    """Oracle: the reduced Euler characteristic as the alternating count of
    the chains of the order complex, with -1 for the empty face."""
    total = -1
    for k, level in enumerate(order_complex_chains(p)):
        total += (-1) ** k * len(level)
    return total


def chain_walk_lefschetz(p: Poset, perm) -> int:
    """Oracle: the reduced Lefschetz number as the alternating count of the
    chains of the fixed subposet, walked upward from each fixed point."""
    fixed = [x for x in range(p.n_elems) if perm[x] == x]
    ups = {x: [y for y in fixed if y != x and p.leq[x] >> y & 1] for x in fixed}
    total = -1

    def walk(last: int, dim: int):
        nonlocal total
        total += -1 if dim % 2 else 1
        for y in ups[last]:
            walk(y, dim + 1)

    for x in fixed:
        walk(x, 0)
    return total


@st.composite
def posets_with_automorphism(draw, max_n=9):
    """A random poset on at most max_n elements, labelled in no particular
    order, together with an order automorphism sigma.  Each cycle of sigma
    gets one level, relations only go up a level, and the relation is
    closed under sigma."""
    n = draw(st.integers(0, max_n))
    sigma = draw(st.permutations(range(n)))
    level = [None] * n
    for x in range(n):
        if level[x] is None:
            lv, y = draw(st.integers(0, 3)), x
            while level[y] is None:
                level[y], y = lv, sigma[y]
    upward = [(a, b) for a in range(n) for b in range(n) if level[a] < level[b]]
    edges = draw(st.lists(st.sampled_from(upward), max_size=8)) if upward else []
    leq = [1 << x for x in range(n)]
    for a, b in edges:
        x, y = a, b
        while True:
            leq[x] |= 1 << y
            x, y = sigma[x], sigma[y]
            if (x, y) == (a, b):
                break
    for y in range(n):  # transitive closure
        for x in range(n):
            if leq[x] >> y & 1:
                leq[x] |= leq[y]
    covers = [
        (a, b) for a in range(n) for b in range(n)
        if a != b and leq[a] >> b & 1
        and not any(c not in (a, b) and leq[a] >> c & 1 and leq[c] >> b & 1 for c in range(n))
    ]
    return from_covers(n, covers), tuple(sigma)


@settings(max_examples=300, deadline=None)
@given(posets_with_automorphism())
def test_euler_and_lefschetz_match_chain_oracles_on_random_posets(case):
    p, sigma = case
    assert reduced_euler_characteristic(p) == chain_count_euler(p)
    assert lefschetz_character(p, tuple(range(p.n_elems))) == chain_count_euler(p)
    perm = sigma
    for _ in range(3):
        assert lefschetz_character(p, perm) == chain_walk_lefschetz(p, perm)
        perm = tuple(sigma[x] for x in perm)


def test_lefschetz_matches_chain_oracle_on_dowling_open_intervals():
    # symmetric-group action on every open interval (bottom, x) of Q_4(Z_2)
    spec = spec_single_point(cyclic_group(2), 4, in_t=True)
    p, elements, _ = build_poset(spec)
    perms = sym_class_poset_perms(spec, elements)
    bottom, checked = p.bottom(), 0
    for x in range(p.n_elems):
        inside = [y for y in range(p.n_elems) if p.leq[y] >> x & 1 and y not in (x, bottom)]
        sub, elems = induced_subposet(p, inside)
        assert reduced_euler_characteristic(sub) == chain_count_euler(sub)
        local = {e: i for i, e in enumerate(elems)}
        for perm in perms.values():
            if perm[x] == x:
                sub_perm = tuple(local[perm[e]] for e in elems)
                assert lefschetz_character(sub, sub_perm) == chain_walk_lefschetz(sub, sub_perm)
                checked += 1
    assert checked > p.n_elems


def test_lefschetz_rejects_non_automorphism():
    p = chain_poset(2)
    with pytest.raises(Exception):
        lefschetz_character(p, (1, 0))


def bundled_poset(name: str, n: int) -> Poset:
    spec = spec_from_json(json.loads(
        resources.files("ocs").joinpath("specs", "posets", f"{name}.json").read_text()), n=n)
    return build_poset(spec)[0]


def q3_z3() -> Poset:
    return build_poset(spec_single_point(cyclic_group(3), 3, in_t=True))[0]


@st.composite
def posets_with_bottom(draw, max_n=9):
    """A random poset with a bottom on at most max_n elements, labelled in no
    particular order, with rank labels (its heights) or without."""
    q, _ = draw(posets_with_automorphism(max_n - 1))
    n = q.n_elems + 1
    label = draw(st.permutations(range(n)))  # q's element i becomes label[i]; n-1 is the bottom
    covers = [(label[a], label[b]) for a in range(q.n_elems) for b in q.hasse[a]]
    covers += [(label[n - 1], label[m]) for m in q.minimal_elements()]
    p = from_covers(n, covers)
    return from_covers(n, covers, rank=p.height()) if draw(st.booleans()) else p


def betti_from_ranks(chains, ranks) -> dict[int, int]:
    """Reduced Betti numbers from the chains of each dimension and the rank
    of each boundary matrix; dimension -1 holds the empty face."""
    dims = [1] + [len(level) for level in chains]
    r = [0, *ranks, 0]
    betti = {k - 1: dims[k] - r[k] - r[k + 1] for k in range(len(dims))}
    return {d: b for d, b in betti.items() if b}


def reduced_homology_reference(p: Poset) -> dict[int, int]:
    """Reduced Betti numbers with every boundary matrix reduced in full
    (no clearing)."""
    chains = order_complex_chains(p)
    return betti_from_ranks(chains, [sparse_rank(cols) for cols in _boundary_matrices(chains)])


def dense_reduced_homology(p: Poset) -> dict[int, int]:
    """Reduced Betti numbers from `dense_rank` of each boundary matrix."""
    chains = order_complex_chains(p)
    ranks = []
    for k, cols in enumerate(_boundary_matrices(chains)):
        n_rows = len(chains[k - 1]) if k else 1
        ranks.append(dense_rank([[col.get(r, 0) for col in cols] for r in range(n_rows)]))
    return betti_from_ranks(chains, ranks)


def whitney_homology_reference(p: Poset) -> dict[tuple[int, int], int]:
    """The per-element loop: the order complex of every lower interval built
    and reduced on its own, with no memo and no clearing."""
    rk = p.rank if p.rank is not None else p.height()
    table: dict[tuple[int, int], int] = {}
    for x in range(p.n_elems):
        interval, _ = lower_interval(p, x)
        if interval.n_elems == 1:
            degrees = {0: 1}
        else:
            betti = reduced_homology_reference(proper_part(interval))
            degrees = {deg + 2: rank for deg, rank in betti.items()}
        for k, rank in degrees.items():
            table[rk[x], k] = table.get((rk[x], k), 0) + rank
    return table


PI5_AND_TYPEB4 = pytest.mark.parametrize("poset", [
    lambda: build_poset(spec_partition(5))[0],
    lambda: bundled_poset("typeB", 4),
], ids=["partition-5", "typeB-4"])


def _check_interval_tables(p: Poset, xs) -> None:
    tables = _interval_tables(p, xs)
    assert list(tables) == list(dict.fromkeys(xs))
    for x in xs:
        assert tables[x] == interval_degree_table(p, x)


@settings(max_examples=200, deadline=None)
@given(posets_with_bottom(), st.data())
def test_whitney_homology_matches_the_per_element_reference(p, data):
    assert whitney_homology(p) == whitney_homology_reference(p)
    xs = data.draw(st.lists(st.integers(0, p.n_elems - 1), max_size=2 * p.n_elems))
    _check_interval_tables(p, xs)


@PI5_AND_TYPEB4
def test_whitney_homology_matches_the_per_element_reference_on_dowling_posets(poset):
    p = poset()
    assert whitney_homology(p) == whitney_homology_reference(p)
    _check_interval_tables(p, range(p.n_elems))


@settings(max_examples=200, deadline=None)
@given(posets_with_automorphism())
def test_clearing_keeps_every_rank_on_random_posets(case):
    p, _ = case
    bnd = _boundary_matrices(order_complex_chains(p))
    assert _boundary_ranks(bnd) == [sparse_rank(cols) for cols in bnd]
    assert reduced_homology(p) == dense_reduced_homology(p)


@pytest.mark.parametrize("poset", [
    lambda: build_poset(spec_partition(5))[0], q3_z3,
], ids=["partition-5", "Q3-Z3"])
def test_clearing_keeps_every_rank_on_dowling_proper_parts(poset, monkeypatch):
    pp = proper_part(poset())
    bnd = _boundary_matrices(order_complex_chains(pp))
    full = [sparse_rank(cols) for cols in bnd]
    reduced_columns = []
    real = ocs.homology.sparse_rank

    def counting(cols, **kwargs):
        reduced_columns.append(len(cols))
        return real(cols, **kwargs)

    monkeypatch.setattr(ocs.homology, "sparse_rank", counting)
    assert _boundary_ranks(bnd) == full
    # clearing skips columns, and still reduces one matrix per dimension
    assert len(reduced_columns) == len(bnd)
    assert sum(reduced_columns) < sum(len(cols) for cols in bnd)
    assert reduced_homology(pp) == reduced_homology_reference(pp)


@PI5_AND_TYPEB4
def test_whitney_homology_reduces_once_per_distinct_interval(poset, monkeypatch):
    p = poset()
    # the distinct lower intervals with at least two elements, as re-indexed
    # Hasse diagrams recomputed from the order relation
    shapes = set()
    for x in range(p.n_elems):
        below = [y for y in range(p.n_elems) if p.leq[y] >> x & 1]
        if len(below) >= 2:
            shapes.add(induced_subposet(p, below)[0].hasse)
    calls = []
    real = ocs.homology.reduced_homology
    monkeypatch.setattr(ocs.homology, "reduced_homology",
                        lambda q, mask=None: calls.append(mask) or real(q, mask))
    assert whitney_homology(p) == whitney_homology_reference(p)
    assert len(calls) == len(shapes) < p.n_elems - 1


@settings(max_examples=200, deadline=None)
@given(posets_with_bottom())
def test_memo_key_is_the_hasse_diagram_of_the_lower_interval(p):
    for x in range(p.n_elems):
        interval, elems = lower_interval(p, x)
        assert _lower_hasse(p, x) == (elems, interval.hasse)


@PI5_AND_TYPEB4
def test_interval_tables_build_a_leq_only_on_a_memo_miss(poset, monkeypatch):
    p = poset()
    misses = []
    real = ocs.homology.reduced_homology
    monkeypatch.setattr(ocs.homology, "reduced_homology",
                        lambda q, mask=None: misses.append((q, mask)) or real(q, mask))
    built = []
    init = Poset.__init__
    monkeypatch.setattr(Poset, "__init__", lambda q, *a, **k: built.append(a) or init(q, *a, **k))
    restricted = []
    restrict = ocs.posets._restricted_leq
    monkeypatch.setattr(ocs.posets, "_restricted_leq",
                        lambda q, elems: restricted.append(elems) or restrict(q, elems))
    _interval_tables(p, range(p.n_elems))
    assert 0 < len(misses) < p.n_elems - 1
    # every miss reads p itself under a bitset: no Poset and no leq is built
    assert all(q is p and isinstance(mask, int) for q, mask in misses)
    assert built == restricted == []
    assert not hasattr(ocs.homology, "lower_interval")
    assert not hasattr(ocs.homology, "proper_part")


def _reindexed(p: Poset, mask: int) -> tuple[Poset, tuple[int, ...]]:
    return induced_subposet(p, [x for x in range(p.n_elems) if mask >> x & 1])


@settings(max_examples=200, deadline=None)
@given(posets_with_automorphism(), st.data())
def test_masked_homology_matches_the_reindexed_copy(case, data):
    p, _ = case
    mask = data.draw(st.integers(0, (1 << p.n_elems) - 1))
    copy, elems = _reindexed(p, mask)
    assert reduced_homology(p, mask) == reduced_homology(copy)
    assert order_complex_chains(p, mask) == [
        [tuple(elems[i] for i in c) for c in level] for level in order_complex_chains(copy)
    ]
    full = (1 << p.n_elems) - 1
    assert order_complex_chains(p, full) == order_complex_chains(p)
    assert reduced_homology(p, full) == reduced_homology(p)


@settings(max_examples=200, deadline=None)
@given(posets_with_automorphism(), st.data())
def test_chain_cap_counts_the_chains_of_the_order_complex(case, data):
    p, _ = case
    masks = data.draw(st.lists(st.integers(0, (1 << p.n_elems) - 1), max_size=3))
    chains = sum(len(level) for mask in masks for level in order_complex_chains(p, mask))
    with mock.patch.object(ocs.homology, "CHAIN_CAP", chains):
        _check_chain_cap(p, masks)
    if chains:
        with mock.patch.object(ocs.homology, "CHAIN_CAP", chains - 1):
            with pytest.raises(CapExceeded) as exc:
                _check_chain_cap(p, masks)
        assert exc.value.partial_count == chains


@PI5_AND_TYPEB4
def test_whitney_holds_all_its_intervals_to_one_chain_cap(poset):
    # the sum over the distinct open intervals, not the largest of them
    p = poset()
    bottom = p.bottom()
    first = {}
    for x in range(p.n_elems):
        first.setdefault(_lower_hasse(p, x)[1], x)
    sizes = [sum(map(len, order_complex_chains(p, p.geq[x] ^ (1 << x | 1 << bottom))))
             for x in first.values() if x != bottom]
    chains = sum(sizes)
    with mock.patch.object(ocs.homology, "CHAIN_CAP", chains):
        assert whitney_homology(p) == whitney_homology_reference(p)
    with mock.patch.object(ocs.homology, "CHAIN_CAP", chains - 1):
        with pytest.raises(CapExceeded) as exc:
            whitney_homology(p)
    assert exc.value.partial_count == chains > max(sizes)


@settings(max_examples=100, deadline=None)
@given(posets_with_bottom())
def test_masked_open_intervals_match_the_proper_parts(p):
    bottom = p.bottom()
    for x in range(p.n_elems):
        if x != bottom:
            mask = p.geq[x] ^ (1 << x | 1 << bottom)
            pp = proper_part(lower_interval(p, x)[0])
            assert reduced_homology(p, mask) == reduced_homology(pp)
            assert _reindexed(p, mask)[0] == pp


def test_interval_tables_stop_a_long_chain_after_a_few_keys(monkeypatch):
    # every key, and every p.geq bitset, was taken before the chains were
    # counted: quadratic work first, then the refusal
    p = from_covers(400, [(i, i + 1) for i in range(399)])
    keyed = []
    real = ocs.homology._lower_hasse
    monkeypatch.setattr(ocs.homology, "_lower_hasse", lambda q, x: keyed.append(x) or real(q, x))
    with pytest.raises(CapExceeded) as exc:
        _interval_tables(p, range(p.n_elems))
    # the open interval below element k of the chain holds 2^(k-1) - 1 chains,
    # so the keys of 0..k hold 2^k - 1 - k in all
    k = next(k for k in range(p.n_elems) if 2**k - 1 - k > ocs.homology.CHAIN_CAP)
    assert keyed == list(range(k + 1)) and exc.value.partial_count == 2**k - 1 - k


def test_whitney_refuses_by_the_chain_cap_before_its_mobius_row(monkeypatch):
    # the Mobius row, which costs the comparable pairs above the bottom, was
    # taken first: on B_14 it cost 6 s of an 8 s refusal
    b = boolean_lattice(8)
    rows = []
    real = ocs.homology._signless_whitney_numbers
    monkeypatch.setattr(ocs.homology, "_signless_whitney_numbers",
                        lambda q, rk: rows.append(q) or real(q, rk))
    with pytest.raises(CapExceeded):
        whitney_homology(b)
    assert rows == []
