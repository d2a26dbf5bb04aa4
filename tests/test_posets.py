import re
import sys
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from ocs.dowling import build_poset, spec_partition, spec_single_point
from ocs.errors import DomainError, InputError
from ocs.groups import cyclic_group
from ocs.posets import (
    CLOSURE_CAP,
    Poset,
    canonical_poset_bytes,
    chain_poset,
    connected_components,
    direct_product,
    from_covers,
    induced_subposet,
    is_isomorphic,
    lower_interval,
    mobius,
    poset_from_json,
    poset_to_json,
    proper_part,
)
import ocs.posets
from ocs.posets import _bits, _refine_invariants, _restricted_leq
from helpers import boolean_lattice, direct_product_leq, from_covers_by_closure


def diamond():
    # 0 < 1,2 < 3
    return from_covers(4, [[0, 1], [0, 2], [1, 3], [2, 3]])


def test_from_covers_rejects_cycles():
    with pytest.raises(InputError):
        from_covers(2, [[0, 1], [1, 0]])


def test_from_covers_rejects_self_loops_and_range():
    with pytest.raises(InputError):
        from_covers(2, [[0, 0]])
    with pytest.raises(InputError):
        from_covers(2, [[0, 5]])


def test_from_covers_rejects_transitively_implied_cover():
    # 0<1<2 plus the redundant 0<2 edge is not a Hasse diagram
    with pytest.raises(InputError):
        from_covers(3, [[0, 1], [1, 2], [0, 2]])


def test_from_covers_rejects_duplicates():
    with pytest.raises(InputError):
        from_covers(2, [[0, 1], [0, 1]])


def test_leq_and_extremes():
    p = diamond()
    assert p.is_leq(0, 3) and p.is_leq(1, 3) and not p.is_leq(1, 2)
    assert p.bottom() == 0 and p.top() == 3
    assert p.height() == (0, 1, 1, 2)


def test_top_requires_uniqueness():
    p = from_covers(3, [[0, 1], [0, 2]])
    with pytest.raises(DomainError):
        p.top()


def test_mobius_chain_and_diamond():
    c = chain_poset(4)
    assert mobius(c, 0, 0) == 1
    assert mobius(c, 0, 1) == -1
    assert mobius(c, 0, 2) == 0
    d = diamond()
    assert mobius(d, 0, 3) == 1


def test_mobius_boolean_lattice():
    for k in range(1, 5):
        b = boolean_lattice(k)
        assert mobius(b, 0, b.n_elems - 1) == (-1) ** k


def test_mobius_incomparable_is_input_error():
    p = from_covers(3, [[0, 1], [0, 2]])
    with pytest.raises(InputError):
        mobius(p, 1, 2)


def test_mobius_zero_sum_identity():
    # sum of mu(0,x) over a nontrivial interval vanishes
    b = boolean_lattice(3)
    total = sum(mobius(b, 0, x) for x in range(b.n_elems))
    assert total == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_mobius_multiplicative_on_products(j, k):
    p = boolean_lattice(j)
    q = chain_poset(k + 1)
    prod = direct_product(p, q)
    top = prod.n_elems - 1
    assert prod.top() == top
    assert mobius(prod, 0, top) == mobius(p, 0, p.n_elems - 1) * mobius(q, 0, k)


def test_direct_product_covers_and_rank():
    p = chain_poset(2)
    prod = direct_product(p, p)
    assert prod.n_elems == 4
    assert is_isomorphic(prod, boolean_lattice(2)) is not None
    assert prod.rank is not None and sorted(prod.rank) == [0, 1, 1, 2]


def test_boolean_lattice_is_product_of_chains():
    b = boolean_lattice(3)
    prod = chain_poset(2)
    for _ in range(2):
        prod = direct_product(prod, chain_poset(2))
    assert is_isomorphic(b, prod) is not None


def test_is_isomorphic_negative():
    assert is_isomorphic(boolean_lattice(2), chain_poset(4)) is None
    # same size and edge count, different structure
    p = from_covers(4, [[0, 1], [0, 2], [0, 3]])
    q = from_covers(4, [[0, 1], [1, 2], [1, 3]])
    assert is_isomorphic(p, q) is None


def test_is_isomorphic_refuses_after_backtracking():
    # the 8-crown against two disjoint 4-crowns: equal sizes, cover counts
    # and refined invariants, so only the search can tell them apart
    crown = from_covers(8, [[i, 4 + j] for i in range(4) for j in (i, (i + 1) % 4)])
    pair = from_covers(8, [[i, j] for lo, hi in ((0, 4), (2, 6))
                           for i in (lo, lo + 1) for j in (hi, hi + 1)])
    assert sum(map(len, crown.hasse)) == sum(map(len, pair.hasse)) == 8
    assert sorted(_refine_invariants(crown)) == sorted(_refine_invariants(pair))
    assert is_isomorphic(crown, pair) is None


def test_is_isomorphic_requires_backtracking():
    # two 4-crowns with scrambled labels; naive greedy assignment can fail
    p = from_covers(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
    q = from_covers(4, [[3, 1], [3, 0], [2, 1], [2, 0]])
    f = is_isomorphic(p, q)
    assert f is not None
    for a in range(4):
        for b in range(4):
            assert p.is_leq(a, b) == q.is_leq(f[a], f[b])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_isomorphic_finds_a_relabeled_interval(data):
    spec = data.draw(st.sampled_from([spec_single_point(cyclic_group(2), 3, in_t=False),
                                      spec_single_point(cyclic_group(3), 3, in_t=True),
                                      spec_partition(5)]))
    p, _, _ = build_poset(spec)
    interval, _ = lower_interval(p, data.draw(st.integers(0, p.n_elems - 1)))
    n = interval.n_elems
    label = data.draw(st.permutations(range(n)))
    relabeled = from_covers(n, [(label[a], label[b]) for a in range(n) for b in interval.hasse[a]])
    f = is_isomorphic(interval, relabeled)
    assert f is not None
    assert all(interval.is_leq(a, b) == relabeled.is_leq(f[a], f[b])
               for a in range(n) for b in range(n))


def test_induced_subposet_recomputes_covers():
    c = chain_poset(3)
    sub, elems = induced_subposet(c, [0, 2])
    assert elems == (0, 2)
    assert sub.is_leq(0, 1) and sub.hasse[0] == (1,)


def test_lower_interval():
    b = boolean_lattice(3)
    sub, elems = lower_interval(b, 0b011)
    assert sub.n_elems == 4
    assert is_isomorphic(sub, boolean_lattice(2)) is not None
    assert set(elems) == {0b000, 0b001, 0b010, 0b011}


def test_connected_components():
    p = from_covers(5, [[0, 1], [2, 3]])
    assert connected_components(p) == [[0, 1], [2, 3], [4]]


def test_proper_part_removes_bounds():
    b = boolean_lattice(3)
    pp = proper_part(b)
    assert pp.n_elems == 6


def test_proper_part_needs_unique_bounds_per_component():
    p = from_covers(3, [[0, 1], [0, 2]])
    with pytest.raises(DomainError):
        proper_part(p)


def test_proper_part_componentwise():
    # two diamonds side by side: each loses its own bounds
    covers = [[0, 1], [0, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 7], [6, 7]]
    p = from_covers(8, covers)
    pp = proper_part(p)
    assert pp.n_elems == 4
    # a diamond's proper part is a 2-antichain, so all four points are isolated
    assert connected_components(pp) == [[0], [1], [2], [3]]


def test_json_roundtrip():
    p = diamond()
    obj = poset_to_json(p)
    q = poset_from_json(obj)
    assert q.n_elems == p.n_elems and q.hasse == p.hasse
    assert canonical_poset_bytes(p) == canonical_poset_bytes(q)


def test_json_rejects_unknown_fields():
    with pytest.raises(InputError):
        poset_from_json({"n": 1, "covers": [], "color": "red"})


def test_rank_is_kept():
    p = from_covers(2, [[0, 1]], rank=[0, 1])
    assert p.rank == (0, 1)
    assert poset_to_json(p)["rank"] == [0, 1]


def test_posets_compare_by_size_covers_and_rank():
    # the closure is built by from_covers for the unranked list, later for the graded one
    covers = [[0, 1], [0, 2], [1, 3], [2, 3]]
    graded = from_covers(4, covers, rank=(0, 1, 1, 2))
    assert diamond() == from_covers(4, covers[::-1]) != graded
    assert graded == from_covers(4, covers, rank=[0, 1, 1, 2]) != chain_poset(4)


# Oracles: the O(n)-scan versions the bitset passes replaced ----------------

def old_from_covers_message(n, covers):
    """The InputError message the between-scan from_covers raised, or None."""
    seen = set()
    adj = [[] for _ in range(n)]
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            return f"cover ({a},{b}) out of range"
        if a == b:
            return f"cover ({a},{b}) is a self-loop"
        if (a, b) in seen:
            return f"duplicate cover ({a},{b})"
        seen.add((a, b))
        adj[a].append(b)
    leq = []
    for a in range(n):
        reach, stack = 0, list(adj[a])
        while stack:
            x = stack.pop()
            if not reach >> x & 1:
                reach |= 1 << x
                stack.extend(adj[x])
        if reach >> a & 1:
            return "cover relation contains a cycle"
        leq.append(reach | 1 << a)
    for a, b in covers:
        between = leq[a] & ~(1 << a) & ~(1 << b)
        for c in range(n):
            if between >> c & 1 and leq[c] >> b & 1:
                return f"cover ({a},{b}) is implied by transitivity via {c}"
    return None


def old_mobius(p, a, b, memo):
    if (a, b) not in memo:
        memo[a, b] = 1 if a == b else -sum(
            old_mobius(p, a, c, memo)
            for c in range(p.n_elems)
            if c != b and p.is_leq(a, c) and p.is_leq(c, b)
        )
    return memo[a, b]


def old_hasse_from_leq(n, leq):
    hasse = []
    for a in range(n):
        ups = [b for b in range(n) if b != a and leq[a] >> b & 1]
        hasse.append(tuple(sorted(
            b for b in ups if not any(c != b and leq[c] >> b & 1 for c in ups)
        )))
    return tuple(hasse)


def _closure(n, edges):
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in edges:
        leq[a][b] = True
    for c in range(n):
        for a in range(n):
            if leq[a][c]:
                for b in range(n):
                    leq[a][b] = leq[a][b] or leq[c][b]
    return leq


@st.composite
def dag_hasse(draw, max_n=8, min_n=1):
    """(n, Hasse diagram, implied non-cover pairs) of a random poset whose
    labels are shuffled, so covers do not always go up in index."""
    n = draw(st.integers(min_n, max_n))
    label = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), max_size=14))
    leq = _closure(n, edges)
    comparable = [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]
    hasse = [
        (a, b) for a, b in comparable
        if not any(leq[a][c] and leq[c][b] for c in range(n) if c not in (a, b))
    ]
    implied = [e for e in comparable if e not in hasse]
    relabel = lambda es: [(label[a], label[b]) for a, b in es]
    return n, relabel(hasse), relabel(implied)


@st.composite
def cover_lists(draw):
    n, hasse, implied = draw(dag_hasse())
    extra = draw(st.lists(st.sampled_from(implied), max_size=3)) if implied else []
    noise = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=1))
    return n, draw(st.permutations(hasse + extra + noise))


@st.composite
def posets(draw, max_n=8, min_n=1):
    n, hasse, _ = draw(dag_hasse(max_n, min_n))
    return from_covers(n, draw(st.permutations(hasse)))


@settings(max_examples=300, deadline=None)
@given(cover_lists())
def test_from_covers_matches_between_scan(case):
    n, covers = case
    expected = old_from_covers_message(n, covers)
    if expected is None:
        p = from_covers(n, covers)
        assert p.hasse == tuple(tuple(sorted(b for a, b in covers if a == x)) for x in range(n))
    else:
        with pytest.raises(InputError) as exc:
            from_covers(n, covers)
        assert str(exc.value) == expected


FAULTS = (None, "negative", "out of range", "self-loop", "duplicate", "cycle", "implied")


@st.composite
def ranked_cover_lists(draw):
    """(n, covers, rank) for `from_covers`: a graded Hasse diagram or a
    random one (`dag_hasse`); rank labels that are None, a grading, a
    grading off by one at one element, or a list of the wrong length; and
    at most one injected fault, at a random place in the list."""
    n = draw(st.integers(1, 8))
    grade = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if draw(st.booleans()):
        graded = [(a, b) for a in range(n) for b in range(n) if grade[b] == grade[a] + 1]
        covers = [pair for pair in graded if draw(st.booleans())]
        implied = [(a, d) for a, b in covers for c, d in covers if b == c]
    else:
        n, covers, implied = draw(dag_hasse())
        grade = [0] * n  # the longest chain below each element: a grading if one exists
        for _ in range(n):
            for a, b in covers:
                grade[b] = max(grade[b], grade[a] + 1)
    kind = draw(st.sampled_from(["none", "graded", "off by one", "long", "short"]))
    rank = {"none": None, "graded": grade, "long": grade + [0], "short": grade[:-1]}.get(kind)
    if kind == "off by one":
        rank = list(grade)
        rank[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    fault = draw(st.sampled_from(FAULTS))
    x = draw(st.integers(0, n - 1))
    extra = []
    if fault == "negative":
        extra = [draw(st.sampled_from([(-1, x), (x, -1), (x, -n)]))]
    elif fault == "out of range":
        extra = [draw(st.sampled_from([(x, n), (n, x)]))]
    elif fault == "self-loop":
        extra = [(x, x)]
    elif fault == "duplicate" and covers:
        extra = [draw(st.sampled_from(covers))]
    elif fault == "cycle" and covers:
        a, b = draw(st.sampled_from(covers))
        extra = [(b, a)]
    elif fault == "implied":
        assume(implied)
        extra = [draw(st.sampled_from(implied))]
    covers = draw(st.permutations(covers + extra))
    return n, [list(c) if draw(st.booleans()) else c for c in covers], rank


@settings(max_examples=400, deadline=None)
@given(ranked_cover_lists())
def test_from_covers_matches_the_closure_oracle(case):
    n, covers, rank = case
    try:
        expected = from_covers_by_closure(n, covers, rank)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            from_covers(n, covers, rank)
        assert str(got.value) == str(exc)
    else:
        p = from_covers(n, covers, rank)
        assert (p.hasse, p.rank, p.leq) == (expected.hasse, expected.rank, expected.leq)


def test_from_covers_builds_no_closure_over_the_cap():
    n = CLOSURE_CAP + 1
    message = "^" + re.escape(f"closure cap is {CLOSURE_CAP} elements for a poset that is "
                              f"not graded by its rank labels, got {n}") + "$"
    # no rank, or one of the wrong length, is refused before the covers are
    # read; a full rank that some cover does not raise by one, after them
    for rank in (None, [0] * (n - 1), [0] * (n + 1)):
        with pytest.raises(DomainError, match=message):
            from_covers(n, [[0, n]], rank)
    with pytest.raises(InputError, match=r"^cover \(0,%d\) out of range$" % n):
        from_covers(n, [[0, n]], [0] * n)
    with pytest.raises(DomainError, match=message):
        from_covers(n, [[0, 1]], [0] * n)
    assert from_covers(n, [[0, 1]], [0, 1] + [0] * (n - 2)).rank[:3] == (0, 1, 0)
    chain = from_covers(CLOSURE_CAP, [(i, i + 1) for i in range(CLOSURE_CAP - 1)])
    assert chain.leq[0] == (1 << CLOSURE_CAP) - 1


def test_from_covers_reports_lowest_witness_of_first_redundant_pair():
    # 0 < 1 < 2 < 4 and 0 < 3 < 4: (0,4) lies above both 1 and 3
    covers = [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4], [1, 4], [0, 4]]
    with pytest.raises(InputError, match=r"^cover \(1,4\) is implied by transitivity via 2$"):
        from_covers(5, covers)
    with pytest.raises(InputError, match=r"^cover \(0,4\) is implied by transitivity via 1$"):
        from_covers(5, covers[:5] + [[0, 4]])


@settings(max_examples=150, deadline=None)
@given(posets())
def test_mobius_matches_recursive_definition(p):
    memo = {}
    for a in range(p.n_elems):
        for b in range(p.n_elems):
            if p.is_leq(a, b):
                assert mobius(p, a, b) == old_mobius(p, a, b, memo)
            else:
                with pytest.raises(InputError):
                    mobius(p, a, b)


@settings(max_examples=150, deadline=None)
@given(posets(), st.data())
def test_subposet_tables_match_scans(p, data):
    n = p.n_elems
    keep = data.draw(st.sets(st.integers(0, n - 1)))
    sub, elems = induced_subposet(p, keep)
    b = data.draw(st.integers(0, n - 1))
    interval, below = lower_interval(p, b)
    assert below == tuple(x for x in range(n) if p.is_leq(x, b))
    for q, es in ((sub, elems), (interval, below)):
        assert q.leq == tuple(
            sum(1 << j for j, y in enumerate(es) if p.is_leq(x, y)) for x in es
        )
        assert q.hasse == old_hasse_from_leq(q.n_elems, q.leq)


def old_lower_interval(p, b):
    """The O(n) scan of every element's up-set, before the `geq` table."""
    elems = tuple(x for x in range(p.n_elems) if p.leq[x] >> b & 1)
    leq, pos = _restricted_leq(p, elems)
    hasse = tuple(tuple(pos[u] for u in p.hasse[e] if u in pos) for e in elems)
    rank = tuple(p.rank[e] for e in elems) if p.rank is not None else None
    return Poset(n_elems=len(elems), hasse=hasse, leq=leq, rank=rank), elems


def old_refine_invariants(p):
    """`_refine_invariants` with the O(n^2) below-count scan, before `geq`."""
    down_hasse = [[] for _ in range(p.n_elems)]
    for a in range(p.n_elems):
        for b in p.hasse[a]:
            down_hasse[b].append(a)
    height = p.height()
    below = []
    above = []
    for x in range(p.n_elems):
        above.append(bin(p.leq[x]).count("1") - 1)
        below.append(sum(1 for y in range(p.n_elems) if p.leq[y] >> x & 1) - 1)
    labels = [
        (height[x], below[x], above[x], len(p.hasse[x]), len(down_hasse[x]))
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


@settings(max_examples=150, deadline=None)
@given(posets())
def test_down_sets_match_the_scans(p):
    n = p.n_elems
    assert p.geq == tuple(
        sum(1 << a for a in range(n) if p.leq[a] >> b & 1) for b in range(n)
    )
    for b in range(n):
        assert lower_interval(p, b) == old_lower_interval(p, b)
        interval, _ = lower_interval(p, b)
        assert _refine_invariants(interval) == old_refine_invariants(interval)
    assert _refine_invariants(p) == old_refine_invariants(p)


def test_down_sets_of_a_product_and_a_dowling_lattice():
    # posets not built by from_covers: a product, and intervals of intervals
    p, _, _ = build_poset(spec_single_point(cyclic_group(2), 3, in_t=True))
    x = next(x for x in range(p.n_elems) if p.rank[x] == 2)
    for q in (direct_product(p, chain_poset(3)), lower_interval(p, x)[0]):
        assert q.geq == tuple(
            sum(1 << a for a in range(q.n_elems) if q.is_leq(a, b)) for b in range(q.n_elems)
        )
        for b in range(q.n_elems):
            assert lower_interval(q, b) == old_lower_interval(q, b)
        assert _refine_invariants(q) == old_refine_invariants(q)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dowling_lattice_mobius_closed_form(order, n):
    # Dowling 1973: mu(Q_n(G)) = (-1)^n prod_{i<n} (1 + i|G|)
    p, _, _ = build_poset(spec_single_point(cyclic_group(order), n, in_t=True))
    expected = (-1) ** n * prod(1 + i * order for i in range(n))
    assert mobius(p, p.bottom(), p.top()) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_lattice_mobius_closed_form(n):
    p, _, _ = build_poset(spec_partition(n))
    assert mobius(p, p.bottom(), p.top()) == (-1) ** (n - 1) * factorial(n - 1)


def test_boolean_lattice_12_mobius():
    b = boolean_lattice(12)
    assert mobius(b, 0, b.n_elems - 1) == 1


# The restrictions, the product's closure and the search, against oracles --

@st.composite
def bounded_posets(draw):
    """A disjoint union of one to three random posets, each with a new
    bottom and a new top adjoined, labelled in no particular order, with
    rank labels (heights) or without: a poset that `proper_part` accepts."""
    covers, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        k, hasse, _ = draw(dag_hasse(max_n=5))
        lo, hi = n + k, n + k + 1
        covers += [(n + a, n + b) for a, b in hasse]
        covers += [(lo, n + x) for x in range(k) if all(b != x for _, b in hasse)]
        covers += [(n + x, hi) for x in range(k) if all(a != x for a, _ in hasse)]
        n += k + 2
    label = draw(st.permutations(range(n)))
    p = from_covers(n, [(label[a], label[b]) for a, b in covers])
    return from_covers(n, [(label[a], label[b]) for a, b in covers], rank=p.height()) \
        if draw(st.booleans()) else p


@settings(max_examples=200, deadline=None)
@given(bounded_posets())
def test_proper_part_is_the_induced_subposet(p):
    drop = set()
    for comp in connected_components(p):
        drop |= {x for x in comp if not p.hasse[x]}
        drop |= {x for x in comp if not any(x in p.hasse[a] for a in comp)}
    sub, _ = induced_subposet(p, [x for x in range(p.n_elems) if x not in drop])
    pp = proper_part(p)
    assert pp == sub and pp.leq == sub.leq


@settings(max_examples=200, deadline=None)
@given(posets(), st.data())
def test_lower_interval_is_the_induced_subposet(p, data):
    if data.draw(st.booleans()):
        p = from_covers(p.n_elems, [(a, b) for a in range(p.n_elems) for b in p.hasse[a]],
                        rank=p.height())
    b = data.draw(st.integers(0, p.n_elems - 1))
    interval, elems = lower_interval(p, b)
    sub, below = induced_subposet(p, [x for x in range(p.n_elems) if p.is_leq(x, b)])
    assert (interval, elems) == (sub, below) and interval.leq == sub.leq


@settings(max_examples=100, deadline=None)
@given(posets(max_n=5), posets(max_n=5))
def test_direct_product_closure_matches_the_product_formula(p, q):
    prod = direct_product(p, q)
    leq = direct_product_leq(p, q)
    assert prod.leq == leq
    assert prod.geq == tuple(sum(1 << a for a in range(prod.n_elems) if leq[a] >> b & 1)
                             for b in range(prod.n_elems))
    assert prod.hasse == old_hasse_from_leq(prod.n_elems, leq)


def test_restrictions_build_no_closure(monkeypatch):
    # a graded D_n holds no closure; the restrictions must not build one
    p, _, _ = build_poset(spec_single_point(cyclic_group(2), 3, in_t=True))
    q, _, _ = build_poset(spec_single_point(cyclic_group(2), 3, in_t=True))
    intervals = [lower_interval(q, b) for b in range(q.n_elems)]
    part = proper_part(q)
    reads = []
    for name in ("leq", "geq"):
        monkeypatch.setattr(Poset, name, property(lambda r, name=name: reads.append(name)))
    monkeypatch.setattr(ocs.posets, "induced_subposet", lambda *a: reads.append("induced"))
    assert [lower_interval(p, b) for b in range(p.n_elems)] == intervals
    assert proper_part(p) == part
    assert reads == []


def test_a_closure_past_the_cap_is_refused_on_first_read():
    # a graded list escapes the cap of from_covers, so the first read holds it
    chain = chain_poset(CLOSURE_CAP + 1)
    message = "^" + re.escape(f"closure cap is {CLOSURE_CAP} elements, got {CLOSURE_CAP + 1}") + "$"
    for read in (lambda: chain.leq, lambda: chain.geq, lambda: mobius(chain, 0, 1)):
        with pytest.raises(DomainError, match=message):
            read()
    assert lower_interval(chain, 2)[1] == (0, 1, 2)
    assert proper_part(chain).n_elems == CLOSURE_CAP - 1
    assert chain_poset(CLOSURE_CAP).leq[0] == (1 << CLOSURE_CAP) - 1


def old_is_isomorphic(p, q):
    """`is_isomorphic` as it was, backtracking by recursion: one Python
    frame per element assigned."""
    n = p.n_elems
    if q.n_elems != n:
        return None
    if sum(len(u) for u in p.hasse) != sum(len(u) for u in q.hasse):
        return None
    ip = _refine_invariants(p)
    iq = _refine_invariants(q)
    if sorted(ip) != sorted(iq):
        return None
    by_class = {}
    for y, c in enumerate(iq):
        by_class.setdefault(c, []).append(y)
    order = sorted(range(n), key=lambda x: (len(by_class[ip[x]]), x))
    f = [-1] * n

    def ok(x, y, assigned, used):
        up, down = p.leq[x] & assigned, p.geq[x] & assigned
        return (up.bit_count() == (q.leq[y] & used).bit_count()
                and down.bit_count() == (q.geq[y] & used).bit_count()
                and all(q.leq[y] >> f[x2] & 1 for x2 in _bits(up))
                and all(q.geq[y] >> f[x2] & 1 for x2 in _bits(down)))

    def rec(k, assigned, used):
        if k == n:
            return True
        x = order[k]
        for y in by_class[ip[x]]:
            if not used >> y & 1 and ok(x, y, assigned, used):
                f[x] = y
                if rec(k + 1, assigned | 1 << x, used | 1 << y):
                    return True
        return False

    return tuple(f) if rec(0, 0, 0) else None


@settings(max_examples=300, deadline=None)
@given(posets(), st.data())
def test_is_isomorphic_keeps_the_recursive_search_order(p, data):
    n = p.n_elems
    if data.draw(st.booleans()):
        label = data.draw(st.permutations(range(n)))
        q = from_covers(n, [(label[a], label[b]) for a in range(n) for b in p.hasse[a]])
    else:
        q = data.draw(posets(max_n=n, min_n=n))
    assert is_isomorphic(p, q) == old_is_isomorphic(p, q)


def test_is_isomorphic_is_not_bounded_by_the_recursion_limit():
    # it assigned one element per Python frame, so an interval of more than
    # about 1000 elements raised RecursionError
    n = sys.getrecursionlimit() + 500
    assert is_isomorphic(chain_poset(n), chain_poset(n)) == tuple(range(n))
    crown = from_covers(n, [[i, n // 2 + j] for i in range(n // 2) for j in (i, (i + 1) % (n // 2))])
    f = is_isomorphic(crown, crown)
    assert f is not None and all(sorted(f[b] for b in crown.hasse[a]) == list(crown.hasse[f[a]])
                                 for a in range(n))
    assert is_isomorphic(Poset(0, ()), Poset(0, ())) == ()
