import json
import time
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, factorial

import pytest

import ocs.symrep
from ocs.dowling import (
    DowlingSpec,
    _wreath_act,
    build_poset,
    spec_from_orbit_data,
    spec_partition,
    spec_single_point,
)
from ocs.errors import DomainError, InputError
from ocs.groups import WreathElement, cyclic_group
from ocs.homology import interval_degree_table, lefschetz_character
from ocs.posets import from_covers, induced_subposet
from ocs.series import space_from_json
from ocs.symrep import (
    ClassFunction,
    character_table,
    decompose,
    dowling_whitney_characters,
    dowling_whitney_numbers,
    _z_order,
    partitions_of,
    sym_class_poset_perms,
    whitney_character,
)
from helpers import conjugacy_class_size, cycle_type_permutation
from poset_oracle import KLEIN, NO_CAP, coset_gset, poset_characters, whitney_from_mobius
from test_cli import STABILIZERS_STRICTLY_BETWEEN
from test_dowling import bundled_poset_specs


def moebius(d: int) -> int:
    """The number-theoretic Moebius function, by trial division."""
    out, k = 1, 2
    while k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            out = -out
        k += 1
    return -out if d > 1 else out


def lie_character(mu: tuple[int, ...]) -> int:
    """Character of Lie_n: mu(d) (k-1)! d^(k-1) on cycle type (d^k), 0 on
    every other cycle type."""
    d, k = mu[0], len(mu)
    if any(part != d for part in mu):
        return 0
    return moebius(d) * factorial(k - 1) * d ** (k - 1)


def sign(mu: tuple[int, ...]) -> int:
    return (-1) ** (sum(mu) - len(mu))


def partition_lattice_character(n: int, r: int) -> dict:
    spec = spec_partition(n)
    p, elements, _ = build_poset(spec)
    return dict(whitney_character(p, sym_class_poset_perms(spec, elements), r, n).values)


@lru_cache(maxsize=None)
def mn_reference(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama rule: remove a border strip of
    length mu[0] (a beta-number b moves down to a free b - mu[0]) with the
    sign (-1)^(its height), and recurse on the rest of mu."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    total = 0
    for b in beta:
        c = b - r
        if c < 0 or c in beta:
            continue
        height = sum(1 for x in beta if c < x < b)
        newbeta = sorted(set(beta) - {b} | {c}, reverse=True)
        newlam = tuple(a for a in (newbeta[i] - (k - 1 - i) for i in range(k)) if a > 0)
        total += (-1) ** height * mn_reference(newlam, rest)
    return total


@pytest.mark.parametrize("m", range(13))
def test_character_table_matches_the_murnaghan_nakayama_reference(m):
    parts = partitions_of(m)
    table = character_table(m)
    assert list(table) == list(parts)
    assert all(list(row) == list(parts) for row in table.values())
    assert table == {lam: {mu: mn_reference(lam, mu) for mu in parts} for lam in parts}


@pytest.mark.parametrize("m", range(11))
def test_character_table_columns_are_orthogonal(m):
    # sum over lambda of chi^lambda(mu) chi^lambda(nu) = [mu == nu] z_mu
    table = character_table(m)
    for mu in partitions_of(m):
        for nu in partitions_of(m):
            inner = sum(row[mu] * row[nu] for row in table.values())
            assert inner == (factorial(m) // conjugacy_class_size(mu) if mu == nu else 0)


@pytest.mark.parametrize("m", range(11))
def test_character_table_rows_are_orthonormal(m):
    # sum over mu of chi^lambda(mu) chi^kappa(mu) m!/z_mu = [lambda == kappa] m!
    table = character_table(m)
    sizes = {mu: conjugacy_class_size(mu) for mu in partitions_of(m)}
    for lam, row in table.items():
        for kappa, other in table.items():
            inner = sum(row[mu] * other[mu] * size for mu, size in sizes.items())
            assert inner == (factorial(m) if lam == kappa else 0)


@pytest.mark.parametrize("n", range(3, 7))
def test_rank_one_whitney_character_of_the_partition_lattice_permutes_pairs(n):
    # the atoms of Pi_n are the 2-subsets of {0..n-1}; a permutation of cycle
    # type mu fixes the pairs inside its fixed points and its 2-cycles
    expected = {mu: comb(mu.count(1), 2) + mu.count(2) for mu in partitions_of(n)}
    assert partition_lattice_character(n, 1) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_top_whitney_character_of_the_partition_lattice_is_sign_twisted_lie(n):
    # Stanley 1982: the top Whitney homology of Pi_n is sgn (x) Lie_n
    expected = {mu: sign(mu) * lie_character(mu) for mu in partitions_of(n)}
    assert partition_lattice_character(n, n - 1) == expected


def test_decompose_refuses_a_class_function_that_is_not_a_virtual_character():
    # half the regular character of S_2: both multiplicities are 1/2
    cf = ClassFunction.from_dict(2, {(1, 1): Fraction(1), (2,): Fraction(0)})
    with pytest.raises(DomainError):
        decompose(cf)


def test_decompose_names_the_first_non_integer_multiplicity():
    # chi^(3) + chi^(2,1)/3: (3) is integral, so the refusal names (2, 1)
    cf = ClassFunction.from_dict(
        3, {(3,): Fraction(2, 3), (2, 1): Fraction(1), (1, 1, 1): Fraction(5, 3)})
    with pytest.raises(DomainError) as exc:
        decompose(cf)
    assert str(exc.value) == "non-integer multiplicity 1/3 at (2, 1): not a virtual character"
    assert decompose(ClassFunction.from_dict(
        3, {mu: 3 * v for mu, v in dict(cf.values).items()})) == {(3,): 3, (2, 1): 1}


def whitney_character_reference(p, class_perms, r, m):
    """The per-element path: for each cycle type and each fixed x of rank r,
    the Lefschetz number of the action on an induced subposet of the open
    interval (bottom, x)."""
    bottom = p.bottom()
    level = [x for x in range(p.n_elems) if p.rank[x] == r]
    for x in level:
        if x != bottom and set(interval_degree_table(p, x)) - {r}:
            raise DomainError("lower-interval homology is not concentrated; character refused")
    values = {}
    for mu, perm in class_perms.items():
        total = 0
        for x in level:
            if perm[x] != x:
                continue
            if x == bottom:
                total += 1
                continue
            inside = [y for y in range(p.n_elems) if p.leq[y] >> x & 1 and y not in (x, bottom)]
            sub, elems = induced_subposet(p, inside)
            local = {e: i for i, e in enumerate(elems)}
            sub_perm = tuple(local[perm[e]] for e in elems)
            total += (-1) ** r * lefschetz_character(sub, sub_perm)
        values[mu] = Fraction(total)
    return ClassFunction.from_dict(m, values)


@pytest.mark.parametrize("spec", bundled_poset_specs(4) + [
    spec_partition(5),
    spec_single_point(cyclic_group(2), 3, in_t=False),
])
def test_whitney_character_matches_the_per_element_reference(spec):
    p, elements, _ = build_poset(spec)
    perms = sym_class_poset_perms(spec, elements)
    for r in sorted(set(p.rank)):
        try:
            expected = whitney_character_reference(p, perms, r, spec.n)
        except DomainError as exc:
            with pytest.raises(DomainError) as refused:
                whitney_character(p, perms, r, spec.n)
            assert str(refused.value) == str(exc)
            continue
        assert whitney_character(p, perms, r, spec.n) == expected


def test_a_memo_hit_is_still_checked_against_its_own_rank():
    # a bottom 0 under a crown (1, 2 below 3, 4), and 5, 6 above the crown:
    # the intervals below 5 and 6 are one shape, whose homology sits in
    # degree 3 only; 6 carries the rank label 2, so it is refused there.
    # The memo spans one call, that is one rank.
    p = from_covers(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                        (3, 5), (4, 5), (3, 6), (4, 6)], rank=(0, 1, 1, 2, 2, 3, 2))
    perms = {(1,): tuple(range(7))}
    assert whitney_character(p, perms, 3, 1).values == (((1,), Fraction(1)),)
    with pytest.raises(DomainError):
        whitney_character(p, perms, 2, 1)


def sym_class_poset_perms_reference(spec, elements):
    """One `_wreath_act` sweep per cycle type, by its class representative."""
    ident = (spec.group.identity,) * spec.n
    index = {e: i for i, e in enumerate(elements)}
    out = {}
    for mu in partitions_of(spec.n):
        w = WreathElement(colors=ident, perm=cycle_type_permutation(mu))
        images = [index.get(_wreath_act(spec, w, e)) for e in elements]
        if None in images:
            raise InputError("the elements are not closed under the symmetric group action")
        out[mu] = tuple(images)
    return out


@pytest.mark.parametrize("spec", bundled_poset_specs(4) + [
    spec_partition(n, "partition-lattice") for n in range(5, 8)
], ids=lambda spec: f"{spec.name}-{spec.n}")
def test_class_perms_match_the_per_class_sweep(spec):
    _, elements, _ = build_poset(spec)
    got = sym_class_poset_perms(spec, elements)
    expected = sym_class_poset_perms_reference(spec, elements)
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("spec", [
    spec_partition(1, "partition-lattice"),
    spec_partition(5, "partition-lattice"),
    spec_single_point(cyclic_group(3), 4, in_t=True, name="dowling-lattice-z3"),
], ids=lambda spec: f"{spec.name}-{spec.n}")
def test_class_perms_act_by_the_adjacent_transpositions_only(spec, monkeypatch):
    _, elements, _ = build_poset(spec)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _wreath_act(*args)

    monkeypatch.setattr(ocs.symrep, "_wreath_act", counted)
    sym_class_poset_perms(spec, elements)
    assert calls == (spec.n - 1) * len(elements)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_perms_refuse_the_same_element_lists_as_the_sweep(n):
    # drop each element in turn: the closure check must fire exactly when
    # the per-class sweep's does
    spec = spec_partition(n)
    _, elements, _ = build_poset(spec)
    for i in range(len(elements)):
        kept = elements[:i] + elements[i + 1:]
        try:
            expected = sym_class_poset_perms_reference(spec, kept)
        except InputError as exc:
            with pytest.raises(InputError, match=str(exc)):
                sym_class_poset_perms(spec, kept)
            continue
        assert sym_class_poset_perms(spec, kept) == expected


def partition_lattice_whitney_characters(r: int, nmax: int) -> dict:
    """{n: rank-r Whitney character of Pi_n}, the trivial group and no orbits."""
    return dowling_whitney_characters(cyclic_group(1), (), r, nmax)


def poset_path_characters(n: int, ranks) -> dict:
    """{r: Whitney character of the built partition lattice Pi_n}."""
    return poset_characters(spec_partition(n), ranks)


@pytest.mark.parametrize("n", range(1, 8))
def test_series_characters_match_the_poset_path_at_every_rank(n):
    expected = poset_path_characters(n, None)
    assert sorted(expected) == list(range(n))
    for r, cf in expected.items():
        assert partition_lattice_whitney_characters(r, n)[n] == cf


def test_series_characters_match_the_poset_path_on_pi_8_low_ranks():
    ranks = range(5)
    expected = poset_path_characters(8, list(ranks))
    for r in ranks:
        assert partition_lattice_whitney_characters(r, 8)[8] == expected[r]


@pytest.mark.parametrize("r", [-3, -1, 7, 8, 12])
def test_out_of_range_ranks_give_zero_characters_on_both_paths(r):
    chars = partition_lattice_whitney_characters(r, 7)
    assert sorted(chars) == list(range(1, 8))
    for n, cf in chars.items():
        if 0 <= r < n:
            continue
        assert cf.m == n and all(v == 0 for _, v in cf.values)
        if n <= 5:
            assert poset_path_characters(n, [r])[r] == cf


def unsigned_stirling_first(n: int, k: int) -> int:
    """|s(n, k)|: permutations of n points with k cycles."""
    if n == 0:
        return int(k == 0)
    if k == 0:
        return 0
    return unsigned_stirling_first(n - 1, k - 1) + (n - 1) * unsigned_stirling_first(n - 1, k)


@pytest.mark.parametrize("r", range(6))
def test_series_characters_have_the_whitney_numbers_as_degrees(r):
    # WH_r(Pi_n) has dimension |s(n, n - r)|, the rank-r Whitney number of
    # the first kind; checked past the sizes the poset path reaches
    for n, cf in partition_lattice_whitney_characters(r, 12).items():
        assert dict(cf.values)[(1,) * n] == (unsigned_stirling_first(n, n - r) if r < n else 0)


def test_series_characters_have_the_closed_forms_at_rank_one_and_the_top():
    chars = partition_lattice_whitney_characters(1, 10)
    for n in range(2, 11):
        expected = {mu: comb(mu.count(1), 2) + mu.count(2) for mu in partitions_of(n)}
        assert dict(chars[n].values) == expected
    for n in range(2, 11):
        top = partition_lattice_whitney_characters(n - 1, n)[n]
        assert dict(top.values) == {mu: sign(mu) * lie_character(mu) for mu in partitions_of(n)}



def _roots_of_unity(group, d: int) -> int:
    """#{g in group : g^d = 1}, by d multiplications each."""
    count = 0
    for g in range(group.order):
        x = group.identity
        for _ in range(d):
            x = group.mul[x][g]
        count += x == group.identity
    return count


def _ps_times(a: dict, b: dict, nmax: int) -> dict:
    """The product of two power-sum series {(lam, t-degree): coefficient},
    cut past symmetric degree nmax."""
    out: dict = defaultdict(Fraction)
    for (l1, e1), c1 in a.items():
        for (l2, e2), c2 in b.items():
            if sum(l1) + sum(l2) <= nmax:
                out[tuple(sorted(l1 + l2, reverse=True)), e1 + e2] += c1 * c2
    return {key: c for key, c in out.items() if c}


def _block_exponential(group, nmax: int) -> dict:
    """Exp[sum_b N_b t^(b-1)] to symmetric degree nmax, N_b the colored
    blocks of b points: sgn (x) Lie_b tensored with the block's colorings up
    to translation.  Exp[G] = exp(sum_k p_k[G] / k), with a generator of odd
    t-degree e signed (-1)^((k-1) e) in p_k.  A permutation of cycle type
    d^m fixes r_d(G) w^(m-1) of the colorings of a block of b = dm points,
    so N_b = sum_(d | b) r_d(G) w^(m-1) (-1)^(b-m) mu(d)/b p_d^m, with
    ch Lie_b = (1/b) sum_(d | b) mu(d) p_d^(b/d) (Reutenauer 1993)."""
    w = group.order
    # gens[m]: the symmetric-degree-m part of sum_k p_k[G] / k
    gens = [defaultdict(Fraction) for _ in range(nmax + 1)]
    for b in range(1, nmax + 1):
        for k in range(1, nmax // b + 1):
            for d in range(1, b + 1):
                mu = moebius(d) if b % d == 0 else 0
                if mu:
                    m = b // d
                    sign = (-1) ** ((k - 1) * (b - 1) + b - m)
                    gens[k * b][(k * d,) * m, k * (b - 1)] += Fraction(
                        sign * mu * _roots_of_unity(group, d) * w ** (m - 1), k * b)
    # exp by the degree recurrence m E_m = sum_(k=1..m) k G_k E_(m-k)
    exp = [{((), 0): Fraction(1)}]
    for m in range(1, nmax + 1):
        acc: dict = defaultdict(Fraction)
        for k in range(1, m + 1):
            for (lam, e), c in gens[k].items():
                for (rest, f), c2 in exp[m - k].items():
                    acc[tuple(sorted(lam + rest, reverse=True)), e + f] += k * c * c2
        exp.append({key: c / m for key, c in acc.items() if c})
    return {key: c for part in exp for key, c in part.items()}


def _zero_block_factor(group, stab, in_t: bool, nmax: int) -> dict:
    """The zero-block factor of one orbit with stabilizer stab, as a
    power-sum series.  For the Dowling lattices Q_k(H), H = stab, the
    fixed-point Mobius identity sum_(x <= top) mu(0, x) = 0 reads Z_H(-1)
    Exp[N^H](-1) = 1, and the degree-k part of Z_H sits in t-degree k, so
    Z_H is found by inverting Exp[N^H] at t = -1.  An orbit outside T has
    no singleton zero blocks, which multiplies by (1 - t p_1), and its w/|H|
    points turn p_j into (w/|H|) p_j: a cycle's points share one of them."""
    # 1 - Exp[N^H](-1), all of symmetric degree >= 1
    below_one: dict = defaultdict(Fraction)
    for (lam, e), c in _block_exponential(stab, nmax).items():
        if lam:
            below_one[lam, 0] -= (-1) ** e * c
    # 1/E = sum_i (1 - E)^i, cut past symmetric degree nmax
    inverse: dict = defaultdict(Fraction, {((), 0): Fraction(1)})
    term = {((), 0): Fraction(1)}
    for _ in range(nmax):
        term = _ps_times(term, below_one, nmax)
        for key, c in term.items():
            inverse[key] += c
    factor = {(lam, sum(lam)): (-1) ** sum(lam) * c for (lam, _), c in inverse.items() if c}
    if not in_t:
        factor = _ps_times(factor, {((), 0): Fraction(1), ((1,), 1): Fraction(-1)}, nmax)
    c = group.order // stab.order
    return {(lam, e): coeff * c ** len(lam) for (lam, e), coeff in factor.items()}


@lru_cache(maxsize=None)
def _plethystic_series(group, orbit_data, nmax: int) -> dict:
    series = _block_exponential(group, nmax)
    for stab, in_t in orbit_data:
        series = _ps_times(series, _zero_block_factor(group, stab, in_t, nmax), nmax)
    return series


def plethystic_reference(group, orbit_data, r: int, nmax: int) -> dict:
    """{n: rank-r Whitney character of D_n(G, S)} for n <= nmax, as the
    degree-(n, r) parts of the power-sum series Exp[sum_b N_b t^(b-1)] times
    one zero-block factor per orbit, with exact coefficients: the character
    value at lam is z_lam times the coefficient of p_lam t^r."""
    series = _plethystic_series(group, tuple(orbit_data), nmax)
    return {
        n: ClassFunction.from_dict(
            n, {mu: _z_order(mu) * series.get((mu, r), 0) for mu in partitions_of(n)})
        for n in range(1, nmax + 1)
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_product_formula_matches_the_plethystic_exponential(n):
    for r in range(-2, n + 2):
        assert (partition_lattice_whitney_characters(r, n)
                == plethystic_reference(cyclic_group(1), (), r, n))


def bundled_space(name: str):
    return space_from_json(json.loads(
        resources.files("ocs").joinpath("specs", "spaces", name + ".json").read_text()))


SPACES = sorted(res.name.removesuffix(".json")
                for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
                if res.name.endswith(".json"))


@pytest.mark.parametrize("name", SPACES)
def test_product_formula_matches_the_plethystic_exponential_on_every_space(name):
    space = bundled_space(name)
    for r in range(-1, 10):
        assert (dowling_whitney_characters(space.group, space.orbit_data, r, 8)
                == plethystic_reference(space.group, space.orbit_data, r, 8)), r


def _matches_the_poset_path(spec_of, group, orbit_data, nmax: int) -> None:
    """dowling_whitney_characters equals the Whitney characters of the
    built posets at every rank, and the zero character past them."""
    for n in range(1, nmax + 1):
        expected = poset_characters(spec_of(n))
        for r in range(-1, n + 2):
            got = dowling_whitney_characters(group, orbit_data, r, n)[n]
            assert got == expected.get(r, ClassFunction.from_dict(
                n, dict.fromkeys(partitions_of(n), 0))), (n, r)


@pytest.mark.parametrize("name", SPACES)
def test_product_formula_matches_the_poset_path_on_every_space(name):
    space = bundled_space(name)
    _matches_the_poset_path(
        lambda n: spec_from_orbit_data(space.group, space.orbit_data, n),
        space.group, space.orbit_data, 4 if name == "dowling_mu3" else 5)


@pytest.mark.parametrize("group, orbits, nmax", [
    (cyclic_group(2), [([0], True)], 5),
    (cyclic_group(2), [([0], False)], 5),
    (cyclic_group(4), [([0, 2], True)], 4),
    (cyclic_group(4), [([0, 2], False)], 4),
    (cyclic_group(3), [([0], False), ([0, 1, 2], False)], 4),
    (cyclic_group(4), [([0, 1, 2, 3], True)], 4),
    (KLEIN, [([0, 1, 2, 3], True)], 4),
    (KLEIN, [([0, 1], True)], 4),
    (KLEIN, [([0, 1], False), ([0, 2], True)], 4),
    (cyclic_group(6), [([0, 3], True), ([0, 2, 4], False)], 3),
], ids=["Z2-free-in-T", "Z2-free", "Z4-Z2-in-T", "Z4-Z2", "Z3-free-fixed", "Z4-fixed",
        "Klein-fixed", "Klein-Z2-in-T", "Klein-two-Z2", "Z6-Z2-Z3"])
def test_product_formula_matches_the_poset_path_on_hand_built_g_sets(group, orbits, nmax):
    # each orbit is the cosets of a subgroup, given by its elements, with its in-T flag
    gset = coset_gset(group, orbits)
    orbit_data = DowlingSpec(group=group, gset=gset, n=0).orbit_data
    assert [stab.order for stab, _ in orbit_data] == [len(sub) for sub, _ in orbits]
    _matches_the_poset_path(lambda n: DowlingSpec(group=group, gset=gset, n=n),
                            group, orbit_data, nmax)


def _whitney_numbers_match_the_mobius_row(spec: DowlingSpec) -> None:
    w = dowling_whitney_numbers(spec.group, spec.orbit_data, spec.n)
    assert len(w) == spec.n + 1
    p = build_poset(spec, cap=NO_CAP)[0]
    assert {(r, r): wr for r, wr in enumerate(w) if wr} == whitney_from_mobius(p)


@pytest.mark.parametrize("spec", bundled_poset_specs(5))
def test_whitney_numbers_match_the_mobius_row_on_every_bundled_spec(spec):
    _whitney_numbers_match_the_mobius_row(spec)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("group, orbits", STABILIZERS_STRICTLY_BETWEEN)
def test_whitney_numbers_match_the_mobius_row_on_a_stabilizer_strictly_between(group, orbits, n):
    _whitney_numbers_match_the_mobius_row(
        DowlingSpec(group=group, gset=coset_gset(group, orbits), n=n))


def test_a_huge_rank_allocates_nothing_of_its_size():
    # the product has degree at most n, so no polynomial is cut at t^r
    for space in (bundled_space("typeA_R2"), bundled_space("toricB")):
        start = time.perf_counter()
        chars = dowling_whitney_characters(space.group, space.orbit_data, 10**9, 8)
        assert time.perf_counter() - start < 1
        assert sorted(chars) == list(range(1, 9))
        for n, cf in chars.items():
            assert cf.m == n and all(v == 0 for _, v in cf.values)
