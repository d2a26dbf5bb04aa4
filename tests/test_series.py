import json
from fractions import Fraction
from importlib import resources
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from ocs.dowling import DowlingSpec, build_poset, spec_partition, spec_single_point
from ocs.errors import DomainError, InputError
from ocs.groups import GSetSpec, cyclic_group, group_from_table
from ocs.homology import reduced_homology
from ocs.posets import mobius, proper_part
from ocs.series import (
    NMAX_CAP,
    SpaceInput,
    WeightedSeries,
    bm_betti,
    closed_form_euler,
    e1_series,
    e1_table,
    euler_series,
    main_factor,
    orbit_factor,
    orbit_generator_dim,
    series_exp,
    series_log,
    series_one,
    space_from_json,
    space_to_json,
    whitney_factorization_check,
)

TRIV = cyclic_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
KLEIN = group_from_table([[a ^ b for b in range(4)] for a in range(4)])


def euclidean(d, name=""):
    betti = [0] * d + [1]
    return SpaceInput(betti=tuple(betti), group=TRIV, orbit_data=(), i_acyclic=True, name=name)


def toric(t_flags):
    return SpaceInput(
        betti=(0, 1, 1),
        group=Z2,
        orbit_data=tuple((Z2, f) for f in t_flags),
        i_acyclic=True,
        name="toric",
    )


def test_series_arithmetic_is_exact():
    a = WeightedSeries(1, 3, {(1, 0, 1): Fraction(1, 3)})
    b = WeightedSeries(1, 3, {(2, 1, 0): Fraction(1, 2)})
    prod = a * b
    assert prod.coeff(3, 1, 1) == Fraction(1, 6)
    assert (a + b - a).coeffs == b.coeffs


def test_series_weight_mismatch_rejected():
    a = series_one(1, 3)
    b = series_one(2, 3)
    with pytest.raises(InputError):
        _ = a * b


def test_exp_log_inverse_frozen():
    arg = WeightedSeries(2, 4, {(1, 0, 1): Fraction(1, 2), (2, 1, 0): Fraction(1, 4)})
    s = series_exp(arg)
    assert series_log(s).coeffs == arg.coeffs
    assert (s * series_exp(-arg)).is_one()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exp_log_roundtrip_random(data):
    w = data.draw(st.sampled_from([1, 2, 3]))
    n_terms = data.draw(st.integers(1, 4))
    coeffs = {}
    for _ in range(n_terms):
        n = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(0, 2))
        q = data.draw(st.integers(0, 3))
        num = data.draw(st.integers(-4, 4))
        den = data.draw(st.integers(1, 5))
        if num:
            coeffs[(n, p, q)] = Fraction(num, den)
    arg = WeightedSeries(w, 4, coeffs)
    assert series_log(series_exp(arg)).coeffs == arg.coeffs


# Oracles: the Fraction-dict engine that the dimension storage replaced, on
# weighted coefficient dicts {(n, p, q): c}.

def _nonzero(coeffs):
    return {k: v for k, v in coeffs.items() if v}


def oracle_add(a, b):
    return _nonzero({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()})


def oracle_mul(a, b, trunc):
    out = {}
    for (n1, p1, q1), c1 in a.items():
        for (n2, p2, q2), c2 in b.items():
            if n1 + n2 <= trunc:
                k = (n1 + n2, p1 + p2, q1 + q2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
    return _nonzero(out)


def oracle_power_sum(u, trunc, coeff, out):
    """out + sum_{k >= 1} coeff(k) u^k, for u with zero constant term."""
    term = {(0, 0, 0): Fraction(1)}
    for k in range(1, trunc + 1):
        term = oracle_mul(term, u, trunc)
        if not term:
            break
        out = oracle_add(out, {key: v * coeff(k) for key, v in term.items()})
    return out


def oracle_exp(arg, trunc):
    one = {(0, 0, 0): Fraction(1)}
    return oracle_power_sum(arg, trunc, lambda k: Fraction(1, factorial(k)), one)


def oracle_log(s, trunc):
    u = oracle_add(s, {(0, 0, 0): Fraction(-1)})
    return oracle_power_sum(u, trunc, lambda k: Fraction((-1) ** (k + 1), k), {})


def random_coeffs(data, w, trunc, n_min):
    """Weighted coefficients at t-degrees n_min..trunc: some with integral
    unweighted values c w^n n!, some arbitrary fractions."""
    coeffs = {}
    for _ in range(data.draw(st.integers(0, 5)) if trunc >= n_min else 0):
        n = data.draw(st.integers(n_min, trunc))
        key = (n, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        num = data.draw(st.integers(-6, 6))
        den = data.draw(st.sampled_from([w**n * factorial(n), 1, 2, 3, 5, 7]))
        coeffs[key] = Fraction(num, den)
    return coeffs


def stored_values(s):
    return [s.unweighted_dim(*k) for k in s.coeffs]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_engine_matches_the_fraction_oracles(data):
    w = data.draw(st.sampled_from([1, 2, 3]))
    trunc = data.draw(st.integers(0, 5))
    a, b = (random_coeffs(data, w, trunc, 0) for _ in range(2))
    arg = random_coeffs(data, w, trunc, 1)
    sa, sb, sarg = (WeightedSeries(w, trunc, c) for c in (a, b, arg))
    one_plus = oracle_add(arg, {(0, 0, 0): Fraction(1)})
    results = {
        "+": (sa + sb, oracle_add(a, b)),
        "-": (sa - sb, oracle_add(a, {k: -v for k, v in b.items()})),
        "*": (sa * sb, oracle_mul(a, b, trunc)),
        "exp": (series_exp(sarg), oracle_exp(arg, trunc)),
        "log": (series_log(WeightedSeries(w, trunc, one_plus)), oracle_log(one_plus, trunc)),
    }
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        assert got == WeightedSeries(w, trunc, want), op
        for key, c in want.items():
            assert got.coeff(*key) == c
            assert got.unweighted_dim(*key) == c * w ** key[0] * factorial(key[0])
        # a stored value is an int exactly when it is integral
        for d in stored_values(got):
            assert type(d) is int or d.denominator != 1, (op, d)


def test_exp_requires_zero_constant_term():
    with pytest.raises(InputError):
        series_exp(WeightedSeries(1, 2, {(0, 0, 0): Fraction(1)}))


def test_main_factor_bidegrees():
    sp = euclidean(2)
    f = main_factor(sp, 3, 6)
    assert f.coeff(3, 2, 2) == Fraction(1, 3)
    assert f.coeff(6, 4, 4) == Fraction(1, 18)  # squared term over 2!
    assert f.coeff(0, 0, 0) == 1


def test_orbit_generator_dims_frozen():
    assert orbit_generator_dim(TRIV, True, 0) == 1
    assert orbit_generator_dim(TRIV, True, 1) == 1
    assert orbit_generator_dim(TRIV, False, 1) == 0
    assert orbit_generator_dim(TRIV, True, 2) == 2  # the 2-point poset is Q_3
    assert orbit_generator_dim(Z2, True, 2) == 3
    assert orbit_generator_dim(Z2, False, 2) == 1
    assert orbit_generator_dim(Z3, True, 2) == 4


def brute_orbit_generator_dim(stab, in_t, k):
    """The zero-block generator rank from its definition: the reduced
    homology of the proper part of the built k-point single-orbit poset,
    which must be concentrated in degree k - 2."""
    poset, _ = build_poset(spec_single_point(stab, k, in_t))
    if poset.n_elems == 1:
        # k = 0, or k = 1 outside T: the lone element is the bottom
        return 1 if k == 0 else 0
    betti = reduced_homology(proper_part(poset))
    assert set(betti) <= {k - 2}, f"homology not concentrated at k={k}: {betti}"
    return betti.get(k - 2, 0)


@pytest.mark.parametrize("in_t", [True, False])
@pytest.mark.parametrize("stab,kmax", [
    (TRIV, 4), (Z2, 4), (Z3, 3), (cyclic_group(4), 3), (KLEIN, 3),
], ids=["trivial", "Z2", "Z3", "Z4", "klein"])
def test_orbit_generator_dim_matches_poset_homology(stab, kmax, in_t):
    for k in range(kmax + 1):
        assert orbit_generator_dim(stab, in_t, k) == brute_orbit_generator_dim(stab, in_t, k)


@pytest.mark.parametrize("in_t", [True, False])
@pytest.mark.parametrize("stab", [TRIV, Z2, Z3, cyclic_group(4), KLEIN],
                         ids=["trivial", "Z2", "Z3", "Z4", "klein"])
def test_orbit_generator_dim_matches_mobius_number(stab, in_t):
    # for k >= 2 the poset is bounded and, its homology being concentrated,
    # (-1)^k mu(bottom, top) is the generator rank
    for k in range(2, 6):
        poset, _ = build_poset(spec_single_point(stab, k, in_t))
        mu = mobius(poset, poset.bottom(), poset.top())
        assert orbit_generator_dim(stab, in_t, k) == (-1) ** k * mu


def test_e1_table_r2_frozen():
    table = e1_table(euclidean(2), 4)
    assert table[1] == {(0, 2): 1}
    assert table[2] == {(0, 4): 1, (1, 2): 1}
    assert table[3] == {(0, 6): 1, (1, 4): 3, (2, 2): 2}
    assert table[4] == {(0, 8): 1, (1, 6): 6, (2, 4): 11, (3, 2): 6}


def test_e1_table_diagonal_total_is_factorial_for_r1():
    # the real line: all classes sit on one diagonal with n! total
    table = e1_table(euclidean(1), 6)
    for n in range(1, 7):
        total = sum(table[n].values())
        assert total == factorial(n)
        assert all(p + q == n for p, q in table[n])


def test_e1_invariants_p_bounds():
    table = e1_table(toric([True, False]), 4)
    for n, entries in table.items():
        for (p, q), d in entries.items():
            assert d > 0 and p <= n
    # orbit-free spaces never reach p = n
    table = e1_table(euclidean(3), 5)
    for n, entries in table.items():
        if n >= 1:
            assert all(p <= n - 1 for p, q in entries)


BUNDLED = {
    res.name.removesuffix(".json"): space_from_json(json.loads(res.read_text()))
    for res in resources.files("ocs").joinpath("specs", "spaces").iterdir()
    if res.name.endswith(".json")
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_e1_series_stores_ints(name):
    assert len(BUNDLED) == 10
    for trunc in range(13):
        values = stored_values(e1_series(BUNDLED[name], trunc))
        assert values and all(type(d) is int and d > 0 for d in values), trunc


@pytest.mark.parametrize("name", sorted(n for n, sp in BUNDLED.items() if not sp.orbit_data))
def test_euler_past_the_cap_matches_the_closed_form(name):
    # e1_series itself keeps no cap: the alternating sums at size 24
    sp = BUNDLED[name]
    s = e1_series(sp, 24)
    sums = [0] * 25
    for n, p, q in s.coeffs:
        sums[n] += (-1) ** (p + q) * s.unweighted_dim(n, p, q)
    assert sums == closed_form_euler(sp, 24)


def test_e1_table_nmax_cap():
    assert len(e1_table(euclidean(2), NMAX_CAP)) == NMAX_CAP + 1
    with pytest.raises(DomainError, match=f"truncation cap is {NMAX_CAP}, got {NMAX_CAP + 1}"):
        e1_table(euclidean(2), NMAX_CAP + 1)
    with pytest.raises(InputError):
        e1_table(euclidean(2), -1)


def test_bm_betti_r2_matches_classical_poincare():
    # reindexed by duality, dims follow prod_{i<n} (1 + i z)
    for n in range(1, 7):
        bet = bm_betti(euclidean(2), n)
        coeffs = [1]
        for i in range(1, n):
            nxt = [0] * (len(coeffs) + 1)
            for j, c in enumerate(coeffs):
                nxt[j] += c
                nxt[j + 1] += c * i
            coeffs = nxt
        expect = {2 * n - k: c for k, c in enumerate(coeffs) if c}
        assert bet == expect


def test_bm_betti_r3_even_degrees():
    for n in range(1, 6):
        bet = bm_betti(euclidean(3), n)
        coeffs = [1]
        for i in range(1, n):
            nxt = [0] * (len(coeffs) + 1)
            for j, c in enumerate(coeffs):
                nxt[j] += c
                nxt[j + 1] += c * i
            coeffs = nxt
        expect = {3 * n - 2 * k: c for k, c in enumerate(coeffs) if c}
        assert bet == expect


def test_bm_betti_refuses_non_i_acyclic():
    sp = SpaceInput(betti=(0, 1), group=TRIV, orbit_data=(), i_acyclic=False)
    with pytest.raises(DomainError):
        bm_betti(sp, 2)


def test_punctured_plane_conf1():
    sp = SpaceInput(
        betti=(0, 0, 1), group=TRIV, orbit_data=((TRIV, True),), i_acyclic=True
    )
    assert bm_betti(sp, 1) == {1: 1, 2: 1}


def test_toric_c_conf1():
    sp = toric([True, True])
    assert e1_table(sp, 1)[1] == {(0, 1): 1, (0, 2): 1, (1, 0): 2}
    assert bm_betti(sp, 1) == {1: 3, 2: 1}


def test_euler_series_closed_form_free():
    for d in (1, 2, 3):
        sp = euclidean(d)
        assert closed_form_euler(sp, 6) == euler_series(sp, 6)
    free = SpaceInput(betti=(0, 1, 1), group=Z2, orbit_data=(), i_acyclic=True)
    seq = euler_series(free, 6)
    assert seq == [1, 0, 0, 0, 0, 0, 0]
    assert closed_form_euler(free, 6) == seq


def test_closed_form_euler_none_with_orbits():
    assert closed_form_euler(toric([True, True]), 4) is None


def test_euler_closed_form_values_r2():
    # chi_c(R^2) = 1 with trivial weight: prod (1 - i) vanishes past n = 1
    assert euler_series(euclidean(2), 5) == [1, 1, 0, 0, 0, 0]


def test_whitney_factorization_check_lattices():
    for spec in [spec_partition(4), spec_single_point(Z2, 3, in_t=True)]:
        ok, mismatches = whitney_factorization_check(spec)
        assert ok, mismatches


def test_whitney_factorization_check_toric():
    gs = GSetSpec(group=Z2, size=2, action=((0, 1), (0, 1)), t_subset=frozenset({0}))
    spec = DowlingSpec(group=Z2, gset=gs, n=3)
    ok, mismatches = whitney_factorization_check(spec)
    assert ok, mismatches


def test_space_json_roundtrip():
    sp = toric([True, False])
    back = space_from_json(space_to_json(sp))
    assert back.betti == sp.betti and back.group.order == 2
    assert [f for _, f in back.orbit_data] == [True, False]
    with pytest.raises(InputError):
        space_from_json({"betti": [1], "group": {"kind": "cyclic", "order": 1}})
    with pytest.raises(InputError):
        space_from_json({**space_to_json(sp), "spurious": 1})


def test_space_rejects_bad_stabilizer_order():
    # stabilizer order must divide the group order
    with pytest.raises(InputError):
        SpaceInput(betti=(0, 1), group=Z2, orbit_data=((Z3, True),), i_acyclic=True)
