"""The poset paths of the commands that answer from a spec, kept as the
oracles of the cycle-length product (`symrep.dowling_whitney_characters`
and `dowling_whitney_numbers`) and of the element-count cap check
(`dowling._check_window_cap`): Whitney characters read off one built
Dowling poset per n, the Whitney table read off one Mobius row of it
(`whitney_from_mobius`), and the `--cap` refusal read off the rank level
sizes of its enumeration (`enumerate_levels`).

A spec comes from `spec_from_orbit_data` by default.  That rebuilds a
G-set only when every stabilizer is trivial or the whole group, so
`coset_gset` lays out any other orbit by hand, as the cosets of a chosen
subgroup.
"""

import ocs.cli
from ocs.dowling import DowlingSpec, build_poset, enumerate_levels, spec_from_orbit_data
from ocs.errors import CapExceeded
from ocs.groups import GSetSpec, group_from_table
from ocs.homology import _signless_whitney_numbers
from ocs.symrep import sym_class_poset_perms, whitney_character

# a cap that no enumeration of the oracle reaches, so its refusals come
# from the level sizes alone
NO_CAP = 10**7

# the Klein four-group, as bitwise xor on 0..3
KLEIN = group_from_table([[a ^ b for b in range(4)] for a in range(4)])


def poset_characters(spec: DowlingSpec, ranks=None) -> dict:
    """{r: Whitney character of the built poset of spec} for r in ranks
    (None: every rank of the poset)."""
    p, elements, _ = build_poset(spec, cap=NO_CAP)
    perms = sym_class_poset_perms(spec, elements)
    return {r: whitney_character(p, perms, r, spec.n)
            for r in (sorted(set(p.rank)) if ranks is None else ranks)}


def whitney_from_mobius(p) -> dict[tuple[int, int], int]:
    """The `whitney_homology` table of a poset with a bottom, ranked from 0
    there, whose lower intervals are all Cohen-Macaulay, from one Mobius
    row and no order complex: the proper part of the interval below x has
    its homology in degree rank(x) - 2 only, of rank |mu(bottom, x)|
    (Hall's theorem), so the table is {(r, r): signless Whitney number at
    rank r}.  The caller vouches for the Cohen-Macaulay property (every
    lower interval of a Dowling poset D_n is a product of geometric
    lattices); nothing here checks it."""
    rk = p.rank if p.rank is not None else p.height()
    return {(r, r): w for r, w in _signless_whitney_numbers(p, rk).items()}


def levels_outcome(levels: dict, window: list[int], cap: int):
    """(message, partialCount) of the `--cap` refusal on the first n of the
    window, read off the rank level sizes levels[n] of each D_n: the total
    is checked after each level past the bottom; None if nothing refuses."""
    for n in window:
        total = 1
        for r, size in enumerate(levels[n][1:], 1):
            total += size
            if total > cap:
                return f"element cap {cap} exceeded while enumerating rank {r}", total
    return None


def coset_gset(group, orbits) -> GSetSpec:
    """The G-set with one orbit G/K per (elements of the subgroup K, in T)
    pair, G acting on the left cosets by left multiplication."""
    action = [[] for _ in range(group.order)]
    t_points = []
    for subgroup, in_t in orbits:
        start = len(action[0])
        cosets = []
        for g in range(group.order):
            coset = frozenset(group.mul[g][k] for k in subgroup)
            if coset not in cosets:
                cosets.append(coset)
        for g, row in enumerate(action):
            row += [start + cosets.index(frozenset(group.mul[g][x] for x in coset))
                    for coset in cosets]
        if in_t:
            t_points += range(start, start + len(cosets))
    return GSetSpec(group=group, size=len(action[0]), action=tuple(map(tuple, action)),
                    t_subset=frozenset(t_points))


def use_the_poset_path(monkeypatch, make_spec=spec_from_orbit_data) -> None:
    """Make `rep stability` take its cap check and its characters from the
    built posets, as make_spec(group, orbit_data, n) lays them out: the cap
    from the levels of each n of the window, the characters at every
    n <= nmax."""
    def check_cap(group, orbit_data, window, cap):
        for n in window:
            levels = [len(level) for level in enumerate_levels(make_spec(group, orbit_data, n),
                                                               NO_CAP)]
            refusal = levels_outcome({n: levels}, [n], cap)
            if refusal:
                raise CapExceeded(refusal[0], partial_count=refusal[1])

    def characters(group, orbit_data, r, nmax):
        return {n: poset_characters(make_spec(group, orbit_data, n), [r])[r]
                for n in range(1, nmax + 1)}

    monkeypatch.setattr(ocs.cli, "_check_window_cap", check_cap)
    monkeypatch.setattr(ocs.cli, "dowling_whitney_characters", characters)
