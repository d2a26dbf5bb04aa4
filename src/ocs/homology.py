"""Order complexes and exact rational homology of finite posets.

Everything here is integer arithmetic, with one strategy per question:
  * Betti numbers: boundary matrices of the order complex, with entries in
    {-1, 0, 1}, reduced column by column by lowest row, the standard
    reduction of persistent homology (Edelsbrunner, Letscher and
    Zomorodian 2002), kept fraction-free, so the ranks are exact over Q.
    The matrices are reduced from the top dimension down with clearing
    (Chen and Kerber, *Persistent homology computation with a twist*,
    2011): a chain that is already the lowest row of a kept column one
    dimension up is not reduced as a column.  The chains are counted
    first, and past `CHAIN_CAP` none is built.
  * Whitney homology: one reduction per distinct lower interval.  An
    interval is keyed by its re-indexed Hasse diagram, so equal keys are
    equal posets and the reuse is exact.  A Dowling poset D_n needs none:
    its lower intervals are products of geometric lattices, so
    Cohen-Macaulay (Folkman 1966, Bjorner 1980), and its table is the
    signless Whitney numbers at (r, r), which the cycle-length product
    gives with no poset (`symrep.dowling_whitney_numbers`).
  * Euler characteristics, Lefschetz numbers and Whitney characters:
    P. Hall's theorem (1936), chi~(Delta(P)) = mu(0^, 1^) of P with a bottom
    and a top adjoined, one Mobius pass with no chains enumerated.  The one
    Mobius recursion lives in `posets` (`_mobius_above`).

Conventions, fixed globally:
  * A subposet is a subset of p's elements (a bitset, as `p.geq` gives, for
    chains and homology), never a re-indexed copy.  Sorted indices re-index
    monotonically, so the bases and reductions are the copy's, up to labels.
  * The order complex carries an empty face in dimension -1 (reduced chain
    complex), so the empty poset has reduced Betti table {-1: 1}.
  * Whitney homology buckets the interval below x at (rank x, k) where the
    interval contributes reduced homology in dimension k-2 of the proper
    part of the interval.  The one-element interval below the bottom is the
    degenerate case: it contributes 1 at k = 0.
"""

from __future__ import annotations

from math import gcd

from .errors import CapExceeded, InputError
from .posets import (
    Poset,
    _bits,
    _lower_hasse,
    _mobius_above,
    _mobius_row,
)

__all__ = [
    "CHAIN_CAP",
    "order_complex_chains",
    "reduced_homology",
    "interval_degree_table",
    "whitney_homology",
    "lefschetz_character",
    "sparse_rank",
]


def order_complex_chains(p: Poset, mask: int | None = None) -> list[list[tuple[int, ...]]]:
    """All chains of p, or of its subposet on the bitset mask, by dimension.

    Returns ``chains`` with ``chains[k]`` the dimension-k simplices, i.e. the
    (k+1)-element chains, each a tuple of p's indices in increasing poset
    order.  Bases are in lexicographic order of index tuples.
    """
    if mask is None:
        mask = (1 << p.n_elems) - 1
    ups = {x: list(_bits((p.leq[x] & mask) ^ (1 << x))) for x in _bits(mask)}
    out: list[list[tuple[int, ...]]] = []

    def extend(chain: tuple[int, ...]):
        k = len(chain) - 1
        while len(out) <= k:
            out.append([])
        out[k].append(chain)
        for y in ups[chain[-1]]:
            extend(chain + (y,))

    for x in ups:
        extend((x,))
    return out


def _boundary_matrices(chains: list[list[tuple[int, ...]]]):
    """Boundary maps of the reduced order complex.

    Returns a list ``bnd`` where ``bnd[k]`` maps dimension-k chains to
    dimension-(k-1) chains, as a list of {row: coeff} columns; ``bnd[0]`` is
    the augmentation onto the empty face (a single row, index 0).
    Asserts d(d(c)) = 0 for every chain.
    """
    index = [{c: i for i, c in enumerate(level)} for level in chains]
    bnd: list[list[dict[int, int]]] = []
    if not chains:
        return bnd
    bnd.append([{0: 1} for _ in chains[0]])
    for k in range(1, len(chains)):
        idx = index[k - 1]
        cols = []
        for c in chains[k]:
            col: dict[int, int] = {}
            sign = 1
            for i in range(len(c)):
                face = c[:i] + c[i + 1 :]
                col[idx[face]] = sign
                sign = -sign
            cols.append(col)
        bnd.append(cols)
    # d^2 = 0, verified symbolically on every basis chain.
    for k in range(1, len(bnd)):
        lower = bnd[k - 1]
        for col in bnd[k]:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for r2, v2 in lower[r].items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                raise AssertionError("boundary of boundary is nonzero")
    return bnd


def sparse_rank(columns: list[dict[int, int]], *, lows: list[int] | None = None) -> int:
    """Exact rank of an integer matrix given as columns {row: nonzero value}.

    The standard column reduction by lowest row (Edelsbrunner, Letscher and
    Zomorodian 2002): each kept column owns its lowest (largest) row.  An
    incoming column is reduced against the kept column owning its current
    lowest row until it is empty or owns a new lowest row, in which case it
    is kept.  The rank is the number of kept columns.  Each step is
    fraction-free: col -= (b/a)*kept when the kept pivot a divides the
    column's entry b (always, for unit pivots), col := a*col - b*kept
    otherwise, and then the integer content of col is stripped.  When
    `lows` is given, the rows owned by the kept columns are appended to it.
    """
    owner: dict[int, dict[int, int]] = {}
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            kept = owner.get(low)
            if kept is None:
                owner[low] = col
                break
            a, b = kept[low], col[low]
            if b % a:
                col = {r: a * v for r, v in col.items()}
                b *= a
            f = b // a
            for r, v in kept.items():
                nv = col.get(r, 0) - f * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            g = gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}
    if lows is not None:
        lows.extend(owner)
    return len(owner)


def _boundary_ranks(bnd: list[list[dict[int, int]]]) -> list[int]:
    """The rank of each boundary matrix, with clearing (Chen and Kerber,
    *Persistent homology computation with a twist*, 2011).

    The matrices are reduced from the top dimension down.  A k-chain that
    a kept column of bnd[k+1] owns as its lowest row is skipped as a column
    of bnd[k]: that kept column is a cycle whose lowest row is the chain, so
    the chain's boundary lies in the span of the boundaries of the chains
    before it and would reduce to zero.  The ranks are unchanged.
    """
    ranks = [0] * len(bnd)
    # the owned rows become a set only after their reduction has ended, so
    # the set does not add to the peak memory of the largest reduction
    lows: list[int] = []
    for k in reversed(range(len(bnd))):
        cleared = set(lows)
        lows = []
        cols = [col for i, col in enumerate(bnd[k]) if i not in cleared]
        ranks[k] = sparse_rank(cols, lows=lows)
    return ranks


# The most chains the order complexes of one command may hold, counted
# before any is built, set from a budget of 5 s per command: the largest
# bundled order complex, `poset whitney` on the Pi_7 file without its
# `dowling` block, builds 311,338 chains (262,759 for `poset homology
# --proper`) in 2.5 s and 131 MB on a shared 2-core VM, and took 4 s on a
# slower one.  Pi_8's proper part has 10,270,695 chains.
CHAIN_CAP = 350_000


def _check_chain_cap(p: Poset, masks) -> None:
    """Refuse when the order complexes of p's subposets on the bitset masks
    have more than CHAIN_CAP chains in all, before any chain is built.  The
    chains ending at x number 1 plus those ending at each y < x, read from
    p.geq in order of down-set size (a linear extension).

    Raises:
        CapExceeded: carrying the running count that passed the cap.
    """
    total = 0
    for mask in masks:
        ending = {}
        for x in sorted(_bits(mask), key=lambda x: p.geq[x].bit_count()):
            ending[x] = 1 + sum([ending[y] for y in _bits((p.geq[x] & mask) ^ (1 << x))])
            total += ending[x]
            if total > CHAIN_CAP:
                raise _chain_cap_exceeded(total)


def _chain_cap_exceeded(total: int) -> CapExceeded:
    return CapExceeded(f"chain cap {CHAIN_CAP} exceeded while counting the chains of the "
                       "order complex", partial_count=total)


def reduced_homology(p: Poset, mask: int | None = None) -> dict[int, int]:
    """Reduced Betti numbers of the order complex of p, or of its subposet
    on the bitset mask (rational ranks).

    The empty poset returns {-1: 1}.

    Raises:
        CapExceeded: past CHAIN_CAP chains (`_check_chain_cap`).
    """
    if mask is None:
        mask = (1 << p.n_elems) - 1
    _check_chain_cap(p, [mask])
    chains = order_complex_chains(p, mask)
    ranks = _boundary_ranks(_boundary_matrices(chains))
    ranks.append(0)
    betti: dict[int, int] = {}
    # dim C_{-1} = 1; rank of the (empty) map into C_{-2} is 0.
    b_neg = 1 - ranks[0]
    if b_neg:
        betti[-1] = b_neg
    for k in range(len(chains)):
        b = len(chains[k]) - ranks[k] - ranks[k + 1]
        if b:
            betti[k] = b
    return betti


def _hall_euler(p: Poset, elems) -> int:
    """Reduced Euler characteristic of the order complex of the subposet of p
    on elems, by P. Hall's theorem (1936): with a bottom 0^ and a top 1^
    adjoined, chi~ = mu(0^, 1^) = -1 - sum of mu(0^, x) over elems."""
    return -1 - sum(_mobius_above(p, elems).values())


def _interval_tables(p: Poset, xs) -> dict[int, dict[int, int]]:
    """{x: Whitney degree table of the interval below x} for x in xs.

    Each lower interval is keyed by the Hasse diagram of its re-indexed
    copy (`_lower_hasse`, read off `p.geq` and `p.hasse` alone).  The Hasse
    diagram determines the poset, so two intervals with equal keys are the
    same poset, and one reduction serves all of them with no isomorphism
    search.  The open interval (bottom, x) of the first x of each key is
    reduced as the bitset p.geq[x] less x and the bottom; no subposet is
    built, and p needs a unique minimum.  The memo lives for this call
    only; the tables it hands out are shared between the x of one key.

    The keys are taken in one pass in order of down-set size, with the
    chains of each open interval counted on the way: ending(y), the chains
    of (bottom, y] that end at y, is 1 plus the sum of ending(z) over
    bottom < z < y, so (bottom, x) holds ending(x) - 1 chains.  The pass
    stops as soon as the distinct keys seen so far hold more than
    CHAIN_CAP chains in all, before any is built.

    Raises:
        CapExceeded: past CHAIN_CAP chains in all.
    """
    bottom = p.bottom()
    wanted = set(xs)
    below = 0
    for x in wanted:
        below |= p.geq[x]
    ending: dict[int, int] = {}
    keys: dict[int, tuple[tuple[int, ...], ...]] = {}
    masks: dict[tuple[tuple[int, ...], ...], int] = {}
    total = 0
    for y in sorted(_bits(below), key=lambda y: p.geq[y].bit_count()):
        mask = p.geq[y] ^ (1 << y | 1 << bottom)
        ending[y] = 1 + sum([ending[z] for z in _bits(mask)])
        if y in wanted:
            keys[y] = key = _lower_hasse(p, y)[1]
            if y != bottom and key not in masks:
                masks[key] = mask
                total += ending[y] - 1
                if total > CHAIN_CAP:
                    raise _chain_cap_exceeded(total)
    memo = {key: {deg + 2: rank for deg, rank in reduced_homology(p, mask).items()}
            for key, mask in masks.items()}
    if bottom in wanted:
        memo[keys[bottom]] = {0: 1}
    return {x: memo[keys[x]] for x in xs}


def interval_degree_table(p: Poset, x: int) -> dict[int, int]:
    """Whitney degrees contributed by the interval below x.

    Returns {k: rank} where the interval contributes H-tilde_{k-2} of the
    proper part of the interval; the one-element interval contributes
    {0: 1} by the degenerate convention.  The same body as every other
    interval table (`_interval_tables`), for one x.
    """
    if not 0 <= x < p.n_elems:
        raise InputError("interval top out of range")
    return _interval_tables(p, [x])[x]


def _signless_whitney_numbers(p: Poset, rk) -> dict[int, int]:
    """{r: sum of |mu(bottom, x)| over the x with rk[x] = r}, the signless
    Whitney numbers of the first kind, from one Mobius row; zero sums are
    left out."""
    numbers: dict[int, int] = {}
    for x, mu in _mobius_row(p, p.bottom()).items():
        numbers[rk[x]] = numbers.get(rk[x], 0) + abs(mu)
    return {r: w for r, w in numbers.items() if w}


def whitney_homology(p: Poset) -> dict[tuple[int, int], int]:
    """Whitney homology table {(rank r, degree k): rank}.

    Sums the interval degree tables over all x, bucketed by rank of x (the
    poset's rank labels when present, longest-chain height otherwise), with
    one reduction per distinct lower interval (`_interval_tables`).
    When all contributions at some rank r land at degree k = r, the total
    there is cross-checked against the signless Whitney number
    sum |mu(bottom, x)| over rank-r elements.
    """
    rk = p.rank if p.rank is not None else p.height()
    table: dict[tuple[int, int], int] = {}
    for x, degrees in _interval_tables(p, range(p.n_elems)).items():
        for k, rank in degrees.items():
            key = (rk[x], k)
            table[key] = table.get(key, 0) + rank
    numbers = _signless_whitney_numbers(p, rk)
    # Cross-check concentrated ranks against Mobius.
    ranks_seen = {r for r, _ in table}
    for r in ranks_seen:
        degs = {k for (rr, k) in table if rr == r}
        if degs == {r} and table[(r, r)] != numbers.get(r, 0):
            raise AssertionError(
                f"whitney bucket ({r},{r}) = {table[(r, r)]} "
                f"disagrees with signless Whitney number {numbers.get(r, 0)}"
            )
    return table


def _check_automorphism(p: Poset, perm) -> tuple[int, ...]:
    f = tuple(perm)
    n = p.n_elems
    if len(f) != n or sorted(f) != list(range(n)):
        raise InputError("permutation is not a bijection on poset elements")
    # covers onto covers: an automorphism of the Hasse diagram, so of the order
    for a in range(n):
        if sorted(f[b] for b in p.hasse[a]) != list(p.hasse[f[a]]):
            raise InputError("permutation is not order-preserving")
    return f


def lefschetz_character(p: Poset, perm) -> int:
    """Reduced Lefschetz number of an order automorphism.

    The trace of the induced map on reduced chains: the empty face gives -1,
    and a setwise-fixed k-chain contributes the sign of the permutation it
    induces.  An order automorphism fixing a chain setwise fixes it pointwise
    (it preserves the chain's total order), so that sign is always +1 and the
    alternating sum reduces to the Euler characteristic of the fixed
    subposet's reduced order complex, computed by Hall's theorem.  Under
    homology concentrated in degree m, the character of the action on that
    homology equals (-1)^m times this number.
    """
    f = _check_automorphism(p, perm)
    return _hall_euler(p, [x for x in range(p.n_elems) if f[x] == x])
