"""J-set witness search and its transfer into pair witnesses.

A family F of finite tables f: [1, T] -> positive ints is "hit" by (a, H),
H a nonempty subset of [1, T], when a + sum(f(t) for t in H) lands in A for
every f in F simultaneously. ``jset_witness`` finds the first such pair in a
fixed total order; ``transfer_witness`` converts a hit for a derived family
into a pair witness ((a, b*|H|), H) whose decoded progressions all live in A.

``jset_witness`` scans sizes |H| = 1, 2, ... and skips every size that no
H can hit: sizes at which some table's least sum of |H| values passes A's
top member, or its greatest falls short of A's window, and sizes ruled out
by a necessary condition read off subset-sum bitmaps: for each table j > 0
some |H| differences f_j(t) - f_0(t) sum into A - A (a hit puts both
a + S_0 and a + S_j in A). A skipped size holds no hit, so the first hit in
the search order, or its absence, is the same as without the skips. The
bitmap filter is built only once the scan has spent as much as the filter
costs, so it at most doubles the cost of a scan that hits early.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, combinations
from math import comb
from typing import Iterator, Optional

from ._bitops import differences, differences_cost, lsb_index, subset_sums_by_count, subset_sums_cost
from ._record import Record
from .lift import verify_ap
from .sets import IntSet


class FuncFamily(Record):
    """Finite family of tables, all on the common horizon [1, T]."""

    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("family needs at least one table")
        T = len(self.tables[0])
        if T < 1:
            raise ValueError("horizon must be >= 1")
        for tab in self.tables:
            if len(tab) != T:
                raise ValueError("tables must share one horizon")
            for v in tab:
                if not isinstance(v, int) or v < 1:
                    raise ValueError(f"table values must be positive integers, got {v!r}")

    @property
    def horizon(self) -> int:
        return len(self.tables[0])

    @property
    def size(self) -> int:
        return len(self.tables)


class FuncFamily2D(Record):
    """Family of table pairs (g_first, g_second) on a common horizon."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("family needs at least one pair")
        # the flattened tables obey FuncFamily's rules: one horizon, positive values
        FuncFamily(tuple(t for first, second in self.pairs for t in (first, second)))

    @property
    def horizon(self) -> int:
        return len(self.pairs[0][0])

    @property
    def size(self) -> int:
        return len(self.pairs)


def _check_H(H: tuple[int, ...]) -> None:
    if not H:
        raise ValueError("H must be nonempty")
    prev = 0
    for t in H:
        if not isinstance(t, int) or t < 1:
            raise ValueError(f"H entries must be positive integers, got {t!r}")
        if t <= prev:
            raise ValueError("H must be strictly increasing")
        prev = t


class JWitness(Record):
    a: int
    H: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("a must be >= 1")
        _check_H(self.H)


class JWitness2D(Record):
    a1: int
    a2: int
    H: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a1 < 1 or self.a2 < 1:
            raise ValueError("base pair must be positive")
        _check_H(self.H)


def _table_sum(table: tuple[int, ...], H: tuple[int, ...]) -> int:
    return sum(table[t - 1] for t in H)


# Cap on the bits one table's difference bitmaps hold at once: a table whose
# differences are too far apart for it stays out of the size filter.
_FILTER_MAX_BITS = 1 << 27


def _difference_rows(A: IntSet, F: FuncFamily, keep: list[int]) -> tuple[int, list[tuple[list[int], int]]]:
    """(B, rows): A - A is needed only up to B = min(max_j sum |f_j - f_0|,
    W - 1), and rows holds, for each table j > 0 within the cap, the
    differences f_j(t) - f_0(t) over the kept indices raised by
    c = max(0, -min) for the shift-or sums, with that c."""
    first = F.tables[0]
    diffs = [[tab[t] - first[t] for t in keep] for tab in F.tables[1:]]
    B = min(max(sum(map(abs, d)) for d in diffs), A.window.width - 1)
    rows = []
    for d in diffs:
        c = max(0, -min(d))
        if len(keep) * (B + len(keep) * c + 1) <= _FILTER_MAX_BITS:
            rows.append(([x + c for x in d], c))
    return B, rows


# The interpreter work of one scanned subset (H, its table sums, the base
# mask) in bits touched as ``_bitops`` counts them: about 2 us on CPython 3.11
# on x86-64. Each subset also shifts A's W-bit map at least once.
_SUBSET_BITS = 1 << 15


def _difference_cost(A: IntSet, B: int, rows: list[tuple[list[int], int]]) -> int:
    """Cost of ``_difference_sizes``, in bits touched."""
    return differences_cost(A.bits, B + 1) + sum(
        subset_sums_cost(len(v), B + len(v) * c + 1) for v, c in rows
    )


def _difference_sizes(A: IntSet, B: int, rows: list[tuple[list[int], int]]) -> set[int]:
    """Sizes k such that in every row some k values, lowered again by k*c,
    sum to a member of A - A: for a hit (a, H), a + S_0 and a + S_j both lie
    in A, so S_j - S_0 does, and |S_j - S_0| <= B."""
    D = differences(A.bits, B + 1)
    # bit B + x set when |x| <= B and |x| in A - A
    sym = (D << B) | int(f"{D:0{B + 1}b}"[::-1], 2)
    sizes = set(range(len(rows[0][0]) + 1))
    for v, c in rows:
        reach = subset_sums_by_count(v, B + len(v) * c + 1)
        sizes &= {
            k for k, r in enumerate(reach)
            if (r << B - k * c if B >= k * c else r >> k * c - B) & sym
        }
    return sizes


def _scan_sizes(A: IntSet, F: FuncFamily, a_max: int) -> Iterator[int]:
    """The sizes |H| to scan, ascending: each size k at which every table
    has some k kept values summing into [lo - a_max, m - 1], with m A's top
    member, and which the difference filter does not rule out.

    An index with some table value >= m is in no hit (a >= 1), so it is not
    kept. The sum range is checked on each table's k least and k greatest
    kept values. Costs are counted in bits touched, a scanned subset as
    ``_SUBSET_BITS`` plus one W-bit shift. The filter is built before the
    first size at which the sizes already scanned have cost as much as
    building it, and only if the sizes left would cost more. So it at most
    doubles the cost of a scan that hits early, and a miss pays for it once.
    """
    T = F.horizon
    per_subset = _SUBSET_BITS + A.window.width
    top = A.window.lo + A.bits.bit_length() - 1
    keep = [t for t in range(T) if all(tab[t] < top for tab in F.tables)]
    k_min, k_max = 1, len(keep)
    for tab in F.tables:
        values = sorted(tab[t] for t in keep)
        k_max = min(k_max, bisect_right(list(accumulate(values)), top - 1))
        k_min = max(k_min, 1 + bisect_left(list(accumulate(reversed(values))), A.window.lo - a_max))
    cost = None  # the filter's cost, until it is built or given up
    if F.size > 1 and k_min <= k_max:
        B, rows = _difference_rows(A, F, keep)
        if rows:
            cost = _difference_cost(A, B, rows)
    left = sum(comb(T, k) for k in range(k_min, k_max + 1)) * per_subset
    spent = 0
    sizes = None
    for k in range(k_min, k_max + 1):
        if cost is not None and spent >= cost:
            sizes = _difference_sizes(A, B, rows) if cost < left else None
            cost = None
        if sizes is None or k in sizes:
            yield k
            spent += comb(T, k) * per_subset
        left -= comb(T, k) * per_subset


def jset_witness(A: IntSet, F: FuncFamily, a_max: int) -> Optional[JWitness]:
    """First (a, H) hitting every table of F, or None.

    Search order: ascending |H|, then H in lexicographic order, then
    ascending a in [1, a_max]. Sums landing outside A's window count as
    non-members. For each H the surviving bases are found with one
    shift-and-mask pass per table.

    Sizes |H| at which no H can hit are skipped (``_scan_sizes``): those at
    which, in some table, no |H| values below A's top member sum into reach
    of A's window from a base in [1, a_max], and those at which, for some
    table j > 0, no sum of |H| differences f_j - f_0 lies in A - A. Both hold
    for every hit, so the skipped sizes hold none, and the witness and the
    None answers are those of the full scan. Generic random tables rarely
    rule out a size, and a miss on them still scans all 2^T - 1 subsets.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    w = A.window
    T = F.horizon
    # bit a-1 <-> base a; a base a >= w.hi puts every sum (table values are
    # >= 1) past the window, so the mask stops below it
    base_mask = (1 << min(a_max, w.hi - 1)) - 1
    for size in _scan_sizes(A, F, a_max):
        for H in combinations(range(1, T + 1), size):
            acc = base_mask
            for tab in F.tables:
                s = _table_sum(tab, H)
                shift = s - w.lo + 1
                acc &= (A.bits >> shift) if shift >= 0 else (A.bits << -shift)
                if not acc:
                    break
            if acc:
                return JWitness(1 + lsb_index(acc), H)
    return None


def verify_jwitness(A: IntSet, F: FuncFamily, a_max: int, a: int, H: tuple[int, ...]) -> bool:
    """The claim ``jset_witness`` makes: a base it scans (a <= a_max) and an
    H within F's horizon such that (a, H) hits every table of F. An a below
    1 or an H that is empty or not strictly increasing raises ValueError, as
    in ``JWitness``."""
    JWitness(a, H)
    return (
        a <= a_max and H[-1] <= F.horizon and all(a + _table_sum(tab, H) in A for tab in F.tables)
    )


def build_transfer_family(F2D: FuncFamily2D, b: int, l: int) -> FuncFamily:
    """Derived family with one table per (pair i, multiplier j).

    For pair (g1, g2) and j in [0, l] the derived table is
    t -> g1(t) + j*(b + g2(t)); j = 0 reproduces g1. Tables are ordered with
    the pair index outer and j inner, giving exactly size * (l + 1) tables.
    """
    if b < 1 or l < 1:
        raise ValueError("b and l must be >= 1")
    tables = []
    for first, second in F2D.pairs:
        for j in range(l + 1):
            tables.append(
                tuple(g1 + j * (b + g2) for g1, g2 in zip(first, second))
            )
    return FuncFamily(tuple(tables))


def verify_transfer_witness(
    A: IntSet, F2D: FuncFamily2D, b: int, l: int, a_max: int, a1: int, a2: int, H: tuple[int, ...]
) -> bool:
    """The claim ``transfer_witness`` makes: the step binding a2 = b*|H|,
    (a1, H) a J-set witness for the pairs' first tables (the derived
    family's j = 0 tables) with a1 <= a_max, and for each pair (g1, g2) the
    (l+1)-term progression from a1 + sum g1 over H with step
    a2 + sum g2 over H inside A."""
    firsts = FuncFamily(tuple(first for first, _ in F2D.pairs))
    return (
        a2 == b * len(H)
        and verify_jwitness(A, firsts, a_max, a1, H)
        and all(
            verify_ap(A, l, a1 + _table_sum(first, H), a2 + _table_sum(second, H))
            for first, second in F2D.pairs
        )
    )


def transfer_witness(
    A: IntSet, F2D: FuncFamily2D, b: int, l: int, a_max: int
) -> Optional[JWitness2D]:
    """Search the derived family, then return ((a, b*|H|), H) if it hits.

    The derived-table identity a + sum_H(g1 + j*(b + g2)) =
    (a + sum_H g1) + j*(b*|H| + sum_H g2) makes the decoded progressions a
    rearrangement of verified memberships, so the final self-check can only
    fail on an implementation bug, and then it raises.
    """
    G = build_transfer_family(F2D, b, l)
    found = jset_witness(A, G, a_max)
    if found is None:
        return None
    wit = JWitness2D(found.a, b * len(found.H), found.H)
    if not verify_transfer_witness(A, F2D, b, l, a_max, wit.a1, wit.a2, wit.H):
        raise RuntimeError("transfer self-check failed: witness search is unsound")
    return wit
