"""J-set witness search and its transfer into pair witnesses.

A family F of finite tables f: [1, T] -> positive ints is "hit" by (a, H),
H a nonempty subset of [1, T], when a + sum(f(t) for t in H) lands in A for
every f in F simultaneously. ``jset_witness`` finds the first such pair in a
fixed total order; ``transfer_witness`` converts a hit for a derived family
into a pair witness ((a, b*|H|), H) whose decoded progressions all live in A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from ._bitops import lsb_index
from .lift import APWitness, verify_ap
from .sets import IntSet


@dataclass(frozen=True)
class FuncFamily:
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


@dataclass(frozen=True)
class FuncFamily2D:
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


@dataclass(frozen=True)
class JWitness:
    a: int
    H: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("a must be >= 1")
        _check_H(self.H)


@dataclass(frozen=True)
class JWitness2D:
    a1: int
    a2: int
    H: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a1 < 1 or self.a2 < 1:
            raise ValueError("base pair must be positive")
        _check_H(self.H)


def _table_sum(table: tuple[int, ...], H: tuple[int, ...]) -> int:
    return sum(table[t - 1] for t in H)


def jset_witness(A: IntSet, F: FuncFamily, a_max: int) -> Optional[JWitness]:
    """First (a, H) hitting every table of F, or None.

    Search order: ascending |H|, then H in lexicographic order, then
    ascending a in [1, a_max]. Sums landing outside A's window count as
    non-members. For each H the surviving bases are found with one
    shift-and-mask pass per table.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    w = A.window
    T = F.horizon
    base_mask = (1 << a_max) - 1  # bit a-1 <-> base a
    for size in range(1, T + 1):
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


def verify_jwitness(A: IntSet, F: FuncFamily, wit: JWitness) -> bool:
    """Check a + sum over H against every table. H must fit the horizon."""
    if wit.H[-1] > F.horizon:
        raise ValueError(
            f"witness H reaches {wit.H[-1]} beyond horizon {F.horizon}"
        )
    return all(wit.a + _table_sum(tab, wit.H) in A for tab in F.tables)


def verify_jset_claim(A: IntSet, F: FuncFamily, a_max: int, a: int, H: tuple[int, ...]) -> bool:
    """The claim ``jset_witness`` makes: a base it scans (a <= a_max) and a
    witness (a, H) hitting every table of F. An H beyond F's horizon gives
    False here; ``verify_jwitness`` raises for it."""
    wit = JWitness(a, H)
    return a <= a_max and H[-1] <= F.horizon and verify_jwitness(A, F, wit)


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
    A: IntSet, F2D: FuncFamily2D, wit: JWitness2D, l: int
) -> bool:
    """Decode the pair witness and check every progression inside A.

    For each pair (g1, g2): the pair (a1 + sum g1 over H, a2 + sum g2 over H)
    must start an (l+1)-term progression contained in A.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if wit.H[-1] > F2D.horizon:
        raise ValueError(
            f"witness H reaches {wit.H[-1]} beyond horizon {F2D.horizon}"
        )
    for first, second in F2D.pairs:
        start = wit.a1 + _table_sum(first, wit.H)
        step = wit.a2 + _table_sum(second, wit.H)
        if not verify_ap(A, APWitness(start, step, l)):
            return False
    return True


def verify_transfer_claim(
    A: IntSet, F2D: FuncFamily2D, b: int, l: int, a_max: int, a1: int, a2: int, H: tuple[int, ...]
) -> bool:
    """The claim ``transfer_witness`` makes: the step binding a2 = b*|H|,
    (a1, H) a J-set claim for the pairs' first tables (the derived family's
    j = 0 tables), and every decoded progression inside A."""
    firsts = FuncFamily(tuple(first for first, _ in F2D.pairs))
    return (
        a2 == b * len(H)
        and verify_jset_claim(A, firsts, a_max, a1, H)
        and verify_transfer_witness(A, F2D, JWitness2D(a1, a2, H), l)
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
    if not verify_transfer_witness(A, F2D, wit, l):
        raise RuntimeError("transfer self-check failed: witness search is unsound")
    return wit
