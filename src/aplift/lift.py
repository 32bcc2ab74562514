"""Progression witnesses and the lift of a set into (start, step) pairs.

The lift of A at depth l is the set of pairs (a, d) whose full progression
a, a+d, ..., a+l*d stays inside A. Pairs whose progression would run past
the window's top are clipped out of the lift rather than treated as unknown.
2D largeness is read through aligned blocks: a pair set is (r1, r2)-syndetic
on a sub-box when every r1 x r2 block inside it meets the set. A box may be
claimed at any size, but ``lift`` builds at most MAX_BITS = 2^27 pairs.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ._bitops import ap_starts, hex_head, iter_bit_indices, lsb_index, run_starts, smear_right
from ._record import Record
from .sets import MAX_BITS, IntSet, Window


class APWitness(Record):
    """Progression a, a+d, ..., a+l*d (l+1 terms, l steps)."""

    a: int
    d: int
    l: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.d < 1 or self.l < 1:
            raise ValueError("progression parameters must be positive")

    def terms(self) -> tuple[int, ...]:
        return tuple(self.a + i * self.d for i in range(self.l + 1))


class Box2D(Record):
    """Inclusive rectangle [a_lo, a_hi] x [d_lo, d_hi] of positive pairs."""

    a_lo: int
    a_hi: int
    d_lo: int
    d_hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.a_lo <= self.a_hi and 1 <= self.d_lo <= self.d_hi):
            raise ValueError(
                f"invalid box [{self.a_lo}, {self.a_hi}] x [{self.d_lo}, {self.d_hi}]"
            )

    @property
    def a_width(self) -> int:
        return self.a_hi - self.a_lo + 1

    @property
    def d_width(self) -> int:
        return self.d_hi - self.d_lo + 1

    def contains_box(self, other: "Box2D") -> bool:
        return (
            self.a_lo <= other.a_lo
            and other.a_hi <= self.a_hi
            and self.d_lo <= other.d_lo
            and other.d_hi <= self.d_hi
        )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, d = pair
        return self.a_lo <= a <= self.a_hi and self.d_lo <= d <= self.d_hi


class Set2D(Record):
    """Subset of a box; rows[j] is the bitmap over a for d = d_lo + j."""

    box: Box2D
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.box.d_width:
            raise ValueError("row count does not match the box")
        width = self.box.a_width
        for row in self.rows:
            if row < 0 or row.bit_length() > width:
                raise ValueError("row bits fall outside the box")

    def __repr__(self) -> str:
        return f"Set2D({self.box!r}, popcount={len(self)}, row0={hex_head(self.rows[0])})"

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, d = pair
        if pair not in self.box:
            return False
        return bool((self.rows[d - self.box.d_lo] >> (a - self.box.a_lo)) & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def members(self) -> Iterator[tuple[int, int]]:
        """Pairs in (d, a) lexicographic order."""
        for j, row in enumerate(self.rows):
            d = self.box.d_lo + j
            for i in iter_bit_indices(row):
                yield (self.box.a_lo + i, d)


def verify_ap(A: IntSet, l: int, a: int, d: int) -> bool:
    """The ``ap`` claim: A holds a, a+d, ..., a+l*d (terms beyond the window
    are non-members); a last term past the window's top fails before any
    term is built."""
    w = APWitness(a, d, l)
    return a + l * d <= A.window.hi and all(t in A for t in w.terms())


def ap_search(A: IntSet, l: int) -> Optional[APWitness]:
    """Least witness in (d, a) order, by shift-and-intersect scans over d."""
    if l < 1:
        raise ValueError("l must be >= 1")
    w = A.window
    for d in range(1, (w.width - 1) // l + 1):
        m = ap_starts(A.bits, d, l)
        if m:
            return APWitness(w.lo + lsb_index(m), d, l)
    return None


def reach(l: int, box: Box2D) -> tuple[int, int]:
    """The positions a lift of the box at depth l reads: from a_lo, its least
    start, to a_hi + l*d_hi, the last term of its largest pair."""
    return box.a_lo, box.a_hi + l * box.d_hi


def lift(A: IntSet, l: int, box: Box2D) -> Set2D:
    """Pairs (a, d) in the box with a, a+d, ..., a+l*d all in A.

    A's bits are cut once to the box's reach inside the window, so each row
    costs in proportion to the reach, not to the window. Bits shifted past
    the window top vanish, which is exactly the clipping rule: a + l*d must
    stay <= window.hi. A row whose progression from a_lo already passes the
    top is empty and is appended without a scan. A box of more than MAX_BITS
    pairs raises ValueError before any row is built.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if box.a_width * box.d_width > MAX_BITS:
        raise ValueError(
            f"box [{box.a_lo}, {box.a_hi}] x [{box.d_lo}, {box.d_hi}] holds more than 2^27 pairs"
        )
    w = A.window
    r = w.clip(reach(l, box))
    bits = (A.bits >> (r.lo - w.lo)) & r.mask
    # rows d_lo .. d_lo + scanned - 1 are those with a_lo + l*d <= r.hi
    scanned = max(0, min(box.d_hi, (r.hi - box.a_lo) // l) - box.d_lo + 1)
    amask = (1 << box.a_width) - 1
    rows = [(ap_starts(bits, d, l) << (r.lo - box.a_lo)) & amask
            for d in range(box.d_lo, box.d_lo + scanned)]
    rows += [0] * (box.d_width - scanned)
    return Set2D(box, tuple(rows))


def induced_box(w: Window, l: int) -> Box2D:
    """Largest clip-free box for depth l: a_hi + l * d_hi <= w.hi.

    Splits the window span between starts and step room so that every pair
    in the box keeps its whole progression inside the window.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    span = w.width - 1
    a_hi = w.lo + span // 2
    d_hi = (w.hi - a_hi) // l
    if d_hi < 1:
        raise ValueError(f"window [{w.lo}, {w.hi}] too narrow for depth {l}")
    return Box2D(w.lo, a_hi, 1, d_hi)


def _subbox_miss_starts(B: Set2D, subbox: Box2D, r1: int) -> list[int]:
    """Per subbox row: positions (subbox-relative) starting r1 horizontal misses."""
    wa = subbox.a_width
    amask = (1 << wa) - 1
    shift = subbox.a_lo - B.box.a_lo
    out = []
    for d in range(subbox.d_lo, subbox.d_hi + 1):
        row = (B.rows[d - B.box.d_lo] >> shift) & amask
        out.append(run_starts(~row & amask, r1))
    return out


def _missing_blocks(hruns: list[int], j: int, r2: int) -> int:
    """a-positions where rows j, ..., j + r2 - 1 all start a miss run."""
    acc = hruns[j]
    for t in range(1, r2):
        acc &= hruns[j + t]
        if not acc:
            break
    return acc


def is_syndetic_2d(B: Set2D, subbox: Box2D, r1: int, r2: int) -> bool:
    """True iff every aligned r1 x r2 block inside the sub-box meets B.

    Vacuously true when no such block fits.
    """
    if r1 < 1 or r2 < 1:
        raise ValueError("block sides must be >= 1")
    if not B.box.contains_box(subbox):
        raise ValueError("sub-box not inside the box")
    if r1 > subbox.a_width or r2 > subbox.d_width:
        return True
    hruns = _subbox_miss_starts(B, subbox, r1)
    return not any(_missing_blocks(hruns, j, r2) for j in range(len(hruns) - r2 + 1))


def verify_pws2d_claim(
    A: IntSet, l: int, box: Box2D, r1: int, r2: int, L1: int, L2: int, a0: int, d0: int
) -> bool:
    """The ``pws2d`` certificate's claim: the lift of A at depth l over the
    box is (r1, r2)-syndetic on the L1 x L2 sub-box at (a0, d0). A sub-box
    outside the box raises ValueError, as in ``is_syndetic_2d``. The lift is
    pointwise, so only the sub-box is lifted, whatever the box's size."""
    sub = Box2D(a0, a0 + L1 - 1, d0, d0 + L2 - 1)
    if not box.contains_box(sub):
        raise ValueError("sub-box not inside the box")
    return is_syndetic_2d(lift(A, l, sub), sub, r1, r2)


def find_pws_witness_2d(
    B: Set2D, r1: int, r2: int, L1: int, L2: int
) -> Optional[Box2D]:
    """First L1 x L2 sub-box on which B is (r1, r2)-syndetic.

    Scan order is d-origin then a-origin, mirroring ap_search's (d, a) order.
    """
    box = B.box
    if r1 < 1 or r2 < 1:
        raise ValueError("block sides must be >= 1")
    if not (1 <= L1 <= box.a_width and 1 <= L2 <= box.d_width):
        raise ValueError("sub-box dimensions do not fit inside the box")
    if r1 > L1 or r2 > L2:
        # no r1 x r2 block fits inside an L1 x L2 sub-box
        return Box2D(box.a_lo, box.a_lo + L1 - 1, box.d_lo, box.d_lo + L2 - 1)

    hruns = _subbox_miss_starts(B, box, r1)
    starts_mask = (1 << (box.a_width - L1 + 1)) - 1
    for j0 in range(box.d_width - L2 + 1):
        # a fully-missing block with rows in [j0, j0 + L2 - 1] starts at some
        # row j in [j0, j0 + L2 - r2]; OR those row-blocks together, then any
        # a-origin whose [i, i + L1 - r1] range hits one is disqualified
        bad = 0
        for j in range(j0, j0 + L2 - r2 + 1):
            bad |= _missing_blocks(hruns, j, r2)
        ok = ~smear_right(bad, L1 - r1) & starts_mask
        if ok:
            i = lsb_index(ok)
            return Box2D(
                box.a_lo + i,
                box.a_lo + i + L1 - 1,
                box.d_lo + j0,
                box.d_lo + j0 + L2 - 1,
            )
    return None
