"""Finitary largeness detectors on windows.

A set is r-syndetic on an interval when every length-r block inside the
interval meets it (gaps are bounded by r - 1). It is L-thick when it contains
L consecutive elements, as ``longest_member_run`` tells for every L at once.
A piecewise-syndetic witness at (r, L) is a length-L interval on which the
set is r-syndetic: bounded gaps over an arbitrarily long stretch, the finite
shadow of "syndetic on a thick part".
Syndeticity in Z is the one-row case of its lift to pairs: ``is_syndetic_on``
and ``find_pws_witness`` read A as {(x, 1) : x in A} and call ``lift``'s
``is_syndetic_2d`` and ``find_pws_witness_2d`` with r2 = L2 = 1.

``vdw_check`` decides whether every coloring of an initial segment forces a
monochromatic arithmetic progression, by one depth-first search that keeps
each color's forbidden positions as a bitmap (forward checking), drops
placements that leave a later position with no color (wipeout), and counts
rather than searches the subtrees of colors that differ only by a renaming.
"""

from __future__ import annotations

import os
from typing import Optional

from ._bitops import ap_starts, from_indices, longest_run
from ._record import Record
from .lift import Box2D, Set2D, find_pws_witness_2d, is_syndetic_2d
from .sets import IntSet

BUDGET_ENV_VAR = "APLIFT_BUDGET"
DEFAULT_VDW_BUDGET = 1 << 22
EXHAUSTIVE_LIMIT = 1 << 20  # colorings; above this vdw_check backtracks


def _row(A: IntSet) -> Set2D:
    """A as the one-row pair set {(x, 1) : x in A} over [lo, hi] x [1, 1]."""
    return Set2D(Box2D(A.window.lo, A.window.hi, 1, 1), (A.bits,))


def is_syndetic_on(A: IntSet, interval: tuple[int, int], r: int) -> bool:
    """True iff every length-r block fully inside the interval meets A.

    Vacuously true when r exceeds the interval width (no block fits). The
    one-row case of ``is_syndetic_2d``: an interval outside the window, or
    an r below 1, raises ValueError there.
    """
    return is_syndetic_2d(_row(A), Box2D(*interval, 1, 1), r, 1)


class PwsWitness(Record):
    """The start of a length-L interval on which A is r-syndetic, for the
    (r, L) that its search was given."""

    start: int


def find_pws_witness(A: IntSet, r: int, L: int) -> Optional[PwsWitness]:
    """First (smallest-start) length-L interval on which A is r-syndetic.

    The one-row case of ``find_pws_witness_2d``, with r2 = L2 = 1; None when
    every length-L interval contains a fully missing length-r block.
    """
    if r < 1 or L < 1:
        raise ValueError("r and L must be >= 1")
    if L > A.window.width:
        return None  # no length-L interval fits in the window at all
    sub = find_pws_witness_2d(_row(A), r, 1, L, 1)
    return None if sub is None else PwsWitness(sub.a_lo)


def verify_pws_claim(A: IntSet, r: int, L: int, start: int) -> bool:
    """The ``pws`` claim: [start, start + L - 1] lies inside A's window and
    A is r-syndetic on it."""
    hi = start + L - 1
    return A.window.lo <= start and hi <= A.window.hi and is_syndetic_on(A, (start, hi), r)


def min_r_for_L(A: IntSet, L: int) -> Optional[int]:
    """Least r in [1, L] admitting a pws witness of length L, None if r = L fails.

    Presence is monotone in r, so binary search applies.
    """
    if find_pws_witness(A, L, L) is None:
        return None
    lo_r, hi_r = 1, L
    while lo_r < hi_r:
        mid = (lo_r + hi_r) // 2
        if find_pws_witness(A, mid, L) is not None:
            hi_r = mid
        else:
            lo_r = mid + 1
    return lo_r


def longest_member_run(A: IntSet) -> int:
    return longest_run(A.bits)


def longest_miss_run(A: IntSet) -> int:
    return longest_run(~A.bits & A.window.mask)


# --- van der Waerden checks -------------------------------------------------


class VdwResult(Record):
    """Outcome of a coloring search.

    verdict is "true" (every coloring has a monochromatic AP), "false"
    (coloring is a counterexample), or "unknown" (budget exhausted).
    """

    verdict: str
    coloring: Optional[tuple[int, ...]]
    strategy: str
    explored: int
    budget: int


def search_budget() -> int:
    """Search budget, overridable through the APLIFT_BUDGET variable;
    ``vdw_check`` refuses one below 1, whichever way it is given."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VDW_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")


def _has_mono_ap(coloring, ap_len: int) -> bool:
    """Brute-force oracle: does the coloring of [1, len(coloring)] contain a
    monochromatic progression with exactly ap_len terms (any point, for 1)?"""
    n = len(coloring)
    if ap_len == 1:
        return n > 0
    for d in range(1, (n - 1) // (ap_len - 1) + 1):
        for a in range(n - (ap_len - 1) * d):
            c = coloring[a]
            if all(coloring[a + j * d] == c for j in range(1, ap_len)):
                return True
    return False


def verify_vdw_claim(
    n: int, colors: int, ap_len: int, verdict: str, coloring: Optional[list]
) -> bool:
    """Re-check a decided ``vdw_check`` outcome on [1, n]: "false" needs n
    colours in [0, colors) without a monochromatic ap_len-term progression,
    sought by ``ap_starts`` scans of each colour class's bitmap; "true" has
    no succinct witness, so it is attested only and has no coloring."""
    if verdict == "true":
        return coloring is None
    if coloring is None or len(coloring) != n or not all(0 <= c < colors for c in coloring):
        return False
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(coloring):
        classes.setdefault(c, []).append(i)
    for members in classes.values():
        if len(members) < ap_len:
            continue
        if ap_len == 1:
            return False
        first, span = members[0], members[-1] - members[0]
        bits = from_indices((i - first for i in members), span + 1)
        top = span // (ap_len - 1)
        steps = range(1, top + 1)
        if len(members) ** 2 < span:  # sparse: a progression's step is a difference of members
            steps = {y - x for j, x in enumerate(members) for y in members[j + 1:] if y - x <= top}
        if any(ap_starts(bits, d, ap_len - 1) for d in steps):
            return False
    return True


def vdw_check(
    window_len: int, colors: int, ap_len: int, budget: Optional[int] = None
) -> VdwResult:
    """Does every `colors`-coloring of [1, window_len] contain a
    monochromatic progression with exactly `ap_len` terms?

    One depth-first search over colorings in lexicographic order (position 1
    most significant, color 0 first), so a "false" verdict carries the least
    counterexample. Three prunes keep that order's answer:

    - forward checking: each color keeps the set of positions where it would
      complete a progression, so a color that does so at its position is one
      bit test;
    - wipeout: a placement that leaves some later position with no color
      allowed starts no counterexample, so its subtree is not searched;
    - color symmetry: a position tries only the colors used so far and one
      new color. The other unused colors give the same subtree with two
      colors renamed, so once the new color's subtree is exhausted they are
      counted, not searched.

    The strategy label names what `explored` counts and the budget bounds.
    "exhaustive" (colors**window_len <= EXHAUSTIVE_LIMIT) counts colorings:
    a subtree pruned at 0-based position p counts its colors**(window_len-1-p)
    colorings, so `explored` is the counterexample's lexicographic rank + 1,
    or colors**window_len on "true". "backtracking" counts the color
    assignments that the forward-checking search without color symmetry
    tries, dead or alive. Exceeding the budget yields "unknown" with
    `explored` equal to the budget.
    """
    if window_len < 1 or colors < 1 or ap_len < 1:
        raise ValueError("window_len, colors and ap_len must be >= 1")
    if budget is None:
        budget = search_budget()
    if budget < 1:
        raise ValueError(f"the search budget (budget or {BUDGET_ENV_VAR}) must be >= 1, got {budget}")
    n, k = window_len, ap_len
    # 2**n > EXHAUSTIVE_LIMIT from n = its bit length on, so the power is only
    # taken for small n
    exhaustive = colors == 1 or (n < EXHAUSTIVE_LIMIT.bit_length() and colors**n <= EXHAUSTIVE_LIMIT)
    strategy = "exhaustive" if exhaustive else "backtracking"
    if k == 1:
        # every point is a one-term progression, so any coloring has one
        return VdwResult("true", None, strategy, 0, budget)

    # forb[c]: bit x set when color c at position x would complete a
    # progression whose other terms are already colored. For k = 2 that is
    # every position after c's first, kept as a negative int so that no mask
    # is sized by n. Both lists grow by one color at a time, when a color is
    # first used; an unused color keeps forb 0 and no members.
    forb: list[int] = []
    members: list[list[int]] = []  # positions holding each color, ascending
    coloring: list[int] = []  # colors of positions 0 .. p - 1
    undo: list[int] = []  # forb[coloring[q]] before position q was colored
    opened: list[int] = []  # explored before each used color's first position
    unit = 0 if exhaustive else 1  # what a live inner node adds to explored
    inner = range(k - 3)  # the terms of a progression before its last three
    used = explored = 0
    p = c = 0
    while True:
        if c > used or c == colors:  # every allowed color at p tried: back up
            if p == 0:
                return VdwResult("true", None, strategy, explored, budget)
            p -= 1
            c = coloring.pop()
            mem = members[c]
            mem.pop()
            forb[c] = undo.pop()
            if not mem:  # c was new at p: the unused colors above it repeat its subtree
                used = c
                explored += (colors - c - 1) * (explored - opened.pop())
                if explored > budget:
                    return VdwResult("unknown", None, strategy, budget, budget)
            c += 1
            continue
        if c == len(forb):
            forb.append(0)
            members.append([])
        f = forb[c]
        dead = f >> p & 1
        if not dead and p < n - 1:
            if k == 2:
                new = -1 << p + 1
            else:
                # x = p + d is forbidden when p - d, ..., p - (k - 2)d hold c:
                # walk c's members q = p - d downward until x or a term leaves [0, n)
                new = 0
                for q in reversed(members[c]):
                    d = p - q
                    if p + d >= n or (k - 2) * d > p:
                        break
                    t = q
                    for _ in inner:
                        t -= d
                        if coloring[t] != c:
                            break
                    else:
                        new |= 1 << p + d
            if new and (used == colors or c == colors - 1):
                # every color is in use, so a position in new may be wiped out
                wiped = new
                for o in range(colors):
                    if o != c:
                        wiped &= forb[o]
                        if not wiped:
                            break
                else:
                    dead = 1
        if not exhaustive:
            explored += 1
        elif dead or p == n - 1:
            explored += colors ** (n - 1 - p)
        if explored > budget:
            return VdwResult("unknown", None, strategy, budget, budget)
        if dead:
            c += 1
            continue
        coloring.append(c)
        if p == n - 1:
            return VdwResult("false", tuple(coloring), strategy, explored, budget)
        undo.append(f)
        forb[c] = f | new
        members[c].append(p)
        if c == used:
            used += 1
            opened.append(explored - unit)
        p, c = p + 1, 0
