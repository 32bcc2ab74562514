"""Decreasing chains and their translate / largeness checks.

A chain is a decreasing tower C_1 >= C_2 >= ... >= C_k of nonempty sets on a
common window. The translate property asks, for each probed member x of C_n,
for a deeper level m whose set lands inside the translate -x + C_n (checked
on the window truncated by x). Quasi-central candidates must in addition be
piecewise syndetic at (r, L) on every level; c-set candidates must admit a
J-set witness for every supplied family on every level.

This module alone decides what evidence each kind needs: the checks search
for it and record it, with its parameters, in a ``ChainReport``, and
``verify_chain_report`` re-checks a report against the chain alone.

``ap_translate_level_search`` is the pair-level analogue: given a
progression a, a+b, ..., a+l*b inside C_n, it finds the least deeper level N
whose set (suitably truncated) is contained in the intersection of all l+1
translates -(a+i*b) + C_n. ``verify_lifted_translate`` then confirms the
consequence for lifted pair sets: B_N shifted by (a, b) lands inside B_n.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ._bitops import ap_starts, iter_bit_indices
from ._record import Record, replace
from .jsets import FuncFamily, JWitness, jset_witness, verify_jwitness
from .largeness import PwsWitness, find_pws_witness, verify_pws_claim
from .lift import Box2D, Set2D, lift
from .sets import IntSet, Window

KIND_QUASI_CENTRAL = "quasi-central-candidate"
KIND_C_SET = "c-set-candidate"
CHAIN_KINDS = (KIND_QUASI_CENTRAL, KIND_C_SET)


class Chain(Record):
    levels: tuple[IntSet, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if not self.levels:
            raise ValueError("chain needs at least one level")
        w = self.levels[0].window
        for i, level in enumerate(self.levels):
            if level.window != w:
                raise ValueError("levels must share one window")
            if level.bits == 0:
                raise ValueError(f"level {i + 1} is empty")
            if i and level.bits & ~self.levels[i - 1].bits:
                raise ValueError(f"level {i + 1} is not contained in level {i}")

    @property
    def window(self) -> Window:
        return self.levels[0].window

    @property
    def depth(self) -> int:
        return len(self.levels)


class Chain2D(Record):
    """Levelwise lift of a chain; empty lifted levels are allowed."""

    levels: tuple[Set2D, ...]
    l: int

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("chain needs at least one level")
        box = self.levels[0].box
        for i, level in enumerate(self.levels):
            if level.box != box:
                raise ValueError("levels must share one box")
            if i and not level.is_subset_of(self.levels[i - 1]):
                raise ValueError(f"level {i + 1} is not contained in level {i}")

    @property
    def box(self) -> Box2D:
        return self.levels[0].box

    @property
    def depth(self) -> int:
        return len(self.levels)


class TranslateProbe(Record):
    """Outcome for one probed member x of level n."""

    level: int
    x: int
    found_level: Optional[int]


class ChainReport(Record):
    """Translate probes plus what the chain's kind needs: r, L and a pws
    witness per level, or the families, a_max and a J-set witness per level
    and family. A translate-only report has no evidence and does not pass.
    """

    kind: str
    x_max: int
    probes: tuple[TranslateProbe, ...]
    r: Optional[int] = None
    L: Optional[int] = None
    pws_witnesses: Optional[tuple[Optional[PwsWitness], ...]] = None
    families: tuple[FuncFamily, ...] = ()
    a_max: Optional[int] = None
    jset_witnesses: Optional[tuple[tuple[Optional[JWitness], ...], ...]] = None

    @property
    def translate_ok(self) -> bool:
        return all(p.found_level is not None for p in self.probes)

    @property
    def evidence_ok(self) -> bool:
        if self.kind == KIND_QUASI_CENTRAL:
            wits = self.pws_witnesses
        else:
            wits = self.jset_witnesses and sum(self.jset_witnesses, ())
        return wits is not None and None not in wits

    @property
    def passed(self) -> bool:
        return self.translate_ok and self.evidence_ok


def probe_points(chain: Chain, x_max: int) -> Iterator[tuple[int, int]]:
    """The (level, x) pairs the translate property probes: every member
    x <= x_max of every level, by level, then by x."""
    w = chain.window
    cap = min(x_max, w.hi) - w.lo
    if cap < 0:
        return
    for n, level in enumerate(chain.levels, start=1):
        for i in iter_bit_indices(level.bits & ((1 << (cap + 1)) - 1)):
            yield n, w.lo + i


def _first_level_inside(chain: Chain, n: int, target: int, reach: int) -> Optional[int]:
    """Least level m in [n, depth] that lands inside target on the window
    truncated to [lo, hi - reach] (vacuous when that is empty), or None."""
    misses = ((1 << max(0, chain.window.width - reach)) - 1) & ~target
    for m in range(n, chain.depth + 1):
        if not chain.levels[m - 1].bits & misses:
            return m
    return None


def translate_inclusion_holds(chain: Chain, m: int, n: int, x: int) -> bool:
    """Does C_m, truncated to [1, hi - x], land inside -x + C_n?"""
    # the first level from m on that lands inside is m itself iff C_m does
    return _first_level_inside(chain, m, chain.levels[n - 1].bits >> x, x) == m


def check_translate_property(chain: Chain, x_max: int) -> ChainReport:
    """Probe every member x <= x_max of every level for an absorbing level.

    The search for m runs over [n, depth] only; with decreasing levels a
    deeper hit would persist, so nothing shallower is ever needed.
    """
    w = chain.window
    if not 1 <= x_max <= w.hi:
        raise ValueError(f"x_max must lie in [1, {w.hi}]")
    probes = tuple(
        TranslateProbe(n, x, _first_level_inside(chain, n, chain.levels[n - 1].bits >> x, x))
        for n, x in probe_points(chain, x_max)
    )
    return ChainReport(kind=chain.kind, x_max=x_max, probes=probes)


def check_quasicentral(chain: Chain, r: int, L: int, x_max: int) -> ChainReport:
    """Translate property plus a pws witness at (r, L) on every level."""
    if chain.kind != KIND_QUASI_CENTRAL:
        raise ValueError(f"chain kind is {chain.kind!r}, not {KIND_QUASI_CENTRAL!r}")
    base = check_translate_property(chain, x_max)
    wits = tuple(find_pws_witness(level, r, L) for level in chain.levels)
    return replace(base, r=r, L=L, pws_witnesses=wits)


def check_cset(
    chain: Chain, families: Sequence[FuncFamily], a_max: int, x_max: int
) -> ChainReport:
    """Translate property plus a J-set witness per family on every level.

    An empty family list degenerates to the translate check alone.
    """
    if chain.kind != KIND_C_SET:
        raise ValueError(f"chain kind is {chain.kind!r}, not {KIND_C_SET!r}")
    base = check_translate_property(chain, x_max)
    wits = tuple(
        tuple(jset_witness(level, F, a_max) for F in families)
        for level in chain.levels
    )
    return replace(base, families=tuple(families), a_max=a_max, jset_witnesses=wits)


def verify_chain_report(chain: Chain, report: ChainReport) -> bool:
    """Re-check a report against the chain alone, without any search: the
    kinds agree, the probes are exactly ``probe_points``, each absorbing
    level lies in [level, depth] and absorbs, and each level's witnesses
    hold on it at the report's (r, L), or as J-set claims for each family
    at the report's a_max.
    """
    if report.kind != chain.kind or not report.passed:
        return False
    if sorted((p.level, p.x) for p in report.probes) != list(probe_points(chain, report.x_max)):
        return False
    if not all(
        p.level <= p.found_level <= chain.depth
        and translate_inclusion_holds(chain, p.found_level, p.level, p.x)
        for p in report.probes
    ):
        return False
    if report.kind == KIND_QUASI_CENTRAL:
        return len(report.pws_witnesses) == chain.depth and all(
            (w.r, w.length) == (report.r, report.L)
            and verify_pws_claim(level, w.r, w.length, w.start)
            for level, w in zip(chain.levels, report.pws_witnesses)
        )
    fams = report.families
    return len(report.jset_witnesses) == chain.depth and all(
        len(per_level) == len(fams)
        and all(verify_jwitness(level, F, report.a_max, w.a, w.H) for F, w in zip(fams, per_level))
        for level, per_level in zip(chain.levels, report.jset_witnesses)
    )


def lift_chain(chain: Chain, l: int, box: Box2D) -> Chain2D:
    """Lift every level; inclusion is preserved, empty levels are fine."""
    return Chain2D(tuple(lift(level, l, box) for level in chain.levels), l)


def ap_translate_level_search(
    chain: Chain, n: int, a: int, b: int, l: int
) -> Optional[int]:
    """Least level N in [n, depth] with C_N (truncated to [1, hi - a - l*b])
    inside the intersection of -(a + i*b) + C_n over i in [0, l].

    Requires the whole probe progression a, a+b, ..., a+l*b inside C_n; a
    missing term is reported by value. Returns None when no level within the
    chain's depth works.
    """
    if not 1 <= n <= chain.depth:
        raise ValueError(f"level {n} outside [1, {chain.depth}]")
    if a < 1 or b < 1 or l < 1:
        raise ValueError("a, b and l must be >= 1")
    Cn = chain.levels[n - 1]
    for i in range(l + 1):
        term = a + i * b
        if term not in Cn:
            raise ValueError(
                f"progression term a + {i}*b = {term} is not in level {n}"
            )
    # bit y-lo <-> a+i*b+y in C_n for all i
    return _first_level_inside(chain, n, ap_starts(Cn.bits, b, l) >> a, a + l * b)


def verify_lifted_translate(
    chain2d: Chain2D, n: int, N: int, a: int, b: int
) -> bool:
    """Every member (a1, b1) of B_N whose translate (a1+a, b1+b) stays inside
    the box must land in B_n. Members whose translate leaves the box are out
    of scope; an empty B_N passes vacuously.
    """
    if not 1 <= n <= N <= chain2d.depth:
        raise ValueError("need 1 <= n <= N <= depth")
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    BN = chain2d.levels[N - 1]
    Bn = chain2d.levels[n - 1]
    box = chain2d.box
    if box.a_hi - a < box.a_lo:
        return True  # every translate leaves the box on the a axis
    amask = (1 << (box.a_hi - a - box.a_lo + 1)) - 1
    for j, row in enumerate(BN.rows):
        if not row:
            continue
        d2 = box.d_lo + j + b
        if d2 > box.d_hi:
            continue
        target = Bn.rows[d2 - box.d_lo]
        if row & amask & ~(target >> a):
            return False
    return True
