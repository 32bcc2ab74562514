"""Decreasing chains and their translate / largeness checks.

A chain is a decreasing tower C_1 >= C_2 >= ... >= C_k of nonempty sets on a
common window. The translate property asks, for each probed member x of C_n,
for a deeper level m whose set lands inside the translate -x + C_n (checked
on the window truncated by x). Quasi-central candidates must in addition be
piecewise syndetic at (r, L) on every level; c-set candidates must admit a
J-set witness for every supplied family on every level.

This module alone decides what evidence each kind needs: the checks search
for it and record, in a ``ChainReport``, the probes and each level's
witnesses, and ``verify_chain_report`` re-checks them, with the parameters
they were sought at, against the chain alone.

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


class TranslateProbe(Record):
    """Outcome for one probed member x of level n."""

    level: int
    x: int
    found_level: Optional[int]


class ChainReport(Record):
    """Translate probes, and for each level the witnesses the chain's kind
    needs: one pws witness, or one J-set witness per family, None where the
    search found none. A translate-only report has no levels and does not pass.
    """

    probes: tuple[TranslateProbe, ...]
    levels: Optional[tuple[tuple[Optional[PwsWitness | JWitness], ...], ...]] = None

    @property
    def translate_ok(self) -> bool:
        return all(p.found_level is not None for p in self.probes)

    @property
    def evidence_ok(self) -> bool:
        return self.levels is not None and all(None not in wits for wits in self.levels)

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
    return ChainReport(probes)


def check_quasicentral(chain: Chain, r: int, L: int, x_max: int) -> ChainReport:
    """Translate property plus a pws witness at (r, L) on every level."""
    if chain.kind != KIND_QUASI_CENTRAL:
        raise ValueError(f"chain kind is {chain.kind!r}, not {KIND_QUASI_CENTRAL!r}")
    base = check_translate_property(chain, x_max)
    return replace(base, levels=tuple((find_pws_witness(level, r, L),) for level in chain.levels))


def check_cset(
    chain: Chain, families: Sequence[FuncFamily], a_max: int, x_max: int
) -> ChainReport:
    """Translate property plus a J-set witness per family on every level.

    An empty family list degenerates to the translate check alone.
    """
    if chain.kind != KIND_C_SET:
        raise ValueError(f"chain kind is {chain.kind!r}, not {KIND_C_SET!r}")
    if a_max < 1:  # jset_witness checks it too, but no family may call it
        raise ValueError("a_max must be >= 1")
    base = check_translate_property(chain, x_max)
    return replace(base, levels=tuple(
        tuple(jset_witness(level, F, a_max) for F in families) for level in chain.levels
    ))


def verify_chain_report(
    chain: Chain, families: Optional[tuple[FuncFamily, ...]], x_max: int,
    r: Optional[int], L: Optional[int], a_max: Optional[int], probes: tuple[TranslateProbe, ...],
    levels: Optional[tuple],
) -> bool:
    """Re-check a chain's report against the chain alone, without any
    search: the probes are exactly ``probe_points``, each absorbing level
    lies in [level, depth] and absorbs, and each level holds the witnesses
    of the chain's kind, a pws witness at (r, L) or a J-set witness for each
    family at a_max. The other kind's parameters are not read.
    """
    if levels is None or len(levels) != chain.depth:
        return False
    if sorted((p.level, p.x) for p in probes) != list(probe_points(chain, x_max)):
        return False
    if not all(
        p.found_level is not None
        and p.level <= p.found_level <= chain.depth
        and translate_inclusion_holds(chain, p.found_level, p.level, p.x)
        for p in probes
    ):
        return False
    if chain.kind == KIND_QUASI_CENTRAL:
        return None not in (r, L) and all(
            len(wits) == 1 and isinstance(wits[0], PwsWitness)
            and verify_pws_claim(level, r, L, wits[0].start)
            for level, wits in zip(chain.levels, levels)
        )
    return None not in (families, a_max) and all(
        len(wits) == len(families)
        and all(
            isinstance(w, JWitness) and verify_jwitness(level, F, a_max, w.a, w.H)
            for F, w in zip(families, wits)
        )
        for level, wits in zip(chain.levels, levels)
    )


def lift_chain(chain: Chain, l: int, box: Box2D) -> tuple[Set2D, ...]:
    """Every level lifted over the one box. ``lift`` is monotone in the set,
    so the lifted levels decrease as the chain does; some may be empty."""
    return tuple(lift(level, l, box) for level in chain.levels)


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
    levels: tuple[Set2D, ...], n: int, N: int, a: int, b: int
) -> bool:
    """On the levels ``lift_chain`` returns, every member (a1, b1) of B_N
    whose translate (a1+a, b1+b) stays inside the box must land in B_n.
    Members whose translate leaves the box are out of scope; an empty B_N
    passes vacuously.
    """
    if not 1 <= n <= N <= len(levels):
        raise ValueError("need 1 <= n <= N <= depth")
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    BN = levels[N - 1]
    Bn = levels[n - 1]
    box = BN.box
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
