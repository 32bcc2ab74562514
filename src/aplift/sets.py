"""Windowed subsets of the positive integers.

Every set lives on an inclusive window [lo, hi] with 1 <= lo <= hi, at most
MAX_BITS = 2^27 positions wide, and is stored as an integer bitmap: bit i of
``bits`` holds membership of ``lo + i``. Values are immutable records
(``_record.Record``) and all operations are pure functions, so results are
safe to share and compare.

Ground set convention: the positive integers {1, 2, 3, ...}. Zero is never a
member and generator parameters must be >= 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from ._bitops import from_indices, hex_head, iter_bit_indices
from ._record import Record

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    # splitmix64 output stage; fixed public constants keep draws identical
    # across machines and Python versions.
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# The most bits a window or a pair box may span: 16 MB as a bitmap, so that no
# input asks for memory or time beyond what the bitmap kernels handle.
MAX_BITS = 1 << 27


class Window(Record):
    """Inclusive range [lo, hi] of positive integers, at most MAX_BITS wide."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise TypeError("window bounds must be integers")
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"invalid window [{self.lo}, {self.hi}]")
        if self.hi - self.lo >= MAX_BITS:
            raise ValueError(f"window [{self.lo}, {self.hi}] is wider than 2^27 bits")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi


class IntSet(Record):
    """Immutable subset of a window, backed by an integer bitmap."""

    window: Window
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.window.width:
            raise ValueError("membership bits fall outside the window")

    @classmethod
    def from_members(cls, window: Window, members) -> "IntSet":
        lo, hi = window.lo, window.hi

        def offsets() -> Iterator[int]:
            for x in members:
                if not lo <= x <= hi:
                    raise ValueError(f"member {x} outside window [{lo}, {hi}]")
                yield x - lo

        return cls(window, from_indices(offsets(), window.width))

    @classmethod
    def full(cls, window: Window) -> "IntSet":
        return cls(window, window.mask)

    def __repr__(self) -> str:
        return f"IntSet({self.window!r}, popcount={len(self)}, bits={hex_head(self.bits)})"

    def __contains__(self, x: int) -> bool:
        if not isinstance(x, int) or x < self.window.lo or x > self.window.hi:
            return False
        return bool((self.bits >> (x - self.window.lo)) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def members(self) -> Iterator[int]:
        """Members in strictly increasing order."""
        lo = self.window.lo
        for i in iter_bit_indices(self.bits):
            yield lo + i

    def density(self) -> float:
        return self.bits.bit_count() / self.window.width

    def _require_same_window(self, other: "IntSet") -> None:
        if self.window != other.window:
            raise ValueError("window mismatch")

    def union(self, other: "IntSet") -> "IntSet":
        self._require_same_window(other)
        return IntSet(self.window, self.bits | other.bits)

    def intersect(self, other: "IntSet") -> "IntSet":
        self._require_same_window(other)
        return IntSet(self.window, self.bits & other.bits)

    def complement(self) -> "IntSet":
        """Complement relative to the window."""
        return IntSet(self.window, self.window.mask ^ self.bits)

    def is_subset_of(self, other: "IntSet") -> bool:
        self._require_same_window(other)
        return self.bits & ~other.bits == 0


# --- set expressions -------------------------------------------------------
#
# Expression trees are plain immutable records; ``evaluate(expr, window)``
# produces the IntSet of the expression clipped to the window. Generators
# whose values leave the window are clipped, never an error; malformed
# parameters (d = 0, p outside [0, 1], ...) raise ValueError at construction.


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class Ap(Record):
    """Arithmetic progression a, a+d, a+2d, ... (upward only)."""

    a: int
    d: int

    def __post_init__(self) -> None:
        _check_positive("start", self.a)
        _check_positive("step", self.d)


class Interval(Record):
    lo: int
    hi: int

    def __post_init__(self) -> None:
        _check_positive("interval lo", self.lo)
        _check_positive("interval hi", self.hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


class Multiples(Record):
    k: int

    def __post_init__(self) -> None:
        _check_positive("modulus", self.k)


class IpSet(Record):
    """All sums over nonempty subsets of the generator list."""

    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("ipset needs at least one generator")
        for g in self.generators:
            _check_positive("generator", g)


class ThickBlocks(Record):
    """Union of inclusive blocks [lo, hi] from an explicit schedule."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("thick needs at least one block")
        for blo, bhi in self.blocks:
            _check_positive("block lo", blo)
            _check_positive("block hi", bhi)
            if blo > bhi:
                raise ValueError(f"empty block [{blo}, {bhi}]")


class Bernoulli(Record):
    """Each window element kept independently with probability p.

    Membership of x is decided by the splitmix64 mix of (seed + x * golden),
    compared against floor(p * 2^64); identical (p, seed) always yield the
    identical set, on any machine.
    """

    p: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.p!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


class Shift(Record):
    """Forward translate: every member m of the child becomes m + c."""

    child: "SetExpr"
    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or isinstance(self.c, bool) or self.c < 0:
            raise ValueError(f"shift amount must be a nonnegative integer, got {self.c!r}")


class Union(Record):
    children: tuple["SetExpr", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("union needs at least one operand")


class Intersect(Record):
    children: tuple["SetExpr", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("intersect needs at least one operand")


class Complement(Record):
    """Complement relative to the evaluation window."""

    child: "SetExpr"


SetExpr = (
    Ap
    | Interval
    | Multiples
    | IpSet
    | ThickBlocks
    | Bernoulli
    | Shift
    | Union
    | Intersect
    | Complement
)


def _ap_bits(a: int, d: int, w: Window) -> int:
    """a, a + d, ... on the window, by shift-or doubling: O(log W) big-int ops."""
    first = a - w.lo if a >= w.lo else (a - w.lo) % d
    if first >= w.width:
        return 0
    bits, span = 1, d
    while span < w.width - first:
        bits |= bits << span
        span *= 2
    return (bits << first) & w.mask


def _block_bits(lo: int, hi: int, w: Window) -> int:
    """The solid block [lo, hi] clipped to the window, as window bits."""
    s, e = max(lo, w.lo), min(hi, w.hi)
    return ((1 << (e - s + 1)) - 1) << (s - w.lo) if s <= e else 0


@lru_cache(maxsize=256)
def _threshold(p: float) -> int:
    """floor(p * 2^64) for p's exact binary value: a mix below it is a member."""
    num, den = p.as_integer_ratio()
    return (num << 64) // den


def bernoulli_member(x: int, p: float, seed: int) -> bool:
    """Deterministic membership draw for the Bernoulli generator."""
    return _mix64((seed + x * _GOLDEN64) & _MASK64) < _threshold(p)


# Lane-packed splitmix64 ("SIMD within a register"): lane i holds a 64-bit
# state at bits [128i, 128i + 64) and headroom for the 64 x 64-bit product above
# it; each xor-shift is masked back to 64 bits, as it moves lane i + 1's low bits
# into that headroom. A block of 8 * _LANES positions takes eight passes: pass c
# puts position 8i + 7 - c in lane i and shifts its miss flag (bit 64) in below
# the earlier ones, so byte 8 of lane i is the bitmap byte of 8i .. 8i + 7.
_LANES = 256
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = _ONES * _MASK64
_FLAGS = _ONES << 64
_BLOCK_STEP = ((8 * _LANES * _GOLDEN64) & _MASK64) * _ONES
_LANE_STEPS = int.from_bytes(b"".join(
    ((8 * i * _GOLDEN64) & _MASK64).to_bytes(16, "little") for i in range(_LANES)), "little")
_PASSES = tuple((_LANE_STEPS + ((c * _GOLDEN64) & _MASK64) * _ONES) & _LANE_MASK for c in range(7, -1, -1))


def _bernoulli_bits(p: float, seed: int, w: Window) -> int:
    # a window narrower than one block runs only the lanes it covers
    ones = _ONES & ((1 << 128 * -(-w.width // 8)) - 1)
    passes = [step & ones * _MASK64 for step in _PASSES]
    # after adding 2^64 - threshold, bit 64 of a lane is set iff mix >= threshold
    bump = ((1 << 64) - _threshold(p)) * ones
    state = ((seed + w.lo * _GOLDEN64) & _MASK64) * ones
    blocks = []
    for _ in range(0, w.width, 8 * _LANES):
        misses = 0
        for step in passes:
            z = (state + step) & _LANE_MASK
            z = (((z ^ (z >> 30)) & _LANE_MASK) * _MIX1) & _LANE_MASK
            z = (((z ^ (z >> 27)) & _LANE_MASK) * _MIX2) & _LANE_MASK
            misses = (misses << 1) | ((z ^ (z >> 31)) + bump) & _FLAGS
        blocks.append(misses.to_bytes(16 * _LANES, "little")[8::16])
        state = (state + _BLOCK_STEP) & _LANE_MASK
    return ~int.from_bytes(b"".join(blocks), "little") & w.mask


def ip_set(generators: Sequence[int], w: Window) -> IntSet:
    """Sums over nonempty subsets of the generators, clipped to the window.

    Sums only grow, so partial sums above w.hi are dropped as they appear;
    the result has at most 2^k - 1 members before clipping.
    """
    expr = IpSet(tuple(generators))
    sums = {0}
    for g in expr.generators:
        sums |= {s + g for s in sums if s + g <= w.hi}
    return IntSet(w, from_indices((s - w.lo for s in sums if s >= w.lo), w.width))


def evaluate(expr: SetExpr, w: Window) -> IntSet:
    """Evaluate a set expression on a window. Deterministic, clips to w."""
    match expr:
        case Ap(a=a, d=d):
            return IntSet(w, _ap_bits(a, d, w))
        case Interval(lo=lo, hi=hi):
            return IntSet(w, _block_bits(lo, hi, w))
        case Multiples(k=k):
            return IntSet(w, _ap_bits(k, k, w))
        case IpSet(generators=gens):
            return ip_set(gens, w)
        case ThickBlocks(blocks=blocks):
            bits = 0
            for blo, bhi in blocks:
                bits |= _block_bits(blo, bhi, w)
            return IntSet(w, bits)
        case Bernoulli(p=p, seed=seed):
            return IntSet(w, _bernoulli_bits(p, seed, w))
        case Shift(child=child, c=c):
            if w.hi - c < 1:
                return IntSet(w, 0)
            inner = evaluate(child, Window(max(1, w.lo - c), w.hi - c))
            delta = inner.window.lo + c - w.lo
            return IntSet(w, (inner.bits << delta) & w.mask)
        case Union(children=children):
            bits = 0
            for child in children:
                bits |= evaluate(child, w).bits
            return IntSet(w, bits)
        case Intersect(children=children):
            bits = w.mask
            for child in children:
                bits &= evaluate(child, w).bits
            return IntSet(w, bits)
        case Complement(child=child):
            return evaluate(child, w).complement()
    raise TypeError(f"not a set expression: {expr!r}")


def shift_set(A: IntSet, x: int) -> IntSet:
    """The translate -x + A = {y >= 1 : x + y in A} on its truncated window.

    The result window is [max(1, lo - x), hi - x]. When hi - x < 1 the whole
    translate leaves the positive integers and the explicit empty set on the
    degenerate window [1, 1] is returned. x = 0 is the identity.
    """
    if not isinstance(x, int) or isinstance(x, bool) or x < 0:
        raise ValueError(f"shift amount must be a nonnegative integer, got {x!r}")
    w = A.window
    new_hi = w.hi - x
    if new_hi < 1:
        return IntSet(Window(1, 1), 0)
    new_w = Window(max(1, w.lo - x), new_hi)
    shift = new_w.lo + x - w.lo  # >= 0 because new_lo >= lo - x
    return IntSet(new_w, (A.bits >> shift) & new_w.mask)
