"""Window, IntSet, and expression evaluation.

Frozen expected values below were computed with a separate brute-force
script (plain set comprehensions over ranges) before these tests were
written; they are independent of the bitmap implementation.
"""

from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from aplift import sets
from aplift.sets import (
    Ap,
    Bernoulli,
    Complement,
    IntSet,
    Intersect,
    Interval,
    IpSet,
    Multiples,
    Shift,
    ThickBlocks,
    Union,
    Window,
    bernoulli_member,
    evaluate,
    ip_set,
    shift_set,
)


def members_brute(expr, w):
    """Reference evaluator: per-element membership, no bitmaps."""
    def holds(e, x):
        if isinstance(e, Ap):
            return x >= e.a and (x - e.a) % e.d == 0
        if isinstance(e, Interval):
            return e.lo <= x <= e.hi
        if isinstance(e, Multiples):
            return x % e.k == 0
        if isinstance(e, IpSet):
            import itertools
            gens = e.generators
            return any(sum(c) == x
                       for k in range(1, len(gens) + 1)
                       for c in itertools.combinations(gens, k))
        if isinstance(e, ThickBlocks):
            return any(lo <= x <= hi for lo, hi in e.blocks)
        if isinstance(e, Bernoulli):
            return bernoulli_member(x, e.p, e.seed)
        if isinstance(e, Shift):
            return x - e.c >= 1 and holds(e.child, x - e.c)
        if isinstance(e, Union):
            return any(holds(c, x) for c in e.children)
        if isinstance(e, Intersect):
            return all(holds(c, x) for c in e.children)
        if isinstance(e, Complement):
            return not holds(e.child, x)
        raise TypeError(e)
    return [x for x in range(w.lo, w.hi + 1) if holds(expr, x)]


def test_window_validation():
    w = Window(3, 10)
    assert w.width == 8
    assert 3 in w and 10 in w and 11 not in w
    with pytest.raises(ValueError):
        Window(0, 5)
    with pytest.raises(ValueError):
        Window(6, 5)


def test_intset_members_roundtrip():
    w = Window(1, 30)
    A = IntSet.from_members(w, [3, 9, 12, 27, 30])
    assert list(A.members()) == [3, 9, 12, 27, 30]
    assert 9 in A and 10 not in A
    assert len(A) == 5
    with pytest.raises(ValueError):
        IntSet.from_members(w, [31])
    # members may come from a one-shot generator; the first one outside is named
    assert IntSet.from_members(w, (x for x in (3, 9))) == IntSet.from_members(w, [3, 9])
    with pytest.raises(ValueError, match=r"member 31 outside window \[1, 30\]"):
        IntSet.from_members(w, (x for x in (3, 31, 0, 40)))


def test_repr_of_wide_set():
    # decimal conversion of a 20000-bit int exceeds Python's digit limit
    A = IntSet.full(Window(1, 20000))
    assert repr(A) == (
        "IntSet(Window(lo=1, hi=20000), popcount=20000, bits=0xffffffffffffffff...)"
    )
    assert repr(IntSet(Window(3, 9), 0b1011)) == "IntSet(Window(lo=3, hi=9), popcount=3, bits=0xb)"


def test_intset_algebra():
    w = Window(1, 20)
    A = IntSet.from_members(w, range(2, 21, 2))
    B = IntSet.from_members(w, range(3, 21, 3))
    assert list(A.intersect(B).members()) == [6, 12, 18]
    assert set(A.union(B).members()) == set(range(2, 21, 2)) | set(range(3, 21, 3))
    assert list(A.complement().members()) == list(range(1, 21, 2))
    assert A.intersect(B).is_subset_of(A)
    with pytest.raises(ValueError):
        A.union(IntSet.full(Window(1, 21)))


def test_double_complement_identity():
    w = Window(5, 64)
    A = evaluate(Union((Multiples(3), Ap(7, 11))), w)
    assert A.complement().complement().bits == A.bits


def test_ipset_frozen_small():
    # brute oracle: nonempty subset sums of {3, 9, 27} landing in [1, 40]
    A = ip_set((3, 9, 27), Window(1, 40))
    assert list(A.members()) == [3, 9, 12, 27, 30, 36, 39]
    B = ip_set((2, 5, 11), Window(1, 20))
    assert list(B.members()) == [2, 5, 7, 11, 13, 16, 18]


def test_ipset_size_bound():
    # at most 2^k - 1 distinct subset sums
    A = ip_set((1, 2, 4, 8), Window(1, 100))
    assert len(A) == 15
    assert list(A.members()) == list(range(1, 16))


def test_evaluate_matches_reference():
    windows = (
        Window(1, 96),
        Window(2, 64),      # width 63
        Window(37, 100),    # width 64
        Window(5, 69),      # width 65
        Window(200, 327),   # width 128
        Window(3, 131),     # width 129
    )
    exprs = [
        Multiples(5),
        Ap(4, 9),
        Ap(38, 1),
        Bernoulli(0.45, 8),
        Interval(10, 25),
        IpSet((2, 5, 11)),
        ThickBlocks(((1, 3), (10, 14), (40, 49))),
        Shift(Multiples(4), 3),
        Union((Multiples(6), Interval(50, 60))),
        Intersect((Multiples(2), Multiples(3))),
        Complement(Multiples(2)),
        Union((Shift(IpSet((3, 9)), 1), Complement(Interval(1, 90)))),
    ]
    for w in windows:
        for e in exprs:
            expect = members_brute(e, w)
            assert list(evaluate(e, w).members()) == expect, (w, e)
            assert IntSet.from_members(w, expect) == evaluate(e, w), (w, e)


def test_shift_near_window_floor():
    # shifting by +3 must not invent members below the child's domain
    w = Window(1, 12)
    A = evaluate(Shift(Multiples(5), 3), w)
    assert list(A.members()) == [8]


def test_bernoulli_deterministic():
    w = Window(1, 256)
    A = evaluate(Bernoulli(0.5, 42), w)
    B = evaluate(Bernoulli(0.5, 42), w)
    assert A.bits == B.bits
    C = evaluate(Bernoulli(0.5, 43), w)
    assert A.bits != C.bits
    assert evaluate(Bernoulli(0.0, 7), w).bits == 0
    assert evaluate(Bernoulli(1.0, 7), w).bits == IntSet.full(w).bits


def test_bernoulli_lanes_match_member():
    # the lane-packed builder against the scalar definition, around the lane
    # count and the block of 8 * K positions, from starts on and off the grid
    # of bytes (lo - 1 a multiple of 8 or not), and with seeds that need
    # reducing mod 2^64
    K = sets._LANES
    widths = (1, 63, 64, 65, K - 1, K, K + 1, 2 * K + 1, 8 * K - 1, 8 * K, 8 * K + 1, 16 * K + 3)
    for lo in (1, 2, 8 * K + 5):
        for seed in (0, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 70):
            for p in (0.0, 1.0, 0.5, 0.25, 1 / 3, 1 - 1e-12):
                expect = [x for x in range(lo, lo + max(widths)) if bernoulli_member(x, p, seed)]
                for width in widths:
                    w = Window(lo, lo + width - 1)
                    got = evaluate(Bernoulli(p, seed), w)
                    assert list(got.members()) == [x for x in expect if x <= w.hi], (width, lo, seed, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 3 * 8 * sets._LANES),
       st.sampled_from((0.0, 1.0, 2.0 ** -64, 1 - 1e-12)) | st.floats(0.0, 1.0),
       st.integers(0, 2 ** 64 - 1) | st.integers(2 ** 64, 2 ** 80))
def test_bernoulli_matches_member_anywhere(lo, width, p, seed):
    w = Window(lo, lo + width - 1)
    expect = [x for x in range(w.lo, w.hi + 1) if bernoulli_member(x, p, seed)]
    assert list(evaluate(Bernoulli(p, seed), w).members()) == expect


@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0 ** -64, 2.0 ** -65, 1 / 3, 0.3, 1 - 2.0 ** -53, 1.0])
def test_threshold_is_exact_floor(p):
    # floor(p * 2^64) of p's exact binary value, as the Fraction oracle gives it
    assert sets._threshold(p) == int(Fraction(p) * 2 ** 64)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_threshold_matches_fraction(p):
    assert sets._threshold(p) == int(Fraction(p) * 2 ** 64)


def test_bernoulli_bits_pinned():
    # a digest of the bits themselves, so a change to the membership rule fails
    # here even when the builder and bernoulli_member change together
    A = evaluate(Bernoulli(0.3, 7), Window(5, 5 + 2 ** 18 - 1))
    assert sha256(A.bits.to_bytes(2 ** 15, "little")).hexdigest()[:16] == "aa4092ca6e8f7ad8"


def test_ap_doubling_matches_brute():
    for lo, width in ((1, 1), (1, 64), (7, 65), (100, 300), (3, 1000)):
        w = Window(lo, lo + width - 1)
        hi = w.hi
        for a in (1, lo - 1 or 1, lo, lo + 1, hi - 1 or 1, hi, hi + 1, hi + 50):
            for d in (1, 2, 3, 7, 64, width - 1 or 1, width, width + 1, 3 * width):
                expect = [x for x in range(a, hi + 1, d) if x >= lo]
                assert list(evaluate(Ap(a, d), w).members()) == expect, (w, a, d)
        for k in (1, 2, 5, width, width + 3):
            expect = [x for x in range(lo, hi + 1) if x % k == 0]
            assert list(evaluate(Multiples(k), w).members()) == expect, (w, k)


def test_bernoulli_density_sane():
    w = Window(1, 4096)
    d = evaluate(Bernoulli(0.3, 9), w).density()
    assert 0.25 < d < 0.35


def test_shift_set_basic():
    w = Window(1, 20)
    A = IntSet.from_members(w, [5, 8, 13, 20])
    S = shift_set(A, 5)
    assert S.window == Window(1, 15)
    assert list(S.members()) == [3, 8, 15]


def test_shift_set_degenerate():
    A = IntSet.from_members(Window(1, 10), [2, 4])
    S = shift_set(A, 10)
    assert len(S) == 0
    S2 = shift_set(A, 25)
    assert len(S2) == 0


def test_shift_set_window_floor():
    # lo stays at 1 when the shift would push it below
    A = IntSet.from_members(Window(5, 20), [6, 10])
    S = shift_set(A, 2)
    assert S.window == Window(3, 18)
    S2 = shift_set(A, 7)
    assert S2.window == Window(1, 13)
    assert list(S2.members()) == [3]


@given(st.integers(1, 60), st.integers(0, 15), st.integers(0, 15))
def test_shift_set_composes(hi, x, y):
    A = evaluate(Multiples(3), Window(1, hi + 40))
    once = shift_set(shift_set(A, x), y)
    both = shift_set(A, x + y)
    assert list(once.members()) == list(both.members())


@given(st.integers(1, 10 ** 6), st.floats(0.0, 1.0, allow_nan=False),
       st.integers(0, 2 ** 32))
def test_bernoulli_member_total(x, p, seed):
    assert bernoulli_member(x, p, seed) in (True, False)
    assert bernoulli_member(x, p, seed) == bernoulli_member(x, p, seed)


def test_expr_validation():
    with pytest.raises(ValueError):
        Ap(0, 3)
    with pytest.raises(ValueError):
        Ap(3, 0)
    with pytest.raises(ValueError):
        Multiples(0)
    with pytest.raises(ValueError):
        Interval(9, 5)
    with pytest.raises(ValueError):
        IpSet(())
    with pytest.raises(ValueError):
        Bernoulli(1.5, 0)
    with pytest.raises(ValueError):
        ThickBlocks(((5, 3),))
    with pytest.raises(ValueError):
        Union(())
    with pytest.raises(ValueError):
        Shift(Multiples(2), -1)
