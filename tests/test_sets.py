"""Window, IntSet, and expression evaluation.

Frozen expected values below were computed with a separate brute-force
script (plain set comprehensions over ranges) before these tests were
written; they are independent of the bitmap implementation.
"""

import random
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
    w = Window(1, 20000)
    A = IntSet(w, w.mask)
    assert repr(A) == (
        "IntSet(Window(lo=1, hi=20000), popcount=20000, bits=0xffffffffffffffff...)"
    )
    assert repr(IntSet(Window(3, 9), 0b1011)) == "IntSet(Window(lo=3, hi=9), popcount=3, bits=0xb)"


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
    assert evaluate(Bernoulli(1.0, 7), w).bits == w.mask


def test_bernoulli_lanes_match_member():
    # the lane-packed builder against the scalar definition, around the lane
    # count and the block of 8 * K positions, from starts on and off the grid
    # of bytes (lo - 1 a multiple of 8 or not), and with seeds that need
    # reducing mod 2^64. Thresholds with their low 33 bits clear (0.5, 0.25,
    # 0.75, 2^-31, 1 - 2^-31) skip the last xor-shift; the others (2^-32,
    # 2^-33, 1/3, 1 - 1e-12) take the full output stage.
    K = sets._LANES
    widths = (1, 63, 64, 65, K - 1, K, K + 1, 2 * K + 1, 8 * K - 1, 8 * K, 8 * K + 1, 16 * K + 3)
    for lo in (1, 2, 8 * K + 5):
        for seed in (0, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 70):
            for p in (0.0, 1.0, 0.5, 0.25, 0.75, 2.0 ** -31, 1 - 2.0 ** -31, 2.0 ** -32, 2.0 ** -33,
                      1 / 3, 1 - 1e-12):
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
    # here even when the builder and bernoulli_member change together; 0.3
    # takes the full output stage and 0.5 skips the last xor-shift
    for p, digest in ((0.3, "aa4092ca6e8f7ad8"), (0.5, "25e9999b1e1bcf73")):
        A = evaluate(Bernoulli(p, 7), Window(5, 5 + 2 ** 18 - 1))
        assert sha256(A.bits.to_bytes(2 ** 15, "little")).hexdigest()[:16] == digest, p


def _unxorshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _mix_input_before_last_stage(y):
    # splitmix64's output stage up to its last xor-shift, run backwards: both
    # multipliers are odd, so they are invertible mod 2^64
    m = 2 ** 64
    z = _unxorshift(y * pow(sets._MIX2, -1, m) % m, 27)
    return _unxorshift(z * pow(sets._MIX1, -1, m) % m, 30)


def test_bernoulli_last_stage_band():
    # z ^ (z >> 31) leaves z's top 31 bits alone, so it can change the answer
    # only where z's top 31 bits equal the threshold's: a 2^-31 chance per
    # position, which random draws never reach. Seeds are built so that z lies
    # in that band at a chosen position, once with the answer flipped each way,
    # at thresholds whose low 33 bits are not clear.
    rng = random.Random(28)
    low = 2 ** 33 - 1
    for p in (0.3, 1 / 3, 1 - 1e-12):
        t = sets._threshold(p)
        assert t & low
        found = {}
        while len(found) < 2:
            z = (t & ~low) | rng.getrandbits(33)
            if (z < t) != ((z ^ (z >> 31)) < t):
                found.setdefault(z < t, z)
        K = sets._LANES
        for short, z in found.items():
            u = _mix_input_before_last_stage(z)
            # x alone, at a window's first position, and deep in later blocks
            # at several lanes and passes
            for lo, x, hi in ((77, 77, 77), (9, 9, 9 + 8 * K), (1, 4101, 8197), (1000, 13909, 17005)):
                seed = (u - x * sets._GOLDEN64) % 2 ** 64
                assert bernoulli_member(x, p, seed) != short
                got = x in evaluate(Bernoulli(p, seed), Window(lo, hi))
                assert got == bernoulli_member(x, p, seed), (p, short, x)


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


def test_window_clip():
    w = Window(10, 50)
    assert w.clip((20, 30)) == Window(20, 30)
    assert w.clip((1, 12)) == Window(10, 12)
    assert w.clip((45, 10 ** 12)) == Window(45, 50)
    assert w.clip((1, 10 ** 12)) == w
    # reads that miss the window keep only its first position
    first = Window(10, 10)
    assert w.clip((51, 60)) == first and w.clip((1, 9)) == first and w.clip((30, 20)) == first


_LEAVES = st.one_of(
    st.builds(Ap, st.integers(1, 80), st.integers(1, 20)),
    st.builds(lambda lo, n: Interval(lo, lo + n), st.integers(1, 300), st.integers(0, 100)),
    st.builds(Multiples, st.integers(1, 30)),
    st.builds(IpSet, st.lists(st.integers(1, 200), min_size=1, max_size=6).map(tuple)),
    st.builds(ThickBlocks, st.lists(
        st.builds(lambda lo, n: (lo, lo + n), st.integers(1, 300), st.integers(0, 40)),
        min_size=1, max_size=4).map(tuple)),
    st.builds(Bernoulli, st.floats(0.0, 1.0), st.integers(0, 2 ** 64)),
)
_EXPRS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(Shift, kids, st.integers(0, 3)),
    st.builds(Union, st.lists(kids, min_size=1, max_size=3).map(tuple)),
    st.builds(Intersect, st.lists(kids, min_size=1, max_size=3).map(tuple)),
    st.builds(Complement, kids),
), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_EXPRS, st.integers(1, 40), st.integers(1, 3 * 8 * sets._LANES), st.data())
def test_evaluation_is_pointwise(expr, lo, width, data):
    # evaluating on a sub-window W' of W gives W's result restricted to W':
    # what lets lift --box and verify evaluate only the positions they read
    w = Window(lo, lo + width - 1)
    sub_lo = data.draw(st.integers(w.lo, w.hi), label="sub_lo")
    sub = Window(sub_lo, data.draw(st.integers(sub_lo, w.hi), label="sub_hi"))
    whole = evaluate(expr, w).bits
    assert evaluate(expr, sub).bits == (whole >> (sub.lo - w.lo)) & sub.mask


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
