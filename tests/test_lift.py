"""Progression search and the lift to (start, step) pair space.

Brute oracles (quadratic scans over (a, d)) are embedded here and were run
standalone first; frozen constants come from that run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from aplift._bitops import ap_starts
from aplift.lift import (
    APWitness,
    Box2D,
    Set2D,
    ap_search,
    find_pws_witness_2d,
    induced_box,
    is_syndetic_2d,
    lift,
    verify_ap,
)
from aplift.sets import Bernoulli, IntSet, Multiples, Window, evaluate, ip_set


def ap_brute(A, l):
    """Smallest d, then smallest a, with all l+1 terms in A."""
    w = A.window
    mem = set(A.members())
    for d in range(1, w.width):
        for a in range(w.lo, w.hi + 1):
            if a + l * d > w.hi:
                break
            if all(a + j * d in mem for j in range(l + 1)):
                return (a, d)
    return None


def lift_brute(A, l, box):
    mem = set(A.members())
    return {(a, d)
            for a in range(box.a_lo, box.a_hi + 1)
            for d in range(box.d_lo, box.d_hi + 1)
            if all(a + j * d in mem for j in range(l + 1))}


def synd2d_brute(pairs, box, r1, r2):
    if r1 > box.a_width or r2 > box.d_width:
        return True
    for a0 in range(box.a_lo, box.a_hi - r1 + 2):
        for d0 in range(box.d_lo, box.d_hi - r2 + 2):
            if not any((a, d) in pairs
                       for a in range(a0, a0 + r1)
                       for d in range(d0, d0 + r2)):
                return False
    return True


def test_ap_witness_terms():
    wit = APWitness(4, 3, 2)
    assert wit.terms() == (4, 7, 10)
    with pytest.raises(ValueError):
        APWitness(0, 3, 2)
    with pytest.raises(ValueError):
        APWitness(4, 0, 2)
    with pytest.raises(ValueError):
        APWitness(4, 3, 0)


def test_verify_ap():
    A = evaluate(Multiples(3), Window(1, 30))
    assert verify_ap(A, 2, 3, 6) is True
    assert verify_ap(A, 2, 3, 5) is False
    assert verify_ap(A, 2, 27, 3) is False  # 33 leaves the window


def test_ap_search_frozen_evens():
    # brute oracle: (a=2, d=2)
    A = evaluate(Multiples(2), Window(1, 100))
    wit = ap_search(A, 3)
    assert (wit.a, wit.d) == (2, 2)
    assert verify_ap(A, wit.l, wit.a, wit.d)


def test_ap_search_frozen_absent():
    # brute oracle: the ipset(3,9,27) sample has no 3-term progression
    A = ip_set((3, 9, 27), Window(1, 40))
    assert ap_search(A, 2) is None


def test_ap_search_orders_d_then_a():
    # {5, 6, 7} has (5,1) l=2; {10, 20, 30} would give d=10 later
    A = IntSet.from_members(Window(1, 40), [5, 6, 7, 10, 20, 30])
    wit = ap_search(A, 2)
    assert (wit.a, wit.d) == (5, 1)
    # remove the d=1 run; smallest d wins again among what is left
    B = IntSet.from_members(Window(1, 40), [10, 20, 30, 7, 12, 17])
    wit = ap_search(B, 2)
    assert (wit.a, wit.d) == (7, 5)


@settings(max_examples=40)
@given(st.floats(0.15, 0.85), st.integers(0, 500), st.integers(1, 4),
       st.integers(30, 120))
def test_ap_search_matches_brute(p, seed, l, hi):
    A = evaluate(Bernoulli(p, seed), Window(1, hi))
    wit = ap_search(A, l)
    expect = ap_brute(A, l)
    if expect is None:
        assert wit is None
    else:
        assert (wit.a, wit.d) == expect
        assert verify_ap(A, wit.l, wit.a, wit.d)


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 130])
def test_ap_starts_matches_brute(width):
    w = Window(1, width)
    # sparse, dense and full bitmaps; l+1 = 2^k +- 1 lands between doublings
    for bits in (evaluate(Bernoulli(0.7, width), w).bits,
                 evaluate(Bernoulli(0.97, width), w).bits, w.mask):
        for d in range(1, width + 1):
            for l in (1, 2, 3, 4, 6, 8, 14, 16, 30, 32, 40):
                expect = 0
                for i in range(width):
                    if all((bits >> (i + j * d)) & 1 for j in range(l + 1)):
                        expect |= 1 << i
                assert ap_starts(bits, d, l) == expect, (d, l)


def test_set2d_repr_of_wide_rows():
    box = Box2D(1, 20000, 1, 2)
    B = Set2D(box, ((1 << 20000) - 1, 0))
    assert repr(B) == f"Set2D({box!r}, popcount=20000, row0=0xffffffffffffffff...)"


def test_ap_search_antitone_in_l():
    # a witness for l+1 steps restricts to one for l steps
    A = evaluate(Bernoulli(0.6, 7), Window(1, 200))
    found = [ap_search(A, l) is not None for l in range(1, 8)]
    assert found == sorted(found, reverse=True)


def test_box2d_validation():
    b = Box2D(2, 10, 1, 5)
    assert b.a_width == 9 and b.d_width == 5
    assert (2, 1) in b and (10, 5) in b and (11, 5) not in b
    with pytest.raises(ValueError):
        Box2D(5, 4, 1, 2)
    with pytest.raises(ValueError):
        Box2D(1, 4, 0, 2)


def test_lift_matches_brute_frozen():
    # brute oracle: 50 pairs, syndetic at (3,3) but not (2,2)
    A = evaluate(Multiples(3), Window(1, 60))
    box = induced_box(A.window, 2)
    assert (box.a_lo, box.a_hi, box.d_lo, box.d_hi) == (1, 30, 1, 15)
    B = lift(A, 2, box)
    assert len(B) == 50
    assert set(B.members()) == lift_brute(A, 2, box)
    assert is_syndetic_2d(B, box, 3, 3) is True
    assert is_syndetic_2d(B, box, 2, 2) is False


def test_lift_cell_iff_verify():
    A = evaluate(Bernoulli(0.5, 11), Window(1, 80))
    box = Box2D(1, 40, 1, 12)
    B = lift(A, 2, box)
    for a in range(1, 41, 7):
        for d in range(1, 13, 3):
            inside = a + 2 * d <= 80 and verify_ap(A, 2, a, d)
            assert ((a, d) in B) == inside, (a, d)


def test_lift_clips_out_of_window_tails():
    # pairs whose last term leaves the window never appear
    A = IntSet(Window(1, 20), Window(1, 20).mask)
    B = lift(A, 2, Box2D(1, 20, 1, 15))
    assert all(a + 2 * d <= 20 for a, d in B.members())
    assert (18, 1) in B and (18, 2) not in B


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 150), st.integers(0, 2 ** 32), st.integers(1, 3),
       st.integers(1, 200), st.integers(1, 60), st.booleans())
def test_lift_matches_brute_on_thin_and_tall_boxes(lo, width, seed, l, a_lo, d_lo, thin):
    # boxes that start below, inside and above the window, one column wide
    # and tall, or wide and one row tall: rows past the window's top are
    # empty, and so is every row of a box whose reach misses the window
    A = evaluate(Bernoulli(0.8, seed), Window(lo, lo + width - 1))
    box = Box2D(a_lo, a_lo, d_lo, d_lo + 120) if thin else Box2D(a_lo, a_lo + 120, d_lo, d_lo)
    B = lift(A, l, box)
    assert set(B.members()) == lift_brute(A, l, box)


def test_lift_tall_box_past_the_top():
    # the progressions from a = 1 at d >= 50 pass 100, so those rows are empty
    A = evaluate(Multiples(3), Window(1, 100))
    B = lift(A, 2, Box2D(3, 3, 1, 10 ** 6))
    assert len(B.rows) == 10 ** 6 and not any(B.rows[48:])
    assert set(B.members()) == {(3, d) for d in range(3, 49, 3)}


def test_lift_antitone_in_depth():
    A = evaluate(Bernoulli(0.7, 3), Window(1, 100))
    box = Box2D(1, 40, 1, 10)
    shallow = lift(A, 1, box)
    deep = lift(A, 2, box)
    assert all(d & ~s == 0 for s, d in zip(shallow.rows, deep.rows))


def test_induced_box_no_clip():
    # every pair in the box keeps all terms inside the window
    for hi in (10, 37, 64, 100):
        for l in (1, 2, 3):
            box = induced_box(Window(1, hi), l)
            assert box.a_hi + l * box.d_hi <= hi
    with pytest.raises(ValueError):
        induced_box(Window(1, 3), 4)


def test_shift_equivariance():
    # lifting a translate = translating the lift in the a coordinate
    A = evaluate(Multiples(3), Window(1, 90))
    S = evaluate(Multiples(3), Window(1, 84))  # -6 + A
    box = Box2D(1, 30, 1, 10)
    lifted_shift = lift(S, 2, box)
    lifted = lift(A, 2, Box2D(7, 36, 1, 10))
    assert {(a, d) for a, d in lifted_shift.members()} == \
        {(a - 6, d) for a, d in lifted.members()}


def test_is_syndetic_2d_vacuous():
    A = evaluate(Multiples(2), Window(1, 40))
    box = Box2D(1, 10, 1, 4)
    B = lift(A, 1, box)
    assert is_syndetic_2d(B, box, 11, 1) is True
    assert is_syndetic_2d(B, box, 1, 5) is True


def test_find_pws_witness_2d_frozen():
    A = evaluate(Multiples(3), Window(1, 60))
    box = induced_box(A.window, 2)
    B = lift(A, 2, box)
    sub = find_pws_witness_2d(B, 3, 3, 6, 6)
    assert sub is not None
    assert (sub.a_lo, sub.d_lo) == (1, 1)  # whole box qualifies, first sub-box wins
    assert sub.a_width == 6 and sub.d_width == 6
    assert find_pws_witness_2d(B, 2, 2, 6, 6) is None


@settings(max_examples=25)
@given(st.floats(0.3, 0.9), st.integers(0, 200))
def test_find_pws_witness_2d_sound(p, seed):
    A = evaluate(Bernoulli(p, seed), Window(1, 60))
    box = induced_box(A.window, 1)
    B = lift(A, 1, box)
    sub = find_pws_witness_2d(B, 2, 2, 5, 4)
    if sub is not None:
        pairs = set(B.members())
        assert synd2d_brute(pairs, sub, 2, 2)
        assert box.contains_box(sub)


def pws2d_brute(pairs, box, r1, r2, L1, L2):
    """First L1 x L2 sub-box in (d-origin, a-origin) order that is syndetic."""
    for d0 in range(box.d_lo, box.d_hi - L2 + 2):
        for a0 in range(box.a_lo, box.a_hi - L1 + 2):
            sub = Box2D(a0, a0 + L1 - 1, d0, d0 + L2 - 1)
            if synd2d_brute(pairs, sub, r1, r2):
                return sub
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32), st.floats(0.7, 0.99), st.integers(1, 2),
       st.integers(1, 90), st.integers(1, 20), st.integers(1, 12), st.integers(1, 10), st.data())
def test_find_pws_witness_2d_matches_brute(lo, seed, p, l, a_lo, d_lo, a_width, d_width, data):
    # boxes below, across and past the top of the window [lo, lo + 59]; a
    # block side one past the sub-box's fits no block, so the first sub-box
    # is vacuously syndetic
    A = evaluate(Bernoulli(p, seed), Window(lo, lo + 59))
    box = Box2D(a_lo, a_lo + a_width - 1, d_lo, d_lo + d_width - 1)
    L1, L2 = data.draw(st.integers(1, a_width)), data.draw(st.integers(1, d_width))
    r1, r2 = data.draw(st.integers(1, L1 + 1)), data.draw(st.integers(1, L2 + 1))
    B = lift(A, l, box)
    expect = pws2d_brute(set(B.members()), box, r1, r2, L1, L2)
    assert find_pws_witness_2d(B, r1, r2, L1, L2) == expect


def test_find_pws_witness_2d_scans_d_then_a():
    # members only at d = 3; a 1x1 witness must report the least d first
    box = Box2D(1, 6, 1, 6)
    A = IntSet.from_members(Window(1, 30), [4, 7, 10, 13])
    B = lift(A, 2, box)  # progressions with step 3 starting at 4, 7
    sub = find_pws_witness_2d(B, 1, 1, 1, 1)
    assert (sub.a_lo, sub.d_lo) == (4, 3)
