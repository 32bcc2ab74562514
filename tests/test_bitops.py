"""Bit kernels against brute-force oracles on sets of small integers."""

import itertools
import time
from unittest import mock

from hypothesis import given, settings, strategies as st

from aplift import _bitops
from aplift._bitops import differences, from_indices, iter_bit_indices, subset_sums_by_count
from aplift.sets import IntSet, Window


def lowest_bit_loop(bits):
    """The oracle: XOR the lowest set bit out of the rest, O(members x W)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@settings(max_examples=300)
@given(st.one_of(st.integers(0, 2**200), st.builds(lambda k, low: (1 << k) | low,
                                                   st.integers(0, 600), st.integers(0, 2**40))),
       st.integers(1, 5))
def test_iter_bit_indices_matches_the_lowest_bit_loop(bits, scan_bytes):
    # pieces of a few bytes put set bits on both sides of every cut
    with mock.patch.object(_bitops, "_SCAN_BYTES", scan_bytes):
        assert list(iter_bit_indices(bits)) == list(lowest_bit_loop(bits))
    assert list(iter_bit_indices(bits)) == list(lowest_bit_loop(bits))


def test_members_of_a_wide_half_dense_set_in_under_a_second():
    # the lowest-bit loop took 34 s here: each step rewrote the whole bitmap
    A = IntSet(Window(1, 1 << 20), int("10" * (1 << 19), 2))
    start = time.perf_counter()
    members = list(A.members())
    assert time.perf_counter() - start < 1.0
    assert members == list(range(2, (1 << 20) + 1, 2))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 40), max_size=7), st.integers(0, 160))
def test_subset_sums_by_count_matches_combinations(values, width):
    reach = subset_sums_by_count(values, width)
    assert len(reach) == len(values) + 1
    for k, bits in enumerate(reach):
        expect = {sum(c) for c in itertools.combinations(values, k)}
        assert set(iter_bit_indices(bits)) == {s for s in expect if s < width}


@settings(max_examples=200)
@given(st.integers(0, 2**120), st.integers(1, 150))
def test_differences_matches_pairs(bits, width):
    members = list(iter_bit_indices(bits))
    expect = {y - x for x in members for y in members if 0 <= y - x < width}
    assert set(iter_bit_indices(differences(bits, width))) == expect


@settings(max_examples=200)
@given(st.lists(st.integers(0, 300), max_size=40), st.integers(0, 20))
def test_from_indices_grows_past_the_width(indices, width):
    # any order: each index past the buffer grows it, by a jump or by a quarter
    expect = sum(1 << i for i in set(indices))
    assert from_indices(indices) == expect
    assert from_indices(indices, max(indices, default=0) + 1 + width) == expect
    assert from_indices(indices, width) == expect
