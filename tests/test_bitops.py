"""Bit kernels against brute-force oracles on sets of small integers."""

import itertools

from hypothesis import given, settings, strategies as st

from aplift._bitops import differences, from_indices, iter_bit_indices, subset_sums_by_count


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
