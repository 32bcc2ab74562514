"""Simultaneous sum witnesses and the pair-space transfer.

The embedded brute oracle replicates the documented search order with plain
loops; frozen constants were produced by a standalone run of the same logic.
"""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from aplift.jsets import (
    _difference_rows,
    _difference_sizes,
    _scan_sizes,
    FuncFamily,
    FuncFamily2D,
    JWitness,
    JWitness2D,
    build_transfer_family,
    jset_witness,
    transfer_witness,
    verify_jwitness,
    verify_transfer_witness,
)
from aplift.sets import Bernoulli, IntSet, Multiples, Window, evaluate


def jset_brute(A, tables, a_max):
    """Ascending |H|, lex H over [1, T], then ascending base a."""
    mem = set(A.members())
    T = len(tables[0])
    for k in range(1, T + 1):
        for H in itertools.combinations(range(1, T + 1), k):
            for a in range(1, a_max + 1):
                if all(a + sum(tab[t - 1] for t in H) in mem for tab in tables):
                    return (a, H)
    return None


def hit_sizes(A, tables, a_max):
    """Every |H| at which some (a, H) with a <= a_max hits all tables."""
    mem = set(A.members())
    T = len(tables[0])
    return {
        k for k in range(1, T + 1) for H in itertools.combinations(range(1, T + 1), k)
        if any(all(a + sum(tab[t - 1] for t in H) in mem for tab in tables)
               for a in range(1, a_max + 1))
    }


def offset_tables(rng, q, T, M):
    """Table 2 is table 1 minus one (mod q), later tables agree with table 2
    (mod q): sums of tables 1 and 2 over H agree mod q only when q | |H|."""
    first = [rng.randint(1, 4 * q) for _ in range(T)]
    second = [(v - 1) % q + q * rng.randint(0, 3) or q for v in first]
    out = [tuple(first), tuple(second)]
    for _ in range(M - 2):
        out.append(tuple(v % q + q * rng.randint(0, 3) or q for v in second))
    return tuple(out[:M])


def random_case(rng, max_T=7):
    """(A, tables, a_max): multiples or Bernoulli sets on windows that may
    start past 1, 1-4 tables, random or residue-offset families."""
    lo = rng.choice([1, 1, rng.randint(2, 300)])
    win = Window(lo, lo + rng.randint(0, 160))
    if rng.random() < 0.5:
        A = evaluate(Multiples(rng.randint(1, 25)), win)
    else:
        A = evaluate(Bernoulli(rng.uniform(0.05, 0.95), rng.randint(0, 10**6)), win)
    T, M = rng.randint(1, max_T), rng.randint(1, 4)
    if rng.random() < 0.5:
        tables = offset_tables(rng, rng.randint(2, 25), T, M)
    else:
        top = rng.choice([5, 50, 500])
        tables = tuple(tuple(rng.randint(1, top) for _ in range(T)) for _ in range(M))
    return A, tables, rng.randint(1, 100)


def test_family_validation():
    F = FuncFamily(((1, 2, 3), (2, 4, 6)))
    assert F.size == 2 and F.horizon == 3
    with pytest.raises(ValueError):
        FuncFamily(())
    with pytest.raises(ValueError):
        FuncFamily(((1, 2), (1, 2, 3)))  # ragged horizons
    with pytest.raises(ValueError):
        FuncFamily(((0, 2),))  # values must be >= 1
    with pytest.raises(ValueError):
        FuncFamily2D((((1, 2), (1,)),))  # pair horizons must match


def test_jwitness_validation():
    w = JWitness(3, (1, 4, 5))
    assert w.a == 3 and w.H == (1, 4, 5)
    with pytest.raises(ValueError):
        JWitness(0, (1,))
    with pytest.raises(ValueError):
        JWitness(3, ())
    with pytest.raises(ValueError):
        JWitness(3, (2, 2))
    with pytest.raises(ValueError):
        JWitness(3, (4, 1))


def test_jset_witness_frozen():
    # brute oracle: multiples of 3 with {t, 2t} at horizon 4 gives (3, {3})
    A = evaluate(Multiples(3), Window(1, 300))
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    wit = jset_witness(A, F, 10)
    assert wit is not None
    assert (wit.a, wit.H) == (3, (3,))
    assert verify_jwitness(A, F, 10, wit.a, wit.H)


def test_jset_witness_none():
    # multiples of 9 with {t, 2t} at horizon 2: sums too small to align
    A = evaluate(Multiples(9), Window(1, 300))
    F = FuncFamily(((1, 2), (2, 4)))
    assert jset_witness(A, F, 50) is None


def test_jset_search_order():
    # order: |H| ascending, H lex, a ascending; craft a set where the
    # singleton H = {2} works only with larger a than H = {1}
    A = IntSet.from_members(Window(1, 50), [4, 6, 11, 13])
    F = FuncFamily(((1, 2, 3), (3, 6, 9)))
    wit = jset_witness(A, F, 40)
    # H={1}: need a+1, a+3 in A -> a=3 gives 4, 6. first hit
    assert (wit.a, wit.H) == (3, (1,))


@settings(max_examples=40)
@given(st.floats(0.3, 0.9), st.integers(0, 300),
       st.integers(1, 3), st.integers(1, 4))
def test_jset_matches_brute(p, seed, m, T):
    A = evaluate(Bernoulli(p, seed), Window(1, 120))
    tables = tuple(
        tuple((i + 1) * t % 7 + 1 for t in range(1, T + 1)) for i in range(m)
    )
    F = FuncFamily(tables)
    wit = jset_witness(A, F, 30)
    expect = jset_brute(A, tables, 30)
    if expect is None:
        assert wit is None
    else:
        assert (wit.a, wit.H) == expect
        assert verify_jwitness(A, F, 30, wit.a, wit.H)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_jset_matches_brute_on_filtered_shapes(salt):
    A, tables, a_max = random_case(random.Random(salt))
    wit = jset_witness(A, FuncFamily(tables), a_max)
    assert (None if wit is None else (wit.a, wit.H)) == jset_brute(A, tables, a_max)


def test_size_filter_never_rules_out_a_hit():
    rng = random.Random(11)
    pruned = {"scan": 0, "difference": 0}
    for _ in range(600):
        A, tables, a_max = random_case(rng)
        F = FuncFamily(tables)
        T = F.horizon
        hits = hit_sizes(A, tables, a_max)
        scanned = set(_scan_sizes(A, F, a_max))
        assert hits <= scanned, (A, tables, a_max)
        pruned["scan"] += T - len(scanned)
        if F.size > 1:
            # every index kept and the filter built at once: the condition
            # holds for every index set and whenever it is built
            B, rows = _difference_rows(A, F, list(range(T)))
            diff = _difference_sizes(A, B, rows)
            assert hits <= diff, (A, tables, a_max)
            pruned["difference"] += T + 1 - len(diff)
    assert all(pruned.values()), pruned


def test_offset_family_miss_skips_every_size():
    # sums of the two tables agree mod 23 only when 23 divides |H| <= 22, so
    # every size is ruled out and none of the 2^22 - 1 subsets is scanned
    rng = random.Random(5)
    q, T = 23, 22
    tables = offset_tables(rng, q, T, 2)
    A = evaluate(Multiples(q), Window(1, 2 * q + max(map(sum, tables))))
    start = time.perf_counter()
    assert jset_witness(A, FuncFamily(tables), 2 * q) is None
    assert time.perf_counter() - start < 0.5


def test_huge_table_value_stays_out_of_the_filter():
    # an index whose value passes A's top is in no hit, so the filter's
    # bitmaps stay window-sized instead of 10^9 bits
    A = IntSet.from_members(Window(1, 500), [13, 17])
    for tables, a_max, expect in [
        (((10**9, 5, 7), (10**9, 9, 7)), 5, (1, (2, 3))),
        (((10**9, 5, 7), (10**9, 9, 8)), 5, None),
    ]:
        assert jset_brute(A, tables, a_max) == expect
        start = time.perf_counter()
        wit = jset_witness(A, FuncFamily(tables), a_max)
        assert time.perf_counter() - start < 0.1
        assert (None if wit is None else (wit.a, wit.H)) == expect


def test_base_mask_stops_below_the_window_top():
    # table values are >= 1, so no base a >= 300 hits a window ending at 300:
    # a_max = 10^8 answers as a_max = 299 does, without a 10^8-bit mask
    A = IntSet.from_members(Window(1, 300), [300])
    for tables, expect in [(((1, 3),), (299, (1,))), (((2, 3), (1, 5)), None)]:
        assert jset_brute(A, tables, 299) == expect
        tracemalloc.start()
        try:
            wit = jset_witness(A, FuncFamily(tables), 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (None if wit is None else (wit.a, wit.H)) == expect
        assert wit == jset_witness(A, FuncFamily(tables), 299)
        assert peak < 2**20


def residue_pair_tables(rng, T, base, residue=1):
    """Two tables of values = residue (mod 3) near base. With a = 1 and A the
    multiples of 3, residue 1 makes every singleton miss and every pair hit,
    and residue 0 makes every subset miss."""
    start = base - base % 3 + residue
    return tuple(tuple(start + 3 * rng.randint(0, 40) for _ in range(T)) for _ in range(2))


def test_early_pair_hit_builds_no_filter_on_a_wide_window():
    # a 2^22-bit window makes the filter cost thousands of window-wide
    # shifts; the scan finds (1, 2) after 20 singletons and builds none
    rng = random.Random(2)
    tables = residue_pair_tables(rng, 20, 0)
    A = evaluate(Multiples(3), Window(1, 1 << 22))
    start = time.perf_counter()
    wit = jset_witness(A, FuncFamily(tables), 1)
    assert time.perf_counter() - start < 0.1
    assert (wit.a, wit.H) == (1, (1, 2))


@pytest.mark.parametrize("residue, expect", [(1, (1, (1, 2))), (0, None)])
def test_window_far_from_one_scans_only_sizes_that_reach_it(residue, expect):
    # table values near 2 * 10^6 and a 300-bit window at 4 * 10^6: only pair
    # sums reach the window, so a miss scans 190 subsets, not 2^20 - 1
    rng = random.Random(3)
    tables = residue_pair_tables(rng, 20, 2 * 10**6, residue)
    lo = min(tables[0][0] + tables[0][1], tables[1][0] + tables[1][1])
    A = evaluate(Multiples(3), Window(lo, lo + 300))
    assert list(_scan_sizes(A, FuncFamily(tables), 1)) == [2]
    start = time.perf_counter()
    wit = jset_witness(A, FuncFamily(tables), 1)
    assert time.perf_counter() - start < 0.05
    assert (None if wit is None else (wit.a, wit.H)) == expect


def test_verify_jwitness_bounds():
    A = evaluate(Multiples(3), Window(1, 300))
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    assert verify_jwitness(A, F, 300, 3, (5,)) is False  # beyond horizon
    # sums leaving the window simply fail the check
    assert verify_jwitness(A, F, 300, 299, (4,)) is False


def test_build_transfer_family_shape():
    # one pair (t, 2t+1) at horizon 2, offset 2, depth 2:
    # j = 0 -> g1; j = 1 -> g1 + (b + g2); j = 2 -> g1 + 2(b + g2)
    F2D = FuncFamily2D((((1, 2), (3, 5)),))
    G = build_transfer_family(F2D, b=2, l=2)
    assert G.tables == ((1, 2), (6, 9), (11, 16))
    assert G.size == 3  # m * (l + 1)


def test_build_transfer_family_two_pairs():
    F2D = FuncFamily2D((((1,), (1,)), ((2,), (3,))))
    G = build_transfer_family(F2D, b=1, l=1)
    # pair 1: (1,), (1+1+1,) ; pair 2: (2,), (2+1+3,)
    assert G.tables == ((1,), (3,), (2,), (6,))


def test_transfer_witness_frozen_evens():
    # brute oracle: base (1, 1) with H = {1}; the pair certifies {2, 4}
    A = evaluate(Multiples(2), Window(1, 200))
    F2D = FuncFamily2D((((1,), (1,)),))
    wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
    assert wit is not None
    assert (wit.a1, wit.a2, wit.H) == (1, 1, (1,))
    assert verify_transfer_witness(A, F2D, 1, 1, 64, wit.a1, wit.a2, wit.H)
    start = wit.a1 + 1          # f1 summed over H = {1}
    step = wit.a2 + 1           # f2 summed over H = {1}
    assert (start, step) == (2, 2)
    assert {start, start + step} <= set(A.members())
    # every term counts: {2, 4} holds the 2-term progression, not the 3-term one
    B = IntSet.from_members(Window(1, 10), [2, 4])
    assert verify_transfer_witness(B, F2D, 1, 1, 64, wit.a1, wit.a2, wit.H)
    assert not verify_transfer_witness(B, F2D, 1, 2, 64, wit.a1, wit.a2, wit.H)


def test_transfer_witness_step_binding():
    # a2 is pinned to b * |H| by construction
    A = evaluate(Multiples(2), Window(1, 400))
    F2D = FuncFamily2D((((2, 4), (2, 4)),))
    wit = transfer_witness(A, F2D, b=2, l=2, a_max=64)
    assert wit is not None
    assert wit.a2 == 2 * len(wit.H)
    assert verify_transfer_witness(A, F2D, 2, 2, 64, wit.a1, wit.a2, wit.H)


def test_transfer_witness_none_when_absent():
    A = IntSet.from_members(Window(1, 60), [1])
    F2D = FuncFamily2D((((1,), (1,)),))
    assert transfer_witness(A, F2D, b=1, l=1, a_max=20) is None


@settings(max_examples=30)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 10 ** 6))
def test_transfer_self_check_never_trips(q, m, T, l, salt):
    # witnesses returned by the transfer always verify on the pair side
    import random
    rng = random.Random(salt)
    A = evaluate(Multiples(q), Window(1, 2000))
    pairs = tuple(
        (tuple(rng.randint(1, 10) for _ in range(T)),
         tuple(rng.randint(1, 10) for _ in range(T)))
        for _ in range(m)
    )
    F2D = FuncFamily2D(pairs)
    b = rng.randint(1, 3)
    wit = transfer_witness(A, F2D, b=b, l=l, a_max=50)
    if wit is not None:
        assert verify_transfer_witness(A, F2D, b, l, 50, wit.a1, wit.a2, wit.H)
