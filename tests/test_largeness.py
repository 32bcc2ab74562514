"""Syndetic/thick detectors, blockwise witnesses, and the coloring check.

Expected values marked "brute oracle" were produced by an independent
quadratic-scan script before this file was written.
"""

import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aplift._bitops import longest_run
from aplift.largeness import (
    EXHAUSTIVE_LIMIT,
    PwsWitness,
    VdwResult,
    _has_mono_ap,
    find_pws_witness,
    is_syndetic_on,
    longest_member_run,
    longest_miss_run,
    min_r_for_L,
    vdw_check,
    verify_vdw_claim,
)
from aplift.sets import IntSet, Interval, Multiples, ThickBlocks, Union, Window, evaluate, ip_set


def brute_syndetic(members, lo, hi, r):
    if r > hi - lo + 1:
        return True
    return all(any(x in members for x in range(s, s + r))
               for s in range(lo, hi - r + 2))


def thick_schedule(kmax):
    blocks = tuple((k * k, k * k + k - 1) for k in range(1, kmax + 1))
    return evaluate(ThickBlocks(blocks), Window(1, kmax * kmax + kmax))


def stepwise_longest_run(bits):
    # one and-shift per unit of run length: quadratic, kept as the oracle
    n = 0
    while bits:
        bits &= bits >> 1
        n += 1
    return n


@pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129])
def test_longest_run_matches_stepwise_oracle(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    cases = [0, full, full >> 1, full ^ 1, full ^ (1 << (width - 1))]
    cases += [full ^ (1 << i) for i in range(width)]  # two runs filling the window
    cases += [((1 << n) - 1) << rng.randrange(width - n + 1)
              for n in (1, 2, 3, 31, 32, 33, 63, 64, 65, width) if n <= width]
    for p in (0.1, 0.5, 0.9, 0.98):
        cases += [sum(1 << i for i in range(width) if rng.random() < p) for _ in range(40)]
    for bits in cases:
        assert longest_run(bits) == stepwise_longest_run(bits), hex(bits)


def test_syndetic_frozen_ipset():
    # brute oracle: longest miss run of ipset(3,9,27) on [1,40] is 14
    A = ip_set((3, 9, 27), Window(1, 40))
    assert longest_miss_run(A) == 14
    assert is_syndetic_on(A, (1, 40), 15) is True
    assert is_syndetic_on(A, (1, 40), 14) is False


def test_syndetic_vacuous_and_edges():
    A = IntSet.from_members(Window(1, 10), [5])
    assert is_syndetic_on(A, (1, 10), 11) is True   # no block of that size fits
    assert is_syndetic_on(A, (1, 10), 10) is True   # the single block [1,10] hits 5
    assert is_syndetic_on(A, (1, 10), 5) is False   # block [6,10] misses


def test_syndetic_matches_brute():
    A = ip_set((2, 5, 11), Window(1, 20))
    mem = set(A.members())
    for r in range(1, 22):
        assert is_syndetic_on(A, (1, 20), r) == brute_syndetic(mem, 1, 20, r), r
    # windows starting past 1 and widths across word boundaries, on the
    # whole window and on sub-intervals: the offsets of the one-row box
    rng = random.Random(20)
    for lo in (1, 2, 97):
        for width in (63, 64, 65, 127, 128, 129):
            w = Window(lo, lo + width - 1)
            for p in (0.6, 0.9):
                mem = {x for x in range(w.lo, w.hi + 1) if rng.random() < p}
                A = IntSet.from_members(w, sorted(mem))
                for _ in range(6):
                    s = rng.randint(w.lo, w.hi)
                    for i_lo, i_hi in ((w.lo, w.hi), (s, rng.randint(s, w.hi))):
                        n = i_hi - i_lo + 1
                        for r in {1, 2, 3, 5, 8, n, n + 1}:
                            expect = brute_syndetic(mem, i_lo, i_hi, r)
                            assert is_syndetic_on(A, (i_lo, i_hi), r) == expect, (w, i_lo, i_hi, r)


def test_syndetic_subinterval():
    A = evaluate(Multiples(4), Window(1, 40))
    assert is_syndetic_on(A, (9, 20), 4) is True
    assert is_syndetic_on(A, (9, 20), 3) is False
    with pytest.raises(ValueError):
        is_syndetic_on(A, (0, 20), 3)
    with pytest.raises(ValueError):
        is_syndetic_on(A, (5, 50), 3)


def test_thick_frozen_schedule():
    # brute oracle: blocks [k^2, k^2+k-1] for k <= 9, longest run is 9
    A = thick_schedule(9)
    assert longest_member_run(A) == 9


def test_thick_window_clip():
    A = thick_schedule(9)
    # restricted to [1, 85] the k=9 block is cut to [81, 85]
    B = IntSet(Window(1, 85), A.bits & Window(1, 85).mask)
    assert longest_member_run(B) == 8


def test_pws_witness_frozen():
    # brute oracle: evens on [1,100] are 2-syndetic everywhere, first start 1
    evens = evaluate(Multiples(2), Window(1, 100))
    wit = find_pws_witness(evens, 2, 50)
    assert wit == PwsWitness(1)

    # brute oracle: first solid 21-run of interval(40,60) | multiples(7) starts at 40
    mix = evaluate(Union((Interval(40, 60), Multiples(7))), Window(1, 100))
    wit = find_pws_witness(mix, 1, 21)
    assert wit is not None and wit.start == 40
    assert find_pws_witness(mix, 1, 22) is None


def test_pws_witness_vacuous_r_exceeds_L():
    A = IntSet(Window(1, 30), 0)
    wit = find_pws_witness(A, 5, 3)
    assert wit == PwsWitness(1)


def test_pws_witness_none_when_window_short():
    A = IntSet(Window(1, 10), Window(1, 10).mask)
    assert find_pws_witness(A, 1, 11) is None


def test_min_r_frozen():
    # brute oracle values
    A = ip_set((2, 5, 11), Window(1, 20))
    assert min_r_for_L(A, 20) == 4
    B = evaluate(Multiples(3), Window(1, 99))
    assert min_r_for_L(B, 99) == 3
    empty = IntSet(Window(1, 50), 0)
    assert min_r_for_L(empty, 10) is None


def test_min_r_is_least():
    A = ip_set((3, 9, 27), Window(1, 40))
    r = min_r_for_L(A, 40)
    assert r == 15
    assert find_pws_witness(A, r, 40) is not None
    assert find_pws_witness(A, r - 1, 40) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.sampled_from([60, 63, 64, 65, 127, 128, 129]),
       st.sets(st.integers(0, 128), max_size=90), st.integers(1, 12), st.integers(1, 130))
def test_pws_witness_matches_brute(lo, width, offsets, r, L):
    # windows starting past 1 and widths across word boundaries
    w = Window(lo, lo + width - 1)
    mem = {lo + i for i in offsets if i < width}
    A = IntSet.from_members(w, sorted(mem))
    wit = find_pws_witness(A, r, L)
    if L > width:
        assert wit is None
        return
    first = next((s for s in range(lo, w.hi - L + 2) if brute_syndetic(mem, s, s + L - 1, r)), None)
    if wit is None:
        assert first is None
    else:
        assert wit == PwsWitness(first)


def test_vdw_frozen_true_false():
    res = vdw_check(9, 2, 3)
    assert res.verdict == "true" and res.strategy == "exhaustive"
    res = vdw_check(8, 2, 3)
    assert res.verdict == "false"
    assert res.coloring == (0, 0, 1, 1, 0, 0, 1, 1)
    assert not _has_mono_ap(res.coloring, 3)


def test_vdw_single_term():
    assert vdw_check(5, 3, 1).verdict == "true"


def test_vdw_coloring_is_lex_least():
    # the reported counterexample must be the lexicographically first one
    res = vdw_check(8, 2, 3)
    for cand in itertools.product(range(2), repeat=8):
        if not _has_mono_ap(cand, 3):
            assert res.coloring == cand
            break


def lex_oracle(n, colors, k):
    """(verdict, coloring, colorings counted) by plain enumeration in lex order."""
    for rank, cand in enumerate(itertools.product(range(colors), repeat=n)):
        if not _has_mono_ap(cand, k):
            return "false", cand, rank + 1
    return "true", None, colors**n


def test_vdw_matches_enumeration_oracle():
    # every case is below EXHAUSTIVE_LIMIT, so explored counts colorings
    for n in range(1, 13):
        for colors in range(1, 6):
            if colors**n > 1 << 12:
                continue
            for k in range(1, 6):
                verdict, coloring, answer = lex_oracle(n, colors, k)
                if k == 1:
                    answer = 0  # decided before any coloring is counted
                for budget in {b for b in (1, answer - 1, answer, answer + 1) if b >= 1}:
                    res = vdw_check(n, colors, k, budget=budget)
                    case = (n, colors, k, budget)
                    assert res.strategy == "exhaustive", case
                    if budget < answer:
                        assert (res.verdict, res.coloring, res.explored) == ("unknown", None, budget), case
                    else:
                        assert (res.verdict, res.coloring, res.explored) == (verdict, coloring, answer), case


class _Budget(Exception):
    pass


def forward_checking_oracle(n, colors, k, budget):
    """(verdict, coloring, explored) of the plain forward-checking search:
    lexicographic order, every color tried at every position (no color
    symmetry), a color dead when it completes a progression, and a live
    placement pruned when some later position has no color left that does
    not complete one. explored counts as the strategy label says."""
    if k == 1:
        return "true", None, 0
    exhaustive = colors**n <= EXHAUSTIVE_LIMIT
    col = []
    explored = 0

    def completes(x, c):
        # c at x completes a progression whose other k - 1 terms are in col
        return any(all(col[x - j * d] == c for j in range(1, k))
                   for d in range(max(1, x - len(col) + 1), x // (k - 1) + 1))

    def search(p):
        nonlocal explored
        for c in range(colors):
            dead = completes(p, c)
            if not dead and p < n - 1:
                col.append(c)
                dead = any(all(completes(x, o) for o in range(colors)) for x in range(p + 1, n))
                col.pop()
            if not exhaustive:
                explored += 1
            elif dead or p == n - 1:
                explored += colors ** (n - 1 - p)
            if explored > budget:
                raise _Budget
            if dead:
                continue
            col.append(c)
            if p == n - 1 or search(p + 1):
                return True
            col.pop()
        return False

    try:
        found = search(0)
    except _Budget:
        return "unknown", None, budget
    return ("false", tuple(col), explored) if found else ("true", None, explored)


def _check_against_forward_checking(n, colors, k):
    verdict, coloring, answer = forward_checking_oracle(n, colors, k, 1 << 40)
    for budget in {b for b in (1, answer - 1, answer, answer + 1) if b >= 1}:
        res = vdw_check(n, colors, k, budget=budget)
        case = (n, colors, k, budget)
        if budget < answer:
            assert (res.verdict, res.coloring, res.explored) == ("unknown", None, budget), case
        else:
            assert (res.verdict, res.coloring, res.explored) == (verdict, coloring, answer), case


def test_vdw_matches_forward_checking_oracle_on_the_grid():
    # both labels: colorings counted below EXHAUSTIVE_LIMIT, color
    # assignments of the search without symmetry above it
    labels = set()
    for n in range(1, 14):
        for colors in range(1, 6):
            for k in range(1, 6):
                _check_against_forward_checking(n, colors, k)
                labels.add(colors**n <= EXHAUSTIVE_LIMIT)
    assert labels == {False, True}


def test_vdw_matches_forward_checking_oracle_on_the_bench_cases(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    cases = workloads.VDW_CASES
    assert any(colors**n > EXHAUSTIVE_LIMIT for n, colors, _ in cases)
    for n, colors, k in cases:
        _check_against_forward_checking(n, colors, k)


@pytest.mark.parametrize("n, colors, k, explored", [
    (18, 2, 4, 19154), (12, 3, 3, 20873), (34, 2, 4, 1128),
    (35, 2, 4, 14082), (25, 3, 3, 2990), (26, 3, 3, 6318),
])
def test_vdw_explored_pinned(n, colors, k, explored):
    # exhaustive counts colorings up to the least counterexample, backtracking
    # counts the color assignments of the forward-checking search without
    # color symmetry; both are fixed by the lexicographic order
    res = vdw_check(n, colors, k)
    assert res.strategy == ("exhaustive" if colors**n <= EXHAUSTIVE_LIMIT else "backtracking")
    assert res.explored == explored
    if res.verdict == "false":
        assert len(res.coloring) == n and not _has_mono_ap(res.coloring, k)
    else:
        assert (n, colors, k) == (35, 2, 4)  # W(4; 2) = 35


def test_vdw_long_window_follows_the_nodes_searched():
    # W(3; 2) = 9 kills every branch by depth 9: the search's cost follows
    # the positions it reaches, however long the window
    start = time.perf_counter()
    res = vdw_check(2000, 2, 3)
    elapsed = time.perf_counter() - start
    assert (res.verdict, res.coloring, res.strategy, res.explored) == ("true", None, "backtracking", 74)
    assert elapsed < 0.1


def test_vdw_huge_window_sizes_nothing_by_n():
    # the strategy label is decided without colors**n and the coloring grows
    # with the search, so a billion-position window costs what 2000 does
    start = time.perf_counter()
    res = vdw_check(10**9, 2, 3)
    elapsed = time.perf_counter() - start
    assert (res.verdict, res.coloring, res.strategy, res.explored) == ("true", None, "backtracking", 74)
    assert elapsed < 0.1


def test_vdw_two_term_progressions_on_a_huge_window():
    # k = 2 forbids every later position at once, kept as a negative mask
    start = time.perf_counter()
    res = vdw_check(10**9, 2, 2)
    assert time.perf_counter() - start < 0.1
    assert (res.verdict, res.coloring, res.strategy) == ("true", None, "backtracking")
    res = vdw_check(10**9, 10**9, 2, budget=10_000)
    assert time.perf_counter() - start < 0.1
    assert (res.verdict, res.explored) == ("unknown", 10_000)


def test_vdw_w33_is_decided_fast():
    # W(3; 3) = 27
    start = time.perf_counter()
    res = vdw_check(27, 3, 3)
    assert time.perf_counter() - start < 0.5
    assert (res.verdict, res.coloring, res.strategy) == ("true", None, "backtracking")


def test_vdw_deep_search_is_not_cubic_in_its_depth():
    # many colors make the search run deep: its cost per node must not grow
    # with the masks of every progression ending at each position reached
    start = time.perf_counter()
    res = vdw_check(400, 400, 3)
    assert time.perf_counter() - start < 0.3
    assert res.verdict == "false" and not _has_mono_ap(res.coloring, 3)
    tracemalloc.start()
    try:
        res = vdw_check(10**9, 10**9, 3, budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.verdict, res.explored) == ("unknown", 10_000)
    assert peak < 5 * 2**20


@pytest.mark.parametrize("colors", [1, 2, 3, 4, 5, 1025, 2**20, 2**20 + 1])
def test_vdw_strategy_label_matches_the_power(colors):
    for n in range(1, 24):
        res = vdw_check(n, colors, 2, budget=1)
        assert res.strategy == ("exhaustive" if colors**n <= EXHAUSTIVE_LIMIT else "backtracking"), n


def test_verify_vdw_claim_matches_brute_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n, colors, k = rng.randint(1, 40), rng.randint(1, 4), rng.randint(1, 5)
        coloring = [rng.randrange(colors) for _ in range(n)]
        assert verify_vdw_claim(n, colors, k, "false", coloring) == (not _has_mono_ap(coloring, k))
    # counterexamples, and single flips of them, on both sides of the answer
    for n, colors, k in [(8, 2, 3), (34, 2, 4), (26, 3, 3), (20, 4, 3), (12, 1, 13)]:
        good = list(vdw_check(n, colors, k).coloring)
        assert verify_vdw_claim(n, colors, k, "false", good)
        for i in range(n):
            flipped = good[:i] + [(good[i] + 1) % colors] + good[i + 1:]
            assert verify_vdw_claim(n, colors, k, "false", flipped) == (not _has_mono_ap(flipped, k))


def test_verify_vdw_claim_matches_brute_oracle_on_sparse_classes():
    # many colours on long windows: classes with members^2 < span draw their
    # steps from their members' differences
    rng = random.Random(13)
    sparse, answers = 0, set()
    for _ in range(300):
        n = rng.randint(50, 400)
        colors, k = rng.randint(n // 12, n // 3), rng.randint(2, 5)
        coloring = [rng.randrange(colors) for _ in range(n)]
        classes = {}
        for i, c in enumerate(coloring):
            classes.setdefault(c, []).append(i)
        sparse += any(len(m) >= k and len(m) ** 2 < m[-1] - m[0] for m in classes.values())
        answer = not _has_mono_ap(coloring, k)
        assert verify_vdw_claim(n, colors, k, "false", coloring) == answer
        answers.add(answer)
    assert sparse > 100 and answers == {False, True}


def test_verify_vdw_claim_is_fast_on_long_colorings():
    rng = random.Random(3)
    coloring = [0, 0, 0] + [rng.randrange(2) for _ in range(1997)]
    start = time.perf_counter()
    assert verify_vdw_claim(2000, 2, 3, "false", coloring) is False
    assert time.perf_counter() - start < 0.1


def test_verify_vdw_claim_is_fast_on_sparse_classes():
    # 3-member classes {j, j + n/4, j + 3n/4} and singletons on the third
    # quarter: no class holds a 3-term progression, and each class's steps
    # come from its 3 differences, not from every step up to its span
    n = 4800
    q = n // 4
    coloring = [i % q if i < 2 * q or i >= 3 * q else q + i - 2 * q for i in range(n)]
    start = time.perf_counter()
    assert verify_vdw_claim(n, 2 * q, 3, "false", coloring) is True
    assert time.perf_counter() - start < 0.2
    coloring[q // 2] = coloring[q // 2 + q] = coloring[q // 2 + 2 * q] = 0
    assert verify_vdw_claim(n, 2 * q, 3, "false", coloring) is False


def test_vdw_monotone_in_n():
    # once true, longer windows stay true
    prev = False
    for n in range(1, 12):
        verdict = vdw_check(n, 2, 3).verdict == "true"
        assert not (prev and not verdict), n
        prev = verdict


def test_vdw_budget_unknown():
    res = vdw_check(40, 3, 3, budget=10)
    assert res.verdict == "unknown"
    assert res.explored >= 10


def test_vdw_budget_env(monkeypatch):
    monkeypatch.setenv("APLIFT_BUDGET", "7")
    res = vdw_check(40, 3, 3)
    assert res.verdict == "unknown" and res.budget == 7


@pytest.mark.parametrize("budget", [0, -5])
def test_vdw_budget_below_one_raises(budget):
    with pytest.raises(ValueError, match="must be >= 1"):
        vdw_check(5, 2, 3, budget=budget)


def test_vdw_input_validation():
    with pytest.raises(ValueError):
        vdw_check(0, 2, 3)
    with pytest.raises(ValueError):
        vdw_check(5, 2, 0)


def test_vdw_single_color():
    # one color: the only coloring is monochromatic everywhere
    assert vdw_check(5, 1, 3).verdict == "true"
    res = vdw_check(2, 1, 3)
    assert res.verdict == "false" and res.coloring == (0, 0)
