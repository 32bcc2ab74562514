"""Reference answers for the benchmark, written from the documented semantics.

Nothing here imports ``aplift``: every expectation the benchmark checks an op
against comes from this module, so a fault in the package cannot hide behind
itself. Sets are int bitmaps over a window ``[lo, hi]`` (bit i <-> lo + i),
built through bytearrays and base-2 conversion so that every step is linear
in the window width.

Expression trees are tuples:

    ("ap", a, d)  ("interval", x, y)  ("multiples", k)  ("ipset", (g, ...))
    ("thick", ((lo, hi), ...))  ("bernoulli", "p", seed)  ("shift", e, c)
    ("union", (e, ...))  ("intersect", (e, ...))  ("complement", e)

``p`` is kept as its canonical decimal text; the benchmark only uses dyadic
probabilities, whose float value is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# van der Waerden numbers W(k; c) for the (colours, length) pairs the
# benchmark decides: every c-colouring of [1, n] has a monochromatic k-term
# progression iff n >= W(k; c).
VDW_NUMBERS = {(2, 3): 9, (2, 4): 35, (3, 3): 27}
EXHAUSTIVE_LIMIT = 1 << 20  # documented strategy switch of the coloring check


# --- set expressions ---------------------------------------------------------


def render(tree) -> str:
    """Canonical DSL text of a tree, the form certificates record."""
    kind = tree[0]
    if kind == "ap":
        return f"ap({tree[1]}, {tree[2]})"
    if kind == "interval":
        return f"interval({tree[1]}, {tree[2]})"
    if kind == "multiples":
        return f"multiples({tree[1]})"
    if kind == "ipset":
        return f"ipset({', '.join(str(g) for g in tree[1])})"
    if kind == "thick":
        return f"thick({', '.join(f'{lo}:{hi}' for lo, hi in tree[1])})"
    if kind == "bernoulli":
        return f"bernoulli({tree[1]}, {tree[2]})"
    if kind == "shift":
        return f"shift({render(tree[1])}, {tree[2]})"
    if kind in ("union", "intersect"):
        return f"{kind}({', '.join(render(c) for c in tree[1])})"
    if kind == "complement":
        return f"complement({render(tree[1])})"
    raise ValueError(f"unknown tree {tree!r}")


def _flags_bits(flags: bytearray) -> int:
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


def _mix64(z: int) -> int:
    # splitmix64 output stage
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def evaluate(tree, lo: int, hi: int) -> int:
    """Bitmap of the expression clipped to [lo, hi]."""
    width = hi - lo + 1
    kind = tree[0]
    if kind in ("ap", "multiples"):
        a, d = (tree[1], tree[2]) if kind == "ap" else (tree[1], tree[1])
        flags = bytearray(width)
        if a <= hi:
            start = a if a >= lo else a + -(-(lo - a) // d) * d
            count = len(range(start - lo, width, d))
            flags[start - lo :: d] = b"\x01" * count
        return _flags_bits(flags)
    if kind in ("interval", "thick"):
        blocks = [(tree[1], tree[2])] if kind == "interval" else tree[1]
        flags = bytearray(width)
        for blo, bhi in blocks:
            s, e = max(blo, lo), min(bhi, hi)
            if s <= e:
                flags[s - lo : e - lo + 1] = b"\x01" * (e - s + 1)
        return _flags_bits(flags)
    if kind == "ipset":
        sums = {0}
        for g in tree[1]:
            sums |= {s + g for s in sums if s + g <= hi}
        flags = bytearray(width)
        for s in sums:
            if s >= lo:
                flags[s - lo] = 1
        return _flags_bits(flags)
    if kind == "bernoulli":
        threshold = int(Fraction(float(tree[1])) * (1 << 64))
        seed = tree[2]
        flags = bytearray(
            _mix64((seed + x * _GOLDEN64) & _MASK64) < threshold for x in range(lo, hi + 1)
        )
        return _flags_bits(flags)
    if kind == "shift":
        c = tree[2]
        if hi - c < 1:
            return 0
        inner_lo = max(1, lo - c)
        inner = evaluate(tree[1], inner_lo, hi - c)
        return (inner << (inner_lo + c - lo)) & ((1 << width) - 1)
    if kind == "union":
        bits = 0
        for child in tree[1]:
            bits |= evaluate(child, lo, hi)
        return bits
    if kind == "intersect":
        bits = (1 << width) - 1
        for child in tree[1]:
            bits &= evaluate(child, lo, hi)
        return bits
    if kind == "complement":
        return evaluate(tree[1], lo, hi) ^ ((1 << width) - 1)
    raise ValueError(f"unknown tree {tree!r}")


# --- text forms ----------------------------------------------------------------


def bitstring(bits: int, width: int) -> str:
    """Character i is '1' iff bit i is set (leftmost character = lo)."""
    return bin(bits)[2:].zfill(width)[::-1]


def set_text(bits: int, lo: int, hi: int) -> str:
    """Canonical bitmap form of a set file."""
    return f"window {lo} {hi}\n{bitstring(bits, hi - lo + 1)}\n"


def elements_text(bits: int, lo: int) -> str:
    s = bin(bits)[2:][::-1]
    return " ".join(str(lo + i) for i, ch in enumerate(s) if ch == "1") + "\n"


def family_text(tables) -> str:
    lines = [f"family {len(tables)} {len(tables[0])}"]
    lines.extend(" ".join(str(v) for v in tab) for tab in tables)
    return "\n".join(lines) + "\n"


def family2d_text(pairs) -> str:
    lines = [f"family2d {len(pairs)} {len(pairs[0][0])}"]
    for first, second in pairs:
        lines.append(" ".join(str(v) for v in first))
        lines.append(" ".join(str(v) for v in second))
    return "\n".join(lines) + "\n"


def chain_text(levels: list[int], lo: int, hi: int, kind: str) -> str:
    return f"chain {len(levels)} {kind}\n" + "".join(set_text(b, lo, hi) for b in levels)


# --- one-dimensional searches ----------------------------------------------------


def run_starts(bits: int, n: int) -> int:
    """Positions where n consecutive set bits begin."""
    acc = bits
    for t in range(1, n):
        acc &= bits >> t
    return acc


def pws_start(bits: int, lo: int, hi: int, r: int, L: int) -> Optional[int]:
    """Least start of a length-L interval on which the set is r-syndetic."""
    width = hi - lo + 1
    if L > width:
        return None
    if r > L:
        return lo
    misses = ~bits & ((1 << width) - 1)
    bad = bitstring(run_starts(misses, r), width)
    # start i is forbidden iff a fully missing r-block starts in [i, i + L - r]
    cur = 0
    pos = bad.find("1")
    while pos != -1 and pos - (L - r) <= cur:
        cur = max(cur, pos + 1)
        pos = bad.find("1", pos + 1)
    return lo + cur if cur <= width - L else None


def ap_witness(bits: int, lo: int, hi: int, l: int) -> Optional[tuple[int, int]]:
    """Least (d, a) progression a, a+d, ..., a+l*d inside the set, as (a, d)."""
    for d in range(1, (hi - lo) // l + 1):
        m = bits
        for j in range(1, l + 1):
            m &= bits >> (j * d)
            if not m:
                break
        if m:
            return lo + (m & -m).bit_length() - 1, d
    return None


# --- the pair lift ---------------------------------------------------------------


def lift_rows(bits: int, lo: int, l: int, box) -> list[int]:
    """Row j: bitmap over a in [a_lo, a_hi] of a, a+d, ..., a+l*d in the set,
    d = d_lo + j. The caller keeps a_lo >= lo."""
    a_lo, a_hi, d_lo, d_hi = box
    amask = (1 << (a_hi - a_lo + 1)) - 1
    rows = []
    for d in range(d_lo, d_hi + 1):
        m = bits
        for j in range(1, l + 1):
            m &= bits >> (j * d)
        rows.append((m >> (a_lo - lo)) & amask)
    return rows


def pws2d_origin(rows: list[int], box, r1: int, r2: int, L1: int, L2: int):
    """Least (d0, a0), d0 first, of an L1 x L2 sub-box on which every r1 x r2
    block meets the pair set. Returned as (a0, d0), or None."""
    a_lo, a_hi, d_lo, _ = box
    aw = a_hi - a_lo + 1
    if r1 > L1 or r2 > L2:
        return a_lo, d_lo
    amask = (1 << aw) - 1
    hmiss = [run_starts(~row & amask, r1) for row in rows]
    block = []  # block[j]: a-offsets where an all-missing r1 x r2 block starts
    for j in range(len(rows) - r2 + 1):
        acc = hmiss[j]
        for t in range(1, r2):
            acc &= hmiss[j + t]
        block.append(acc)
    for j0 in range(len(rows) - L2 + 1):
        bad = 0
        for j in range(j0, j0 + L2 - r2 + 1):
            bad |= block[j]
        start = pws_start(~bad & amask, 0, aw - 1, 1, L1 - r1 + 1)
        if start is not None and start <= aw - L1:
            return a_lo + start, d_lo + j0
    return None


# --- chains ----------------------------------------------------------------------


def translate_table(levels: list[int], lo: int, hi: int, x_max: int) -> list[list]:
    """[level, x, least absorbing level or None] for each probed member."""
    out = []
    width = min(x_max, hi) - lo + 1
    for n, level in enumerate(levels, start=1):
        for i, ch in enumerate(bitstring(level & ((1 << width) - 1), width)):
            if ch != "1":
                continue
            x = lo + i
            found = None
            top = hi - x
            for m in range(n, len(levels) + 1):
                if top < lo:
                    found = m
                    break
                tmask = (1 << (top - lo + 1)) - 1
                if levels[m - 1] & tmask & ~(level >> x) == 0:
                    found = m
                    break
            out.append([n, x, found])
    return out


def probe_level(levels: list[int], lo: int, hi: int, n: int, a: int, b: int, l: int):
    """Least N >= n whose truncated level lies in every -(a + i*b) + C_n."""
    top = hi - (a + l * b)
    if top < lo:
        return n
    tmask = (1 << (top - lo + 1)) - 1
    acc = -1
    for i in range(l + 1):
        acc &= levels[n - 1] >> (a + i * b)
    for N in range(n, len(levels) + 1):
        if levels[N - 1] & tmask & ~acc == 0:
            return N
    return None


# --- sum witnesses ---------------------------------------------------------------


def combination_rank(H: tuple[int, ...], T: int) -> int:
    """Position of H among the |H|-subsets of [1, T] in lexicographic order."""
    k = len(H)
    rank, prev = 0, 0
    for i, c in enumerate(H):
        for v in range(prev + 1, c):
            rank += comb(T - v, k - i - 1)
        prev = c
    return rank


def jset_multiples(q: int, hi: int, tables, a_max: int):
    """First (a, H) in (|H|, lex H, a) order with a + sum_H f in multiples(q)
    on [1, hi] for every table f, plus the number of subsets tried.

    Works on residues mod q by dynamic programming, so it costs
    O(T^2 * q^M) whatever the answer. Returns (a, H, subsets) or
    (None, None, 2^T - 1).
    """
    T = len(tables[0])
    if a_max + max(sum(tab) for tab in tables) > hi:
        raise ValueError("window too short for the residue oracle")
    M = len(tables)
    vec = [tuple(tab[t] % q for tab in tables) for t in range(T)]

    def add(u, v):
        return tuple((x + y) % q for x, y in zip(u, v))

    def sub(u, v):
        return tuple((x - y) % q for x, y in zip(u, v))

    def base(s: int) -> int:
        return (-s) % q or q

    goals = [(s,) * M for s in range(q) if base(s) <= a_max]
    zero = (0,) * M
    # reach[t][k]: residue sums of exactly k positions taken from t..T-1
    reach = [[set() for _ in range(T + 1)] for _ in range(T + 1)]
    for t in range(T + 1):
        reach[t][0].add(zero)
    for t in range(T - 1, -1, -1):
        for k in range(1, T - t + 1):
            reach[t][k] = reach[t + 1][k] | {add(v, vec[t]) for v in reach[t + 1][k - 1]}
    tried = 0
    for k in range(1, T + 1):
        if not any(g in reach[0][k] for g in goals):
            tried += comb(T, k)
            continue
        cur, H, start = zero, [], 0
        for slot in range(k):
            rest = k - slot - 1
            for t in range(start, T - rest):
                nxt = add(cur, vec[t])
                if any(sub(g, nxt) in reach[t + 1][rest] for g in goals):
                    cur, start = nxt, t + 1
                    H.append(t + 1)
                    break
        H = tuple(H)
        return base(cur[0]), H, tried + combination_rank(H, T) + 1
    return None, None, (1 << T) - 1


def transfer_tables(pairs, b: int, l: int) -> list[tuple[int, ...]]:
    """Derived tables t -> g1(t) + j*(b + g2(t)), pair outer, j in [0, l] inner."""
    return [
        tuple(g1 + j * (b + g2) for g1, g2 in zip(first, second))
        for first, second in pairs
        for j in range(l + 1)
    ]


# --- colourings ------------------------------------------------------------------


def vdw_strategy(n: int, colors: int) -> str:
    return "exhaustive" if colors**n <= EXHAUSTIVE_LIMIT else "backtracking"


def has_mono_ap(coloring, k: int) -> bool:
    n = len(coloring)
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(n - (k - 1) * d):
            if len({coloring[a + j * d] for j in range(k)}) == 1:
                return True
    return False


def first_good_coloring(n: int, colors: int, k: int) -> Optional[list[int]]:
    """Lexicographically least colouring of [1, n] (position 1 most
    significant, colour 0 first) without a monochromatic k-term progression."""
    col: list[int] = []

    def closes_mono(c: int) -> bool:
        i = len(col)  # 0-based index of the position being coloured
        for d in range(1, i // (k - 1) + 1):
            if all(col[i - j * d] == c for j in range(1, k)):
                return True
        return False

    nxt = 0
    while True:
        if len(col) == n:
            return col
        if nxt >= colors:
            if not col:
                return None
            nxt = col.pop() + 1
            continue
        if closes_mono(nxt):
            nxt += 1
        else:
            col.append(nxt)
            nxt = 0


def vdw_expectation(n: int, colors: int, k: int) -> tuple[str, Optional[list[int]]]:
    """(verdict, counterexample) from the known numbers W(k; c)."""
    if n >= VDW_NUMBERS[(colors, k)]:
        return "true", None
    coloring = first_good_coloring(n, colors, k)
    if coloring is None or has_mono_ap(coloring, k):
        raise RuntimeError(f"oracle found no counterexample below W for {(n, colors, k)}")
    return "false", coloring
