"""Bit kernels, one implementation per bitmap idea.

Bitmaps are plain nonnegative ints. Bit order contract: bit i of a bitmap on
a window [lo, hi] holds lo + i, so bit 0 is the window's lowest position.
Kernels: lsb_index, iter_bit_indices, from_indices (build), run_starts,
smear_right, longest_run (runs), ap_starts (progression mask), hex_head
(repr), subset_sums_by_count (sums of k of the given values) and
differences (differences of two set bits), each of the last two with a
``_cost`` twin giving its cost in bits touched. Bitstring text conversion
lives in ``fileformats``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def lsb_index(bits: int) -> int:
    """Index of the lowest set bit. Caller guarantees bits != 0."""
    return (bits & -bits).bit_length() - 1


def iter_bit_indices(bits: int) -> Iterator[int]:
    """Yield indices of set bits in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def from_indices(indices: Iterable[int], width: int = 0) -> int:
    """Bitmap with bit i set for each i >= 0 in indices.

    One ASCII digit buffer, bit i at buf[~i], parsed once: linear in the
    width, not O(W^2/64). A caller that does not know the width gives none:
    an index past the buffer grows it at its front, up to that index or by
    a quarter, whichever is more. That is O(W) in all, with at most W/2
    digits beside the buffer at a time.
    """
    buf = bytearray(b"0") * width
    for i in indices:
        try:
            buf[~i] = 49  # ord("1")
        except IndexError:
            grow = max(i + 1 - len(buf), len(buf) >> 2)
            if grow > len(buf):  # copying the buffer costs less than the new digits
                buf = buf.zfill(len(buf) + grow)
            else:  # a bytes value would be copied into a bytearray first
                buf[:0] = bytearray(b"0") * grow
            buf[~i] = 49
    return int(buf or b"0", 2)


def hex_head(bits: int) -> str:
    """Leading 16 hex digits; hex has no limit, unlike int-to-decimal on 3.11+."""
    cut = max(0, (bits.bit_length() + 3) // 4 - 16)
    return hex(bits >> 4 * cut) + ("..." if cut else "")


def run_starts(bits: int, n: int) -> int:
    """Bitmap of the positions where a run of n consecutive set bits begins."""
    if n < 1:
        raise ValueError("run length must be >= 1")
    return ap_starts(bits, 1, n - 1)


def smear_right(bits: int, n: int) -> int:
    """OR of bits >> j for all j in [0, n]."""
    covered = 0
    v = bits
    while covered < n:
        step = min(covered + 1, n - covered)
        v |= v >> step
        covered += step
    return v


def longest_run(bits: int) -> int:
    """Length of the longest run of consecutive set bits.

    Doubling builds masks[k], the starts of runs of at least 2^k set bits,
    until one is empty; greedy refinement then adds 2^k for each k downward
    while some start still has that much more run. O(log L) big-int ops.
    """
    if not bits:
        return 0
    masks = [bits]
    while m := masks[-1] & (masks[-1] >> (1 << (len(masks) - 1))):
        masks.append(m)
    starts = masks.pop()
    n = 1 << len(masks)
    for k in reversed(range(len(masks))):
        longer = starts & (masks[k] >> n)
        if longer:
            starts, n = longer, n + (1 << k)
    return n


def ap_starts(bits: int, d: int, l: int) -> int:
    """Bitmap of the positions i with bits i, i+d, ..., i+l*d all set.

    Shift-and-intersect doubling: once m covers k terms, m & (m >> k*d)
    covers 2k, so cost grows with log(l) big-int ops.
    """
    m, have = bits, 1
    while have <= l and m:
        step = min(have, l + 1 - have)
        m &= m >> (step * d)
        have += step
    return m


# The fixed interpreter cost of one big-int op, in bits touched: an op on b
# bits takes about as long as touching b + OP_BITS bits (CPython 3.11 on
# x86-64: about 150 ns plus 4 ns per 64-bit word).
OP_BITS = 1 << 11


def subset_sums_by_count(values: Iterable[int], width: int) -> list[int]:
    """reach[k] has bit s set when some k of the values (nonnegative, one use
    each) sum to s, for s < width and k = 0 .. len(values).

    Shift-or dynamic programming: each value v adds reach[k-1] << v to
    reach[k]; ``subset_sums_cost`` gives its cost.
    """
    mask = (1 << width) - 1
    reach = [1 & mask]
    for v in values:
        reach.append(0)
        for k in range(len(reach) - 1, 0, -1):
            reach[k] |= (reach[k - 1] << v) & mask
    return reach


def subset_sums_cost(count: int, width: int) -> int:
    """Cost of ``subset_sums_by_count`` for count values, in bits touched
    with ``OP_BITS`` per op: one width-bit shift-or per (value, k) pair."""
    return count * (count + 1) // 2 * (width + OP_BITS)


def differences(bits: int, width: int) -> int:
    """Bitmap with bit x set when bits i and i + x are both set, for x < width.

    One shifted copy per set bit, or one shift-and-intersect per candidate x,
    whichever is fewer (``differences_cost``).
    """
    mask = (1 << width) - 1
    if bits.bit_count() <= width:
        out = 0
        for i in iter_bit_indices(bits):
            out |= (bits >> i) & mask
        return out
    return from_indices((x for x in range(width) if bits & (bits >> x)), width)


def differences_cost(bits: int, width: int) -> int:
    """Cost of ``differences``, in bits touched with ``OP_BITS`` per op: one
    shift of bits per set bit or per candidate x, whichever is fewer."""
    return min(bits.bit_count(), width) * (bits.bit_length() + OP_BITS)
