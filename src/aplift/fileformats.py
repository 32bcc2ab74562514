"""Plain-text exchange formats for sets, families and chains.

Set files come in two forms:

  * element list: positive integers separated by any whitespace, newlines
    included; the window is taken to be [1, max element]. The text is parsed
    in pieces cut at whitespace, each going straight into the bitmap, so no
    list of all the members is built;
  * bitmap: a header line ``window LO HI`` followed by one 0/1 string of
    length HI - LO + 1 (leftmost character = LO).

Reading either form costs about two bytes per window position beside the
text, however many members the set has.

Family files: header ``family M T`` followed by M rows of T positive ints;
``family2d M T`` followed by 2M rows, alternating first/second table of each
pair. Chain files: header ``chain K KIND`` followed by K bitmap set blocks.

Writers emit the bitmap form for sets and the canonical form for the rest;
reading back what was written reproduces the value bit-exactly.
"""

from __future__ import annotations

import itertools
import re
from typing import TYPE_CHECKING, Iterator

from ._bitops import from_indices
from .sets import MAX_BITS, IntSet, Window

if TYPE_CHECKING:
    from .jsets import FuncFamily, FuncFamily2D
    from .towers import Chain

# Python's limit on int() of a decimal string, as dsl.MAX_DIGITS
_MAX_DIGITS = 4300
_DROP_BITS = str.maketrans("", "", "01")
# The longest bad token an error message quotes in full
_ECHO = 40
# An element list is parsed in pieces of about this many characters, each
# cut at whitespace: \s is str.isspace, the test str.split uses
_PIECE = 8192
_SPACE = re.compile(r"\s")
_BITMAP_HEAD = re.compile(r"\s*window(?!\S)")


def _bitstring(bits: int, width: int) -> str:
    return bin(bits)[2:].zfill(width)[::-1]


def _parse_bitstring(s: str, width: int, what: str) -> int:
    if len(s) != width:
        raise ValueError(f"{what}: expected {width} bits, got {len(s)}")
    # int(..., 2) alone would also take "_", "+", "-", "0b" and whitespace
    stray = s.translate(_DROP_BITS)
    if stray:
        raise ValueError(f"{what}: invalid character {stray[0]!r}")
    return int(s[::-1], 2)


def _int_fields(parts: list[str], what: str) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            digits = (p[1:] if p[0] in "+-" else p).replace("_", "")
            if len(digits) > _MAX_DIGITS and digits.isdecimal():  # int() refuses it, echo none
                raise ValueError(f"{what}: an integer has more than {_MAX_DIGITS} digits")
            shown = repr(p) if len(p) <= _ECHO else f"{p[:_ECHO]!r}... ({len(p)} characters)"
            raise ValueError(f"{what}: not an integer: {shown}")
    return out


def _table_row(line: str, T: int, what: str) -> tuple[int, ...]:
    vals = _int_fields(line.split(), what)
    if len(vals) != T:
        raise ValueError(f"table row has {len(vals)} values, expected {T}")
    return tuple(vals)


def _header(text: str, what: str, usage: str, shape: str) -> tuple[list[str], list[str]]:
    """Fields after the keyword and the body lines; usage is e.g. ``family M T``."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    pattern = usage.split()
    if not lines or lines[0].split()[:1] != pattern[:1]:
        raise ValueError(f"{what} file must start with: {usage}")
    head = lines[0].split()
    if len(head) != len(pattern):
        raise ValueError(shape)
    return head[1:], lines[1:]


def write_intset(A: IntSet) -> str:
    w = A.window
    return f"window {w.lo} {w.hi}\n{_bitstring(A.bits, w.width)}\n"


def _element_pieces(text: str) -> Iterator[list[int]]:
    """The members of an element list, one list per piece of the text.

    Once a member is below 1 or past MAX_BITS no more are yielded, but the
    rest is still parsed, so the errors come in the order a whole-text parse
    gives: the first non-integer in the file, then a non-positive member,
    then the window's width.
    """
    low = top = None
    start, end = 0, len(text)
    while start < end:
        cut = _SPACE.search(text, start + _PIECE)
        stop = cut.start() if cut else end
        tokens = text[start:stop].split()
        start = stop
        if not tokens:
            continue
        try:
            xs = list(map(int, tokens))
        except ValueError:
            xs = _int_fields(tokens, "set elements")
        if low is None:
            low = top = xs[0]
        low, top = min(low, min(xs)), max(top, max(xs))
        if low >= 1 and top <= MAX_BITS:
            yield xs
    if low is None:
        raise ValueError("empty set file")
    if low < 1:
        raise ValueError("set elements must be positive")
    Window(1, top)  # refuses a window wider than MAX_BITS


def read_intset(text: str) -> IntSet:
    if _BITMAP_HEAD.match(text):
        tokens = text.split()
        if len(tokens) != 4:
            raise ValueError("bitmap set file needs: window LO HI and one bit row")
        lo, hi = _int_fields(tokens[1:3], "set window")
        w = Window(lo, hi)
        return IntSet(w, _parse_bitstring(tokens[3], w.width, "set bits"))
    bits = from_indices(itertools.chain.from_iterable(_element_pieces(text)))
    return IntSet(Window(1, bits.bit_length() - 1), bits >> 1)


def write_family(F: FuncFamily) -> str:
    lines = [f"family {F.size} {F.horizon}"]
    lines.extend(" ".join(str(v) for v in tab) for tab in F.tables)
    return "\n".join(lines) + "\n"


def read_family(text: str) -> FuncFamily:
    from .jsets import FuncFamily
    fields, rows = _header(text, "family", "family M T", "family header needs M and T")
    m, T = _int_fields(fields, "family header")
    if len(rows) != m:
        raise ValueError(f"expected {m} table rows, got {len(rows)}")
    return FuncFamily(tuple(_table_row(ln, T, "family table") for ln in rows))


def write_family2d(F: FuncFamily2D) -> str:
    lines = [f"family2d {F.size} {F.horizon}"]
    for first, second in F.pairs:
        lines.append(" ".join(str(v) for v in first))
        lines.append(" ".join(str(v) for v in second))
    return "\n".join(lines) + "\n"


def read_family2d(text: str) -> FuncFamily2D:
    from .jsets import FuncFamily2D
    fields, rows = _header(text, "family", "family2d M T", "family2d header needs M and T")
    m, T = _int_fields(fields, "family2d header")
    if len(rows) != 2 * m:
        raise ValueError(f"expected {2 * m} table rows, got {len(rows)}")
    tables = [_table_row(ln, T, "family2d table") for ln in rows]
    return FuncFamily2D(tuple(zip(tables[::2], tables[1::2])))


def write_chain(chain: Chain) -> str:
    parts = [f"chain {chain.depth} {chain.kind}\n"]
    parts.extend(write_intset(level) for level in chain.levels)
    return "".join(parts)


def read_chain(text: str) -> Chain:
    from .towers import Chain
    fields, lines = _header(text, "chain", "chain K KIND", "chain header needs a depth and a kind")
    (k,) = _int_fields(fields[:1], "chain depth")
    kind = fields[1]
    if len(lines) != 2 * k:
        raise ValueError(f"expected {2 * k} block lines for {k} levels")
    levels = []
    for i in range(k):
        block = "\n".join(lines[2 * i : 2 * i + 2])
        levels.append(read_intset(block))
    return Chain(tuple(levels), kind)
