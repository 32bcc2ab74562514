"""Text serialization round-trips for sets, families, and chains."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aplift import fileformats
from aplift.fileformats import (
    read_chain,
    read_family,
    read_family2d,
    read_intset,
    write_chain,
    write_family,
    write_family2d,
    write_intset,
)
from aplift.jsets import FuncFamily, FuncFamily2D
from aplift.sets import Bernoulli, IntSet, Multiples, Window, evaluate
from aplift.towers import KIND_C_SET, KIND_QUASI_CENTRAL, Chain


def test_intset_bitmap_roundtrip():
    A = evaluate(Bernoulli(0.4, 19), Window(3, 130))
    text = write_intset(A)
    B = read_intset(text)
    assert B.window == A.window and B.bits == A.bits
    assert read_intset("\u3000\n " + text) == B  # the header is found after any whitespace


def test_intset_elements_roundtrip():
    B = read_intset("2 3 5 7\n11 13\n")
    assert list(B.members()) == [2, 3, 5, 7, 11, 13]
    # elements form normalizes the window to [1, max]
    assert B.window == Window(1, 13)


def test_intset_empty():
    A = IntSet(Window(1, 9), 0)
    B = read_intset(write_intset(A))
    assert B.bits == 0 and B.window == A.window


def test_intset_bad_input():
    with pytest.raises(ValueError):
        read_intset("")
    with pytest.raises(ValueError):
        read_intset("window 5 2\n0\n")
    with pytest.raises(ValueError):
        read_intset("window 1 4\n10\n")  # bitmap row wrong width
    with pytest.raises(ValueError, match="must be positive"):
        read_intset("0 3 5\n")
    with pytest.raises(ValueError, match="set elements: not an integer: 'x'"):
        read_intset("3 x 5\n")
    with pytest.raises(ValueError, match="set elements: not an integer: 'windowx'"):
        read_intset("windowx 1 2\n11\n")


def _read_elements_whole(text):
    """The element-list reader that splits the whole text at once: the
    oracle for the reader that parses it in pieces."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty set file")
    try:
        xs = list(map(int, tokens))
    except ValueError:
        xs = fileformats._int_fields(tokens, "set elements")
    if min(xs) < 1:
        raise ValueError("set elements must be positive")
    w = Window(1, max(xs))
    return IntSet.from_members(w, xs)


_SPACES = st.sampled_from([" ", "\n", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x85",
                           "\xa0", "\u2003", "\u2028", "\u3000", "  \n\t"])
_TOKENS = st.one_of(
    st.integers(1, 300).map(str),
    st.integers(1, 300).map(lambda n: f"+{n:04d}"),  # sign and leading zeros
    st.integers(10, 300).map(lambda n: f"{str(n)[0]}_{str(n)[1:]}"),  # 1_23
    st.sampled_from(["0", "-0", "-7", "+0", "00"]),
    st.sampled_from(["x", "1.5", "0x1f", "_1", "1__0", "\u0663", "\u0661\u0660", "\u00b2"]),
    st.integers((1 << 27) + 1, 1 << 40).map(str),
    st.integers(1, 3).map(lambda n: str(n) * 4301),
    st.integers(0, 1).map(lambda n: "x" * (41 + n)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TOKENS, _SPACES), max_size=12), _SPACES, st.integers(1, 12))
def test_element_pieces_match_whole_text(pairs, lead, piece):
    # pieces of a few characters cut most tokens; each cut must move to the next whitespace
    text = lead + "".join(tok + space for tok, space in pairs)
    try:
        expect = _read_elements_whole(text)
    except ValueError as exc:
        expect = str(exc)
    with mock.patch.object(fileformats, "_PIECE", piece):
        try:
            got = read_intset(text)
        except ValueError as exc:
            got = str(exc)
    assert got == expect


@pytest.mark.parametrize("lo", [1, 40])
@pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129])
def test_intset_bitmap_roundtrip_widths(lo, width):
    w = Window(lo, lo + width - 1)
    top = 1 << (width - 1)
    for bits in (0, 1, top, top | 1, w.mask, evaluate(Bernoulli(0.5, width), w).bits):
        A = IntSet(w, bits)
        text = write_intset(A)
        row = text.splitlines()[1]
        assert row == "".join("1" if (bits >> i) & 1 else "0" for i in range(width))
        assert read_intset(text) == A


@pytest.mark.parametrize("row", ["1_0", "+10", "-10", "b10", "0b1", "10x1", "1\u0661\u00b2", "01\u0660"])
def test_bitmap_row_rejects_stray_characters(row):
    # int(..., 2) takes the Arabic-Indic digits U+0660 and U+0661 too; the first stray is named
    stray = next(c for c in row if c not in "01")
    with pytest.raises(ValueError, match=re.escape(f"invalid character {stray!r}")):
        read_intset(f"window 1 {len(row)}\n{row}\n")


def test_family_header_keyword_exact():
    with pytest.raises(ValueError, match="must start with: family"):
        read_family("familyx 1 2\n1 2\n")


def test_family_roundtrip():
    F = FuncFamily(((1, 2, 3), (4, 5, 6)))
    G = read_family(write_family(F))
    assert G.tables == F.tables


def test_family2d_roundtrip():
    F = FuncFamily2D((((1, 2), (3, 4)), ((2, 2), (5, 1))))
    G = read_family2d(write_family2d(F))
    assert G.pairs == F.pairs


def test_family_bad_header():
    with pytest.raises(ValueError):
        read_family("family 2 3\n1 2 3\n")  # promised two rows
    with pytest.raises(ValueError):
        read_family("family2d 1 2\n1 2\n3 4\n")  # wrong reader


def test_chain_roundtrip():
    w = Window(1, 64)
    chain = Chain(
        tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2, 3)),
        KIND_QUASI_CENTRAL,
    )
    back = read_chain(write_chain(chain))
    assert back.kind == chain.kind
    assert back.window == chain.window
    assert [lvl.bits for lvl in back.levels] == [lvl.bits for lvl in chain.levels]


def test_chain_kind_preserved():
    w = Window(1, 32)
    chain = Chain((evaluate(Multiples(3), w),), KIND_C_SET)
    assert read_chain(write_chain(chain)).kind == KIND_C_SET


def test_chain_rejects_nondecreasing_text():
    w = Window(1, 16)
    a = write_intset(evaluate(Multiples(4), w)).strip().splitlines()
    b = write_intset(evaluate(Multiples(2), w)).strip().splitlines()
    text = "chain 2 quasi-central-candidate\n" + "\n".join(a + b) + "\n"
    with pytest.raises(ValueError):
        read_chain(text)  # level 2 is not a subset of level 1
