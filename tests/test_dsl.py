"""Set expression parser and canonical printer."""

import random

import pytest

from aplift.dsl import DslError, parse_dsl, print_expr
from aplift.sets import (
    Ap,
    Bernoulli,
    Complement,
    Intersect,
    Interval,
    IpSet,
    Multiples,
    Shift,
    ThickBlocks,
    Union,
    Window,
    evaluate,
)


def test_parse_simple_forms():
    assert parse_dsl("multiples(4)").expr == Multiples(4)
    assert parse_dsl("ap(3, 5)").expr == Ap(3, 5)
    assert parse_dsl("interval(2, 9)").expr == Interval(2, 9)
    assert parse_dsl("ipset(2, 5, 11)").expr == IpSet((2, 5, 11))
    assert parse_dsl("thick(1:3, 10:14)").expr == ThickBlocks(((1, 3), (10, 14)))
    assert parse_dsl("bernoulli(0.25, 7)").expr == Bernoulli(0.25, 7)
    assert parse_dsl("shift(multiples(3), 2)").expr == Shift(Multiples(3), 2)
    # seed and shift amount may be 0; every other integer must be >= 1
    assert parse_dsl("bernoulli(0.25, 0)").expr == Bernoulli(0.25, 0)
    assert parse_dsl("shift(multiples(3), 0)").expr == Shift(Multiples(3), 0)
    # a decimal digit of any script is one that int() reads
    assert parse_dsl("multiples(\u0663)").expr == Multiples(3)


def test_parse_nested():
    got = parse_dsl("union(multiples(6), complement(intersect(ap(1, 2), interval(1, 9))))")
    assert got.expr == Union((
        Multiples(6),
        Complement(Intersect((Ap(1, 2), Interval(1, 9)))),
    ))


def test_parse_whitespace_insensitive():
    a = parse_dsl("union( multiples(2),ap(3,4) )").expr
    b = parse_dsl("union(multiples(2), ap(3, 4))").expr
    assert a == b


# one malformed input per error path, with the message, line and column
PARSE_ERRORS = [
    ("ap(3)", "ap expects 2 arguments", 1, 1),
    ("ap(3, 4, 5)", "ap expects 2 arguments", 1, 1),
    ("interval(2)", "interval expects 2 arguments", 1, 1),
    ("interval(2, 4, 6)", "interval expects 2 arguments", 1, 1),
    ("multiples()", "expected 'number', got ')'", 1, 11),
    ("multiples(2, 3)", "multiples expects 1 argument", 1, 1),
    ("bernoulli(0.5)", "bernoulli expects 2 arguments", 1, 1),
    ("bernoulli(0.5, 1, 2)", "bernoulli expects 2 arguments", 1, 1),
    ("shift(multiples(2))", "shift expects 2 arguments", 1, 1),
    ("shift(multiples(2), 1, 2)", "shift expects 2 arguments", 1, 1),
    ("complement()", "expected 'name', got ')'", 1, 12),
    ("complement(multiples(2), multiples(3))", "complement expects 1 argument", 1, 1),
    ("ap(1.5, 2)", "start must be an integer, got '1.5'", 1, 4),
    ("ipset(2, 0.5)", "generator must be an integer, got '0.5'", 1, 10),
    ("ap(0, 2)", "start must be >= 1, got 0", 1, 4),
    ("ap(1, 0)", "step must be >= 1, got 0", 1, 7),
    ("interval(0, 3)", "interval lo must be >= 1, got 0", 1, 10),
    ("interval(1, 0)", "interval hi must be >= 1, got 0", 1, 13),
    ("multiples(0)", "modulus must be >= 1, got 0", 1, 11),
    ("ipset(3, 0)", "generator must be >= 1, got 0", 1, 10),
    ("thick(0:2)", "block lo must be >= 1, got 0", 1, 7),
    ("thick(1:0)", "block hi must be >= 1, got 0", 1, 9),
    ("bernoulli(1.5, 1)", "probability must lie in [0, 1], got 1.5", 1, 11),
    ("interval(9, 2)", "empty interval [9, 2]", 1, 1),
    ("interval(9, 2,", "empty interval [9, 2]", 1, 1),
    ("thick(1:3,\n 7:4)", "empty block [7, 4]", 2, 2),
    ("frobnicate(3)", "unknown form 'frobnicate'", 1, 1),
    ("multiples(2) extra", "trailing input 'extra'", 1, 14),
    ("complement(" * 101 + "multiples(2)" + ")" * 101, "forms nested deeper than 100", 1, 1101),
    ("thick(1 2)", "expected ':', got '2'", 1, 9),
    ("ap(1; 2)", "unexpected character ';'", 1, 5),
    # superscript two is a digit to str.isdigit but not to int() or float()
    ("multiples(\u00b2)", "unexpected character '\u00b2'", 1, 11),
    ("bernoulli(0.\u00b25, 1)", "expected a digit after '.', got '\u00b2'", 1, 13),
    ("ap(1., 2)", "expected a digit after '.', got ','", 1, 6),
    ("bernoulli(0.", "expected a digit after '.', got 'end of input'", 1, 13),
    ("ap(.5, 2)", "unexpected character '.'", 1, 4),
    ("union(multiples(2), )", "expected 'name', got ')'", 1, 21),
    ("union(\n  multiples(2),\n  ap(5))", "ap expects 2 arguments", 3, 3),
    ("", "expected 'name', got 'end of input'", 1, 1),
    ("ap(1, 2", "expected ')', got 'end of input'", 1, 8),
    ("multiples(" + "9" * 4301 + ")", "modulus has more than 4300 digits", 1, 11),
]


def test_parse_error_positions():
    for text, message, line, column in PARSE_ERRORS:
        with pytest.raises(DslError) as e:
            parse_dsl(text)
        got = (str(e.value), e.value.line, e.value.column)
        assert got == (f"{message} (line {line}, column {column})", line, column), text


def test_parse_error_multiline_position():
    src = "union(\n  multiples(2),\n  ap(5))"
    with pytest.raises(DslError) as e:
        parse_dsl(src)
    assert "line 3" in str(e.value)


def test_print_parse_fixpoint_known():
    exprs = [
        Multiples(7),
        Union((Multiples(2), Shift(IpSet((3, 9, 27)), 4))),
        ThickBlocks(((1, 1), (4, 8))),
        Complement(Interval(5, 25)),
        Bernoulli(0.125, 99),
        Bernoulli(1e-05, 3),  # repr would print exponent form
    ]
    for e in exprs:
        assert parse_dsl(print_expr(e)).expr == e, e
    assert print_expr(Bernoulli(1e-05, 3)) == "bernoulli(0.00001, 3)"


def test_print_parse_fixpoint_small_probabilities():
    # below 1e-4 repr uses exponent form, and 20 decimals can drop digits
    rng = random.Random(20261018)
    for _ in range(2000):
        b = Bernoulli(rng.random() ** rng.randint(1, 60), rng.randint(0, 1000))
        e = Union((b, b))
        assert parse_dsl(print_expr(e)).expr == e, e


def random_expr(rng, depth=0):
    leaf_forms = ["ap", "interval", "multiples", "ipset", "thick", "bernoulli"]
    forms = leaf_forms if depth >= 3 else leaf_forms + ["shift", "union", "intersect", "complement"]
    f = rng.choice(forms)
    if f == "ap":
        return Ap(rng.randint(1, 30), rng.randint(1, 9))
    if f == "interval":
        lo = rng.randint(1, 40)
        return Interval(lo, lo + rng.randint(0, 20))
    if f == "multiples":
        return Multiples(rng.randint(1, 12))
    if f == "ipset":
        k = rng.randint(1, 4)
        return IpSet(tuple(rng.randint(1, 20) for _ in range(k)))
    if f == "thick":
        blocks, at = [], 1
        for _ in range(rng.randint(1, 3)):
            lo = at + rng.randint(0, 5)
            hi = lo + rng.randint(0, 6)
            blocks.append((lo, hi))
            at = hi + 2
        return ThickBlocks(tuple(blocks))
    if f == "bernoulli":
        return Bernoulli(rng.random(), rng.randint(0, 1000))
    if f == "shift":
        return Shift(random_expr(rng, depth + 1), rng.randint(0, 10))
    if f == "complement":
        return Complement(random_expr(rng, depth + 1))
    children = tuple(random_expr(rng, depth + 1) for _ in range(rng.randint(1, 3)))
    return Union(children) if f == "union" else Intersect(children)


def test_print_parse_fixpoint_random_corpus():
    rng = random.Random(20260819)
    w = Window(1, 80)
    for _ in range(120):
        e = random_expr(rng)
        round_tripped = parse_dsl(print_expr(e)).expr
        assert round_tripped == e
        # and evaluation agrees, which is what actually matters downstream
        assert evaluate(round_tripped, w).bits == evaluate(e, w).bits


def test_program_keeps_source():
    src = "union(multiples(2), ap(3, 4))"
    prog = parse_dsl(src)
    assert prog.source == src
