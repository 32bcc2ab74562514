"""Tiny expression language for describing sets on the command line.

The table ``_FORMS`` is the single source of the surface syntax (README lists
the forms): each form's node type and argument kinds drive the parser, its
arity errors and ``print_expr``. Whitespace is insignificant. Parse errors
carry the 1-based line and column of the offending token. ``print_expr``
emits the canonical form; parsing what it prints reproduces the tree exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from ._record import Record
from .sets import (
    Ap,
    Bernoulli,
    Complement,
    Intersect,
    Interval,
    IpSet,
    Multiples,
    SetExpr,
    Shift,
    ThickBlocks,
    Union,
)


# parse, evaluate and print_expr of the deepest form fit the default recursion limit
MAX_DEPTH = 100
# Python's default limit on int() of a decimal string (3.11+), kept on every version
MAX_DIGITS = 4300


class DslError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # name | number | ( | ) | , | : | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "(),:":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j == len(text) or not text[j].isdecimal():
                    what = text[j] if j < len(text) else "end of input"
                    raise DslError(f"expected a digit after '.', got {what!r}", line, col + j - i)
                while j < len(text) and text[j].isdecimal():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class DslProgram(Record):
    source: str
    expr: SetExpr


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise DslError(f"expected {kind!r}, got {what!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def integer(self, what: str) -> int:
        tok = self.take("number")
        if "." in tok.text:
            raise DslError(f"{what} must be an integer, got {tok.text!r}", tok.line, tok.column)
        if len(tok.text) > MAX_DIGITS:
            raise DslError(f"{what} has more than {MAX_DIGITS} digits", tok.line, tok.column)
        value = int(tok.text)
        minimum = 0 if what in _NONNEGATIVE else 1
        if value < minimum:
            raise DslError(f"{what} must be >= {minimum}, got {value}", tok.line, tok.column)
        return value

    def argument(self, kind: str):
        if kind == "expr":
            return self.expr()
        tok = self.peek()
        if kind == "probability":
            self.take("number")
            prob = float(tok.text)
            if not 0.0 <= prob <= 1.0:
                raise DslError(f"probability must lie in [0, 1], got {tok.text}", tok.line, tok.column)
            return prob
        if kind == "block":
            lo = self.integer("block lo")
            self.take(":")
            hi = self.integer("block hi")
            if hi < lo:
                raise DslError(f"empty block [{lo}, {hi}]", tok.line, tok.column)
            return (lo, hi)
        return self.integer(kind)

    def expr(self) -> SetExpr:
        tok = self.take("name")
        form = _FORMS.get(tok.text)
        if form is None:
            raise DslError(f"unknown form {tok.text!r}", tok.line, tok.column)
        if self.depth == MAX_DEPTH:
            raise DslError(f"forms nested deeper than {MAX_DEPTH}", tok.line, tok.column)
        self.take("(")
        self.depth += 1
        node = self.arguments(tok, *form)
        self.depth -= 1
        self.take(")")
        return node

    def arguments(self, form: _Token, node_type: type, kinds: tuple) -> SetExpr:
        values = [self.argument(kinds[0])]
        if kinds[-1] is ...:
            while self.peek().kind == ",":
                self.take(",")
                values.append(self.argument(kinds[0]))
            return node_type(tuple(values))
        arity = f"{form.text} expects {len(kinds)} argument" + "s" * (len(kinds) > 1)
        for kind in kinds[1:]:
            # a ')' where a fixed argument belongs means too few were given
            if self.peek().kind == ")":
                raise DslError(arity, form.line, form.column)
            self.take(",")
            values.append(self.argument(kind))
        try:
            node = node_type(*values)
        except ValueError as e:  # a rule across arguments, such as interval lo <= hi
            raise DslError(str(e), form.line, form.column) from None
        if self.peek().kind == ",":
            raise DslError(arity, form.line, form.column)
        return node


# form name -> (node type, argument kinds); a trailing ... repeats the one kind
# before it. An integer kind is named by its label and must be >= 1, or >= 0
# when listed in _NONNEGATIVE.
_FORMS = {
    "ap": (Ap, ("start", "step")),
    "interval": (Interval, ("interval lo", "interval hi")),
    "multiples": (Multiples, ("modulus",)),
    "ipset": (IpSet, ("generator", ...)),
    "thick": (ThickBlocks, ("block", ...)),
    "bernoulli": (Bernoulli, ("probability", "seed")),
    "shift": (Shift, ("expr", "shift amount")),
    "union": (Union, ("expr", ...)),
    "intersect": (Intersect, ("expr", ...)),
    "complement": (Complement, ("expr",)),
}
_NONNEGATIVE = frozenset({"seed", "shift amount"})
# node type -> (form name, argument kinds, field names), for print_expr
_PRINTED = {
    node_type: (name, kinds, node_type._fields)
    for name, (node_type, kinds) in _FORMS.items()
}


def parse_dsl(text: str) -> DslProgram:
    parser = _Parser(_tokenize(text))
    expr = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise DslError(f"trailing input {tail.text!r}", tail.line, tail.column)
    return DslProgram(source=text, expr=expr)


def _print_argument(kind: str, value) -> str:
    if kind == "expr":
        return print_expr(value)
    if kind == "block":
        return f"{value[0]}:{value[1]}"
    text = repr(value)
    if kind == "probability" and "e" in text:
        # the grammar has no exponent form; expand and trim, or where 20
        # decimals lose digits, expand the shortest repr exactly
        text = format(value, ".20f").rstrip("0")
        if text.endswith("."):
            text += "0"
        if float(text) != value:
            from decimal import Decimal  # about 1 ms to import; only tiny p get here
            text = format(Decimal(repr(value)), "f")
    return text


def print_expr(expr: SetExpr) -> str:
    """Canonical text form; parse(print_expr(e)).expr == e."""
    try:
        name, kinds, names = _PRINTED[type(expr)]
    except KeyError:
        raise TypeError(f"not a set expression: {expr!r}") from None
    values = [getattr(expr, n) for n in names]
    if kinds[-1] is ...:
        values = values[0]
        kinds = kinds[:1] * len(values)
    return f"{name}({', '.join(map(_print_argument, kinds, values))})"
