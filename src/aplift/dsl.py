"""Tiny expression language for describing sets on the command line.

Grammar (whitespace-insensitive):

    expr := ap(a, d) | interval(x, y) | multiples(k) | ipset(g, ...)
          | thick(lo:hi, ...) | bernoulli(p, seed) | shift(expr, c)
          | union(expr, ...) | intersect(expr, ...) | complement(expr)

All parameters are positive integers except bernoulli's p, a decimal in
[0, 1]. Parse errors carry the 1-based line and column of the offending
token. ``print_expr`` emits the canonical form; parsing what it prints
reproduces the tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "." and j + 1 < len(text) and text[j + 1].isdigit():
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


@dataclass(frozen=True)
class DslProgram:
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

    def integer(self, what: str, minimum: int = 1) -> int:
        tok = self.take("number")
        if "." in tok.text:
            raise DslError(f"{what} must be an integer, got {tok.text!r}", tok.line, tok.column)
        value = int(tok.text)
        if value < minimum:
            raise DslError(f"{what} must be >= {minimum}, got {value}", tok.line, tok.column)
        return value

    def expr(self) -> SetExpr:
        tok = self.take("name")
        handler = _FORMS.get(tok.text)
        if handler is None:
            raise DslError(f"unknown form {tok.text!r}", tok.line, tok.column)
        if self.depth == MAX_DEPTH:
            raise DslError(f"forms nested deeper than {MAX_DEPTH}", tok.line, tok.column)
        self.take("(")
        self.depth += 1
        node = handler(self, tok)
        self.depth -= 1
        self.take(")")
        return node

    def separator(self, form: _Token, arity: str) -> None:
        # between fixed arguments; a ')' here means too few were given
        if self.peek().kind == ")":
            raise DslError(f"{form.text} expects {arity}", form.line, form.column)
        self.take(",")


def _form_ap(p: _Parser, tok: _Token) -> SetExpr:
    a = p.integer("start")
    p.separator(tok, "2 arguments")
    d = p.integer("step")
    if p.peek().kind == ",":
        raise DslError("ap expects 2 arguments", tok.line, tok.column)
    return Ap(a, d)


def _form_interval(p: _Parser, tok: _Token) -> SetExpr:
    x = p.integer("interval lo")
    p.separator(tok, "2 arguments")
    y = p.integer("interval hi")
    if y < x:
        raise DslError(f"empty interval [{x}, {y}]", tok.line, tok.column)
    if p.peek().kind == ",":
        raise DslError("interval expects 2 arguments", tok.line, tok.column)
    return Interval(x, y)


def _form_multiples(p: _Parser, tok: _Token) -> SetExpr:
    k = p.integer("modulus")
    if p.peek().kind == ",":
        raise DslError("multiples expects 1 argument", tok.line, tok.column)
    return Multiples(k)


def _form_ipset(p: _Parser, tok: _Token) -> SetExpr:
    gens = [p.integer("generator")]
    while p.peek().kind == ",":
        p.take(",")
        gens.append(p.integer("generator"))
    return IpSet(tuple(gens))


def _form_thick(p: _Parser, tok: _Token) -> SetExpr:
    def block() -> tuple[int, int]:
        lo_tok = p.peek()
        lo = p.integer("block lo")
        p.take(":")
        hi = p.integer("block hi")
        if hi < lo:
            raise DslError(f"empty block [{lo}, {hi}]", lo_tok.line, lo_tok.column)
        return (lo, hi)

    blocks = [block()]
    while p.peek().kind == ",":
        p.take(",")
        blocks.append(block())
    return ThickBlocks(tuple(blocks))


def _form_bernoulli(p: _Parser, tok: _Token) -> SetExpr:
    ptok = p.take("number")
    prob = float(ptok.text)
    if not 0.0 <= prob <= 1.0:
        raise DslError(f"probability must lie in [0, 1], got {ptok.text}", ptok.line, ptok.column)
    p.separator(tok, "2 arguments")
    seed = p.integer("seed", minimum=0)
    if p.peek().kind == ",":
        raise DslError("bernoulli expects 2 arguments", tok.line, tok.column)
    return Bernoulli(prob, seed)


def _form_shift(p: _Parser, tok: _Token) -> SetExpr:
    child = p.expr()
    p.separator(tok, "2 arguments")
    c = p.integer("shift amount", minimum=0)
    if p.peek().kind == ",":
        raise DslError("shift expects 2 arguments", tok.line, tok.column)
    return Shift(child, c)


def _form_union(p: _Parser, tok: _Token) -> SetExpr:
    children = [p.expr()]
    while p.peek().kind == ",":
        p.take(",")
        children.append(p.expr())
    return Union(tuple(children))


def _form_intersect(p: _Parser, tok: _Token) -> SetExpr:
    children = [p.expr()]
    while p.peek().kind == ",":
        p.take(",")
        children.append(p.expr())
    return Intersect(tuple(children))


def _form_complement(p: _Parser, tok: _Token) -> SetExpr:
    child = p.expr()
    if p.peek().kind == ",":
        raise DslError("complement expects 1 argument", tok.line, tok.column)
    return Complement(child)


_FORMS = {
    "ap": _form_ap,
    "interval": _form_interval,
    "multiples": _form_multiples,
    "ipset": _form_ipset,
    "thick": _form_thick,
    "bernoulli": _form_bernoulli,
    "shift": _form_shift,
    "union": _form_union,
    "intersect": _form_intersect,
    "complement": _form_complement,
}


def parse_dsl(text: str) -> DslProgram:
    parser = _Parser(_tokenize(text))
    expr = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise DslError(f"trailing input {tail.text!r}", tail.line, tail.column)
    return DslProgram(source=text, expr=expr)


def _format_prob(p: float) -> str:
    s = repr(p)
    if "e" in s or "E" in s:
        # the grammar has no exponent form; expand and trim
        s = format(p, ".20f").rstrip("0")
        if s.endswith("."):
            s += "0"
    return s


def print_expr(expr: SetExpr) -> str:
    """Canonical text form; parse(print_expr(e)).expr == e."""
    match expr:
        case Ap(a=a, d=d):
            return f"ap({a}, {d})"
        case Interval(lo=lo, hi=hi):
            return f"interval({lo}, {hi})"
        case Multiples(k=k):
            return f"multiples({k})"
        case IpSet(generators=gens):
            return f"ipset({', '.join(str(g) for g in gens)})"
        case ThickBlocks(blocks=blocks):
            return f"thick({', '.join(f'{lo}:{hi}' for lo, hi in blocks)})"
        case Bernoulli(p=p, seed=seed):
            return f"bernoulli({_format_prob(p)}, {seed})"
        case Shift(child=child, c=c):
            return f"shift({print_expr(child)}, {c})"
        case Union(children=children):
            return f"union({', '.join(print_expr(c) for c in children)})"
        case Intersect(children=children):
            return f"intersect({', '.join(print_expr(c) for c in children)})"
        case Complement(child=child):
            return f"complement({print_expr(child)})"
    raise TypeError(f"not a set expression: {expr!r}")
