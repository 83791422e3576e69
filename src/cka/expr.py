"""Algebra terms: tokenizer, parser, evaluator and printer.

Grammar, loosest binding to tightest: ``+`` (union), ``|`` (concurrent),
``;`` (sequential); all binary operators associate to the left.
Primaries are label identifiers, the constants ``0`` and ``1``,
parenthesized terms, and the bounded iteration forms ``seqstar(E, n)``
and ``parstar(E, n)`` with a positive integer bound.  Errors carry
0-based byte offsets into the UTF-8 input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partial_string import par, seq, singleton
from .program import ComposeOp, Program, one, pcompose, program_of, punion, star, zero


class ExprError(ValueError):
    """Lexical or syntax error at a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class LexicalError(ExprError):
    pass


class ParseError(ExprError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SEQSTAR, PARSTAR, one of ";|+(),", or EOF
    text: str
    offset: int


def _is_alpha(b: int) -> bool:
    return 65 <= b <= 90 or 97 <= b <= 122


def _is_ident(b: int) -> bool:
    return _is_alpha(b) or 48 <= b <= 57 or b == 95


def _is_digit(b: int) -> bool:
    return 48 <= b <= 57


_PUNCT = frozenset(";|+(),")


def tokenize(text: str) -> list[Token]:
    """Scan a term into tokens; unexpected bytes raise LexicalError."""
    data = text.encode("utf-8")
    toks: list[Token] = []
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b in (0x20, 0x09, 0x0A, 0x0D):
            i += 1
            continue
        if _is_alpha(b):
            j = i + 1
            while j < n and _is_ident(data[j]):
                j += 1
            word = data[i:j].decode()
            kind = {"seqstar": "SEQSTAR", "parstar": "PARSTAR"}.get(word, "IDENT")
            toks.append(Token(kind, word, i))
            i = j
            continue
        if _is_digit(b):
            j = i + 1
            while j < n and _is_digit(data[j]):
                j += 1
            toks.append(Token("INT", data[i:j].decode(), i))
            i = j
            continue
        ch = chr(b)
        if ch in _PUNCT:
            toks.append(Token(ch, ch, i))
            i += 1
            continue
        raise LexicalError(f"unexpected character {data[i:].decode()[0]!r}", i)
    toks.append(Token("EOF", "end of input", n))
    return toks


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Sym:
    label: str


@dataclass(frozen=True)
class Seq:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Par:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Union:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class SeqStar:
    body: "Expr"
    bound: int


@dataclass(frozen=True)
class ParStar:
    body: "Expr"
    bound: int


Expr = Zero | One | Sym | Seq | Par | Union | SeqStar | ParStar


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self, kind: str | None = None) -> Token:
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.offset)
        self.pos += 1
        return tok

    def union(self) -> Expr:
        e = self.par()
        while self.peek().kind == "+":
            self.take()
            e = Union(e, self.par())
        return e

    def par(self) -> Expr:
        e = self.seq()
        while self.peek().kind == "|":
            self.take()
            e = Par(e, self.seq())
        return e

    def seq(self) -> Expr:
        e = self.primary()
        while self.peek().kind == ";":
            self.take()
            e = Seq(e, self.primary())
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.take()
            return Sym(tok.text)
        if tok.kind == "INT":
            self.take()
            if tok.text == "0":
                return Zero()
            if tok.text == "1":
                return One()
            raise ParseError(f"unexpected integer {tok.text!r}", tok.offset)
        if tok.kind == "(":
            self.take()
            e = self.union()
            self.take(")")
            return e
        if tok.kind in ("SEQSTAR", "PARSTAR"):
            self.take()
            self.take("(")
            body = self.union()
            self.take(",")
            bound_tok = self.take("INT")
            bound = int(bound_tok.text)
            if bound < 1:
                raise ParseError(
                    "star bound must be a positive integer", bound_tok.offset
                )
            self.take(")")
            if tok.kind == "SEQSTAR":
                return SeqStar(body, bound)
            return ParStar(body, bound)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse(tokens: list[Token]) -> Expr:
    """Parse a token sequence into an expression tree."""
    parser = _Parser(tokens)
    e = parser.union()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(f"unexpected token {tail.text!r}", tail.offset)
    return e


def parse_text(text: str) -> Expr:
    return parse(tokenize(text))


def evaluate(e: Expr, seq_compose: ComposeOp = seq) -> Program:
    """Interpret a term as a program, normalizing at every node.

    ``seq_compose`` lets callers reinterpret ``;`` (and seqstar) as a
    weak sequencing with a fixed dependence relation; concurrent
    composition and union are fixed.
    """
    if isinstance(e, Zero):
        return zero()
    if isinstance(e, One):
        return one()
    if isinstance(e, Sym):
        return program_of((singleton(e.label),))
    if isinstance(e, Seq):
        return pcompose(
            evaluate(e.left, seq_compose), evaluate(e.right, seq_compose), seq_compose
        )
    if isinstance(e, Par):
        return pcompose(evaluate(e.left, seq_compose), evaluate(e.right, seq_compose), par)
    if isinstance(e, Union):
        return punion(evaluate(e.left, seq_compose), evaluate(e.right, seq_compose))
    if isinstance(e, SeqStar):
        return star(evaluate(e.body, seq_compose), seq_compose, e.bound)
    if isinstance(e, ParStar):
        return star(evaluate(e.body, seq_compose), par, e.bound)
    raise TypeError(f"not an expression node: {e!r}")


_PREC = {Union: 1, Par: 2, Seq: 3}
_OP_TEXT = {Union: "+", Par: "|", Seq: ";"}


def pretty(e: Expr) -> str:
    """Render with minimal parentheses so parsing the output rebuilds ``e``."""

    def go(node: Expr, parent_prec: int, right_side: bool) -> str:
        kind = type(node)
        if kind is Zero:
            return "0"
        if kind is One:
            return "1"
        if kind is Sym:
            return node.label
        if kind is SeqStar:
            return f"seqstar({go(node.body, 0, False)},{node.bound})"
        if kind is ParStar:
            return f"parstar({go(node.body, 0, False)},{node.bound})"
        prec = _PREC[kind]
        text = (
            f"{go(node.left, prec, False)}{_OP_TEXT[kind]}{go(node.right, prec, True)}"
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text

    return go(e, 0, False)
