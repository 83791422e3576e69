"""Algebra terms: tokenizer, parser, evaluator and printer.

Grammar, loosest binding to tightest: ``+`` (union), ``|`` (concurrent),
``;`` (sequential); all binary operators associate to the left.
Primaries are label identifiers, the constants ``0`` and ``1``,
parenthesized terms, and the bounded iteration forms ``seqstar(E, n)``
and ``parstar(E, n)`` with a positive integer bound.

Two tables state the grammar once: ``_BINARY`` lists the binary
operators' symbols and nodes, loosest first (a symbol's index is its
precedence), and ``_STARS`` maps each star keyword to its node.  The
tokenizer, parser and printer all read them.

Errors carry 0-based byte offsets into the UTF-8 input.  A lone
surrogate (how ``sys.argv`` carries a byte that is not UTF-8) counts as
the three bytes of its ``surrogatepass`` encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .partial_string import par, seq, singleton
from .program import ComposeOp, Program, one, pcompose, punion, star, zero


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

_BINARY = (("+", Union), ("|", Par), (";", Seq))
_STARS = {"seqstar": SeqStar, "parstar": ParStar}

_TOKEN = re.compile(
    rb"(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)|(?P<INT>[0-9]+)|(?P<PUNCT>[%s(),])"
    rb"|(?P<SPACE>[ \t\n\r]+)|(?P<BAD>.)"
    % re.escape("".join(symbol for symbol, _ in _BINARY).encode()),
    re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Scan a term into tokens; unexpected bytes raise LexicalError."""
    data = text.encode("utf-8", "surrogatepass")
    toks: list[Token] = []
    for m in _TOKEN.finditer(data):
        kind, i = m.lastgroup, m.start()
        if kind == "SPACE":
            continue
        if kind == "BAD":
            ch = data[i:].decode("utf-8", "surrogatepass")[0]
            raise LexicalError(f"unexpected character {ch!r}", i)
        word = m.group().decode()
        if kind == "PUNCT":
            kind = word
        elif kind == "IDENT" and word in _STARS:
            kind = word.upper()
        toks.append(Token(kind, word, i))
    toks.append(Token("EOF", "end of input", len(data)))
    return toks


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

    def binary(self, level: int = 0) -> Expr:
        """A left-associative chain of ``_BINARY[level]`` over tighter operands."""
        symbol, node = _BINARY[level]
        last = level + 1 == len(_BINARY)
        e = self.primary() if last else self.binary(level + 1)
        while self.peek().kind == symbol:
            self.take()
            e = node(e, self.primary() if last else self.binary(level + 1))
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
            e = self.binary()
            self.take(")")
            return e
        node = _STARS.get(tok.kind.lower())
        if node is not None:
            self.take()
            self.take("(")
            body = self.binary()
            self.take(",")
            bound_tok = self.take("INT")
            bound = int(bound_tok.text)
            if bound < 1:
                raise ParseError(
                    "star bound must be a positive integer", bound_tok.offset
                )
            self.take(")")
            return node(body, bound)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse(tokens: list[Token]) -> Expr:
    """Parse a token sequence into an expression tree."""
    parser = _Parser(tokens)
    e = parser.binary()
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
        return Program((singleton(e.label),))
    if isinstance(e, Union):
        return punion(evaluate(e.left, seq_compose), evaluate(e.right, seq_compose))
    compose = seq_compose if isinstance(e, (Seq, SeqStar)) else par
    if isinstance(e, (Seq, Par)):
        return pcompose(
            evaluate(e.left, seq_compose), evaluate(e.right, seq_compose), compose
        )
    if isinstance(e, (SeqStar, ParStar)):
        return star(evaluate(e.body, seq_compose), compose, e.bound)
    raise TypeError(f"not an expression node: {e!r}")


_PRETTY_BINARY = {node: (prec, sym) for prec, (sym, node) in enumerate(_BINARY, 1)}
_PRETTY_STARS = {node: keyword for keyword, node in _STARS.items()}


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
        if kind in _PRETTY_STARS:
            return f"{_PRETTY_STARS[kind]}({go(node.body, 0, False)},{node.bound})"
        prec, symbol = _PRETTY_BINARY[kind]
        text = f"{go(node.left, prec, False)}{symbol}{go(node.right, prec, True)}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text

    return go(e, 0, False)
