"""Algebra terms: tokenizer, parser, evaluator and printer.

Grammar, loosest binding to tightest: ``+`` (union), ``|`` (concurrent),
``;`` (sequential); all binary operators associate to the left.
Primaries are label identifiers, the constants ``0`` and ``1``,
parenthesized terms, and the bounded iteration forms ``seqstar(E, n)``
and ``parstar(E, n)`` with a positive integer bound.

Each compound shape has one private base that holds its fields and
constructor: ``_Binary`` (``left``, ``right``) under ``Seq``, ``Par``
and ``Union``, and ``_Star`` (``body``, ``bound``) under ``SeqStar`` and
``ParStar``.  The public nodes add nothing to their base, and ``==``
still compares by exact type, so ``Seq(a, b) != Par(a, b)``.

Two tables state the grammar once: ``_BINARY`` lists the binary
operators' symbols and nodes, loosest first (a symbol's index is its
precedence), and ``_STARS`` maps each star keyword to its node.  The
tokenizer, parser and printer all read them.

Parsing, evaluating and printing walk a term on explicit stacks, so how
deeply a term nests is limited by memory, not by Python's recursion
limit.  The nodes are immutable values (``partial_string._Frozen``)
whose ``==``, ``hash`` and ``repr`` still recurse, so compare deep trees
by their ``pretty`` text.

Errors carry 0-based byte offsets into the UTF-8 input.  A lone
surrogate (how ``sys.argv`` carries a byte that is not UTF-8) counts as
the three bytes of its ``surrogatepass`` encoding.
"""

from __future__ import annotations

__all__ = [
    "Expr",
    "ExprError",
    "LexicalError",
    "One",
    "Par",
    "ParStar",
    "ParseError",
    "Seq",
    "SeqStar",
    "Sym",
    "Token",
    "Union",
    "Zero",
    "evaluate",
    "parse",
    "parse_text",
    "pretty",
    "tokenize",
]

import re

from .partial_string import _Frozen, _set_slot, par, seq, singleton
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


class Token(_Frozen):
    __slots__ = ("kind", "text", "offset")
    kind: str  # IDENT, INT, SEQSTAR, PARSTAR, one of ";|+(),", or EOF
    text: str
    offset: int

    def __init__(self, kind: str, text: str, offset: int) -> None:
        _set_slot(self, "kind", kind)
        _set_slot(self, "text", text)
        _set_slot(self, "offset", offset)


class Zero(_Frozen):
    __slots__ = ()


class One(_Frozen):
    __slots__ = ()


class Sym(_Frozen):
    __slots__ = ("label",)
    label: str

    def __init__(self, label: str) -> None:
        _set_slot(self, "label", label)


class _Binary(_Frozen):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"

    def __init__(self, left: "Expr", right: "Expr") -> None:
        _set_slot(self, "left", left)
        _set_slot(self, "right", right)


class Seq(_Binary):
    __slots__ = ()


class Par(_Binary):
    __slots__ = ()


class Union(_Binary):
    __slots__ = ()


class _Star(_Frozen):
    __slots__ = ("body", "bound")
    body: "Expr"
    bound: int

    def __init__(self, body: "Expr", bound: int) -> None:
        _set_slot(self, "body", body)
        _set_slot(self, "bound", bound)


class SeqStar(_Star):
    __slots__ = ()


class ParStar(_Star):
    __slots__ = ()


Expr = Zero | One | Sym | Seq | Par | Union | SeqStar | ParStar

_BINARY = (("+", Union), ("|", Par), (";", Seq))
_STARS = {"seqstar": SeqStar, "parstar": ParStar}
# A binary symbol's and node's level (index in _BINARY); a star node's keyword.
_LEVEL = {symbol: level for level, (symbol, _) in enumerate(_BINARY)}
_NODE_LEVEL = {node: level for level, (_, node) in enumerate(_BINARY)}
_KEYWORD = {node: keyword for keyword, node in _STARS.items()}

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


def _expect(tok: Token, kind: str) -> None:
    if tok.kind != kind:
        raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.offset)


def _bound(tok: Token) -> int:
    _expect(tok, "INT")
    if int(tok.text) < 1:
        raise ParseError("star bound must be a positive integer", tok.offset)
    return int(tok.text)


def parse(tokens: list[Token]) -> Expr:
    """Parse a token sequence into an expression tree.

    Precedence climbing on two explicit stacks, so nesting is limited by
    memory alone: ``operands`` holds the finished subterms, and
    ``pending`` the binary operators still waiting for a right operand
    (as their level in ``_BINARY``) and the open ``(`` and star forms
    (as ``None`` and the star's node).  Every token is read once, in
    order, and the trailing EOF token stops the reading.
    """
    operands: list[Expr] = []
    pending: list = []
    toks = iter(tokens)
    while True:
        tok = next(toks)
        if tok.kind == "IDENT":
            operands.append(Sym(tok.text))
        elif tok.kind == "INT" and tok.text in ("0", "1"):
            operands.append(Zero() if tok.text == "0" else One())
        elif tok.kind == "(" or tok.kind.lower() in _STARS:
            if tok.kind != "(":
                _expect(next(toks), "(")
            pending.append(_STARS.get(tok.kind.lower()))
            continue
        else:
            what = "integer" if tok.kind == "INT" else "token"
            raise ParseError(f"unexpected {what} {tok.text!r}", tok.offset)
        # An operand is complete: apply the operators and closers after it.
        while True:
            tok = next(toks)
            level = _LEVEL.get(tok.kind, -1)
            while pending and type(pending[-1]) is int and pending[-1] >= level:
                right = operands.pop()
                operands[-1] = _BINARY[pending.pop()][1](operands[-1], right)
            if level >= 0 or not pending:
                break
            node = pending.pop()
            if node is not None:
                _expect(tok, ",")
                operands[-1] = node(operands[-1], _bound(next(toks)))
                tok = next(toks)
            _expect(tok, ")")
        if level < 0:
            if tok.kind != "EOF":
                raise ParseError(f"unexpected token {tok.text!r}", tok.offset)
            return operands[0]
        pending.append(level)


def parse_text(text: str) -> Expr:
    return parse(tokenize(text))


def _children_first(e: Expr) -> list:
    """The nodes of ``e``, each after its children, left subtree first."""
    nodes, todo = [], [e]
    while todo:
        node = todo.pop()
        nodes.append(node)
        kind = type(node)
        if kind in _NODE_LEVEL:
            todo.append(node.left)
            todo.append(node.right)
        elif kind in _KEYWORD:
            todo.append(node.body)
    return nodes[::-1]


def evaluate(e: Expr, seq_compose: ComposeOp = seq) -> Program:
    """Interpret a term as a program, normalizing at every node.

    ``seq_compose`` lets callers reinterpret ``;`` (and seqstar) as a
    weak sequencing with a fixed dependence relation; concurrent
    composition and union are fixed.
    """
    values: list[Program] = []
    for node in _children_first(e):
        kind = type(node)
        compose = seq_compose if kind is Seq or kind is SeqStar else par
        if kind is Sym:
            values.append(Program((singleton(node.label),)))
        elif kind is Zero or kind is One:
            values.append(zero() if kind is Zero else one())
        elif kind in _KEYWORD:
            values[-1] = star(values[-1], compose, node.bound)
        elif kind in _NODE_LEVEL:
            right = values.pop()
            if kind is Union:
                values[-1] = punion(values[-1], right)
            else:
                values[-1] = pcompose(values[-1], right, compose)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return values[0]


def pretty(e: Expr) -> str:
    """Render with minimal parentheses so parsing the output rebuilds ``e``."""
    texts: list[str] = []
    for node in _children_first(e):
        kind = type(node)
        if kind in _NODE_LEVEL:
            # Leaves and stars (no level) bind tighter than any operator.
            level = _NODE_LEVEL[kind]
            right = texts.pop()
            if _NODE_LEVEL.get(type(node.right), len(_BINARY)) <= level:
                right = f"({right})"
            if _NODE_LEVEL.get(type(node.left), len(_BINARY)) < level:
                texts[-1] = f"({texts[-1]})"
            texts[-1] += _BINARY[level][0] + right
        elif kind in _KEYWORD:
            texts[-1] = f"{_KEYWORD[kind]}({texts[-1]},{node.bound})"
        else:
            texts.append("0" if kind is Zero else "1" if kind is One else node.label)
    return texts[0]
