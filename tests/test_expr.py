import random

import pytest

import cka.partial_string
import cka.program

from cka import (
    LexicalError,
    Par,
    ParseError,
    ParStar,
    Seq,
    SeqStar,
    Sym,
    Union,
    Zero,
    One,
    equals,
    evaluate,
    one,
    parse_text,
    pretty,
    program_of,
    punion,
    pcompose,
    par,
    seq,
    singleton,
    subset,
    tokenize,
    zero,
)


def test_token_count_for_parenthesized_pair():
    toks = tokenize("(a;b)|(a;b)")
    assert len(toks) == 12  # 11 tokens plus the end marker
    assert toks[-1].kind == "EOF"
    assert [t.text for t in toks[:-1]] == list("(a;b)|(a;b)")


def test_tokenize_star_form():
    kinds = [t.kind for t in tokenize("seqstar(a,3)")]
    assert kinds == ["SEQSTAR", "(", "IDENT", ",", "INT", ")", "EOF"]


def test_tokenize_reports_byte_offset():
    with pytest.raises(LexicalError) as err:
        tokenize("a ; $")
    assert err.value.offset == 4


def test_tokenize_offsets_are_bytes_not_chars():
    with pytest.raises(LexicalError) as err:
        tokenize("é")  # two UTF-8 bytes, error at the first
    assert err.value.offset == 0


def test_tokenize_error_names_the_whole_character():
    for text, ch in (("a;é", "é"), ("a;→b", "→"), ("a;😀", "😀")):
        with pytest.raises(LexicalError) as err:
            tokenize(text)
        assert err.value.offset == 2
        assert f"unexpected character {ch!r}" in str(err.value)


def test_tokenize_identifiers_and_ints():
    toks = tokenize("ab_1 42")
    assert (toks[0].kind, toks[0].text, toks[0].offset) == ("IDENT", "ab_1", 0)
    assert (toks[1].kind, toks[1].text, toks[1].offset) == ("INT", "42", 5)


def test_precedence_seq_tighter_than_par():
    assert parse_text("a;b|c") == Par(Seq(Sym("a"), Sym("b")), Sym("c"))


def test_precedence_par_tighter_than_union():
    assert parse_text("a+b|c") == Union(Sym("a"), Par(Sym("b"), Sym("c")))


def test_parse_parenthesized():
    assert parse_text("(a;b)|(a;b)") == Par(
        Seq(Sym("a"), Sym("b")), Seq(Sym("a"), Sym("b"))
    )


def test_binary_operators_associate_left():
    assert parse_text("a;b;c") == Seq(Seq(Sym("a"), Sym("b")), Sym("c"))
    assert parse_text("a+b+c") == Union(Union(Sym("a"), Sym("b")), Sym("c"))
    assert parse_text("a|b|c") == Par(Par(Sym("a"), Sym("b")), Sym("c"))


def test_parse_constants_and_stars():
    assert parse_text("0") == Zero()
    assert parse_text("1") == One()
    assert parse_text("seqstar(a,3)") == SeqStar(Sym("a"), 3)
    assert parse_text("parstar(a;b,2)") == ParStar(Seq(Sym("a"), Sym("b")), 2)


def _shape(e):
    match e:
        case Seq(Sym(left), Sym(right)):
            return "seq", left, right
        case Par(Seq(Sym(a), Sym(b)), Sym(right)):
            return "par", a, b, right
        case Union(left=Sym(left)):
            return "union", left
        case SeqStar(body, bound):
            return "seqstar", pretty(body), bound
        case ParStar(Par(Sym(left), Sym(right)), bound=bound):
            return "parstar", left, right, bound
    return None


def test_match_takes_apart_the_fields_of_each_compound_node():
    assert _shape(parse_text("a;b")) == ("seq", "a", "b")
    assert _shape(parse_text("a;b|c")) == ("par", "a", "b", "c")
    assert _shape(parse_text("a+b;c")) == ("union", "a")
    assert _shape(parse_text("seqstar(a,2)")) == ("seqstar", "a", 2)
    assert _shape(parse_text("seqstar(a|b+c,3)")) == ("seqstar", "a|b+c", 3)
    assert _shape(parse_text("parstar(a|b,4)")) == ("parstar", "a", "b", 4)
    # The class in a pattern is matched exactly among the sibling nodes.
    for text in ("a|b", "(a;b)+c", "a;b;c", "parstar(a;b,2)", "a"):
        assert _shape(parse_text(text)) is None


def test_parse_errors_name_token_and_offset():
    with pytest.raises(ParseError) as err:
        parse_text("a;;b")
    assert "';'" in str(err.value)
    assert err.value.offset == 2

    with pytest.raises(ParseError) as err:
        parse_text("a b")
    assert err.value.offset == 2

    with pytest.raises(ParseError) as err:
        parse_text("(a;b")
    assert "end of input" in str(err.value)


# Each term with its ParseError text (offset included) or, when it
# parses, its pretty form.
PARSE_TABLE = [
    ("a;;b", "unexpected token ';' (offset 2)"),
    ("(a,b)", "expected ')', found ',' (offset 2)"),
    ("seqstar a", "expected '(', found 'a' (offset 8)"),
    ("seqstar(a,b)", "expected 'INT', found 'b' (offset 10)"),
    ("seqstar(a,1,2)", "expected ')', found ',' (offset 11)"),
    ("seqstar(a,0)", "star bound must be a positive integer (offset 10)"),
    ("seqstar(a,00)", "star bound must be a positive integer (offset 10)"),
    ("parstar(,2)", "unexpected token ',' (offset 8)"),
    ("seqstar(", "unexpected token 'end of input' (offset 8)"),
    ("seqstar", "expected '(', found 'end of input' (offset 7)"),
    ("seqstar(a,)", "expected 'INT', found ')' (offset 10)"),
    ("seqstar(a;,3)", "unexpected token ',' (offset 10)"),
    ("parstar(a;b,2", "expected ')', found 'end of input' (offset 13)"),
    ("seqstar(a,10)x", "unexpected token 'x' (offset 13)"),
    ("01", "unexpected integer '01' (offset 0)"),
    ("2", "unexpected integer '2' (offset 0)"),
    ("(a)(b)", "unexpected token '(' (offset 3)"),
    ("a+", "unexpected token 'end of input' (offset 2)"),
    ("+a", "unexpected token '+' (offset 0)"),
    ("((", "unexpected token 'end of input' (offset 2)"),
    ("", "unexpected token 'end of input' (offset 0)"),
    (")", "unexpected token ')' (offset 0)"),
    ("a)", "unexpected token ')' (offset 1)"),
    ("(a+)", "unexpected token ')' (offset 3)"),
    ("x;(y", "expected ')', found 'end of input' (offset 4)"),
    ("1 0", "unexpected token '0' (offset 2)"),
    ("seqstar(a,01)", "seqstar(a,1)"),
    ("seqstar((a),1)", "seqstar(a,1)"),
    ("((a))", "a"),
    ("(a;b)|(a;b)", "a;b|a;b"),
    ("a+(b+c)|d", "a+(b+c)|d"),
    ("parstar(seqstar(a,2)|b,3);0", "parstar(seqstar(a,2)|b,3);0"),
]


@pytest.mark.parametrize("text,expected", PARSE_TABLE)
def test_parse_error_text_or_pretty_form(text, expected):
    if "(offset " in expected:
        with pytest.raises(ParseError) as err:
            parse_text(text)
        assert str(err.value) == expected
    else:
        assert pretty(parse_text(text)) == expected


def test_parse_rejects_other_integers():
    with pytest.raises(ParseError, match="unexpected integer"):
        parse_text("2")


def test_parse_rejects_zero_star_bound():
    with pytest.raises(ParseError, match="positive integer"):
        parse_text("seqstar(a,0)")


def test_evaluate_constants():
    assert equals(evaluate(parse_text("1")), one())
    assert equals(evaluate(parse_text("0")), zero())


def test_evaluate_annihilator():
    assert equals(evaluate(parse_text("a;0")), zero())


def test_evaluate_frame_instances_differ():
    left = evaluate(parse_text("(a|b);c"))
    right = evaluate(parse_text("a|(b;c)"))
    assert subset(left, right)
    assert not equals(left, right)


def test_evaluate_is_homomorphic():
    for text, expected in (
        ("a+b", punion(evaluate(parse_text("a")), evaluate(parse_text("b")))),
        ("a;b", pcompose(evaluate(parse_text("a")), evaluate(parse_text("b")), seq)),
        ("a|b", pcompose(evaluate(parse_text("a")), evaluate(parse_text("b")), par)),
    ):
        assert equals(evaluate(parse_text(text)), expected)
    assert equals(
        evaluate(parse_text("a")), program_of((singleton("a"),))
    )


def test_evaluate_rejects_what_is_not_a_node():
    for bad, name in (("a", "'a'"), (Seq(Sym("a"), 3), "3")):
        with pytest.raises(TypeError) as err:
            evaluate(bad)
        assert str(err.value) == f"not an expression node: {name}"


def test_evaluate_validates_nothing(monkeypatch):
    calls = []
    original = cka.partial_string.validate

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(cka.partial_string, "validate", counting)
    monkeypatch.setattr(cka.program, "validate", counting)
    p = evaluate(parse_text("a|b|c|a|b|c|a|b|c"))
    assert [sorted(g.labels) for g in p.generators] == [list("aaabbbccc")]
    assert calls == []


def test_pretty_round_trips():
    cases = [
        "a;b|c",
        "a+b|c",
        "(a;b)|(a;b)",
        "a;(b|c)+1",
        "seqstar(a;b,3)",
        "parstar(a+0,2)",
        "a;b;c",
        "a;(b;c)",
        "a+(b+c)",
    ]
    for text in cases:
        tree = parse_text(text)
        assert parse_text(pretty(tree)) == tree


def test_pretty_emits_compact_forms():
    assert pretty(parse_text("(a;b)|(a;b)")) == "a;b|a;b"
    assert pretty(parse_text("a;(b;c)")) == "a;(b;c)"
    assert pretty(parse_text("seqstar(a,3)")) == "seqstar(a,3)"


def test_tokenize_reports_bytes_that_are_not_utf8():
    # sys.argv carries a byte that is not UTF-8 as a lone surrogate.
    with pytest.raises(LexicalError) as err:
        tokenize("a;\udcff")
    assert err.value.offset == 2
    assert str(err.value) == "unexpected character '\\udcff' (offset 2)"


def test_tokenize_lexical_grammar():
    assert [(t.kind, t.text) for t in tokenize("1a")[:-1]] == [
        ("INT", "1"),
        ("IDENT", "a"),
    ]
    assert [t.kind for t in tokenize("seqstarx")] == ["IDENT", "EOF"]
    toks = tokenize("a\t;\r\nb")
    assert [(t.kind, t.offset) for t in toks] == [
        ("IDENT", 0),
        (";", 2),
        ("IDENT", 5),
        ("EOF", 6),
    ]
    for text in ("_a", "\x0b", "ä"):
        with pytest.raises(LexicalError) as err:
            tokenize(text)
        assert err.value.offset == 0


def _random_expr(rng, depth, labels=("a", "b", "c_1"), max_bound=12):
    leaves = (Zero(), One(), *map(Sym, labels))
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice((Seq, Par, Union, SeqStar, ParStar))
    children = (_random_expr(rng, depth - 1, labels, max_bound) for _ in range(2))
    if kind in (SeqStar, ParStar):
        return kind(next(children), rng.randint(1, max_bound))
    return kind(*children)


def test_pretty_round_trips_random_trees():
    rng = random.Random(5)
    kinds = set()
    for _ in range(500):
        tree = _random_expr(rng, 5)
        kinds.add(type(tree))
        text = pretty(tree)
        assert parse_text(text) == tree, text
        assert pretty(parse_text(text)) == text
    assert kinds == {Zero, One, Sym, Seq, Par, Union, SeqStar, ParStar}


def test_deep_terms_round_trip_without_recursion():
    # Deep trees are compared by their text: a node's == recurses.
    for text in (
        "seqstar(" * 5000 + "a" + ",1)" * 5000,
        "a;(" * 5000 + "a;a" + ")" * 5000,
        "|".join(["a"] * 5000),
    ):
        assert pretty(parse_text(text)) == text
    assert pretty(parse_text("(" * 5000 + "a" + ")" * 5000)) == "a"
