import copy
import pickle

import pytest

from cka import (
    DependenceRelation,
    GenConfig,
    LawReport,
    LawResult,
    Morphism,
    One,
    Par,
    ParStar,
    PartialString,
    Program,
    Seq,
    SeqStar,
    Sym,
    Union,
    Zero,
    singleton,
)
from cka.expr import Token
from cka.testkit import Law

A, B = Sym("a"), One()
RESULT = LawResult("x", 3, 0)

# (its repr, a function building equal values in different ways and an
#  unequal value, constructor keywords that must fail with the given
#  ValueError message).  Values are built in the test: a partial string
#  kept alive here would keep its filled fields between other tests.
CASES = [
    ("Token(kind='IDENT', text='a', offset=0)",
     lambda: ([Token("IDENT", "a", 0), Token(kind="IDENT", text="a", offset=0)],
              Token("IDENT", "a", 1)), []),
    ("Zero()", lambda: ([Zero(), Zero()], One()), []),
    ("One()", lambda: ([One(), One()], Zero()), []),
    ("Sym(label='a')", lambda: ([Sym("a"), Sym(label="a")], Sym("b")), []),
    ("Seq(left=Sym(label='a'), right=One())",
     lambda: ([Seq(A, B), Seq(left=A, right=B)], Par(A, B)), []),
    ("Par(left=Sym(label='a'), right=One())",
     lambda: ([Par(A, B), Par(A, right=B)], Union(A, B)), []),
    ("Union(left=Sym(label='a'), right=One())",
     lambda: ([Union(A, B), Union(right=B, left=A)], Seq(A, B)), []),
    ("SeqStar(body=Sym(label='a'), bound=2)",
     lambda: ([SeqStar(A, 2), SeqStar(body=A, bound=2)], ParStar(A, 2)), []),
    ("ParStar(body=Sym(label='a'), bound=2)",
     lambda: ([ParStar(A, 2), ParStar(A, bound=2)], ParStar(A, 3)), []),
    ("DependenceRelation(pairs=frozenset({('a', 'b')}))",
     lambda: ([DependenceRelation.of([("a", "b")]),
               DependenceRelation(frozenset({("a", "b")}))], DependenceRelation.none()),
     []),
    ("Morphism(mapping=(1, 0))",
     lambda: ([Morphism((1, 0)), Morphism(mapping=(1, 0))], Morphism((0, 1))), []),
    ("PartialString(labels=('a',), order=(1,))",
     lambda: ([singleton("a"), PartialString(("a",), (1,)),
               PartialString(labels=["a"], order=[1])], singleton("b")), []),
    ("Program(generators=(PartialString(labels=('a',), order=(1,)),))",
     lambda: ([Program((singleton("a"),)), Program(generators=(singleton("a"),))],
              Program(())), []),
    ("GenConfig(max_events=4, alphabet=('a', 'b'), edge_probability=0.4, seed=0)",
     lambda: ([GenConfig(), GenConfig(4, ("a", "b"), 0.4, 0),
               GenConfig(seed=0, edge_probability=0.4,
                         alphabet=("a", "b"), max_events=4)],
              GenConfig(seed=1)),
     [({"max_events": -1}, "max_events must be >= 0"),
      ({"alphabet": ()}, "alphabet must be nonempty"),
      ({"edge_probability": 1.5}, "edge_probability must be within [0, 1]")]),
    ("Law(name='x', group='pomset', check=<built-in function len>)",
     lambda: ([Law("x", "pomset", len), Law(name="x", group="pomset", check=len)],
              Law("x", "program", len)), []),
    ("LawResult(name='x', passes=3, failures=0)",
     lambda: ([LawResult("x", 3, 0), LawResult(name="x", passes=3, failures=0)],
              LawResult("x", 2, 1)), []),
    ("LawReport(seed=7, cases=3, results=(LawResult(name='x', passes=3, failures=0),))",
     lambda: ([LawReport(7, 3, (RESULT,)),
               LawReport(seed=7, cases=3, results=(RESULT,))],
              LawReport(7, 3, ())), []),
]


@pytest.mark.parametrize(
    "text, build, errors", CASES, ids=[case[0].partition("(")[0] for case in CASES]
)
def test_value_types_compare_print_copy_and_refuse_writes(text, build, errors):
    values, other = build()
    first = values[0]
    cls = type(first)
    for value in values:
        assert type(value) is cls
        assert value == first and not value != first
        assert hash(value) == hash(first)
        assert repr(value) == text
        pickled = pickle.loads(pickle.dumps(value))
        for clone in (copy.copy(value), copy.deepcopy(value), pickled):
            assert type(clone) is cls and clone == value and hash(clone) == hash(value)
    assert other != first and not other == first
    assert first != (text,)
    # Positional match patterns read the fields in constructor order.
    names = cls.__match_args__
    fields = ", ".join(f"{name}={getattr(first, name)!r}" for name in names)
    assert f"{cls.__name__}({fields})" == text
    name = names[0] if names else "extra"
    with pytest.raises(AttributeError):
        setattr(first, name, None)
    with pytest.raises(AttributeError):
        delattr(first, name)
    assert repr(first) == text
    with pytest.raises(TypeError):
        cls(*range(len(names) + 1))
    with pytest.raises(TypeError):
        cls(nonsense=1)
    if len(names) > 1:
        with pytest.raises(TypeError):  # the first field twice, the second never
            cls(0, **{names[0]: 0})
    for kwargs, message in errors:
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert str(info.value) == message
