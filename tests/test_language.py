import itertools
import random

from cka import (
    chain,
    from_strict_pairs,
    lang_subset,
    language,
    linearize,
    one,
    par,
    pcompose,
    program_of,
    punion,
    refines,
    seq,
    singleton,
    star,
    subset,
    zero,
)
from cka.cli import _eval_operand, main
from cka.language import WordAutomaton
from cka.testkit import (
    GenConfig,
    _count_extensions_brute,
    _sample_program,
    _sample_string,
    enumerate_all,
)


def brute_words(x):
    """Oracle: all permutations of events filtered by order consistency."""
    n = x.n_events
    strict = x.strict_pairs()
    words = set()
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for idx, e in enumerate(perm):
            pos[e] = idx
        if all(pos[i] < pos[j] for i, j in strict):
            words.add(tuple(x.labels[e] for e in perm))
    return frozenset(words)


def random_pairs(rng, n):
    """Strict pairs i < j, each present with probability 0.3."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]


def test_linearize_two_antichain():
    assert linearize(par(singleton("a"), singleton("b"))) == {("a", "b"), ("b", "a")}


def test_linearize_chain_has_one_word():
    assert linearize(seq(singleton("a"), singleton("b"))) == {("a", "b")}


def test_linearize_three_antichain_has_six_words():
    x = par(singleton("a"), par(singleton("b"), singleton("c")))
    assert len(linearize(x)) == 6


def test_linearize_matches_permutation_oracle():
    rng = random.Random(21)
    cfg = GenConfig(max_events=5, alphabet=("a", "b", "c"), edge_probability=0.4, seed=21)
    for _ in range(40):
        x = _sample_string(rng, cfg)
        assert linearize(x) == brute_words(x)


def test_linearize_matches_permutation_oracle_on_exhaustive_corpus():
    for x in enumerate_all(4, "ab"):
        assert linearize(x) == brute_words(x)


def test_linearize_matches_permutation_oracle_on_six_and_seven_events():
    rng = random.Random(24)
    for _ in range(12):
        n = rng.choice((6, 7))
        x = from_strict_pairs([rng.choice("abc") for _ in range(n)], random_pairs(rng, n))
        assert linearize(x) == brute_words(x)


def test_linearize_long_chain_does_not_recurse():
    assert linearize(chain("a" * 1500)) == {("a",) * 1500}


def test_word_count_matches_language_on_multi_generator_programs():
    rng = random.Random(25)
    cfg = GenConfig(max_events=4, alphabet=("a", "b", "c"), edge_probability=0.3, seed=25)
    multi = 0
    for _ in range(60):
        p = _sample_program(rng, cfg, max_generators=4, max_events=4)
        multi += len(p.generators) > 1
        automaton = WordAutomaton(p.generators)
        assert automaton.count() == len(language(p))
        assert list(automaton.words()) == sorted(language(p))
    assert multi >= 20


def test_layered_walks_match_the_oracle_on_the_exhaustive_corpus():
    corpus = enumerate_all(3, "ab")
    pairs = itertools.islice(itertools.combinations(corpus, 2), 0, None, 20)
    twos = [p for p in map(program_of, pairs) if len(p.generators) == 2]
    assert len(twos) == 41
    programs = [program_of((x,)) for x in corpus] + [zero()] + twos
    langs = [frozenset().union(*map(brute_words, p.generators)) for p in programs]
    for p, words in zip(programs, langs):
        assert language(p) == words
        assert WordAutomaton(p.generators).count() == len(words)
    for p, lp in zip(programs, langs):
        for q, lq in zip(programs, langs):
            assert lang_subset(p, q) == (lp <= lq)


def test_twin_events_leave_one_item_per_state():
    # Equal label, down-set and up-set: the automaton takes twins in index
    # order, so a state never holds two items that differ only by which twin.
    for expr, n_states in [("a|a|a|a|a|a", 7), ("(a|a);(b|b)", 5)]:
        automaton = WordAutomaton(_eval_operand(expr, seq).generators)
        layer, states = {automaton.start}, 0
        while layer:
            assert all(len(state) == 1 for state in layer)
            states += len(layer)
            layer = {s for state in layer for s in automaton.successors(state).values()}
        assert states == n_states and automaton.count() == 1


def test_word_count_matches_extension_count_for_distinct_labels():
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(0, 7)
        x = from_strict_pairs([f"t{i}" for i in range(n)], random_pairs(rng, n))
        assert WordAutomaton((x,)).count() == _count_extensions_brute(x)


def test_every_linearization_refines_the_source():
    rng = random.Random(22)
    cfg = GenConfig(max_events=4, alphabet=("a", "b"), edge_probability=0.4, seed=22)
    for _ in range(30):
        x = _sample_string(rng, cfg)
        for word in linearize(x):
            assert refines(chain(word), x)


def test_language_of_one_is_empty_word():
    assert language(one()) == {()}


def test_language_equality_despite_refinement_gap():
    p4 = par(chain(("a", "b")), chain(("a", "b")))
    n4 = from_strict_pairs(("a", "a", "b", "b"), [(0, 2), (0, 3), (1, 3)])
    assert language(program_of((p4,))) == language(program_of((n4,)))
    assert not refines(p4, n4)


def test_language_of_bounded_star():
    a = program_of((singleton("a"),))
    assert language(star(a, seq, 3)) == {(), ("a",), ("a", "a")}


def test_lang_subset_reflexive():
    p = program_of((par(singleton("a"), singleton("b")),))
    assert lang_subset(p, p)


def test_program_subset_implies_language_subset():
    rng = random.Random(23)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=23)
    for _ in range(30):
        p = _sample_program(rng, cfg)
        q = punion(p, _sample_program(rng, cfg))
        assert subset(p, q)
        assert lang_subset(p, q)


def test_lang_subset_matches_language_inclusion():
    rng = random.Random(27)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=27)
    outcomes = set()
    for _ in range(200):
        p = _sample_program(rng, cfg, max_events=4)
        q = _sample_program(rng, cfg, max_events=4)
        expected = language(p) <= language(q)
        assert lang_subset(p, q) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_lang_output_is_the_sorted_language(capsys):
    for expr in ("0", "1", "P4", "seqstar(a+b,3)", "a;b+b;a"):
        words = sorted(language(_eval_operand(expr, seq)))
        for limit in (None, 0, 1, 3):
            shown = words if limit is None else words[:limit]
            expected = "".join(" ".join(word) + "\n" for word in shown)
            if len(shown) < len(words):
                expected += f"# {len(words) - len(shown)} more words omitted\n"
            argv = ["lang", expr] + ([] if limit is None else ["--max-display", str(limit)])
            assert main(argv) == 0
            assert capsys.readouterr().out == expected


def test_language_subset_does_not_imply_program_subset():
    x = program_of((singleton("a"),))
    y = program_of((singleton("b"),))
    interleaved = pcompose(x, y, par)
    sequenced = punion(pcompose(x, y, seq), pcompose(y, x, seq))
    assert lang_subset(interleaved, sequenced)
    assert not subset(interleaved, sequenced)
