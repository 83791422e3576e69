import gc
import itertools
import random
import sys
import threading

import pytest

import cka.partial_string
import cka.program
from cka import (
    DependenceRelation,
    PartialString,
    Program,
    chain,
    contains,
    empty,
    equals,
    evaluate,
    from_text,
    isomorphic,
    normalize_program,
    one,
    par,
    parse_text,
    pcompose,
    program_from_text,
    program_of,
    program_to_text,
    punion,
    refines,
    seq,
    singleton,
    star,
    subset,
    to_text,
    transitive_closure,
    weakseq,
    zero,
)
from cka.partial_string import _cover_text, _fill, _signature
from cka.program import _kleene_chain
from cka.testkit import (
    GenConfig,
    _permuted,
    _sample_program,
    _sample_string,
    _strengthened,
    brute_force_refines,
    enumerate_all,
)


def ab_seq():
    return seq(singleton("a"), singleton("b"))


def ab_par():
    return par(singleton("a"), singleton("b"))


def test_zero_and_one_shapes():
    assert zero().generators == ()
    assert one().generators == (empty(),)
    assert not equals(zero(), one())


def test_zero_is_bottom():
    for p in (zero(), one(), program_of((ab_par(),))):
        assert subset(zero(), p)


def test_program_of_absorbs_refining_generators():
    p = program_of((ab_seq(), ab_par()))
    assert len(p.generators) == 1
    assert p.generators[0] == ab_par()


def test_program_of_empty_and_bottom():
    assert equals(program_of(()), zero())
    assert equals(program_of((empty(),)), one())


def test_normalize_keeps_antichains():
    p = Program((ab_seq(), seq(singleton("b"), singleton("a"))))
    normalized = normalize_program(p)
    assert len(normalized.generators) == 2
    assert equals(p, normalized)


def test_normalize_merges_isomorphic_copies():
    copy = par(singleton("b"), singleton("a"))  # isomorphic to ab_par
    p = Program((ab_par(), copy))
    normalized = normalize_program(p)
    assert len(normalized.generators) == 1
    assert equals(p, normalized)
    # tie-break keeps the smaller serialized form regardless of input order
    assert normalized.generators[0] == ab_par()
    flipped = normalize_program(Program((copy, ab_par())))
    assert flipped.generators[0] == ab_par()


def test_normalize_preserves_semantics_random():
    rng = random.Random(3)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=3)
    for _ in range(30):
        raw = _sample_program(rng, cfg, max_generators=4)
        assert equals(raw, normalize_program(raw))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _wrap(monkeypatch, name, before):
    """Have partial_string's and program's ``name`` call ``before(x)`` first."""
    original = getattr(cka.partial_string, name)

    def wrapped(x):
        before(x)
        return original(x)

    for module in (cka.partial_string, cka.program):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrapped)


def _count_validate(monkeypatch):
    calls = _count_calls(monkeypatch, cka.partial_string, "validate")
    monkeypatch.setattr(cka.program, "validate", cka.partial_string.validate)
    return calls


def _normal_form_by_brute_force(gens, oracle=brute_force_refines):
    distinct = set(gens)
    key = {g: (g.n_events, to_text(g)) for g in distinct}
    return tuple(
        sorted(
            (
                g
                for g in distinct
                if not any(
                    h != g
                    and oracle(g, h)
                    and (key[h] < key[g] or not oracle(h, g))
                    for h in distinct
                )
            ),
            key=key.__getitem__,
        )
    )


def test_normalize_generators_match_brute_force_oracle():
    rng = random.Random(21)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=21)
    cases = []
    for _ in range(200):
        cases.append([_sample_string(rng, cfg) for _ in range(rng.randint(0, 5))])
    # Look-alikes: the words share a label multiset and a pair count, so
    # only the signature tells them apart.  The twins share their
    # signature without being isomorphic, so only a search does; the
    # signature counts up-sets alone, so 90 of these 4-event strings do.
    words = [chain(w) for w in sorted(set(itertools.permutations("aabbc")))]
    corpus = enumerate_all(4, "ab")
    sigs = [(_fill(x)._sorted, x._pairs, _signature(x)) for x in corpus]
    twins = [x for x, sig in zip(corpus, sigs) if sigs.count(sig) > 1]
    assert len(twins) == 90
    for _ in range(10):
        cases.append(rng.sample(words, rng.randint(2, 10)))
        cases.append(twins + [_strengthened(rng, rng.choice(twins))])
    # Labels "a" and "ab": one label is a prefix of another.
    prefix = GenConfig(max_events=4, alphabet=("a", "ab", "b"), edge_probability=0.4, seed=21)
    for _ in range(150):
        gens = [_sample_string(rng, prefix) for _ in range(rng.randint(2, 6))]
        cases.append(gens + [_strengthened(rng, g) for g in gens if rng.random() < 0.5])
    for term in ("seqstar(a+b,5)", "parstar(a+b;c,4)", "parstar(a|b+a;b,3)"):
        gens = evaluate(parse_text(term)).generators
        assert gens == _normal_form_by_brute_force(gens)
        cases.append(list(gens))
    for gens in cases:
        gens += [_permuted(rng, g) for g in gens if rng.random() < 0.5]
        rng.shuffle(gens)
        expected = _normal_form_by_brute_force(gens)
        assert normalize_program(Program(tuple(gens))).generators == expected


def _sparse_order(rng, labels, edge_probability):
    """Labels in index order with random forward pairs, closed."""
    rows = [1 << i for i in range(len(labels))]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() < edge_probability:
                rows[i] |= 1 << j
    return PartialString(tuple(labels), tuple(transitive_closure(rows)))


def test_normalize_orders_equal_label_tuples_by_text_past_two_digit_indices():
    # 11-12 events, so cover indices have two digits and "order: 1 < 10"
    # sorts before "order: 1 < 2".  Strings of one label tuple tie on
    # labels; their text decides.
    rng = random.Random(53)
    ties = 0
    for _ in range(40):
        labels = rng.choices("ab", k=rng.choice((11, 12)))
        gens = [_sparse_order(rng, labels, 0.15) for _ in range(4)]
        gens += [_permuted(rng, g) for g in gens]
        rng.shuffle(gens)
        out = normalize_program(Program(tuple(gens))).generators
        assert out == _normal_form_by_brute_force(gens, oracle=refines)
        ties += sum(g.labels == h.labels for g, h in zip(out, out[1:]))
    assert ties > 20


def test_normalize_orders_labels_at_or_below_space_by_label_tuple():
    # The order is (event count, label tuple, text).  A label character at
    # or below U+0020 sorts below the space that ends a label in the text,
    # so the text order would put "a\x01 b" first.
    low, plain = chain(("a\x01", "b")), chain(("a", "b"))
    assert to_text(low) < to_text(plain)
    assert normalize_program(Program((low, plain))).generators == (plain, low)
    assert normalize_program(Program((plain, low))).generators == (plain, low)


def _text_reads(monkeypatch):
    """The values whose text is read, one entry per read."""
    reads = []
    _wrap(monkeypatch, "_cover_text", reads.append)
    return reads


def _distinct_label_tuples(rng, cfg, draws):
    """Sampled strings, pairwise non-isomorphic and of distinct label tuples."""
    gens = []
    for _ in range(draws):
        x = _sample_string(rng, cfg)
        if not any(g.labels == x.labels or isomorphic(g, x) for g in gens):
            gens.append(x)
    return gens


def test_normalize_serializes_nothing_for_distinct_label_tuples(monkeypatch):
    rng = random.Random(61)
    cfg = GenConfig(max_events=5, alphabet=("a", "b"), edge_probability=0.4, seed=61)
    gens = _distinct_label_tuples(rng, cfg, 300)
    gens += [chain(w) for w in set(itertools.permutations("aabbc"))]
    rng.shuffle(gens)
    expected = _normal_form_by_brute_force(gens)
    reads = _text_reads(monkeypatch)
    out = normalize_program(Program(tuple(gens)))
    assert reads == []
    assert out.generators == expected
    assert len(out.generators) < len(gens)


def _n_shape_copies(rng):
    x = from_text("events: a b a b\norder: 0 < 1\norder: 2 < 3\norder: 0 < 3")
    copies = {x}
    while len(copies) < 4:
        copies.add(_permuted(rng, x))
    return x, sorted(copies, key=lambda g: g.order)


def test_normalize_serializes_only_isomorphic_copies(monkeypatch):
    rng = random.Random(67)
    _, copies = _n_shape_copies(rng)
    cfg = GenConfig(max_events=5, alphabet=("c", "d"), edge_probability=0.4, seed=67)
    gens = copies + _distinct_label_tuples(rng, cfg, 200)
    rng.shuffle(gens)
    reads = _text_reads(monkeypatch)
    out = normalize_program(Program(tuple(gens)))
    assert {id(x) for x in reads} == {id(c) for c in copies}
    assert sum(g in copies for g in out.generators) == 1


def test_normalize_keeps_the_serialized_earliest_copy_in_any_input_order():
    rng = random.Random(71)
    x, copies = _n_shape_copies(rng)
    earliest = min(copies, key=to_text)
    absorbed = chain("abab")
    assert refines(absorbed, x)
    for gens in itertools.permutations(copies + [absorbed, singleton("c")]):
        out = normalize_program(Program(gens)).generators
        assert out == (singleton("c"), earliest)


def test_normalize_compares_each_pair_of_look_alikes_once(monkeypatch):
    # Pairwise-distinct label multisets: nothing to compare, serialized order out.
    by_labels = {}
    for x in enumerate_all(3, "abc"):
        by_labels.setdefault(tuple(sorted(x.labels)), x)
    gens = list(by_labels.values())
    random.Random(41).shuffle(gens)
    calls = _count_calls(monkeypatch, cka.partial_string, "find_morphism")
    normalized = normalize_program(Program(tuple(gens)))
    assert calls == []
    assert normalized.generators == tuple(
        sorted(gens, key=lambda g: (g.n_events, _cover_text(g)))
    )
    words = sorted(set(itertools.permutations("aabb")))
    normalized = normalize_program(Program(tuple(chain(w) for w in words)))
    assert len(normalized.generators) == 6
    assert len(calls) <= 15


def test_star_of_words_makes_no_refinement_search(monkeypatch):
    a_or_b = program_of((singleton("a"), singleton("b")))
    calls = _count_calls(monkeypatch, cka.partial_string, "find_morphism")
    words = star(a_or_b, seq, 7)
    assert len(words.generators) == 2**7 - 1
    assert calls == []
    again = star(a_or_b, seq, 7)
    assert subset(words, again) and subset(again, words)
    assert calls == []


def test_star_normalizes_each_iterate_once(monkeypatch):
    a_or_b = program_of((singleton("a"), singleton("b")))
    calls = _count_calls(monkeypatch, cka.program, "normalize_program")
    for n in (1, 3, 7):
        _kleene_chain.cache_clear()
        calls.clear()
        star(a_or_b, par, n)
        assert len(calls) == n


def _full_iterates(p, op, bound):
    """Every Kleene iterate up to ``bound``, each composing all generators."""
    acc, out = zero(), []
    for _ in range(bound):
        gens = tuple(op(g, h) for g in p.generators for h in acc.generators)
        acc = normalize_program(Program((empty(),) + gens))
        out.append(acc)
    return out


def test_star_matches_full_iteration():
    rng = random.Random(37)
    cfg = GenConfig(max_events=2, alphabet=("a", "b"), edge_probability=0.5, seed=37)
    dependence = DependenceRelation.of([("a", "b")])
    ops = (seq, par, lambda x, y: weakseq(x, y, dependence))
    swapped = evaluate(parse_text("a+b+b|a"))
    # Under par its third iterate drops b|a for the isomorphic a|b, so the
    # step after composes every generator again.
    second, third = (set(star(swapped, par, n).generators) for n in (2, 3))
    assert not second <= third
    # Under par, a|a absorbs a;a, so every step from the third iterate on
    # composes every generator.
    bodies = [zero(), one(), swapped, evaluate(parse_text("a+a;a"))]
    while len(bodies) < 23:
        p = _sample_program(rng, cfg, max_generators=3, max_events=2)
        if len(p.generators) > 1:
            copies = tuple(_permuted(rng, g) for g in p.generators)
            bodies += [p, Program(p.generators + copies)]
    full_steps = 0
    for p in bodies:
        for op in ops:
            iterates = _full_iterates(p, op, 6)
            for n, want in enumerate(iterates, 1):
                assert star(p, op, n).generators == want.generators
            for old, new in zip(iterates, iterates[1:]):
                full_steps += not set(old.generators) <= set(new.generators)
    assert full_steps > 10


def test_star_composes_only_what_the_last_iterate_added():
    a_or_b = program_of((singleton("a"), singleton("b")))
    for op, bound, compositions in ((seq, 7, 126), (par, 12, 132)):
        calls = []

        def counting(x, y, op=op):
            calls.append(None)
            return op(x, y)

        star(a_or_b, counting, bound)
        assert len(calls) == compositions


def test_star_stops_at_a_fixed_point(monkeypatch):
    _kleene_chain.cache_clear()
    calls = _count_calls(monkeypatch, cka.program, "normalize_program")
    for p in (zero(), one()):
        calls.clear()
        assert star(p, seq, 50) == one()
        assert len(calls) == 2


def test_star_chain_answers_bounds_in_any_order_like_a_cold_call():
    rng = random.Random(43)
    cfg = GenConfig(max_events=2, alphabet=("a", "b"), edge_probability=0.5, seed=43)
    dependence = DependenceRelation.of([("a", "b")])
    ops = (seq, par, lambda x, y: weakseq(x, y, dependence))
    # Under par, a+b+b|a takes the full step after its third iterate.
    bodies = [zero(), one(), evaluate(parse_text("a+b+b|a"))]
    while len(bodies) < 13:
        p = _sample_program(rng, cfg, max_generators=3, max_events=2)
        if len(p.generators) > 1:
            copies = tuple(_permuted(rng, g) for g in p.generators)
            bodies += [p, Program(p.generators + copies)]
    for p in bodies:
        for op in ops:
            cold = {}
            for n in range(1, 8):
                _kleene_chain.cache_clear()
                cold[n] = star(p, op, n).generators
            bounds = list(range(1, 8)) * 2
            rng.shuffle(bounds)
            _kleene_chain.cache_clear()
            for n in bounds:
                assert star(p, op, n).generators == cold[n]


def test_star_extends_the_chain_only_past_its_last_iterate():
    a_or_b = program_of((singleton("a"), singleton("b")))
    calls = []

    def counting(x, y):
        calls.append(None)
        return seq(x, y)

    star(a_or_b, counting, 7)
    calls.clear()
    star(a_or_b, counting, 5)
    assert calls == []
    # Iterate 7 added the 2**6 words of six events.
    star(a_or_b, counting, 8)
    assert len(calls) == 2 * 2**6


def test_star_chain_extended_from_several_threads_keeps_its_indices():
    a_or_b = program_of((singleton("a"), singleton("b")))
    cold = {}
    for n in range(1, 9):
        _kleene_chain.cache_clear()
        cold[n] = star(a_or_b, seq, n).generators
    wrong = []

    def worker(seed):
        bounds = list(range(1, 9)) * 2
        random.Random(seed).shuffle(bounds)
        for n in bounds:
            if star(a_or_b, seq, n).generators != cold[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(8):
            _kleene_chain.cache_clear()
            threads = [threading.Thread(target=worker, args=(round_ * 6 + i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            iterates = _kleene_chain(a_or_b.generators, seq)[1:]
            assert [acc.generators for acc in iterates] == list(cold.values())
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_star_past_a_fixed_point_makes_no_step(monkeypatch):
    _kleene_chain.cache_clear()
    star(one(), seq, 50)
    calls = _count_calls(monkeypatch, cka.program, "normalize_program")
    assert star(one(), seq, 10**6) == one()
    assert calls == []


def test_equals_on_equal_generators_makes_no_inclusion_test(monkeypatch):
    words = star(program_of((singleton("a"), singleton("b"))), seq, 5)
    calls = _count_calls(monkeypatch, cka.program, "subset")
    assert equals(words, Program(tuple(words.generators)))
    assert calls == []
    assert not equals(words, one())
    assert calls


def test_star_fills_each_distinct_generator_once(monkeypatch):
    _kleene_chain.cache_clear()
    builds, signs = [], []
    _wrap(monkeypatch, "_down_masks", builds.append)
    _wrap(monkeypatch, "_signature", lambda x: x._sig is None and signs.append(x))
    # Labels no other test uses, so every word but the empty one is fresh.
    a_or_b = program_of((singleton("fill-a"), singleton("fill-b")))
    words = star(a_or_b, seq, 7)
    assert len(words.generators) == 2**7 - 1
    # A word is signed once, and only when it shares its sorted labels with
    # another word: the ones normalization compares.  A word of one letter
    # repeated is alone in its label group.  Distinct words have distinct
    # signatures, so no search runs and no down masks are built.
    assert len(signs) == len(set(signs))
    assert set(signs) == {w for w in words.generators if len(set(w.labels)) == 2}
    assert builds == []
    covers = _count_calls(monkeypatch, cka.partial_string, "hasse")
    program_to_text(words)
    assert covers == []
    assert builds == []


def test_star_of_look_alike_ties_matches_brute_force(monkeypatch):
    # Three strings of one a, b and c with one strict pair each: every
    # product of two shares its sorted labels and pair count with the rest,
    # and some share a signature without being isomorphic, so
    # normalization searches between them.
    _kleene_chain.cache_clear()
    searches = _count_calls(monkeypatch, cka.partial_string, "find_morphism")
    body = evaluate(parse_text("(a;b)|c+a|(b;c)+(a;c)|b"))
    out = star(body, seq, 3).generators
    assert len(searches) == 11
    assert len(body.generators) == 3
    raw = [empty(), *body.generators]
    raw += [seq(g, h) for g in body.generators for h in body.generators]
    assert len(out) == 13
    assert out == _normal_form_by_brute_force(raw)


def test_normalize_builds_no_down_masks_for_lone_label_groups(monkeypatch):
    # One nonempty string per sorted-label multiset, relabelled so that each
    # is fresh.
    picked = {}
    for x in enumerate_all(3, "abc")[1:]:
        picked.setdefault(tuple(sorted(x.labels)), x)
    gens = [
        PartialString(tuple("lone-" + lab for lab in x.labels), x.order)
        for x in picked.values()
    ]
    assert len(gens) == 19 and all(g._down is None for g in gens)
    calls = []
    _wrap(monkeypatch, "_down_masks", calls.append)
    out = normalize_program(Program(tuple(gens)))
    assert set(out.generators) == set(gens)
    assert calls == []
    assert all(g._down is None and g._sig is None for g in gens)


def test_dropped_chain_leaves_the_intern_table():
    a_or_b = program_of((singleton("a"), singleton("b")))
    _kleene_chain.cache_clear()
    gc.collect()
    before = len(cka.partial_string._interned)
    words = star(a_or_b, seq, 12)
    assert len(cka.partial_string._interned) >= before + 4000
    del words
    _kleene_chain.cache_clear()
    gc.collect()
    assert len(cka.partial_string._interned) <= before


def test_normalize_reads_no_signature_of_a_lone_generator(monkeypatch):
    reads = []
    _wrap(monkeypatch, "_signature", reads.append)
    gens = (chain("bbb"), ab_par(), singleton("a"), chain("aab"), singleton("a"))
    out = normalize_program(Program(gens))
    assert out.generators == (singleton("a"), ab_par(), chain("aab"), chain("bbb"))
    assert reads == []
    normalize_program(Program((ab_seq(), ab_par())))
    assert reads


def test_evaluate_long_seq_chain_skips_serialization(monkeypatch):
    calls = _text_reads(monkeypatch)
    assert evaluate(parse_text(";".join("a" * 300))).generators == (chain("a" * 300),)
    assert calls == []


def test_normalize_is_idempotent_on_representations():
    rng = random.Random(8)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=8)
    for _ in range(30):
        once = normalize_program(_sample_program(rng, cfg, max_generators=4))
        assert normalize_program(once).generators == once.generators


def test_contains_respects_refinement():
    assert contains(program_of((ab_par(),)), ab_seq())
    assert not contains(program_of((ab_seq(),)), ab_par())


def test_contains_one_and_bottom():
    assert not contains(one(), singleton("a"))
    assert contains(one(), empty())
    assert not contains(program_of((singleton("a"),)), empty())


def test_subset_frame_instance():
    x, y = singleton("a"), singleton("b")
    assert subset(
        program_of((seq(x, y),)),
        program_of((par(x, y),)),
    )


def test_subset_counterexample_from_interleavings():
    both_orders = punion(
        program_of((ab_seq(),)),
        program_of((seq(singleton("b"), singleton("a")),)),
    )
    assert not subset(program_of((ab_par(),)), both_orders)


def test_subset_reflexive():
    p = program_of((ab_par(), singleton("c")))
    assert subset(p, p)


def _subset_by_brute_force(p, q):
    return all(
        any(brute_force_refines(g, h) for h in q.generators) for g in p.generators
    )


def _check_inclusion_against_oracle(p, q):
    p_in_q = _subset_by_brute_force(p, q)
    q_in_p = _subset_by_brute_force(q, p)
    assert subset(p, q) == p_in_q
    assert subset(q, p) == q_in_p
    assert equals(p, q) == (p_in_q and q_in_p)
    for g in p.generators:
        assert contains(q, g) == _subset_by_brute_force(Program((g,)), q)


def test_subset_equals_contains_match_brute_force_oracle():
    rng = random.Random(34)
    cfg = GenConfig(max_events=7, alphabet=("a", "b"), edge_probability=0.4, seed=34)
    for _ in range(200):
        events = rng.choice((3, 7))
        q = _sample_program(rng, cfg, max_generators=3, max_events=events)
        gens = []
        for _ in range(rng.randint(0, 4)):
            if q.generators and rng.random() < 0.8:
                g = rng.choice(q.generators)
            else:
                g = _sample_string(rng, cfg, events)
            gens.append(rng.choice((g, _permuted(rng, g), _strengthened(rng, g))))
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        _check_inclusion_against_oracle(Program(tuple(gens)), q)


def test_subset_matches_brute_force_on_every_small_pair():
    singles = [Program((x,)) for x in enumerate_all(3, "ab")]
    for p in singles:
        for q in singles:
            _check_inclusion_against_oracle(p, q)


def test_equals_union_commutative():
    p = program_of((ab_seq(),))
    q = program_of((singleton("c"),))
    assert equals(punion(p, q), punion(q, p))


def test_punion_unit_and_idempotence():
    p = program_of((ab_par(), singleton("c")))
    assert equals(punion(p, zero()), p)
    assert equals(punion(zero(), p), p)
    assert equals(punion(p, p), p)


def test_punion_associative():
    p = program_of((ab_seq(),))
    q = program_of((singleton("c"),))
    r = program_of((ab_par(),))
    assert equals(punion(punion(p, q), r), punion(p, punion(q, r)))


def test_pcompose_annihilator_and_identity():
    p = program_of((ab_par(), singleton("c")))
    for op in (seq, par):
        assert equals(pcompose(p, zero(), op), zero())
        assert equals(pcompose(zero(), p, op), zero())
        assert equals(pcompose(p, one(), op), p)
        assert equals(pcompose(one(), p, op), p)


def test_pcompose_lifts_pomset_shapes():
    p = pcompose(program_of((singleton("a"),)), program_of((singleton("b"),)), seq)
    assert len(p.generators) == 1
    assert p.generators[0] == ab_seq()


def test_program_exchange_instance():
    u, v, x, y = (program_of((singleton(l),)) for l in "uvxy")
    lhs = pcompose(pcompose(u, v, par), pcompose(x, y, par), seq)
    rhs = pcompose(pcompose(u, x, seq), pcompose(v, y, seq), par)
    assert subset(lhs, rhs)
    assert not equals(lhs, rhs)


def test_pcompose_distributes_over_union():
    rng = random.Random(4)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=4)
    for _ in range(15):
        x, y, z = (_sample_program(rng, cfg) for _ in range(3))
        for op in (seq, par):
            assert equals(
                pcompose(x, punion(y, z), op),
                punion(pcompose(x, y, op), pcompose(x, z, op)),
            )
            assert equals(
                pcompose(punion(y, z), x, op),
                punion(pcompose(y, x, op), pcompose(z, x, op)),
            )


def test_star_base_case_is_one():
    for p in (zero(), one(), program_of((ab_par(),))):
        for op in (seq, par):
            assert equals(star(p, op, 1), one())


def test_star_unfolds_by_hand():
    a = program_of((singleton("a"),))
    s3 = star(a, seq, 3)
    expected = (empty(), singleton("a"), chain(("a", "a")))
    assert len(s3.generators) == 3
    for want, got in zip(expected, s3.generators):
        assert want == got


def test_star_chain_is_monotone():
    rng = random.Random(9)
    cfg = GenConfig(max_events=2, alphabet=("a", "b"), edge_probability=0.4, seed=9)
    for _ in range(5):
        p = _sample_program(rng, cfg, max_generators=2, max_events=2)
        for op in (seq, par):
            for n in range(1, 5):
                assert subset(star(p, op, n), star(p, op, n + 1))


def test_star_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="at least 1"):
        star(one(), seq, 0)


def test_program_text_round_trip():
    p = program_of((ab_par(), singleton("c"), chain(("a", "a"))))
    assert equals(program_from_text(program_to_text(p)), p)
    assert program_from_text(program_to_text(p)).generators == p.generators
    rng = random.Random(16)
    cfg = GenConfig(max_events=5, alphabet=("a", "b", "c"), edge_probability=0.4, seed=16)
    for _ in range(60):
        p = _sample_program(rng, cfg, max_generators=5, max_events=5)
        assert program_from_text(program_to_text(p)) == p


def test_program_from_text_validates_each_block_once(monkeypatch):
    p = program_of((ab_par(), singleton("c"), chain(("a", "a"))))
    text = program_to_text(p)
    calls = _count_validate(monkeypatch)
    assert program_from_text(text) == p
    assert len(calls) == 3


def test_program_text_zero_and_one():
    assert program_to_text(zero()) == ""
    assert equals(program_from_text(""), zero())
    assert program_to_text(one()) == "events:"
    assert equals(program_from_text("events:"), one())


def test_generator_order_is_deterministic():
    p = program_of((singleton("c"), ab_par(), chain(("a", "a"))))
    q = program_of((chain(("a", "a")), singleton("c"), ab_par()))
    assert p.generators == q.generators
