import copy
import functools
import pickle
import sys
import threading

import pytest

import cka.partial_string

from cka import (
    DependenceRelation,
    InvalidPartialString,
    Morphism,
    PartialString,
    TextFormatError,
    chain,
    empty,
    exchange_holds,
    find_morphism,
    from_strict_pairs,
    from_text,
    hasse,
    isomorphic,
    par,
    refines,
    seq,
    singleton,
    to_dot,
    to_text,
    transitive_closure,
    validate,
    weakseq,
)
from cka.partial_string import _cover_text, _down_masks, _fill, _signature
from cka.testkit import (
    GenConfig,
    _bijections,
    _permuted,
    _sample_dependence,
    _sample_string,
    _strengthened,
    brute_force_refines,
    enumerate_all,
)

import random
import re


def n4():
    return from_strict_pairs(("a", "a", "b", "b"), [(0, 2), (0, 3), (1, 3)])


def p4():
    return par(chain(("a", "b")), chain(("a", "b")))


# --------------------------------------------------------------------- #
# Constructors and validation
# --------------------------------------------------------------------- #


def test_empty_has_no_events():
    bottom = empty()
    assert bottom.n_events == 0
    assert bottom.labels == ()
    assert bottom.order == ()
    assert isomorphic(bottom, empty())
    assert refines(bottom, empty())


def test_singleton_shape():
    a = singleton("a")
    assert a.n_events == 1
    assert a.labels == ("a",)
    assert a.leq(0, 0)


def test_seq_of_singletons_is_two_chain():
    s = seq(singleton("a"), singleton("b"))
    assert s.labels == ("a", "b")
    assert s.leq(0, 1) and not s.leq(1, 0)


def test_par_of_singletons_is_antichain():
    p = par(singleton("a"), singleton("b"))
    assert not p.leq(0, 1) and not p.leq(1, 0)


def test_chain_is_totally_ordered():
    c = chain(("a", "b", "c"))
    assert all(c.leq(i, j) for i in range(3) for j in range(i, 3))


def test_equal_values_built_by_different_routes_are_one_object():
    word = chain(("a", "b", "c"))
    assert from_text("events: a b c\norder: 0 < 1\norder: 1 < 2") is word
    assert seq(seq(singleton("a"), singleton("b")), singleton("c")) is word
    assert PartialString(["a", "b", "c"], [0b111, 0b110, 0b100]) is word
    assert from_strict_pairs("abc", [(0, 2), (1, 2), (0, 1)]) is word
    assert par(singleton("a"), singleton("b")) is not seq(singleton("a"), singleton("b"))
    assert {word: 1}[chain("abc")] == 1


def test_copies_and_pickles_return_the_interned_object():
    for x in (empty(), n4(), p4(), chain("ab" * 40)):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert copy.deepcopy([x, x]) == [x, x]
        assert pickle.loads(pickle.dumps(x)) is x
    assert repr(singleton("a")) == "PartialString(labels=('a',), order=(1,))"


def test_partial_strings_cannot_be_changed():
    x = chain("ab")
    for name, value in (("labels", ("b", "a")), ("order", (1, 2)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.labels
    assert x.labels == ("a", "b") and x.order == (0b11, 0b10)


def test_partial_strings_match_on_labels_and_order():
    match chain("ab"):
        case PartialString(labels=("a", "b"), order=(3, 2)):
            pass
        case _:
            pytest.fail("keyword pattern did not match")
    match par(singleton("a"), singleton("b")):
        case PartialString(labels, order):
            assert (labels, order) == (("a", "b"), (1, 2))
        case _:
            pytest.fail("positional pattern did not match")


def test_threads_building_equal_values_get_one_object_per_value():
    # Labels used nowhere else, so every value starts out absent.
    labels = ("thread-a", "thread-b")
    values = [
        (tuple(labels[i >> k & 1] for k in range(n)), tuple(1 << k for k in range(n)))
        for n in range(1, 9)
        for i in range(1 << n)
    ]
    barrier = threading.Barrier(8)
    built: list[list[PartialString]] = [[] for _ in range(8)]

    def build(out):
        barrier.wait(timeout=30)
        out.extend(PartialString(list(lab), list(order)) for lab, order in values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(values) for out in built)
    for objs in zip(*built):
        assert all(obj is objs[0] for obj in objs)
    assert len({id(obj) for obj in built[0]}) == len(values)


def test_a_dead_table_entry_is_replaced_by_the_new_value():
    table = cka.partial_string._interned
    key = (("dead-entry",), (1,))
    x = PartialString(*key)
    dead = cka.partial_string._Ref(x)
    del x
    assert dead() is None and key not in table
    table[key] = dead
    y = PartialString(*key)
    assert table[key]() is y
    assert PartialString(*key) is y
    del y
    assert key not in table


def test_validate_accepts_chain():
    validate(seq(singleton("a"), singleton("b")))


def test_validate_reports_antisymmetry():
    bad = PartialString(("a", "b"), (0b11, 0b11))
    with pytest.raises(InvalidPartialString, match=r"antisymmetry violation at \(0, 1\)"):
        validate(bad)


def test_validate_reports_reflexivity():
    bad = PartialString(("a", "b"), (0b10, 0b10))
    with pytest.raises(InvalidPartialString, match="reflexivity violation at 0"):
        validate(bad)


def test_validate_reports_transitivity():
    # 0 < 1 and 1 < 2 without 0 < 2
    bad = PartialString(("a", "b", "c"), (0b011, 0b110, 0b100))
    with pytest.raises(InvalidPartialString, match="transitivity violation"):
        validate(bad)


def test_validate_reports_non_total_labels():
    bad = PartialString(("a", "b"), (0b1,))
    with pytest.raises(InvalidPartialString, match="labels are not total"):
        validate(bad)


def test_validate_reports_order_rows_beyond_the_events():
    with pytest.raises(InvalidPartialString, match=r"order row 0 mentions events outside 0\.\.0"):
        validate(PartialString(("a",), (0b11,)))


def test_from_strict_pairs_rejects_out_of_range():
    with pytest.raises(InvalidPartialString, match="outside events"):
        from_strict_pairs(("a",), [(0, 1)])
    with pytest.raises(InvalidPartialString, match="the string has no events"):
        from_text("events:\norder: 0 < 1")


def test_from_strict_pairs_rejects_cycle():
    with pytest.raises(InvalidPartialString, match="antisymmetry"):
        from_strict_pairs(("a", "b"), [(0, 1), (1, 0)])


# --------------------------------------------------------------------- #
# Composition operators
# --------------------------------------------------------------------- #


def test_par_keeps_blocks_incomparable():
    # a->b chain alongside an isolated c
    p = par(chain(("a", "b")), singleton("c"))
    assert p.labels == ("a", "b", "c")
    assert p.leq(0, 1)
    assert not p.leq(0, 2) and not p.leq(2, 0)
    assert not p.leq(1, 2) and not p.leq(2, 1)


def test_seq_orders_blocks():
    s = seq(chain(("a", "b")), singleton("c"))
    assert s.leq(0, 1) and s.leq(1, 2) and s.leq(0, 2)


def test_identity_laws():
    x = seq(par(singleton("a"), singleton("b")), singleton("c"))
    d = DependenceRelation.full(("a", "b", "c"))
    for op in (seq, par, lambda l, r: weakseq(l, r, d)):
        assert isomorphic(op(x, empty()), x)
        assert isomorphic(op(empty(), x), x)


def test_par_commutative_small_random():
    rng = random.Random(5)
    cfg = GenConfig(max_events=4, alphabet=("a", "b"), edge_probability=0.4, seed=5)
    for _ in range(30):
        x = _sample_string(rng, cfg)
        y = _sample_string(rng, cfg)
        assert isomorphic(par(x, y), par(y, x))


def test_seq_refines_par_random():
    rng = random.Random(6)
    cfg = GenConfig(max_events=4, alphabet=("a", "b"), edge_probability=0.4, seed=6)
    for _ in range(30):
        x = _sample_string(rng, cfg)
        y = _sample_string(rng, cfg)
        assert refines(seq(x, y), par(x, y))


def test_weakseq_full_dependence_equals_seq_exactly():
    x = chain(("a", "b"))
    y = par(singleton("a"), singleton("c"))
    d = DependenceRelation.full(("a", "b", "c"))
    assert weakseq(x, y, d) == seq(x, y)


def test_weakseq_empty_dependence_equals_par_exactly():
    x = chain(("a", "b"))
    y = par(singleton("a"), singleton("c"))
    assert weakseq(x, y, DependenceRelation.none()) == par(x, y)


def test_weakseq_adds_only_dependent_cross_pairs():
    d = DependenceRelation.of([("a", "c")])
    w = weakseq(chain(("a", "b")), singleton("c"), d)
    assert w.leq(0, 2)       # a before c: dependent
    assert not w.leq(1, 2)   # b before c: not dependent


def test_weakseq_transitively_closes_through_cross_pairs():
    # b depends on c; the a below b must then also precede c
    d = DependenceRelation.of([("b", "c")])
    w = weakseq(chain(("a", "b")), singleton("c"), d)
    assert w.leq(1, 2)
    assert w.leq(0, 2)


def test_weakseq_identity():
    d = DependenceRelation.of([("a", "a")])
    x = seq(singleton("a"), par(singleton("a"), singleton("b")))
    assert isomorphic(weakseq(x, empty(), d), x)
    assert isomorphic(weakseq(empty(), x, d), x)


def test_event_counts_add_and_pair_counts_chain():
    x = chain(("a", "b"))
    y = par(singleton("a"), singleton("b"))
    d = DependenceRelation.of([("a", "a")])
    s, w, p = seq(x, y), weakseq(x, y, d), par(x, y)
    for c in (s, w, p):
        assert c.n_events == x.n_events + y.n_events
    assert s.order_pair_count() >= w.order_pair_count() >= p.order_pair_count()


# --------------------------------------------------------------------- #
# Morphisms, refinement, isomorphism
# --------------------------------------------------------------------- #


def test_find_morphism_par_into_seq_is_identity():
    m = find_morphism(par(singleton("a"), singleton("b")), seq(singleton("a"), singleton("b")))
    assert m is not None
    assert m.mapping == (0, 1)


def test_find_morphism_seq_into_par_absent():
    src = seq(singleton("a"), singleton("b"))
    tgt = par(singleton("a"), singleton("b"))
    assert find_morphism(src, tgt) is None
    # cross-check with the exhaustive oracle: refines(tgt, src) is false
    assert not brute_force_refines(tgt, src)


def test_find_morphism_identity_on_self():
    x = n4()
    m = find_morphism(x, x)
    assert m is not None and m.is_valid(x, x)


def test_morphism_is_valid_rejects_bad_maps():
    s = seq(singleton("a"), singleton("b"))
    p = par(singleton("a"), singleton("b"))
    assert Morphism((0, 1)).is_valid(p, s)
    assert not Morphism((0, 1)).is_valid(s, p)      # order not preserved
    assert not Morphism((0, 0)).is_valid(p, s)      # not a bijection
    assert not Morphism((1, 0)).is_valid(p, s)      # labels not preserved
    assert not Morphism((0,)).is_valid(p, s)        # wrong arity


def test_refines_four_event_counterexample():
    assert not refines(p4(), n4())
    assert refines(n4(), p4())
    assert not isomorphic(p4(), n4())
    # agreement with the independent oracle on both orders
    assert not brute_force_refines(p4(), n4())
    assert brute_force_refines(n4(), p4())


def _random_order(rng, labels, edge_probability):
    n = len(labels)
    layout = rng.sample(range(n), n)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_probability:
                rows[layout[a]] |= 1 << layout[b]
    return PartialString(tuple(labels), tuple(transitive_closure(rows)))


def test_find_morphism_matches_oracle_on_equal_label_multisets():
    # Equal event counts and label multisets, so the pairs reach the
    # candidate filter and the backtracking search instead of stopping
    # at the cheap pre-checks; a sparse source and a denser target give
    # both outcomes.
    rng = random.Random(7)
    outcomes = []
    for _ in range(300):
        labels = [rng.choice("ab") for _ in range(rng.choice((6, 7)))]
        x = _random_order(rng, labels, 0.5)
        y = _random_order(rng, rng.sample(labels, len(labels)), 0.2)
        m = find_morphism(y, x)
        assert (m is not None) == brute_force_refines(x, y)
        assert m is None or m.is_valid(y, x)
        if y.order_pair_count() <= x.order_pair_count():
            outcomes.append(m is not None)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def _kth_onto_kth(src, tgt):
    """Map the k-th event of each label onto the target's k-th of that label."""
    slots = {}
    for t, lab in enumerate(tgt.labels):
        slots.setdefault(lab, []).append(t)
    seen = {}
    mapping = []
    for lab in src.labels:
        seen[lab] = seen.get(lab, -1) + 1
        mapping.append(slots[lab][seen[lab]])
    return tuple(mapping)


def test_find_morphism_from_antichain_maps_kth_onto_kth():
    rng = random.Random(31)
    corpus = enumerate_all(4, "ab")
    sources = [x for x in corpus if not x.strict_pairs()]
    targets = list(corpus)
    for _ in range(40):
        labels = [rng.choice("abc") for _ in range(rng.randint(5, 12))]
        sources.append(functools.reduce(par, map(singleton, labels)))
        targets.append(_random_order(rng, rng.sample(labels, len(labels)), 0.3))
    sources += [_permuted(rng, x) for x in sources]
    targets += [_permuted(rng, y) for y in targets]
    outcomes = []
    for x in sources:
        for y in targets:
            if y.n_events != x.n_events:
                continue
            m = find_morphism(x, y)
            assert (m is not None) == brute_force_refines(y, x)
            if m is not None:
                assert m.mapping == _kth_onto_kth(x, y)
                assert m.is_valid(x, y)
            outcomes.append(m is not None)
    assert outcomes.count(True) >= 500 and outcomes.count(False) >= 500


def test_refinement_of_long_strings():
    word = chain("a" * 1100)
    assert refines(word, chain("a" * 1100))
    same = find_morphism(word, chain("a" * 1100))
    assert same is not None and same.is_valid(word, word)
    antichain = functools.reduce(par, [singleton("a")] * 1100)
    m = find_morphism(antichain, word)
    assert m is not None and m.is_valid(antichain, word)


def _hard_family(n):
    """200 random one-label pairs of ``n`` events: a denser target, a sparser source.

    A fresh ``random.Random(4)`` per size draws each target's pairs
    ``i < j`` at 0.12 and then the source's at 0.08, keeping the pair when
    the source has at most as many strict pairs as the target.
    """
    rng = random.Random(4)
    labels = ("a",) * n
    pairs = []
    while len(pairs) < 200:
        drawn = []
        for p in (0.12, 0.08):
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ]
            drawn.append(from_strict_pairs(labels, edges))
        tgt, src = drawn
        if len(src.strict_pairs()) <= len(tgt.strict_pairs()):
            pairs.append((src, tgt))
    return pairs


def test_find_morphism_answers_on_the_hard_family():
    # Pinned by answers, not by time: the search must stay complete on
    # sizes where both outcomes are common and backtracking is deep.
    for n, found in ((14, 115), (16, 94)):
        hits = 0
        for src, tgt in _hard_family(n):
            m = find_morphism(src, tgt)
            if m is not None:
                assert m.is_valid(src, tgt)
                hits += 1
        assert hits == found


def test_refines_reflexive_on_examples():
    for x in (empty(), singleton("a"), n4(), p4()):
        assert refines(x, x)


def test_equal_values_are_decided_without_search(monkeypatch):
    calls = []
    original = cka.partial_string.find_morphism
    monkeypatch.setattr(
        cka.partial_string,
        "find_morphism",
        lambda *args: calls.append(args) or original(*args),
    )
    for make in (empty, n4, p4, lambda: chain("ab" * 600)):
        x, y = make(), make()
        assert x is y
        assert refines(x, y) and refines(y, x) and isomorphic(x, y)
    assert calls == []
    assert not refines(p4(), n4())
    assert len(calls) == 1


def test_identity_shortcut_matches_oracle():
    # Equal label tuples are where the identity map can be a witness.
    corpus = enumerate_all(4, "ab")
    pairs = [(x, y) for x in corpus for y in corpus if x.labels == y.labels]
    rng = random.Random(37)
    cfg = GenConfig(max_events=6, alphabet=("a", "b", "c"), edge_probability=0.3, seed=37)
    for _ in range(100):
        x = _sample_string(rng, cfg)
        stronger = _strengthened(rng, x)
        pairs += [(stronger, x), (x, stronger), (_permuted(rng, stronger), x)]
    outcomes = [refines(x, y) for x, y in pairs]
    assert outcomes == [brute_force_refines(x, y) for x, y in pairs]
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 300


def test_strengthened_copy_refines_without_search(monkeypatch):
    calls = []
    original = cka.partial_string.find_morphism
    monkeypatch.setattr(
        cka.partial_string,
        "find_morphism",
        lambda *args: calls.append(args) or original(*args),
    )
    rng = random.Random(41)
    cfg = GenConfig(max_events=7, alphabet=("a", "b"), edge_probability=0.2, seed=41)
    for _ in range(200):
        x = _sample_string(rng, cfg)
        assert refines(_strengthened(rng, x), x)
    assert calls == []


def test_find_morphism_witness_follows_the_search_not_the_identity():
    # The identity map is a witness here, but refines answers that without
    # a search, and the search's own visiting order reaches (2, 0, 1) first.
    y, x = from_strict_pairs("aaa", [(1, 2)]), chain("aaa")
    assert Morphism((0, 1, 2)).is_valid(y, x)
    assert refines(x, y)
    assert find_morphism(y, x).mapping == (2, 0, 1)


def test_isomorphic_seq_associativity():
    x, y, z = chain(("a", "b")), singleton("c"), par(singleton("a"), singleton("d"))
    assert isomorphic(seq(seq(x, y), z), seq(x, seq(y, z)))
    assert isomorphic(par(par(x, y), z), par(x, par(y, z)))


def test_exchange_holds_but_is_not_isomorphism_on_singletons():
    u, v, x, y = (singleton(l) for l in "uvxy")
    assert exchange_holds(u, v, x, y)
    lhs = seq(par(u, v), par(x, y))
    rhs = par(seq(u, x), seq(v, y))
    assert not isomorphic(lhs, rhs)


def test_exchange_on_empties():
    e = empty()
    assert exchange_holds(e, e, e, e)


def test_exchange_random_with_witness():
    rng = random.Random(11)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=11)
    for _ in range(50):
        u, v, x, y = (_sample_string(rng, cfg) for _ in range(4))
        assert exchange_holds(u, v, x, y)
        lhs = seq(par(u, v), par(x, y))
        rhs = par(seq(u, x), seq(v, y))
        witness = find_morphism(rhs, lhs)
        assert witness is not None and witness.is_valid(rhs, lhs)


def test_frame_laws_random():
    rng = random.Random(12)
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=12)
    for _ in range(50):
        x, y, z = (_sample_string(rng, cfg) for _ in range(3))
        assert refines(seq(par(x, y), z), par(x, seq(y, z)))
        assert refines(seq(x, par(y, z)), par(seq(x, y), z))


# Seeded 6- and 7-event pairs on which the search backtracks, each with
# several witnesses: source labels and rows, target labels and rows, and
# the witness the visiting order reaches first.
BACKTRACKING_PAIRS = [
    ("aaaaaaa", (1, 6, 4, 15, 17, 101, 65), "aaaaaaa", (61, 63, 52, 60, 48, 32, 127),
     (2, 4, 5, 0, 6, 1, 3)),
    ("aaaaaaa", (1, 2, 4, 72, 80, 36, 64), "aaaaaaa", (107, 98, 108, 104, 127, 32, 96),
     (5, 6, 3, 0, 4, 2, 1)),
    ("aaaaaa", (1, 3, 4, 13, 16, 49), "aaaaaa", (1, 3, 15, 11, 63, 47), (0, 1, 3, 2, 5, 4)),
    ("aaaaaa", (45, 2, 4, 44, 22, 32), "aaaaaa", (15, 2, 14, 10, 31, 42), (4, 3, 1, 0, 5, 2)),
    ("bababb", (1, 10, 5, 8, 31, 33), "abbabb", (61, 63, 44, 40, 60, 32), (5, 0, 2, 3, 1, 4)),
]


def test_find_morphism_witness_follows_the_visiting_order():
    for src_labels, src_rows, tgt_labels, tgt_rows, mapping in BACKTRACKING_PAIRS:
        src = PartialString(tuple(src_labels), src_rows)
        tgt = PartialString(tuple(tgt_labels), tgt_rows)
        validate(src)
        validate(tgt)
        witnesses = [
            b for b in _bijections(src, tgt) if Morphism(tuple(b)).is_valid(src, tgt)
        ]
        assert len(witnesses) > 1
        assert find_morphism(src, tgt).mapping == mapping


# --------------------------------------------------------------------- #
# Rendering and text format
# --------------------------------------------------------------------- #


def _signature_by_brute_force(x):
    # The signature's definition, read straight off the order rows.
    n = x.n_events
    up = [sum(i != j and x.order[i] >> j & 1 for j in range(n)) for i in range(n)]
    return (tuple(sorted(x.labels)), sum(up), tuple(sorted(zip(x.labels, up))))


def test_signature_is_an_isomorphism_invariant():
    rng = random.Random(37)
    cfg = GenConfig(max_events=9, alphabet=("a", "b", "c"), edge_probability=0.3, seed=37)
    corpus = enumerate_all(4, "ab") + [_sample_string(rng, cfg) for _ in range(300)]
    for x in corpus:
        assert _signature(_permuted(rng, x)) == _signature(x)


def test_signature_sorts_a_label_group_by_pair_count():
    # Normalization visits a label group in signature order and reads a
    # new pair count as the start of a layer, so a lower signature never
    # has more pairs.
    rng = random.Random(41)
    cfg = GenConfig(max_events=9, alphabet=("a", "b", "c"), edge_probability=0.3, seed=41)
    corpus = enumerate_all(4, "ab") + [_sample_string(rng, cfg) for _ in range(300)]
    groups = {}
    for x in corpus:
        groups.setdefault(_fill(x)._sorted, []).append(x)
    assert sum(len(group) > 1 for group in groups.values()) > 40
    for group in groups.values():
        pairs = [x._pairs for x in sorted(group, key=_signature)]
        assert pairs == sorted(pairs)


def _text_by_brute_force(x):
    n = x.n_events
    lt = [[i != j and bool(x.order[i] >> j & 1) for j in range(n)] for i in range(n)]
    covers = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    ]
    lines = ["events:" + "".join(" " + lab for lab in x.labels)]
    return covers, "\n".join(lines + [f"order: {i} < {j}" for i, j in covers])


def test_shape_fields_match_definitions_from_order():
    rng = random.Random(29)
    cfg = GenConfig(max_events=9, alphabet=("a", "b", "c"), edge_probability=0.3, seed=29)
    corpus = enumerate_all(4, "ab") + [_sample_string(rng, cfg) for _ in range(200)]
    corpus += [_permuted(rng, x) for x in corpus]
    # Equal signatures exactly when the brute-force signatures are equal.
    pairs = {
        ((_fill(x)._sorted, x._pairs, _signature(x)), _signature_by_brute_force(x))
        for x in corpus
    }
    assert len({new for new, _ in pairs}) == len(pairs) == len({old for _, old in pairs})
    assert len(pairs) > 300
    # Signing reads the order rows alone: it builds no down masks.  Each
    # nonempty string, relabelled, is fresh.
    for x in corpus:
        if x.labels:
            fresh = PartialString(tuple("sign-" + lab for lab in x.labels), x.order)
            assert fresh._down is None
            assert _signature(fresh) == _signature(x)
            assert fresh._down is None
    built = []
    for _ in range(300):
        x, y = rng.choice(corpus), rng.choice(corpus)
        built += [seq(x, y), par(x, y), weakseq(x, y, _sample_dependence(rng, cfg))]
    for x in corpus + built:
        n = x.n_events
        lt = [[i != j and bool(x.order[i] >> j & 1) for j in range(n)] for i in range(n)]
        _fill(x)
        assert x._sorted == tuple(sorted(x.labels))
        assert x._pairs == sum(map(sum, lt))
        down = tuple(sum(lt[i][j] << i for i in range(n)) for j in range(n))
        assert _down_masks(x) == down
        assert x._down is _down_masks(x)
    # Long chains with shuffled indices: the lowest successor is rarely the cover.
    corpus += [_permuted(rng, chain(rng.choices("abc", k=40))) for _ in range(5)]
    for x in corpus:
        covers, text = _text_by_brute_force(x)
        assert hasse(x) == covers
        assert to_text(x) == text


def test_text_hasse_and_dot_read_one_cover_walk():
    # A cover is a pair i < j with no k strictly between them.
    rng = random.Random(31)
    corpus = enumerate_all(4, "ab")
    for _ in range(60):
        long = _random_order(rng, rng.choices("abc", k=rng.randint(9, 14)), 0.3)
        corpus += [long, _permuted(rng, long)]
    for x in corpus:
        covers, text = _text_by_brute_force(x)
        assert _cover_text(x) == text
        assert hasse(x) == covers
        edges = re.findall(r"^  e(\d+) -> e(\d+);$", to_dot(x), re.MULTILINE)
        assert [(int(i), int(j)) for i, j in edges] == covers


def test_order_queries_and_operators_fill_no_fields():
    def unset(v):
        return (v._pairs, v._down, v._sig, v._text) == (None, None, None, None)

    x = from_strict_pairs(("covers0", "covers1", "covers2"), [(0, 1), (1, 2)])
    assert unset(x)
    validate(x)
    assert x.leq(0, 2) and not x.leq(2, 0)
    assert x.order_pair_count() == 6
    assert hasse(x) == [(0, 1), (1, 2)]
    assert x.strict_pairs() == [(0, 1), (0, 2), (1, 2)]
    assert "e1 -> e2;" in to_dot(x)
    built = [seq(x, x), par(x, x)]
    assert all(map(unset, [x, *built]))


def test_hasse_of_chain():
    assert hasse(chain(("a", "b", "c"))) == [(0, 1), (1, 2)]


def test_hasse_of_antichain():
    assert hasse(par(singleton("a"), singleton("b"))) == []


def test_hasse_of_n_shape():
    assert hasse(n4()) == [(0, 2), (0, 3), (1, 3)]


def test_text_round_trip():
    rng = random.Random(14)
    cfg = GenConfig(max_events=7, alphabet=("a", "b", "c"), edge_probability=0.3, seed=14)
    strings = [empty(), singleton("a"), n4(), p4(), seq(n4(), p4())]
    strings += enumerate_all(4, "ab") + [_sample_string(rng, cfg) for _ in range(200)]
    for x in strings:
        assert from_text(to_text(x)) == x
    # A label that whitespace splits would not load back as one event.
    for label in ("a b", "", " a", "a\n", "\t"):
        for x in (singleton(label), par(singleton("a"), singleton(label))):
            with pytest.raises(TextFormatError, match=re.escape(repr(label))):
                to_text(x)


def test_validate_accepts_every_operator_output():
    rng = random.Random(15)
    cfg = GenConfig(max_events=5, alphabet=("a", "b", "c"), edge_probability=0.4, seed=15)
    for _ in range(200):
        x, y = _sample_string(rng, cfg), _sample_string(rng, cfg)
        for z in (seq(x, y), par(x, y), weakseq(x, y, _sample_dependence(rng, cfg))):
            validate(z)


def test_from_text_computes_closure():
    x = from_text("events: a b c\norder: 0 < 1\norder: 1 < 2\n")
    assert x.leq(0, 2)


def test_from_text_rejects_cycles():
    with pytest.raises(InvalidPartialString, match="antisymmetry"):
        from_text("events: a b\norder: 0 < 1\norder: 1 < 0\n")


def test_from_text_rejects_self_loops():
    with pytest.raises(InvalidPartialString, match=r"\(0, 0\) is not strict"):
        from_text("events: a\norder: 0 < 0")
    with pytest.raises(InvalidPartialString, match=r"\(1, 1\) is not strict"):
        from_strict_pairs(("a", "b"), [(0, 1), (1, 1)])


def test_from_text_requires_an_events_line():
    for text in ("", " \n\t\n"):
        with pytest.raises(TextFormatError, match="missing 'events:' line"):
            from_text(text)


def test_from_text_skips_blank_lines():
    assert from_text("events: a b c\norder: 0 < 1\n\n  \norder: 1 < 2\n") is chain("abc")


def test_from_text_rejects_garbage():
    with pytest.raises(TextFormatError):
        from_text("order: 0 < 1\n")
    with pytest.raises(TextFormatError):
        from_text("events: a\nnonsense\n")
    with pytest.raises(TextFormatError):
        from_text("events: a b\norder: 0 1\n")


@pytest.mark.parametrize("pair", ["\u0661 < 0", "\uff10 < 1", "1_0 < 1", "-1 < 0", "+1 < 0"])
def test_from_text_reads_indices_as_ascii_decimal_digits(pair):
    with pytest.raises(TextFormatError, match="malformed order line"):
        from_text(f"events: a b\norder: {pair}\n")


@pytest.mark.parametrize("pair", ["  0  <  1 ", "0<1"])
def test_from_text_allows_space_around_indices(pair):
    assert from_text(f"events: a b\norder:{pair}\n") is chain("ab")


def test_to_dot_n_shape():
    assert to_dot(n4()) == (
        "digraph pomset {\n"
        '  e0 [label="0:a"];\n'
        '  e1 [label="1:a"];\n'
        '  e2 [label="2:b"];\n'
        '  e3 [label="3:b"];\n'
        "  e0 -> e2;\n"
        "  e0 -> e3;\n"
        "  e1 -> e3;\n"
        "}"
    )


def test_to_dot_escapes_quotes_and_backslashes():
    dot = to_dot(from_text('events: a"x b\\y'))
    assert '  e0 [label="0:a\\"x"];' in dot.splitlines()
    assert '  e1 [label="1:b\\\\y"];' in dot.splitlines()


def test_to_dot_quotes_names_that_are_not_dot_ids():
    cases = [
        ("pomset", "digraph pomset {"),
        ("g_1", "digraph g_1 {"),
        ("my graph", 'digraph "my graph" {'),
        ('x"y', 'digraph "x\\"y" {'),
        ("a\\b", 'digraph "a\\\\b" {'),
        ("graph", 'digraph "graph" {'),
        ("Subgraph", 'digraph "Subgraph" {'),
        ("1x", 'digraph "1x" {'),
        ("", 'digraph "" {'),
        ("é", 'digraph "é" {'),
    ]
    for name, head in cases:
        assert to_dot(n4(), name).splitlines()[0] == head
    assert to_dot(n4(), "my graph").splitlines()[1:] == to_dot(n4()).splitlines()[1:]


def test_weakseq_extremes_equal_seq_and_par_exactly():
    strings = enumerate_all(3, "ab")
    for x in strings:
        for y in strings:
            full = DependenceRelation.full(set(x.labels) | set(y.labels))
            assert weakseq(x, y, full) == seq(x, y)
            assert weakseq(x, y, DependenceRelation.none()) == par(x, y)
