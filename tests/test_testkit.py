import hashlib
import itertools
import random
import tracemalloc

import pytest

import cka.testkit
from cka import (
    GenConfig,
    LAWS,
    PartialString,
    Program,
    brute_force_refines,
    chain,
    enumerate_all,
    from_strict_pairs,
    isomorphic,
    law_suite,
    normalize_program,
    par,
    random_partial_string,
    refines,
    seq,
    singleton,
    transitive_closure,
    validate,
)
from cka.partial_string import _fill, _signature
from cka.testkit import (
    Law,
    _below,
    _bijections,
    _brute_force_isomorphic,
    _permuted,
    _sample_program,
    _sample_string,
    _strengthened,
)


def test_brute_force_matches_refines_on_basics():
    a, b = singleton("a"), singleton("b")
    assert brute_force_refines(seq(a, b), par(a, b))
    assert not brute_force_refines(par(a, b), seq(a, b))
    p4 = par(chain(("a", "b")), chain(("a", "b")))
    n4 = from_strict_pairs(("a", "a", "b", "b"), [(0, 2), (0, 3), (1, 3)])
    assert not brute_force_refines(p4, n4)
    assert brute_force_refines(n4, p4)


def test_brute_force_rejects_mismatched_shapes():
    assert not brute_force_refines(singleton("a"), singleton("b"))
    assert not brute_force_refines(singleton("a"), par(singleton("a"), singleton("a")))


def test_brute_force_isomorphic_matches_isomorphic():
    rng = random.Random(27)
    corpus = enumerate_all(3, ("a", "b"))
    for x in corpus:
        assert _brute_force_isomorphic(x, _permuted(rng, x))
        for y in corpus:
            assert _brute_force_isomorphic(x, y) == isomorphic(x, y)


def test_enumerate_all_counts():
    assert len(enumerate_all(0, ("a", "b"))) == 1
    small = enumerate_all(1, ("a", "b"))
    assert sum(1 for x in small if x.n_events == 0) == 1
    assert sum(1 for x in small if x.n_events == 1) == 2
    # one-letter alphabet, two events: chain and antichain only
    two = enumerate_all(2, ("a",))
    assert sum(1 for x in two if x.n_events == 2) == 2
    assert len(two) == 1 + 1 + 2
    assert len(enumerate_all(4, ("a", "b"))) == 234


def test_enumerate_all_is_pairwise_non_isomorphic():
    corpus = enumerate_all(3, ("a", "b"))
    for i, x in enumerate(corpus):
        for y in corpus[i + 1 :]:
            assert not isomorphic(x, y)


def test_enumerate_all_outputs_validate():
    for x in enumerate_all(3, ("a", "b")):
        validate(x)


def _enumerate_by_signature(max_events, alphabet):
    # enumerate_all with normalization's key for its buckets: sorted
    # labels, pair count and signature.
    found, buckets = [], {}
    for n in range(max_events + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        orders = {}
        for bits in range(1 << len(slots)):
            rows = [1 << i for i in range(n)]
            for b, (i, j) in enumerate(slots):
                if bits >> b & 1:
                    rows[i] |= 1 << j
            orders[tuple(transitive_closure(rows))] = None
        for rows_t in orders:
            for labelling in itertools.product(alphabet, repeat=n):
                ps = PartialString(labelling, rows_t)
                key = (_fill(ps)._sorted, ps._pairs, _signature(ps))
                group = buckets.setdefault(key, [])
                if not any(refines(ps, found[k]) for k in group):
                    group.append(len(found))
                    found.append(ps)
    return found


def test_enumerate_all_buckets_by_down_and_up_sizes(monkeypatch):
    # Any bucket key that is an isomorphism invariant keeps the first
    # string of each class in enumeration order; a finer key only spares
    # failed searches.
    assert enumerate_all(4, "abc") == _enumerate_by_signature(4, "abc")
    searches = []
    monkeypatch.setattr(
        cka.testkit, "refines", lambda x, y: searches.append(x) or refines(x, y)
    )
    for args, count in (((4, "ab"), 479), ((4, "abc"), 2501)):
        searches.clear()
        enumerate_all(*args)
        assert len(searches) == count


def test_random_partial_string_is_seed_deterministic():
    cfg = GenConfig(max_events=5, alphabet=("a", "b"), edge_probability=0.5, seed=99)
    assert random_partial_string(cfg) == random_partial_string(cfg)
    other = GenConfig(max_events=5, alphabet=("a", "b"), edge_probability=0.5, seed=100)
    samples = {random_partial_string(GenConfig(5, ("a", "b"), 0.5, s)) for s in range(40)}
    assert len(samples) > 1
    assert random_partial_string(other) == random_partial_string(other)


def test_random_partial_strings_validate():
    rng = random.Random(1)
    cfg = GenConfig(max_events=6, alphabet=("a", "b", "c"), edge_probability=0.5, seed=1)
    for _ in range(10_000):
        validate(_sample_string(rng, cfg))


def _sample_string_as_first_written(rng, cfg, max_events=None):
    """The sampler as first written: draws in the same order, closes rows at the end."""
    cap = cfg.max_events if max_events is None else max_events
    n = rng.randint(0, cap)
    layout = list(range(n))
    rng.shuffle(layout)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < cfg.edge_probability:
                rows[layout[a]] |= 1 << layout[b]
    labels = tuple(rng.choice(cfg.alphabet) for _ in range(n))
    return PartialString(labels, tuple(transitive_closure(rows)))


def _permuted_as_first_written(rng, x):
    perm = list(range(x.n_events))
    rng.shuffle(perm)
    labels = [None] * x.n_events
    for i, lab in enumerate(x.labels):
        labels[perm[i]] = lab
    return from_strict_pairs(labels, [(perm[i], perm[j]) for i, j in x.strict_pairs()])


def _strengthened_as_first_written(rng, x):
    """Closes the whole order again after each added pair."""
    n = x.n_events
    rows = list(x.order)
    for i in range(n):
        for j in range(n):
            if (
                i != j
                and not rows[i] >> j & 1
                and not rows[j] >> i & 1
                and rng.random() < 0.3
            ):
                rows[i] |= 1 << j
                rows = transitive_closure(rows)
    return PartialString(x.labels, tuple(rows))


def _sample_program_as_first_written(rng, cfg, max_generators, max_events):
    k = rng.randint(0, max_generators)
    gens = [_sample_string_as_first_written(rng, cfg, max_events) for _ in range(k)]
    return normalize_program(Program(tuple(gens)))


def test_below_is_randrange():
    for n in range(1, 71):
        fast, reference = random.Random(n), random.Random(n)
        for _ in range(50):
            assert _below(fast, n) == reference.randrange(n)
        assert fast.getstate() == reference.getstate()


def test_sampler_draws_the_stream_it_was_first_written_with():
    # seeds 0-299 cover every max_events 0-7 with every alphabet of 1-3 labels
    for seed in range(300):
        cfg = GenConfig(
            max_events=seed % 8,
            alphabet=("a", "b", "c")[: 1 + seed % 3],
            edge_probability=seed % 11 / 10,
            seed=seed,
        )
        fast, reference = random.Random(seed), random.Random(seed)
        for i in range(30):
            cap = None if i % 3 else i % 8
            x = _sample_string(fast, cfg, cap)
            assert x is _sample_string_as_first_written(reference, cfg, cap)
            assert _permuted(fast, x) is _permuted_as_first_written(reference, x)
            assert _strengthened(fast, x) is _strengthened_as_first_written(reference, x)
            bounds = (i % 4, i % 5)
            program = _sample_program(fast, cfg, *bounds)
            assert program == _sample_program_as_first_written(reference, cfg, *bounds)
        assert fast.getstate() == reference.getstate()


def test_sampler_stream_holds_for_wide_alphabets_and_caps():
    # alphabets of 1-7 labels and caps 0-15 reach draws of 1-5 bits
    for size in range(1, 8):
        for cap in range(16):
            seed = 16 * size + cap
            cfg = GenConfig(
                max_events=cap,
                alphabet=tuple("abcdefg"[:size]),
                edge_probability=seed % 11 / 10,
                seed=seed,
            )
            fast, reference = random.Random(seed), random.Random(seed)
            for i in range(4):
                x = _sample_string(fast, cfg)
                assert x is _sample_string_as_first_written(reference, cfg)
                assert _permuted(fast, x) is _permuted_as_first_written(reference, x)
                bounds = (i, cap)
                program = _sample_program(fast, cfg, *bounds)
                assert program == _sample_program_as_first_written(reference, cfg, *bounds)
            assert fast.getstate() == reference.getstate()


def test_first_draws_of_fixed_seeds_are_pinned():
    # The draws read only random() and getrandbits(), whose streams every
    # supported Python keeps, so this digest holds on each of them.
    digest = hashlib.sha256()
    for seed in range(4):
        rng = random.Random(seed)
        cfg = GenConfig(max_events=5, alphabet=("a", "b", "c"), edge_probability=0.4, seed=seed)
        for _ in range(250):
            digest.update(f"{_sample_string(rng, cfg)!r}\n{_sample_program(rng, cfg)!r}\n".encode())
    assert digest.hexdigest() == "39966562d7251b59239b40cec3b10cbc6298d91b34e148bc31eeee22d41614e7"


def test_zero_edge_probability_gives_antichains():
    cfg = GenConfig(max_events=6, alphabet=("a",), edge_probability=0.0, seed=5)
    x = random_partial_string(cfg)
    assert x.strict_pairs() == []


def test_strengthened_refines_original():
    rng = random.Random(17)
    cfg = GenConfig(max_events=5, alphabet=("a", "b"), edge_probability=0.3, seed=17)
    for _ in range(40):
        x = _sample_string(rng, cfg)
        y = _strengthened(rng, x)
        validate(y)
        assert refines(y, x)


def test_permuted_copy_is_isomorphic():
    rng = random.Random(18)
    cfg = GenConfig(max_events=5, alphabet=("a", "b"), edge_probability=0.4, seed=18)
    for _ in range(40):
        x = _sample_string(rng, cfg)
        y = _permuted(rng, x)
        validate(y)
        assert isomorphic(x, y)


def test_gen_config_validates_fields():
    with pytest.raises(ValueError):
        GenConfig(max_events=-1)
    with pytest.raises(ValueError):
        GenConfig(alphabet=())
    with pytest.raises(ValueError):
        GenConfig(edge_probability=1.5)


def test_law_suite_all_pass_and_seed_stable():
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.4, seed=13)
    report = law_suite(cfg, cases=15)
    assert report.ok
    assert all(r.passes == 15 and r.failures == 0 for r in report.results)
    again = law_suite(cfg, cases=15)
    assert report.to_text() == again.to_text()


def test_law_suite_rejects_bad_cases():
    with pytest.raises(ValueError):
        law_suite(GenConfig(seed=1), cases=0)


def test_law_suite_detects_injected_exchange_bug():
    # mutation: drop the cross ordering of the checked left-hand side,
    # turning the sequential step of the exchange into a concurrent one
    def broken_exchange(rng, cfg):
        u, v, x, y = (_sample_string(rng, cfg, 3) for _ in range(4))
        lhs = par(par(u, v), par(x, y))
        rhs = par(seq(u, x), seq(v, y))
        return refines(lhs, rhs)

    mutated = [
        Law("exchange", law.group, broken_exchange) if law.name == "exchange" else law
        for law in LAWS
    ]
    cfg = GenConfig(max_events=3, alphabet=("a", "b"), edge_probability=0.6, seed=14)
    report = law_suite(cfg, cases=30, laws=mutated)
    assert not report.ok
    failing = {r.name for r in report.results if r.failures > 0}
    assert failing == {"exchange"}
    assert "#law exchange fail" in report.to_text()


def _bijections_by_product(src, tgt):
    """The enumerator as written on ``itertools.product``: the order to keep."""
    if sorted(src.labels) != sorted(tgt.labels):
        return
    gs, gt = {}, {}
    for groups, labels in ((gs, src.labels), (gt, tgt.labels)):
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
    labs = sorted(gs)
    for combo in itertools.product(*(itertools.permutations(gt[lab]) for lab in labs)):
        mapping = [0] * src.n_events
        for lab, images in zip(labs, combo):
            for src_ev, tgt_ev in zip(gs[lab], images):
                mapping[src_ev] = tgt_ev
        yield mapping


def test_bijections_keep_the_product_order():
    corpus = enumerate_all(3, "ab")
    compared = 0
    for x in corpus:
        for y in corpus:
            got = list(_bijections(x, y))
            assert got == list(_bijections_by_product(x, y))
            compared += bool(got)
    assert compared > 100


def test_first_bijection_of_a_large_label_class_stores_no_permutations():
    antichain = PartialString(("a",) * 9, tuple(1 << i for i in range(9)))
    tracemalloc.start()
    try:
        first = next(_bijections(antichain, antichain))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == list(range(9))
    assert peak < 1_000_000
