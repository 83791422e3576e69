"""Brute-force oracles, exhaustive and random generators, and the law suite.

The refinement oracle here shares only the PartialString value type with
the optimized search; agreement between the two on exhaustive and random
corpora is the library's primary correctness check.  The law suite runs
every algebraic property of the partial-string operators, the program
algebra and the language map on seeded random inputs and reports one
pass/fail line per law.
"""

from __future__ import annotations

__all__ = [
    "GenConfig",
    "LAWS",
    "Law",
    "LawReport",
    "LawResult",
    "PROGRAM_ALGEBRA_LAW_NAMES",
    "brute_force_refines",
    "enumerate_all",
    "law_suite",
    "random_partial_string",
]

import itertools
import math
import random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .language import lang_subset, linearize
from .partial_string import (
    DependenceRelation,
    Label,
    PartialString,
    _Frozen,
    _bits,
    _set_slot,
    chain,
    empty,
    find_morphism,
    isomorphic,
    par,
    refines,
    seq,
    singleton,
    transitive_closure,
    weakseq,
)
from .program import (
    ComposeOp,
    Program,
    equals,
    normalize_program,
    one,
    pcompose,
    punion,
    star,
    subset,
    zero,
)


class GenConfig(_Frozen):
    """Sampling parameters; a fixed seed pins the whole stream."""

    __slots__ = ("max_events", "alphabet", "edge_probability", "seed")
    max_events: int
    alphabet: tuple[Label, ...]
    edge_probability: float
    seed: int

    def __init__(
        self,
        max_events: int = 4,
        alphabet: tuple[Label, ...] = ("a", "b"),
        edge_probability: float = 0.4,
        seed: int = 0,
    ) -> None:
        if max_events < 0:
            raise ValueError("max_events must be >= 0")
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError("edge_probability must be within [0, 1]")
        _set_slot(self, "max_events", max_events)
        _set_slot(self, "alphabet", alphabet)
        _set_slot(self, "edge_probability", edge_probability)
        _set_slot(self, "seed", seed)


# --------------------------------------------------------------------- #
# Brute-force oracles
# --------------------------------------------------------------------- #


def _label_groups(labels: Sequence[Label]) -> dict[Label, list[int]]:
    groups: dict[Label, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return groups


def _bijections(src: PartialString, tgt: PartialString) -> Iterator[list[int]]:
    """Every label-preserving bijection from ``src``'s events onto ``tgt``'s.

    Yields ``mapping`` lists with ``mapping[i]`` the image of event ``i``;
    yields nothing when the label multisets differ.  The order is that of
    ``itertools.product`` over each label's ``permutations``, labels sorted,
    the last label's varying fastest; nested loops yield it lazily, where
    ``product`` would first store every permutation of every label.
    """
    gs = _label_groups(src.labels)
    gt = _label_groups(tgt.labels)
    if src.n_events != tgt.n_events or any(
        len(gs[lab]) != len(gt.get(lab, ())) for lab in gs
    ):
        return
    groups = [(gs[lab], gt[lab]) for lab in sorted(gs)]
    mapping = [0] * src.n_events

    def assign(k: int) -> Iterator[list[int]]:
        events, images = groups[k]
        last = k + 1 == len(groups)
        for perm in itertools.permutations(images):
            for src_ev, tgt_ev in zip(events, perm):
                mapping[src_ev] = tgt_ev
            if last:
                yield mapping.copy()
            else:
                yield from assign(k + 1)

    if groups:
        yield from assign(0)
    else:
        yield mapping


def brute_force_refines(x: PartialString, y: PartialString) -> bool:
    """Refinement decided by exhaustive enumeration.

    Tries every label-respecting bijection from ``y``'s events onto
    ``x``'s and tests monotonicity directly; no pruning beyond grouping
    events by label.  Intended for small operands (at most about seven
    events per side).
    """
    n = y.n_events
    return any(
        all(
            not y.leq(i, j) or x.leq(m[i], m[j]) for i in range(n) for j in range(n)
        )
        for m in _bijections(y, x)
    )


def _brute_force_isomorphic(x: PartialString, y: PartialString) -> bool:
    """Order-isomorphism by exhaustive search (order preserved both ways)."""
    n = x.n_events
    return any(
        all(x.leq(i, j) == y.leq(m[i], m[j]) for i in range(n) for j in range(n))
        for m in _bijections(x, y)
    )


def _count_extensions_brute(x: PartialString) -> int:
    """Linear extensions counted by filtering all event permutations."""
    n = x.n_events
    strict = x.strict_pairs()
    count = 0
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for idx, e in enumerate(perm):
            pos[e] = idx
        if all(pos[i] < pos[j] for i, j in strict):
            count += 1
    return count


# --------------------------------------------------------------------- #
# Exhaustive and random generation
# --------------------------------------------------------------------- #


def enumerate_all(max_events: int, alphabet: Iterable[Label]) -> list[PartialString]:
    """All pairwise non-isomorphic partial strings of at most ``max_events``.

    Generates every DAG in identity-compatible topological order (which
    covers every poset up to isomorphism), closes it, keeps each distinct
    closed order once, labels it in all ways, and deduplicates by
    bucket of sorted (label, strict down-set size, strict up-set size)
    triples; within one, pair counts are equal, so one :func:`refines`
    decides isomorphism; a bucket may hold non-isomorphic strings.
    """
    labs = tuple(alphabet)
    found: list[PartialString] = []
    buckets: dict[tuple, list[int]] = {}
    for n in range(max_events + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        orders: dict[tuple[int, ...], None] = {}
        for bits in range(1 << len(slots)):
            rows = [1 << i for i in range(n)]
            for b, (i, j) in enumerate(slots):
                if bits >> b & 1:
                    rows[i] |= 1 << j
            orders[tuple(transitive_closure(rows))] = None
        for rows_t in orders:
            downs = [sum(row >> e & 1 for row in rows_t) - 1 for e in range(n)]
            ups = [row.bit_count() - 1 for row in rows_t]
            for labelling in itertools.product(labs, repeat=n):
                ps = PartialString(labelling, rows_t)
                key = tuple(sorted(zip(labelling, downs, ups)))
                group = buckets.setdefault(key, [])
                if not any(refines(ps, found[k]) for k in group):
                    group.append(len(found))
                    found.append(ps)
    return found


def random_partial_string(cfg: GenConfig) -> PartialString:
    """One random partial string, fully determined by ``cfg`` (seed included).

    The seed pins the string on every supported Python: the draws read
    only ``random()`` and ``getrandbits()``, and every bounded draw is the
    rejection loop :func:`_below` documents, run inline where it is hot.
    """
    return _sample_string(random.Random(cfg.seed), cfg)


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, in one frame instead of two or three.

    This is the rejection loop on ``getrandbits(n.bit_length())`` that
    CPython 3.10-3.13 runs under ``randrange``, ``choice`` and ``shuffle``,
    so it returns the same int and leaves the same generator state.  The
    seeded draws then read the generator's own outputs, not the algorithms
    of those methods, which the ``random`` docs leave free to change.

    Single draws call it.  :func:`_shuffled` and :func:`_sample_string`
    run the same loop inline, with no call per draw; they must draw
    exactly as it does.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _shuffled(rng: random.Random, n: int) -> list[int]:
    """``list(range(n))`` in the order ``rng.shuffle`` leaves it, draw for draw.

    Each swap index is drawn by :func:`_below`'s rejection loop, run inline.
    """
    perm = list(range(n))
    getrandbits = rng.getrandbits
    for i in reversed(range(1, n)):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _sample_string(
    rng: random.Random, cfg: GenConfig, max_events: Optional[int] = None
) -> PartialString:
    cap = cfg.max_events if max_events is None else max_events
    n = _below(rng, cap + 1)
    layout = _shuffled(rng, n) if n > 1 else list(range(n))
    draw, p = rng.random, cfg.edge_probability
    # Edges run from layout position a to each later b drawn; the layout is
    # then a topological order, so one backward sweep closes the rows.
    succ = [[b for b in range(a + 1, n) if draw() < p] for a in range(n)]
    rows = [0] * n
    for a in reversed(range(n)):
        row = 1 << layout[a]
        for b in succ[a]:
            row |= rows[layout[b]]
        rows[layout[a]] = row
    # Each label index is drawn by _below's rejection loop, run inline.
    alphabet = cfg.alphabet
    k = len(alphabet)
    bits = k.bit_length()
    getrandbits = rng.getrandbits
    labels = []
    for _ in range(n):
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        labels.append(alphabet[r])
    return PartialString(tuple(labels), tuple(rows))


def _strengthened(rng: random.Random, x: PartialString) -> PartialString:
    """Copy of ``x`` with extra order pairs; the result refines ``x``."""
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
                # rows are closed and j is not below i, so adding i < j
                # closes in one pass: every row reaching i takes j's row
                up = rows[j]
                rows = [r | up if r >> i & 1 else r for r in rows]
    return PartialString(x.labels, tuple(rows))


def _permuted(rng: random.Random, x: PartialString) -> PartialString:
    """Isomorphic copy of ``x`` with event indices shuffled."""
    n = x.n_events
    perm = _shuffled(rng, n)
    labels: list[Label] = [""] * n
    rows = [0] * n
    for i in range(n):
        labels[perm[i]] = x.labels[i]
        mask = 0
        for j in _bits(x.order[i]):
            mask |= 1 << perm[j]
        rows[perm[i]] = mask
    return PartialString(tuple(labels), tuple(rows))


def _sample_dependence(rng: random.Random, cfg: GenConfig) -> DependenceRelation:
    return DependenceRelation.of(
        (a, b)
        for a in cfg.alphabet
        for b in cfg.alphabet
        if rng.random() < 0.5
    )


def _sample_program(
    rng: random.Random,
    cfg: GenConfig,
    max_generators: int = 3,
    max_events: int = 3,
) -> Program:
    k = _below(rng, max_generators + 1)
    gens = tuple(_sample_string(rng, cfg, max_events) for _ in range(k))
    return normalize_program(Program(gens))


# --------------------------------------------------------------------- #
# The law suite
# --------------------------------------------------------------------- #

LawCheck = Callable[[random.Random, GenConfig], bool]


class Law(_Frozen):
    __slots__ = ("name", "group", "check")
    name: str
    group: str  # "pomset", "program" or "language"
    check: LawCheck


LAWS: list[Law] = []


def _law(name: str, group: str) -> Callable[[LawCheck], LawCheck]:
    def register(fn: LawCheck) -> LawCheck:
        LAWS.append(Law(name, group, fn))
        return fn

    return register


@_law("refines-reflexive", "pomset")
def _refl(rng, cfg):
    x = _sample_string(rng, cfg)
    return refines(x, x)


@_law("refines-transitive", "pomset")
def _trans(rng, cfg):
    z = _sample_string(rng, cfg)
    y = _strengthened(rng, z)
    x = _strengthened(rng, y)
    return refines(x, y) and refines(y, z) and refines(x, z)


@_law("mutual-refinement-is-isomorphism", "pomset")
def _antisym(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _permuted(rng, x) if rng.random() < 0.5 else _sample_string(rng, cfg)
    both_ways = refines(x, y) and refines(y, x)
    return both_ways == _brute_force_isomorphic(x, y) and both_ways == isomorphic(x, y)


@_law("par-commutative", "pomset")
def _par_comm(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _sample_string(rng, cfg)
    return isomorphic(par(x, y), par(y, x))


@_law("composition-identity", "pomset")
def _identity(rng, cfg):
    x = _sample_string(rng, cfg)
    d = _sample_dependence(rng, cfg)
    ops = (seq, par, lambda a, b: weakseq(a, b, d))
    return all(
        isomorphic(op(x, empty()), x) and isomorphic(op(empty(), x), x) for op in ops
    )


@_law("weakseq-between-seq-and-par", "pomset")
def _sandwich(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _sample_string(rng, cfg)
    d = _sample_dependence(rng, cfg)
    w = weakseq(x, y, d)
    return refines(seq(x, y), w) and refines(w, par(x, y))


@_law("composition-monotone", "pomset")
def _monotone(rng, cfg):
    y = _sample_string(rng, cfg)
    x = _strengthened(rng, y)
    z = _sample_string(rng, cfg)
    return all(
        refines(op(x, z), op(y, z)) and refines(op(z, x), op(z, y))
        for op in (seq, par)
    )


@_law("composition-associative", "pomset")
def _assoc(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _sample_string(rng, cfg)
    z = _sample_string(rng, cfg)
    return all(
        isomorphic(op(op(x, y), z), op(x, op(y, z))) for op in (seq, par)
    )


@_law("exchange", "pomset")
def _exchange(rng, cfg):
    u, v, x, y = (_sample_string(rng, cfg, 3) for _ in range(4))
    lhs = seq(par(u, v), par(x, y))
    rhs = par(seq(u, x), seq(v, y))
    witness = find_morphism(rhs, lhs)
    return witness is not None and witness.is_valid(rhs, lhs)


@_law("frame-laws", "pomset")
def _frames(rng, cfg):
    x = _sample_string(rng, cfg, 3)
    y = _sample_string(rng, cfg, 3)
    z = _sample_string(rng, cfg, 3)
    return refines(seq(par(x, y), z), par(x, seq(y, z))) and refines(
        seq(x, par(y, z)), par(seq(x, y), z)
    )


@_law("refines-matches-brute-force", "pomset")
def _oracle(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _sample_string(rng, cfg)
    return refines(x, y) == brute_force_refines(x, y) and refines(
        y, x
    ) == brute_force_refines(y, x)


@_law("composition-counts", "pomset")
def _counts(rng, cfg):
    x = _sample_string(rng, cfg)
    y = _sample_string(rng, cfg)
    d = _sample_dependence(rng, cfg)
    s, w, p = seq(x, y), weakseq(x, y, d), par(x, y)
    total = x.n_events + y.n_events
    if any(c.n_events != total for c in (s, w, p)):
        return False
    return s.order_pair_count() >= w.order_pair_count() >= p.order_pair_count()


@_law("union-associative", "program")
def _u_assoc(rng, cfg):
    x, y, z = (_sample_program(rng, cfg) for _ in range(3))
    return equals(punion(punion(x, y), z), punion(x, punion(y, z)))


@_law("union-commutative", "program")
def _u_comm(rng, cfg):
    x, y = (_sample_program(rng, cfg) for _ in range(2))
    return equals(punion(x, y), punion(y, x))


@_law("union-idempotent", "program")
def _u_idem(rng, cfg):
    x = _sample_program(rng, cfg)
    return equals(punion(x, x), x)


@_law("union-unit", "program")
def _u_unit(rng, cfg):
    x = _sample_program(rng, cfg)
    return equals(punion(x, zero()), x) and equals(punion(zero(), x), x)


@_law("compose-annihilator", "program")
def _annihilator(rng, cfg):
    x = _sample_program(rng, cfg)
    return all(
        equals(pcompose(x, zero(), op), zero())
        and equals(pcompose(zero(), x, op), zero())
        for op in (seq, par)
    )


@_law("compose-identity", "program")
def _p_identity(rng, cfg):
    x = _sample_program(rng, cfg)
    return all(
        equals(pcompose(x, one(), op), x) and equals(pcompose(one(), x, op), x)
        for op in (seq, par)
    )


@_law("par-compose-commutative", "program")
def _p_comm(rng, cfg):
    x, y = (_sample_program(rng, cfg) for _ in range(2))
    return equals(pcompose(x, y, par), pcompose(y, x, par))


@_law("compose-associative", "program")
def _p_assoc(rng, cfg):
    x, y, z = (_sample_program(rng, cfg) for _ in range(3))
    return all(
        equals(pcompose(pcompose(x, y, op), z, op), pcompose(x, pcompose(y, z, op), op))
        for op in (seq, par)
    )


def _distributes(op: ComposeOp) -> LawCheck:
    """Composition under ``op`` distributes over union on both sides."""

    def check(rng, cfg):
        x, y, z = (_sample_program(rng, cfg) for _ in range(3))
        left = equals(
            pcompose(x, punion(y, z), op),
            punion(pcompose(x, y, op), pcompose(x, z, op)),
        )
        right = equals(
            pcompose(punion(y, z), x, op),
            punion(pcompose(y, x, op), pcompose(z, x, op)),
        )
        return left and right

    return check


_law("seq-distributes-over-union", "program")(_distributes(seq))
_law("par-distributes-over-union", "program")(_distributes(par))


@_law("program-exchange", "program")
def _p_exchange(rng, cfg):
    u, v, x, y = (_sample_program(rng, cfg) for _ in range(4))
    lhs = pcompose(pcompose(u, v, par), pcompose(x, y, par), seq)
    rhs = pcompose(pcompose(u, x, seq), pcompose(v, y, seq), par)
    return subset(lhs, rhs)


@_law("order-is-join", "program")
def _order_join(rng, cfg):
    x = _sample_program(rng, cfg)
    y = _sample_program(rng, cfg)
    if rng.random() < 0.5:
        y = punion(x, y)  # force true inclusions half the time
    return subset(x, y) == equals(punion(x, y), y)


@_law("weak-sequential-consistency", "program")
def _wsc(rng, cfg):
    x, y = (_sample_program(rng, cfg) for _ in range(2))
    both_orders = punion(pcompose(x, y, seq), pcompose(y, x, seq))
    return subset(both_orders, pcompose(x, y, par))


@_law("program-frame-laws", "program")
def _p_frames(rng, cfg):
    x, y, z = (_sample_program(rng, cfg, max_events=2) for _ in range(3))
    return (
        subset(pcompose(x, y, seq), pcompose(x, y, par))
        and subset(
            pcompose(pcompose(x, y, par), z, seq),
            pcompose(x, pcompose(y, z, seq), par),
        )
        and subset(
            pcompose(x, pcompose(y, z, par), seq),
            pcompose(pcompose(x, y, seq), z, par),
        )
    )


@_law("normalize-preserves-semantics", "program")
def _norm(rng, cfg):
    raw = Program(tuple(_sample_string(rng, cfg, 3) for _ in range(_below(rng, 5))))
    norm = normalize_program(raw)
    if not equals(raw, norm):
        return False
    gens = norm.generators
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and refines(g, h):
                return False
    return True


@_law("subset-preorder", "program")
def _sub_preorder(rng, cfg):
    x, y, z = (_sample_program(rng, cfg) for _ in range(3))
    mid = punion(x, y)
    top = punion(mid, z)
    if not (subset(x, x) and subset(x, mid) and subset(mid, top) and subset(x, top)):
        return False
    return (subset(x, y) and subset(y, x)) == equals(x, y)


@_law("star-chain-and-unfold", "program")
def _star(rng, cfg):
    p = _sample_program(rng, cfg, max_generators=2, max_events=2)
    op = (seq, par)[_below(rng, 2)]
    iterates = [star(p, op, n) for n in range(1, 5)]
    if not equals(iterates[0], one()):
        return False
    for prev, nxt in zip(iterates, iterates[1:]):
        if not subset(prev, nxt):
            return False
        if not equals(nxt, punion(one(), pcompose(p, prev, op))):
            return False
    return True


@_law("linearizations-refine", "language")
def _lin_refines(rng, cfg):
    x = _sample_string(rng, cfg, min(cfg.max_events, 4))
    return all(refines(chain(w), x) for w in linearize(x))


@_law("linearization-count", "language")
def _lin_count(rng, cfg):
    # distinct labels make words correspond one-to-one to extensions
    order = _sample_string(rng, cfg, 4).order
    n = len(order)
    labels = tuple(f"t{i}" for i in range(n))
    x = PartialString(labels, order)
    if len(linearize(x)) != _count_extensions_brute(x):
        return False
    antichain = PartialString(labels, tuple(1 << i for i in range(n)))
    return len(linearize(antichain)) == math.factorial(n)


@_law("language-monotone", "language")
def _lang_mono(rng, cfg):
    x = _sample_program(rng, cfg)
    y = punion(x, _sample_program(rng, cfg))
    if not lang_subset(x, y):
        return False
    u = _sample_program(rng, cfg)
    v = _sample_program(rng, cfg)
    return not subset(u, v) or lang_subset(u, v)


@_law("language-strictness-counterexample", "language")
def _lang_strict(rng, cfg):
    x = Program((singleton("a"),))
    y = Program((singleton("b"),))
    interleaved = pcompose(x, y, par)
    sequenced = punion(pcompose(x, y, seq), pcompose(y, x, seq))
    return lang_subset(interleaved, sequenced) and not subset(interleaved, sequenced)


PROGRAM_ALGEBRA_LAW_NAMES = (
    "union-associative",
    "union-commutative",
    "union-idempotent",
    "union-unit",
    "compose-annihilator",
    "compose-identity",
    "par-compose-commutative",
    "compose-associative",
    "seq-distributes-over-union",
    "par-distributes-over-union",
    "program-exchange",
    "order-is-join",
)


class LawResult(_Frozen):
    __slots__ = ("name", "passes", "failures")
    name: str
    passes: int
    failures: int


class LawReport(_Frozen):
    """Outcome of one law-suite run; text form is byte-stable per seed."""

    __slots__ = ("seed", "cases", "results")
    seed: int
    cases: int
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.failures == 0 for r in self.results)

    def to_text(self) -> str:
        width = max((len(r.name) for r in self.results), default=3)
        lines = [
            f"seed: {self.seed}",
            f"cases: {self.cases}",
            f"{'law'.ljust(width)}  pass  fail",
        ]
        for r in self.results:
            lines.append(f"{r.name.ljust(width)}  {r.passes:4d}  {r.failures:4d}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        for r in self.results:
            lines.append(f"#law {r.name} {'pass' if r.failures == 0 else 'fail'}")
        return "\n".join(lines)


def law_suite(
    cfg: GenConfig, cases: int = 100, laws: Optional[Sequence[Law]] = None
) -> LawReport:
    """Run each registered law ``cases`` times on seeded random inputs.

    Every law draws from its own generator seeded by ``cfg.seed`` and the
    law name, so reports are reproducible and insensitive to law order.
    A seed pins the inputs on every supported Python, because the draws
    read only ``random()`` and ``getrandbits()``, and every bounded draw
    is the rejection loop :func:`_below` documents, run inline where it
    is hot.
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    chosen = LAWS if laws is None else list(laws)
    results = []
    for law in chosen:
        rng = random.Random(f"{cfg.seed}/{law.name}")
        passes = failures = 0
        for _ in range(cases):
            if law.check(rng, cfg):
                passes += 1
            else:
                failures += 1
        results.append(LawResult(law.name, passes, failures))
    return LawReport(cfg.seed, cases, tuple(results))
