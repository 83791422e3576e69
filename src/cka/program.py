"""Programs: finite generator sets denoting downward-closed pomset sets.

A program is semantically the downward closure, under refinement, of its
generators.  The closure is never materialized; every predicate works on
generators, which is sound and complete because refinement is transitive
and a partial string sits in a downward closure exactly when it refines
some generator.
"""

from __future__ import annotations

__all__ = [
    "Program",
    "contains",
    "equals",
    "normalize_program",
    "one",
    "pcompose",
    "program_from_text",
    "program_of",
    "program_to_text",
    "punion",
    "star",
    "subset",
    "zero",
]

import functools
from collections import Counter
from typing import Callable, Iterable

from .partial_string import (
    PartialString,
    _Frozen,
    _cover_text,
    _fill,
    _signature,
    empty,
    from_text,
    refines,
    to_text,
    validate,
)

ComposeOp = Callable[[PartialString, PartialString], PartialString]


class Program(_Frozen):
    """Finite generator set standing for its downward closure.

    The operators in this module keep generators normalized: pairwise
    non-isomorphic, with no generator refining another, sorted by event
    count, label tuple and serialized text for deterministic output (see
    :func:`normalize_program`).  Compare programs with :func:`subset` or
    :func:`equals`; the generator tuple is representation, not meaning.
    """

    __slots__ = ("generators",)
    generators: tuple[PartialString, ...]


def zero() -> Program:
    """The program with no behaviours at all (empty generator set)."""
    return Program(())


def one() -> Program:
    """The program whose only behaviour is the empty partial string."""
    return Program((empty(),))


def normalize_program(p: Program) -> Program:
    """Antichain form: drop duplicates, isomorphic copies and absorbed generators.

    A refinement only adds strict order pairs and adds none exactly when
    it is an isomorphism, so an absorber has the same sorted labels and
    either fewer strict pairs or the same signature (fields of each
    value, see :class:`~cka.partial_string.PartialString`).  The
    signature is an isomorphism invariant read from the order rows, so
    signing builds no down masks; strings that share one without being
    isomorphic only cost a failed search.  The distinct generators are
    grouped by sorted labels; a group of one is kept as it is.  In a
    larger group one greedy pass visits them by signature, which leads
    with the pair count (signing sets both fields), and drops one that
    refines a kept generator with fewer pairs.  One that refines a kept
    twin of the same signature is isomorphic to it, and of the two the
    copy with the smaller serialized text is kept, so the
    serialized-earliest copy survives whatever the input order.

    Survivors come out ordered by event count, then label tuple, then
    serialized text, so the output is deterministic and equal to the
    input under :func:`equals`.  Equal label tuples have equal sorted
    labels, so text breaks ties only within one group.  When every label
    character is above U+0020, as for every label the term grammar
    accepts, this is the order of (event count, serialized text): at the
    first differing label either a character decides both, or the shorter
    label is a prefix of the longer, and the text follows it with a
    space, a newline or nothing, all below any label character.  Text is
    read only for isomorphic copies and for survivors with equal label
    tuples.  A program of fewer than two generators is returned as it is.
    """
    if len(p.generators) < 2:
        return p
    groups: dict[tuple, list[PartialString]] = {}
    for g in dict.fromkeys(p.generators):
        groups.setdefault(_fill(g)._sorted, []).append(g)
    kept: list[PartialString] = []
    for group in groups.values():
        if len(group) == 1:
            kept.append(group[0])
            continue
        start = len(kept)
        pairs = sig = None
        for g in sorted(group, key=_signature):
            if g._pairs != pairs:
                layer, pairs = len(kept), g._pairs  # kept[start:layer]: fewer pairs
            if g._sig != sig:
                twin, sig = len(kept), g._sig  # kept[twin:]: same signature
            if any(refines(g, t) for t in kept[start:layer]):
                continue
            for i in range(twin, len(kept)):
                if refines(g, kept[i]):
                    if _cover_text(g) < _cover_text(kept[i]):
                        kept[i] = g
                    break
            else:
                kept.append(g)
        survivors = kept[start:]
        if len({g.labels for g in survivors}) < len(survivors):
            ties = Counter(g.labels for g in survivors)
            kept[start:] = sorted(
                survivors,
                key=lambda g: (g.labels, ties[g.labels] > 1 and _cover_text(g)),
            )
    kept.sort(key=_output_order)
    return Program(tuple(kept))


def _output_order(g: PartialString) -> tuple:
    return len(g.labels), g.labels


def program_of(xs: Iterable[PartialString]) -> Program:
    """Program generated by the given partial strings, validated and normalized."""
    gens = tuple(xs)
    for g in gens:
        validate(g)
    return normalize_program(Program(gens))


def contains(p: Program, x: PartialString) -> bool:
    """Membership of ``x`` in the downward closure of ``p``."""
    return subset(Program((x,)), p)


def subset(p: Program, q: Program) -> bool:
    """Inclusion of downward closures: every generator of ``p`` refines one of ``q``.

    A generator that ``q`` holds needs no search; any other is searched
    against the generators of ``q`` with its sorted labels only.
    """
    have = set(q.generators)
    by_labels: dict[tuple, list[PartialString]] = {}
    for h in q.generators:
        by_labels.setdefault(_fill(h)._sorted, []).append(h)
    return all(
        g in have or any(refines(g, h) for h in by_labels.get(_fill(g)._sorted, ()))
        for g in p.generators
    )


def equals(p: Program, q: Program) -> bool:
    """Semantic program equality: inclusion both ways, or equal generators."""
    return p.generators == q.generators or (subset(p, q) and subset(q, p))


def punion(p: Program, q: Program) -> Program:
    """Nondeterministic choice: union of generator sets."""
    return normalize_program(Program(p.generators + q.generators))


def pcompose(p: Program, q: Program, op: ComposeOp) -> Program:
    """Pointwise composition of programs under a partial-string operator.

    ``op`` is usually ``seq`` or ``par``; any monotone binary composition
    (for example a weak sequencing with a fixed dependence relation)
    works, since generator-level composition then denotes the composed
    downward closure.
    """
    gens = tuple(op(g, h) for g in p.generators for h in q.generators)
    return normalize_program(Program(gens))


@functools.lru_cache(maxsize=256)
def _kleene_chain(gens: tuple[PartialString, ...], op: ComposeOp) -> list[Program]:
    """The iterates of ``star`` computed so far for one body and op.

    Iterate ``k`` sits at index ``k``, starting from ``zero()``; ``star``
    extends the list in place.  The 256 most recently used chains are
    kept.
    """
    return [zero()]


def star(p: Program, op: ComposeOp, bound: int) -> Program:
    """Bounded iteration: the ``bound``-th Kleene iterate of choice-or-continue.

    Computes F applied ``bound`` times to ``zero()`` where
    F(X) = ``punion(one(), pcompose(p, X, op))``.  The iterates form a
    monotone chain whose union is the least fixed point; only the finite
    truncations are representable here.  Each iterate is normalized once.

    Iterates are computed semi-naively from the last two, ``prev`` and
    ``acc``.  Two equal iterates are the least fixed point, so the chain
    stops there.  Normalization keeps the serialized-earliest member of
    each maximal isomorphism class, so ``norm(C + E) == norm(norm(C) + E)``.
    When ``acc`` kept every generator of ``prev``, F of it is therefore
    its own generators plus ``p`` composed with only the delta
    ``acc - prev``.  Otherwise an old generator was absorbed or replaced
    by an isomorphic copy that sorts earlier, and the step composes every
    generator again, as does the first step.

    Stars share one chain per body and op within a process: a call
    extends the chain of ``(p.generators, op)`` up to ``bound`` and
    reuses every iterate an earlier call computed, in a bounded
    least-recently-used table.  So ``op`` must be a pure function, and
    hashable; functions, lambdas and ``functools.partial`` objects are,
    by identity.
    """
    if bound < 1:
        raise ValueError("star bound must be at least 1")
    chain = _kleene_chain(p.generators, op)
    # Read and written by index, so a chain that another thread extends
    # meanwhile keeps iterate k at index k.  k is read once per step, so
    # the chain never grows past the largest bound asked for.
    while (k := len(chain)) <= bound:
        acc = chain[k - 1]
        base, grow = (empty(),), acc.generators
        if k > 1:
            prev = chain[k - 2]
            if acc == prev:
                break
            old = set(prev.generators)
            if old.issubset(acc.generators):
                base, grow = acc.generators, [g for g in acc.generators if g not in old]
        gens = tuple(op(g, h) for g in p.generators for h in grow)
        chain[k : k + 1] = [normalize_program(Program(base + gens))]
    return chain[min(bound, len(chain) - 1)]


def program_to_text(p: Program) -> str:
    """Serialize as partial-string blocks separated by ``---`` lines."""
    return "\n---\n".join(to_text(g) for g in p.generators)


def program_from_text(text: str) -> Program:
    """Parse ``---``-separated partial-string blocks; blank input is zero()."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip() == "---":
            blocks.append([])
        else:
            blocks[-1].append(line)
    gens = tuple(
        from_text("\n".join(block))
        for block in blocks
        if any(line.strip() for line in block)
    )
    return normalize_program(Program(gens))
