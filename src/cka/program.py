"""Programs: finite generator sets denoting downward-closed pomset sets.

A program is semantically the downward closure, under refinement, of its
generators.  The closure is never materialized; every predicate works on
generators, which is sound and complete because refinement is transitive
and a partial string sits in a downward closure exactly when it refines
some generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .partial_string import (
    PartialString,
    empty,
    from_text,
    refines,
    to_text,
    validate,
)

ComposeOp = Callable[[PartialString, PartialString], PartialString]


@dataclass(frozen=True)
class Program:
    """Finite generator set standing for its downward closure.

    The operators in this module keep generators normalized: pairwise
    non-isomorphic, with no generator refining another, sorted for
    deterministic output.  Compare programs with :func:`subset` or
    :func:`equals`; the generator tuple is representation, not meaning.
    """

    generators: tuple[PartialString, ...]


def zero() -> Program:
    """The program with no behaviours at all (empty generator set)."""
    return Program(())


def one() -> Program:
    """The program whose only behaviour is the empty partial string."""
    return Program((empty(),))


def _gen_key(g: PartialString) -> tuple[int, str]:
    return (g.n_events, to_text(g))


def normalize_program(p: Program) -> Program:
    """Antichain form: drop duplicates, isomorphic copies and absorbed generators.

    A refinement only adds strict order pairs, and adds none exactly when
    it is an isomorphism, so whatever absorbs a generator has no more
    pairs than it.  One greedy pass visits the distinct generators by
    pair count, ties in serialized order, and keeps one unless it refines
    a kept generator with the same labels; the earliest of isomorphic
    copies survives.  Survivors come out in serialized order, so the
    output is deterministic and equal to the input under :func:`equals`.
    A program of fewer than two generators is returned as it is.
    """
    if len(p.generators) < 2:
        return p
    gens = sorted(dict.fromkeys(p.generators), key=_gen_key)
    kept: dict[tuple, list[PartialString]] = {}
    for g in sorted(gens, key=PartialString.order_pair_count):
        same = kept.setdefault(tuple(sorted(g.labels)), [])
        if not any(refines(g, h) for h in same):
            same.append(g)
    survivors = {g for same in kept.values() for g in same}
    return Program(tuple(g for g in gens if g in survivors))


def program_of(xs: Iterable[PartialString]) -> Program:
    """Program generated by the given partial strings, validated and normalized."""
    gens = tuple(xs)
    for g in gens:
        validate(g)
    return normalize_program(Program(gens))


def contains(p: Program, x: PartialString) -> bool:
    """Membership of ``x`` in the downward closure of ``p``."""
    return any(refines(x, g) for g in p.generators)


def subset(p: Program, q: Program) -> bool:
    """Inclusion of downward closures: every generator of ``p`` refines one of ``q``."""
    return all(any(refines(g, h) for h in q.generators) for g in p.generators)


def equals(p: Program, q: Program) -> bool:
    """Semantic program equality: inclusion both ways."""
    return subset(p, q) and subset(q, p)


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


def star(p: Program, op: ComposeOp, bound: int) -> Program:
    """Bounded iteration: the ``bound``-th Kleene iterate of choice-or-continue.

    Computes F applied ``bound`` times to ``zero()`` where
    F(X) = ``punion(one(), pcompose(p, X, op))``.  The iterates form a
    monotone chain whose union is the least fixed point; only the finite
    truncations are representable here.
    """
    if bound < 1:
        raise ValueError("star bound must be at least 1")
    acc = zero()
    for _ in range(bound):
        acc = punion(one(), pcompose(p, acc, op))
    return acc


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
    gens = [
        from_text("\n".join(block))
        for block in blocks
        if any(line.strip() for line in block)
    ]
    return program_of(gens)
