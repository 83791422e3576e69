"""Linearizations of partial strings and the languages of programs.

A word is a total-order flattening of a partial string; the language of a
program collects the words of its generators.  Inclusion of languages is
strictly coarser than inclusion of programs: refinement implies language
containment but not conversely.

Words are read off one deterministic automaton per program, built lazily
by subset construction over the lattice of consumed down-sets (De Loof,
De Meyer & De Baets, "Exploiting the lattice of ideals representation of
a poset", 2006).  A state is the set of (generator, consumed down-set)
items that one prefix word reaches, so each distinct word is exactly one
path and the number of states never exceeds the number of distinct
prefixes.  Words therefore need no deduplication, the total is a path
count summed layer by layer without listing the words, and a walk taking
labels in sorted order yields the words in sorted order.
"""

from __future__ import annotations

__all__ = ["Word", "lang_subset", "language", "linearize"]

from typing import Iterator, Sequence

from .partial_string import Label, PartialString, _down_masks
from .program import Program

Word = tuple[Label, ...]
State = frozenset[int]


class WordAutomaton:
    """Deterministic automaton accepting exactly the words of some generators.

    An item is one int: the consumed down-set of generator ``gi``, shifted
    left past the low bits that hold ``gi``.  The start state holds every
    generator with nothing consumed; a state accepts when one of its items
    has consumed its whole generator; the edge on label ``l`` consumes,
    in every item, any minimal unconsumed event labelled ``l``.  No edge
    leads to the empty state, so every state reaches acceptance.

    Every item of a state reached by a word of length ``k`` has consumed
    exactly ``k`` events, so the states fall into layers by word length
    and every edge leads from one layer to the next.  A walk that sweeps
    one layer at a time meets each state in one layer only and needs no
    stack and no visited set.
    """

    def __init__(self, generators: Sequence[PartialString]) -> None:
        shift = (len(generators) - 1).bit_length() if generators else 0
        self._low = (1 << shift) - 1
        # Per generator and event: (its bit | its predecessor bits, the
        # predecessor bits, its label), all shifted like an item.
        self._events: list[list[tuple[int, int, Label]]] = []
        accept = []
        for gi, g in enumerate(generators):
            n = g.n_events
            down = _down_masks(g)
            # Events with equal label, strict down-set and strict up-set
            # are interchangeable: taking them in index order keeps every
            # word and leaves one item where there were many.
            last: dict[tuple, int] = {}
            events = []
            for e in range(n):
                key = (g.labels[e], down[e], g.order[e] ^ 1 << e)
                twin = last.get(key)
                last[key] = e
                pred = down[e] if twin is None else down[e] | 1 << twin
                bit = 1 << e << shift
                events.append((bit | pred << shift, pred << shift, g.labels[e]))
            self._events.append(events)
            accept.append(((1 << n) - 1) << shift | gi)
        self._accept = frozenset(accept)
        self.start: State = frozenset(range(len(generators)))
        self._succ: dict[State, dict[Label, State]] = {}

    def accepts(self, state: State) -> bool:
        """True when the prefix leading to ``state`` is itself a word."""
        return not self._accept.isdisjoint(state)

    def successors(self, state: State) -> dict[Label, State]:
        """Outgoing edges of ``state``, built on first use."""
        succ = self._succ.get(state)
        if succ is None:
            moves: dict[Label, list[int]] = {}
            low, events = self._low, self._events
            for item in state:
                for need, pred, label in events[item & low]:
                    if item & need == pred:
                        if label in moves:
                            moves[label].append(item | need)
                        else:
                            moves[label] = [item | need]
            succ = {label: frozenset(items) for label, items in moves.items()}
            self._succ[state] = succ
        return succ

    def words(self) -> Iterator[Word]:
        """Every accepted word once, in ``sorted`` order.

        A pre-order walk: a prefix that is a word comes before its
        extensions, and children follow in label order.
        """
        accepts, successors = self.accepts, self.successors
        stack: list[tuple[Word, State]] = [((), self.start)]
        while stack:
            word, state = stack.pop()
            if accepts(state):
                yield word
            for label, nxt in sorted(successors(state).items(), reverse=True):
                stack.append((word + (label,), nxt))

    def count(self) -> int:
        """Number of accepted words, without listing any of them.

        Sweeps the layers forward, keeping per state the number of
        prefixes that reach it; an accepting state adds its number.
        """
        total = 0
        layer = {self.start: 1}
        while layer:
            nxt: dict[State, int] = {}
            for state, paths in layer.items():
                if self.accepts(state):
                    total += paths
                for succ in self.successors(state).values():
                    nxt[succ] = nxt.get(succ, 0) + paths
            layer = nxt
        return total


def linearize(x: PartialString) -> frozenset[Word]:
    """Label sequences of every linear extension of ``x``'s order.

    Distinct extensions with equal label sequences share one path of the
    automaton, so each word is built once.
    """
    return frozenset(WordAutomaton((x,)).words())


def language(p: Program) -> frozenset[Word]:
    """All words refining some member of ``p``'s downward closure.

    The union over generators is complete: a word refining a closure
    member refines, by transitivity, the generator above it.
    """
    return frozenset(WordAutomaton(p.generators).words())


def lang_subset(p: Program, q: Program) -> bool:
    """Language containment (implied by program inclusion, weaker than it).

    Walks both automata in lockstep, one layer of state pairs at a time,
    and stops at the first pair where ``p`` accepts and ``q`` does not, or
    ``p`` has an edge ``q`` lacks.  Every state of ``p`` reaches
    acceptance, so either exit names a word of ``p`` missing from ``q``.
    """
    ap, aq = WordAutomaton(p.generators), WordAutomaton(q.generators)
    layer = {(ap.start, aq.start)}
    while layer:
        nxt = set()
        for sp, sq in layer:
            if ap.accepts(sp) and not aq.accepts(sq):
                return False
            succ_q = aq.successors(sq)
            for label, np in ap.successors(sp).items():
                nq = succ_q.get(label)
                if nq is None:
                    return False
                nxt.add((np, nq))
        layer = nxt
    return True
