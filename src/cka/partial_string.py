"""Finite labelled partial orders and their composition operators.

Events are dense integer indices ``0..n-1``.  A value stores its label
tuple plus one bitmask row per event, with bit ``j`` of row ``i`` set
exactly when event ``i`` precedes-or-equals event ``j``.  Rows are kept
reflexively and transitively closed, so order queries are single bit
tests and sequential composition is closed by construction.

Refinement ``x`` below ``y`` means a monotone label-preserving bijection
exists from ``y``'s events onto ``x``'s: every ordering constraint of
``y`` is present in ``x``, so ``x`` is the more deterministic of the two.
All values are immutable; every operation is a pure function.

Every value type of the library derives from ``_Frozen``, one slotted
base that gives immutability, ``repr``, copying, pickling and positional
``match`` over a class's public slots, its fields.
Partial strings are interned (hash-consed): the constructor returns the
live object of an equal value when there is one, through a table of weak
references that drops an entry when its value dies.  Equal values are
therefore one object, so equality and hashing are by identity rather than
by field.  Each value also carries what its ``order`` rows do not answer
directly, in private slots set on first use and kept for as long as the
value lives; private slots hold derived facts, not fields.
"""

from __future__ import annotations

__all__ = [
    "DependenceRelation",
    "InvalidPartialString",
    "Label",
    "Morphism",
    "PartialString",
    "TextFormatError",
    "chain",
    "empty",
    "exchange_holds",
    "find_morphism",
    "from_strict_pairs",
    "from_text",
    "hasse",
    "isomorphic",
    "par",
    "refines",
    "seq",
    "singleton",
    "to_dot",
    "to_text",
    "transitive_closure",
    "validate",
    "weakseq",
]

import weakref
from _weakref import _remove_dead_weakref  # as weakref.WeakValueDictionary uses
from typing import Iterable, Iterator, Optional, Sequence

Label = str


class InvalidPartialString(ValueError):
    """A partial-order axiom or the labelling totality requirement fails."""


class TextFormatError(ValueError):
    """Malformed text in the explicit partial-string format."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(rows: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of bitmask adjacency rows."""
    out = [row | (1 << i) for i, row in enumerate(rows)]
    for k in range(len(out)):
        bit = 1 << k
        row_k = out[k]
        for i in range(len(out)):
            if out[i] & bit:
                out[i] |= row_k
    return out


class _Frozen:
    """Base of the immutable value types: slotted records compared by value.

    A class's fields are its own public ``__slots__`` (no leading
    underscore) after those of its ``_Frozen`` bases, in the order that
    ``__match_args__`` and positional ``match`` follow; private slots hold
    derived facts.  For a class that adds fields and defines no ``__init__``
    or ``__new__``, this base compiles a constructor once, as
    ``collections.namedtuple`` does: it takes the fields in that order, as a
    hand-written one must, and sets each with ``_set_slot``.  Values are
    equal when their types and fields are equal, hash as the tuple of their
    fields, print as ``Type(field=value, ...)``, and copy and pickle through
    ``__reduce__``; setting or deleting an attribute raises
    ``AttributeError``.  :class:`PartialString` compares by identity.
    """

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        own = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls.__match_args__ += own
        if own and "__init__" not in vars(cls) and "__new__" not in vars(cls):
            fields = cls.__match_args__
            sets = "".join(f"\n _set_slot(self, {n!r}, {n})" for n in fields)
            namespace = {"_set_slot": object.__setattr__, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):{sets}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PartialString(_Frozen):
    """A finite labelled partial order, interned: one object per value.

    ``labels[i]`` is the alphabet symbol of event ``i``.  ``order[i]`` is
    a bitmask row holding every ``j`` with ``i`` preceding-or-equal ``j``;
    rows must be reflexive, transitive and antisymmetric.  The raw
    constructor performs no checking (so :func:`validate` can report on
    hand-built relations); use :func:`from_strict_pairs` or the
    composition operators for guaranteed-valid values.

    The constructor returns the live object of an equal value when there
    is one, so equal values are one object, and equality and hashing are
    by identity.  The fields are ``labels`` and ``order``; as for every
    :class:`_Frozen` type, values are immutable, print as
    ``PartialString(labels=..., order=...)``, match positionally on the
    fields, and ``copy``, ``deepcopy`` and ``pickle`` rebuild them through
    the constructor, so they return the interned object.

    The refinement search and normalization read private fields that the
    value fills on first use.  :func:`_fill` sets ``_sorted`` (the sorted
    labels) and ``_pairs`` (the strict pair count), which every search and
    normalization reads.  :func:`_down_masks` sets ``_down`` (strict down
    masks: bit ``i`` of ``_down[j]`` is set when ``i`` strictly precedes
    ``j``), which only a search that runs and a word automaton read;
    readers take the up side from ``order``.  :func:`_signature` sets
    ``_sig``, which only normalization reads, and :func:`_cover_text`
    sets ``_text``.  ``_pairs``, ``_down``, ``_sig`` and ``_text`` are
    ``None`` until set.
    """

    __slots__ = (
        "labels", "order", "_sorted", "_pairs", "_down", "_sig", "_text", "__weakref__"
    )

    labels: tuple[Label, ...]
    order: tuple[int, ...]

    # Interned, so identity is value equality, in O(1) where fields walk every row.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, labels: Iterable[Label], order: Iterable[int]) -> "PartialString":
        key = (tuple(labels), tuple(order))
        ref = _interned.get(key)
        if ref is not None:
            x = ref()
            if x is not None:
                return x
        x = object.__new__(cls)
        _set_slot(x, "labels", key[0])
        _set_slot(x, "order", key[1])
        _set_slot(x, "_pairs", None)
        _set_slot(x, "_down", None)
        _set_slot(x, "_sig", None)
        _set_slot(x, "_text", None)
        ref = _Ref(x, _forget)
        ref.key = key
        # setdefault is atomic, so two threads never register one value
        # twice; an entry whose value died and awaits its callback is
        # dropped and the insertion retried.
        while True:
            old = _interned.setdefault(key, ref)
            if old is ref:
                return x
            winner = old()
            if winner is not None:
                return winner
            _remove_dead_weakref(_interned, key)

    @property
    def n_events(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        """True when event ``i`` precedes-or-equals event ``j``."""
        return bool(self.order[i] >> j & 1)

    def strict_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs with the reflexive diagonal removed."""
        return [(i, j) for i, row in enumerate(self.order) for j in _bits(row ^ 1 << i)]

    def order_pair_count(self) -> int:
        """Number of order pairs, reflexive pairs included."""
        return sum(row.bit_count() for row in self.order)


class _Ref(weakref.ref):
    """A weak reference to an interned value that remembers its table key.

    ``weakref.KeyedRef`` does the same, but its ``__new__`` and
    ``__init__`` are written in Python, which makes registering a fresh
    value several times slower.
    """

    __slots__ = ("key",)


# The live values, by (labels, order); an entry leaves when its value dies.
_interned: dict[tuple, _Ref] = {}
_set_slot = object.__setattr__


def _forget(ref: _Ref) -> None:
    _remove_dead_weakref(_interned, ref.key)


class DependenceRelation(_Frozen):
    """Ordered label pairs that force cross ordering under weak sequencing.

    Membership of ``(a, b)`` orders every ``a``-labelled event of the left
    operand before every ``b``-labelled event of the right operand.
    Symmetry is optional, and only labels appear, never event ids.
    """

    __slots__ = ("pairs",)
    pairs: frozenset[tuple[Label, Label]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[Label, Label]]) -> "DependenceRelation":
        return cls(frozenset((a, b) for a, b in pairs))

    @classmethod
    def full(cls, alphabet: Iterable[Label]) -> "DependenceRelation":
        labs = tuple(alphabet)
        return cls(frozenset((a, b) for a in labs for b in labs))

    @classmethod
    def none(cls) -> "DependenceRelation":
        return cls(frozenset())

    def requires(self, a: Label, b: Label) -> bool:
        return (a, b) in self.pairs


class Morphism(_Frozen):
    """A monotone label-preserving bijection between two event sets.

    ``mapping[e]`` is the image of source event ``e``.  Existence of a
    morphism from ``y`` to ``x`` is exactly the refinement of ``y`` by
    ``x``; the mapping itself is the checkable witness.
    """

    __slots__ = ("mapping",)
    mapping: tuple[int, ...]

    def is_valid(self, src: PartialString, tgt: PartialString) -> bool:
        """Re-check bijectivity, label preservation and monotonicity."""
        n = src.n_events
        if tgt.n_events != n or len(self.mapping) != n:
            return False
        if sorted(self.mapping) != list(range(n)):
            return False
        if any(src.labels[e] != tgt.labels[t] for e, t in enumerate(self.mapping)):
            return False
        for i in range(n):
            for j in _bits(src.order[i]):
                if not tgt.order[self.mapping[i]] >> self.mapping[j] & 1:
                    return False
        return True


# --------------------------------------------------------------------- #
# Constructors
# --------------------------------------------------------------------- #


def empty() -> PartialString:
    """The unique partial string with no events."""
    return PartialString((), ())


def singleton(label: Label) -> PartialString:
    """One event carrying ``label``."""
    return PartialString((label,), (1,))


def chain(labels: Iterable[Label]) -> PartialString:
    """A totally ordered partial string: a plain word."""
    labs = tuple(labels)
    n = len(labs)
    full = (1 << n) - 1
    return PartialString(labs, tuple((full >> i) << i for i in range(n)))


def from_strict_pairs(
    labels: Iterable[Label], pairs: Iterable[tuple[int, int]]
) -> PartialString:
    """Build from labels plus strict order pairs; closes and validates."""
    labs = tuple(labels)
    n = len(labs)
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            span = f" 0..{n - 1}" if n else ": the string has no events"
            raise InvalidPartialString(f"order pair ({i}, {j}) outside events{span}")
        if i == j:
            raise InvalidPartialString(
                f"order pair ({i}, {j}) is not strict: an event cannot precede itself"
            )
        rows[i] |= 1 << j
    ps = PartialString(labs, tuple(transitive_closure(rows)))
    validate(ps)
    return ps


def validate(x: PartialString) -> None:
    """Check every axiom on ``x``, raising on the first violation.

    The error names the violated axiom and a witnessing event or event
    pair.  Apply to anything built from raw data (text files, literal
    tuples); values produced by the composition operators hold the
    axioms by construction.
    """
    n = len(x.labels)
    if len(x.order) != n:
        raise InvalidPartialString(
            f"labels are not total: {n} labels but {len(x.order)} order rows"
        )
    for i, row in enumerate(x.order):
        if row >> n:
            raise InvalidPartialString(
                f"order row {i} mentions events outside 0..{n - 1}"
            )
    for i in range(n):
        if not x.order[i] >> i & 1:
            raise InvalidPartialString(f"reflexivity violation at {i}")
    for i in range(n):
        for j in _bits(x.order[i] & ~(1 << i)):
            if x.order[j] >> i & 1:
                raise InvalidPartialString(f"antisymmetry violation at ({i}, {j})")
    for i in range(n):
        row = x.order[i]
        for j in _bits(row):
            missing = x.order[j] & ~row
            if missing:
                k = next(_bits(missing))
                raise InvalidPartialString(
                    f"transitivity violation at ({i}, {j}): missing ({i}, {k})"
                )


# --------------------------------------------------------------------- #
# Composition operators
# --------------------------------------------------------------------- #


def par(x: PartialString, y: PartialString) -> PartialString:
    """Concurrent composition: disjoint union with no cross ordering.

    ``y``'s events are renumbered up by ``x.n_events``; the refinement
    and isomorphism predicates never observe event identity, so dense
    renumbering replaces tagged coproduct pairs.  The empty string is a
    unit: composing with it returns the other operand itself.
    """
    nx, ny = len(x.labels), len(y.labels)
    if not ny:
        return x
    if not nx:
        return y
    rows = list(x.order) + [row << nx for row in y.order]
    return PartialString(x.labels + y.labels, tuple(rows))


def seq(x: PartialString, y: PartialString) -> PartialString:
    """Strongly sequential composition: all of ``x`` before all of ``y``.

    The empty string is a unit: composing with it returns the other
    operand itself.
    """
    nx, ny = len(x.labels), len(y.labels)
    if not ny:
        return x
    if not nx:
        return y
    y_block = ((1 << ny) - 1) << nx
    rows = [row | y_block for row in x.order] + [row << nx for row in y.order]
    return PartialString(x.labels + y.labels, tuple(rows))


def weakseq(
    x: PartialString, y: PartialString, dependence: DependenceRelation
) -> PartialString:
    """Weakly sequential composition under a label dependence relation.

    Starts from the concurrent composition, adds a cross pair from each
    left-block event to each right-block event whose labels are in the
    relation, then closes transitively.  Cross pairs only ever point one
    way, so antisymmetry is preserved, and the result always sits between
    ``seq(x, y)`` and ``par(x, y)`` in the refinement order: full
    dependence reproduces ``seq`` exactly, empty dependence ``par``.
    """
    nx, ny = x.n_events, y.n_events
    rows = list(x.order) + [row << nx for row in y.order]
    for i in range(nx):
        cross = 0
        for j in range(ny):
            if dependence.requires(x.labels[i], y.labels[j]):
                cross |= 1 << (nx + j)
        rows[i] |= cross
    return PartialString(x.labels + y.labels, tuple(transitive_closure(rows)))


# --------------------------------------------------------------------- #
# Refinement and isomorphism
# --------------------------------------------------------------------- #


def _fill(x: PartialString) -> PartialString:
    """``x``, with its sorted labels and strict pair count set.

    The first call sets ``_sorted`` and then ``_pairs``, so a value whose
    ``_pairs`` is set has both, whichever thread reads it.  Neither needs
    a walk over the pairs: the count is the rows' bit counts less the
    diagonal.  Two threads may both fill a value; either fill is the same.
    """
    if x._pairs is None:
        _set_slot(x, "_sorted", tuple(sorted(x.labels)))
        _set_slot(x, "_pairs", sum(map(int.bit_count, x.order)) - len(x.order))
    return x


def _down_masks(x: PartialString) -> tuple[int, ...]:
    """``x``'s strict down masks, built by one walk over its strict pairs on first use.

    Kept in ``x._down``: read only by a search that gets past its label and
    pair-count tests and by ``WordAutomaton``.
    """
    down = x._down
    if down is None:
        masks = [0] * len(x.order)
        # Bits walked inline, not with _bits: every searched value builds this.
        for i, row in enumerate(x.order):
            bit = 1 << i
            row ^= bit
            while row:
                low = row & -row
                masks[low.bit_length() - 1] |= bit
                row ^= low
        down = tuple(masks)
        _set_slot(x, "_down", down)
    return down


def _signature(x: PartialString) -> int:
    """The pair count, then the sorted (label rank, |strict up-set|) ints, in one int.

    An isomorphism invariant read from the order rows alone, so it builds
    no down masks.  For a chain the pairs spell the word, so distinct
    words never share one.  Each packed int is below ``2**width``, so
    among equal sorted labels it sorts as (pair count, packed ints) does.
    Kept in ``x._sig``, ``_fill`` done: only normalization reads it.
    """
    sig = x._sig
    if sig is None:
        n, labels = len(x.labels), _fill(x)._sorted
        width, sig = (n * n).bit_length(), x._pairs
        for v in sorted(
            labels.index(lab) * n + row.bit_count() - 1
            for lab, row in zip(x.labels, x.order)
        ):
            sig = sig << width | v
        _set_slot(x, "_sig", sig)
    return sig


def _cover_text(x: PartialString) -> str:
    """The text format (cover pairs only), serialized on first call.

    Kept in ``x._text``: read by :func:`to_text`, and by normalization only
    for isomorphic copies and equal label tuples.
    """
    text = x._text
    if text is None:
        parts = ["events:", *[" " + lab for lab in x.labels]]
        for i, row in enumerate(_cover_rows(x.order)):
            while row:
                low = row & -row
                parts.append(f"\norder: {i} < {low.bit_length() - 1}")
                row ^= low
        text = "".join(parts)
        _set_slot(x, "_text", text)
    return text


def find_morphism(src: PartialString, tgt: PartialString) -> Optional[Morphism]:
    """Exact search for a monotone label-preserving bijection src to tgt.

    Complete backtracking with an explicit stack.  Pruning uses necessary
    conditions only: equal sorted labels, a source strict-pair count at
    most the target's, and per event an image with the same label whose
    strict down-set and up-set are at least as large (a monotone injection
    maps the strict down-set of an event into the strict down-set of its
    image).  An event's options are its unused candidates intersected with
    the target's up-set of each placed predecessor's image and strict
    down-set of each placed successor's image; they are tried lowest index
    first.  Absence is therefore definitive, not heuristic.  A source
    without strict pairs needs no search: the k-th event of each label maps
    onto the target's k-th event of that label, the witness the search
    finds.
    """
    n = src.n_events
    if tgt.n_events != n:
        return None
    if _fill(src)._sorted != _fill(tgt)._sorted or src._pairs > tgt._pairs:
        return None
    if not src._pairs:
        slots: dict[Label, list[int]] = {}
        for t in reversed(range(n)):
            slots.setdefault(tgt.labels[t], []).append(t)
        return Morphism(tuple(slots[label].pop() for label in src.labels))
    # Up masks are order rows, own bit included.  It adds one to every
    # up-set size on both sides.  An event is not placed while its options
    # are built, so its own bit in ``s_up`` picks no successor, and a placed
    # image's own bit in ``t_up`` is already in ``used``.
    s_down, t_down = _down_masks(src), _down_masks(tgt)
    s_up, t_up = src.order, tgt.order

    sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(t_down, t_up)]
    cand = []
    for label, down, up in zip(src.labels, s_down, s_up):
        n_down, n_up = down.bit_count(), up.bit_count()
        mask = 0
        for t, (t_n_down, t_n_up) in enumerate(sizes):
            if tgt.labels[t] == label and n_down <= t_n_down and n_up <= t_n_up:
                mask |= 1 << t
        if not mask:
            return None
        cand.append(mask)

    todo = sorted(range(n), key=lambda e: (cand[e].bit_count(), e))
    img = [0] * n
    placed = used = 0
    untried: list[int] = []  # options not yet tried, per depth
    while len(untried) < n:
        e = todo[len(untried)]
        options = cand[e] & ~used
        for p in _bits(s_down[e] & placed):
            options &= t_up[img[p]]
        for s in _bits(s_up[e] & placed):
            options &= t_down[img[s]]
        untried.append(options)
        # Backtrack: drop exhausted depths, undoing the placement below each.
        while not untried[-1]:
            untried.pop()
            if not untried:
                return None
            e = todo[len(untried) - 1]
            used ^= 1 << img[e]
            placed ^= 1 << e
        e = todo[len(untried) - 1]
        low = untried[-1] & -untried[-1]
        untried[-1] ^= low
        img[e] = low.bit_length() - 1
        used |= low
        placed |= 1 << e
    return Morphism(tuple(img))


def refines(x: PartialString, y: PartialString) -> bool:
    """True when ``x`` carries at least ``y``'s ordering constraints.

    When the two have equal label tuples and each order row of ``y`` lies
    inside the same row of ``x``, the identity map is a witness and no
    search runs; equal strings are the plainest case.  Otherwise decided
    by searching for a morphism from ``y`` onto ``x``.  The shortcut lives
    here, not in :func:`find_morphism`, whose witness is the first one its
    visiting order reaches, identity or not.
    """
    if x.labels == y.labels:
        rows = x.order
        if all(map(int.__eq__, map(int.__or__, rows, y.order), rows)):
            return True
    return find_morphism(y, x) is not None


def isomorphic(x: PartialString, y: PartialString) -> bool:
    """Label-preserving order-isomorphism: equal pair counts and one refinement.

    A refinement only adds order pairs, so one between strings with equal
    pair counts maps order pairs onto order pairs and is an isomorphism.
    """
    return _fill(x)._pairs == _fill(y)._pairs and refines(x, y)


def exchange_holds(
    u: PartialString, v: PartialString, x: PartialString, y: PartialString
) -> bool:
    """The interchange inequality between sequential and concurrent composition.

    Checks that ``(u par v) seq (x par y)`` refines ``(u seq x) par (v seq y)``;
    this must hold for every quadruple, so a False return flags a
    composition or search bug rather than a property of the inputs.
    """
    return refines(seq(par(u, v), par(x, y)), par(seq(u, x), seq(v, y)))


# --------------------------------------------------------------------- #
# Rendering and the explicit text format
# --------------------------------------------------------------------- #


def hasse(x: PartialString) -> list[tuple[int, int]]:
    """Cover pairs: the transitive reduction of the strict order."""
    return [(i, j) for i, row in enumerate(_cover_rows(x.order)) for j in _bits(row)]


def _cover_rows(order: Sequence[int]) -> list[int]:
    """Cover masks of reflexive order rows, one per event.

    Bit ``j`` of mask ``i`` is set when ``j`` covers ``i``.  Each row's
    strict successors are walked lowest index first, skipping those
    already above a visited one: their up-sets lie inside its up-set, so
    ``implied`` ends as the union over every successor's strict up-set
    either way.
    """
    covers = []
    for i, row in enumerate(order):
        row ^= 1 << i
        implied, walk = 0, row
        while walk:
            low = walk & -walk
            implied |= order[low.bit_length() - 1] ^ low
            walk &= ~(low | implied)
        covers.append(row & ~implied)
    return covers


def to_text(x: PartialString) -> str:
    """Serialize in the line-based text format (cover pairs only).

    Raises :class:`TextFormatError` for a label that would not load back
    as one event: an empty one or one holding whitespace.
    """
    for lab in dict.fromkeys(x.labels):
        if lab.split() != [lab]:
            raise TextFormatError(f"label {lab!r} cannot be written in the text format")
    return _cover_text(x)


def from_text(text: str) -> PartialString:
    """Parse the line-based text format.

    The first non-blank line is ``events: l0 l1 ...``; each further line
    is ``order: i < j`` with one strict pair, its indices written in ASCII
    decimal digits.  The reflexive-transitive closure is computed on load,
    and loading fails on a pair ``i < i`` or if the closure breaks
    antisymmetry.
    """
    labels: Optional[tuple[Label, ...]] = None
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("events:"):
                raise TextFormatError("first line must start with 'events:'")
            labels = tuple(line[len("events:"):].split())
        elif line.startswith("order:"):
            ends = [end.strip() for end in line[len("order:"):].split("<")]
            if len(ends) != 2 or not all(e.isdigit() and e.isascii() for e in ends):
                raise TextFormatError(
                    f"malformed order line {line!r}; expected 'order: i < j'"
                )
            pairs.append((int(ends[0]), int(ends[1])))
        else:
            raise TextFormatError(f"unrecognized line {line!r}")
    if labels is None:
        raise TextFormatError("missing 'events:' line")
    return from_strict_pairs(labels, pairs)


# DOT keywords, matched without regard to case; none may name a graph bare.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_escape(text: str) -> str:
    """``text`` with backslashes and double quotes escaped for a DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(x: PartialString, name: str = "pomset") -> str:
    """Cover relation as a DOT digraph, earlier events drawn above later ones.

    Backslashes and double quotes in labels are escaped, so any label the
    text format accepts stays inside its quoted DOT string.  ``name`` is
    written bare when it is an ASCII identifier and not a DOT keyword, and
    quoted and escaped the same way otherwise.
    """
    if not (name.isascii() and name.isidentifier()) or name.lower() in _DOT_KEYWORDS:
        name = f'"{_dot_escape(name)}"'
    lines = [f"digraph {name} {{"]
    for i, lab in enumerate(x.labels):
        lines.append(f'  e{i} [label="{i}:{_dot_escape(lab)}"];')
    for i, j in hasse(x):
        lines.append(f"  e{i} -> e{j};")
    lines.append("}")
    return "\n".join(lines)
