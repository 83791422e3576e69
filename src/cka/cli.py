"""Command-line front end.

Subcommands: refines, equal, member, lang, dot, laws, star.  Exit code 0
means the query holds, 1 means it fails, 2 means the input was rejected
(lexical, syntax, file or validation error), 4 means an internal error
(a bug), 74 means writing the output failed (``EX_IOERR`` of
``sysexits.h``, with one ``error: cannot write output: ...`` line on
stderr), and 141 means the reader closed stdout before the output ended
(silently, as a process that SIGPIPE ends); 3 is kept for budgets.

``--weak-dep``, offered by every subcommand except ``laws``, chooses the
composition that ``;`` means.  ``main`` reads it once, before the
subcommand runs, so a malformed spec exits 2 even where no term reads
it, and the stars of one body in one invocation share one Kleene chain.

Each subcommand's arguments are declared once, in ``_declare``.  An
invocation builds only its subcommand's parser, and the full parser only
for top-level help and errors.

Two pre-built four-event partial strings are available as complete
operands: ``P4``, two independent two-chains with labels a,b each, and
``N4``, the same events with one extra cross ordering.  The pair
separates refinement from language equality.  Inside larger expressions
those spellings are ordinary one-event labels.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import time
from typing import Optional

from .expr import LexicalError, evaluate, parse, tokenize
from .language import WordAutomaton
from .partial_string import (
    DependenceRelation,
    PartialString,
    chain,
    find_morphism,
    from_strict_pairs,
    from_text,
    par,
    seq,
    to_dot,
    weakseq,
)
from .program import (
    Program,
    contains,
    equals,
    program_to_text,
    star,
    subset,
)
from .testkit import GenConfig, law_suite

DEFAULT_SEED = 271828


@functools.lru_cache(maxsize=None)
def example_strings() -> dict[str, PartialString]:
    """Named partial strings usable as expression operands, built once and shared."""
    return {
        "P4": par(chain(("a", "b")), chain(("a", "b"))),
        "N4": from_strict_pairs(("a", "a", "b", "b"), [(0, 2), (0, 3), (1, 3)]),
    }


def _seq_compose(weak_dep: Optional[str]):
    """Composition used for ';': strong by default, weak under --weak-dep.

    A relation spec gives one new ``weakseq`` partial per call, so stars
    share a Kleene chain within one invocation but not across calls.
    """
    if weak_dep is None:
        return seq
    spec = weak_dep.strip()
    if spec == "full":
        return seq
    if spec in ("empty", "none"):
        return par
    pairs = []
    for item in spec.split(","):
        # Each side must scan as one term label: one IDENT, then EOF.
        try:
            sides = [tokenize(side) for side in item.split(":")]
        except LexicalError:
            sides = []
        if [[t.kind for t in toks] for toks in sides] != [["IDENT", "EOF"]] * 2:
            raise ValueError(
                f"bad dependence item {item!r}; use label:label, 'full' or 'empty'"
            )
        pairs.append((sides[0][0].text, sides[1][0].text))
    return functools.partial(weakseq, dependence=DependenceRelation.of(pairs))


def _eval_operand(text: str, seq_compose) -> Program:
    name = text.strip()
    examples = example_strings()
    if name in examples:
        return Program((examples[name],))
    return evaluate(parse(tokenize(text)), seq_compose)


def _one_string(
    expr: Optional[str], path: Optional[str], compose, what: str
) -> PartialString:
    """The single partial string given by an expression or by a --file path."""
    if path is not None:
        if expr is not None:
            raise ValueError(f"give either an {what} or --file, not both")
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                return from_text(handle.read())
        except OSError as exc:  # an unreadable file is rejected input
            raise ValueError(exc) from None
    if expr is None:
        raise ValueError(f"an {what} or --file is required")
    p = _eval_operand(expr, compose)
    if len(p.generators) != 1:
        raise ValueError(
            f"{what} must denote a single generator, got {len(p.generators)} generators"
        )
    return p.generators[0]


def _print_verdict(holds: bool, start: float, witness: Optional[str] = None) -> int:
    """Print the outcome, an optional witness line and the elapsed time."""
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print("holds" if holds else "fails")
    if witness is not None:
        print(witness)
    print(f"elapsed-ms: {elapsed_ms:.3f}")
    return 0 if holds else 1


def cmd_refines(args, compose) -> int:
    start = time.perf_counter()
    if not args.pomset:
        holds = subset(
            _eval_operand(args.left, compose), _eval_operand(args.right, compose)
        )
        return _print_verdict(holds, start)
    left = _one_string(args.left, None, compose, "left operand")
    right = _one_string(args.right, None, compose, "right operand")
    witness = find_morphism(right, left)
    if witness is None:
        return _print_verdict(False, start)
    if not witness.is_valid(right, left):
        raise RuntimeError("witness failed revalidation")
    pairs = "".join(f" {i}->{t}" for i, t in enumerate(witness.mapping))
    return _print_verdict(True, start, "witness:" + pairs)


def cmd_equal(args, compose) -> int:
    start = time.perf_counter()
    holds = equals(
        _eval_operand(args.left, compose), _eval_operand(args.right, compose)
    )
    return _print_verdict(holds, start)


def cmd_member(args, compose) -> int:
    element = _one_string(args.element, args.file, compose, "element expression")
    holds = contains(_eval_operand(args.program, compose), element)
    print("holds" if holds else "fails")
    return 0 if holds else 1


def cmd_lang(args, compose) -> int:
    if args.max_display is not None and args.max_display < 0:
        raise ValueError("--max-display must be nonnegative")
    automaton = WordAutomaton(_eval_operand(args.expr, compose).generators)
    # islice refuses stops above sys.maxsize; no language has that many words.
    shown = None if args.max_display is None else min(args.max_display, sys.maxsize)
    for word in itertools.islice(automaton.words(), shown):
        print(" ".join(word))
    if args.max_display is not None:
        omitted = automaton.count() - args.max_display
        if omitted > 0:
            print(f"# {omitted} more words omitted")
    return 0


def cmd_dot(args, compose) -> int:
    target = _one_string(args.expr, args.file, compose, "expression")
    print(to_dot(target))
    return 0


def cmd_star(args, compose) -> int:
    op = par if args.op == "par" else seq
    result = star(_eval_operand(args.expr, compose), op, args.bound)
    print(program_to_text(result))
    return 0


def cmd_laws(args, _compose) -> int:
    cfg = GenConfig(max_events=args.max_events, seed=args.seed)
    report = law_suite(cfg, cases=args.cases)
    print(report.to_text())
    return 0 if report.ok else 1


# Each subcommand: the function that runs it and its line in the top-level help.
_COMMANDS = {
    "refines": (cmd_refines, "does the left program refine the right one"),
    "equal": (cmd_equal, "semantic program equality"),
    "member": (cmd_member, "is a partial string in a program's closure"),
    "lang": (cmd_lang, "list the words of a program's language"),
    "dot": (cmd_dot, "emit the cover relation as a DOT digraph"),
    "star": (cmd_star, "bounded Kleene iterate of a program"),
    "laws": (cmd_laws, "run the algebraic law suite"),
}


def _declare(p: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand ``name``'s arguments to ``p``, for either parser."""
    if name in ("refines", "equal"):
        p.add_argument("left")
        p.add_argument("right")
    if name == "refines":
        p.add_argument(
            "--pomset",
            action="store_true",
            help="compare single partial strings and print the witness mapping",
        )
    elif name == "member":
        p.add_argument("element", nargs="?", help="single-generator expression")
        p.add_argument("program")
        p.add_argument("--file", help="read the element from a text-format file")
    elif name == "lang":
        p.add_argument("expr")
        p.add_argument(
            "--max-display", type=int, metavar="N", help="show at most N words"
        )
    elif name == "dot":
        p.add_argument("expr", nargs="?", help="single-generator expression")
        p.add_argument("--file", help="read a partial string from a text-format file")
    elif name == "star":
        p.add_argument("expr")
        p.add_argument("bound", type=int)
        p.add_argument(
            "--op",
            choices=("seq", "par"),
            default="seq",
            help="iterate with strong ';' or with '|'; --weak-dep does not change "
            "the op, so write a weak star as the term seqstar(E,n)",
        )
    elif name == "laws":
        p.add_argument("--cases", type=int, default=100)
        p.add_argument("--max-events", type=int, default=3)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if name != "laws":  # every term-reading subcommand; last in its --help
        p.add_argument(
            "--weak-dep",
            metavar="SPEC",
            help="interpret ';' as weak sequencing under a dependence relation: "
            "'full', 'empty', or comma-separated label:label pairs",
        )
    p.set_defaults(fn=_COMMANDS[name][0])


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand under ``cka``."""
    ap = argparse.ArgumentParser(
        prog="cka",
        description="Pomset model of Concurrent Kleene Algebra: refinement, "
        "program algebra, languages and algebraic law checking.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=summary), name)
    return ap


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser alone, as the full parser's ``cka <name>``."""
    p = argparse.ArgumentParser(prog=f"cka {name}")
    _declare(p, name)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one invocation, as ``build_parser().parse_args`` reads them.

    A valid ``cka <name> ...`` needs only that subcommand's parser.  Anything
    else (top-level help, an unknown name, arguments the subcommand leaves
    over) goes to the full parser, which reports it.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        status = args.fn(args, _seq_compose(getattr(args, "weak_dep", None)))
        print(end="", flush=True)  # a reader that left after the last line fails here
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Writing the output failed: not an input error.  Point the descriptor
        # at devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout
            return 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 74  # EX_IOERR of sysexits.h
    except Exception as exc:  # a bug: never report it as a failing query
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
