"""Seeded query lists for the benchmark workloads, with reference answers.

A query is a JSON-ready dict.  ``{"kind": "cli", "argv": [...], "expect":
{...}}`` runs ``cka.cli.main(argv)``; ``{"kind": "law", ...}`` runs one law
of ``cka.law_suite``.  Every query carries the answer it must produce, so
the worker that runs it needs no knowledge of the workload.

Reference answers are independent of the implementation wherever a closed
form exists: generator counts of bounded stars, word counts of antichains
and ladders, verdicts that follow from the algebra (unfolding, monotonicity,
seq-below-par, the dependence extremes) and zero failures for every law.
Everything else, and the exact text that ``cka star`` prints, is compared
with ``expected.json``, written once by ``record_expected.py``.

The seed draws each query's body, spelling, dependence direction and
operand order and the query order, but never the multiset of cost
classes: every seed runs the same number of queries of each shape and
size, so run lengths agree across seeds.  ``star "a+b" 10`` (about 24 s)
and antichains of ten or more events (seconds each) are never drawn.  The
slowest query measured on a 2-vCPU x86-64 host, whose speed varies by up
to a half with its load, takes about 0.3 s on ``star`` (``a+b`` at bound
7), 0.6 s on ``lang`` (a nine-event antichain over three labels, up to
1680 words) and 0.1 s on ``laws`` (one law at one configuration).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("star", "lang", "laws")

# --------------------------------------------------------------------- #
# Output normalisation and answer checking
# --------------------------------------------------------------------- #


def normalize_output(text: str) -> str:
    """CLI output without timing lines."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("elapsed-ms:"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def generator_count(text: str) -> int:
    """Number of ``---``-separated blocks that ``cka star`` printed."""
    if not text.strip():
        return 0
    return 1 + sum(1 for line in text.splitlines() if line.strip() == "---")


def word_count(text: str) -> int:
    """Total words reported by ``cka lang --max-display 0``."""
    for line in text.splitlines():
        if line.startswith("# ") and line.endswith("more words omitted"):
            return int(line.split()[1])
    return 0


def check_cli(query: dict, code: int, out: str) -> str | None:
    """None when the CLI answer matches the query's reference, else why not."""
    expect = query["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    text = normalize_output(out)
    if "generators" in expect and generator_count(text) != expect["generators"]:
        return f"{generator_count(text)} generators, expected {expect['generators']}"
    if "words" in expect and word_count(text) != expect["words"]:
        return f"{word_count(text)} words, expected {expect['words']}"
    if "sha" in expect and digest(text) != expect["sha"]:
        return "output differs from the recorded output"
    return None


def check_law(query: dict, passes: int, failures: int) -> str | None:
    if failures or passes != query["cases"]:
        return f"{failures} failures in {passes + failures} cases"
    return None


# --------------------------------------------------------------------- #
# star: bounded stars, equality and refinement of star terms
# --------------------------------------------------------------------- #

# Canonical body first, then spellings that denote the same program.
SPELLINGS = {
    "a+b": ("a+b", "b+a"),
    "a;b+c": ("a;b+c", "c+a;b"),
    "a+b;c": ("a+b;c", "b;c+a"),
    "a|b+c": ("a|b+c", "c+a|b"),
    "a+b+c": ("a+b+c", "c+b+a", "b+(a+c)"),
    "(a;b)+(b;a)": ("(a;b)+(b;a)", "(b;a)+(a;b)"),
}

# "two" bodies choose between two uniquely decodable blocks, so seqstar has
# 2^n-1 generators and parstar n(n+1)/2; "three" chooses among three
# letters.  "ab" is a one-body group for the costliest slot.
GROUPS = {
    "ab": ("a+b",),
    "two": ("a+b", "a;b+c", "a+b;c", "a|b+c"),
    "three": ("a+b+c",),
    "swap": ("(a;b)+(b;a)",),
}

# (group, op, weak dependence drawn, bound) per `cka star` slot; a slot
# runs every body of its group once.  Caps: "two" seq <= 7 (0.3 s; 8 takes
# 1.4 s and 10 takes 24 s), "three" seq <= 5, "swap" seq <= 6.
STAR_SLOTS = (
    ("two", "seq", False, 3),
    ("two", "seq", False, 4),
    ("two", "seq", False, 5),
    ("two", "seq", False, 6),
    ("ab", "seq", False, 7),
    ("two", "seq", True, 4),
    ("two", "seq", True, 5),
    ("two", "par", False, 4),
    ("two", "par", False, 6),
    ("two", "par", False, 8),
    ("three", "seq", False, 3),
    ("three", "seq", False, 4),
    ("three", "seq", False, 5),
    ("three", "par", False, 5),
    ("three", "par", False, 7),
    ("swap", "seq", False, 4),
    ("swap", "seq", False, 5),
    ("swap", "seq", True, 6),
    ("swap", "par", False, 5),
    ("swap", "par", False, 7),
)

# Equality and refinement families: argv template and the verdict the
# algebra forces (0 holds, 1 fails).  B is a body, B2 another spelling of
# it, n the bound.  Unfolding: star(p, n) = 1 + p op star(p, n-1).  Stars
# grow with n.  Sequential composition refines concurrent composition, and
# weak sequencing lies between them; empty dependence is concurrency and
# full dependence is sequencing.
FAMILIES = {
    "comm": (("equal", "seqstar({B},{n})", "seqstar({B2},{n})"), 0),
    "unfold_seq": (("equal", "seqstar({B},{n})", "1+({B});seqstar({B},{m})"), 0),
    "unfold_par": (("equal", "parstar({B},{n})", "1+({B})|parstar({B},{m})"), 0),
    "grow": (("equal", "seqstar({B},{n})", "seqstar({B},{p})"), 1),
    "seq_in_par": (("refines", "seqstar({B},{n})", "parstar({B},{n})"), 0),
    "par_in_seq": (("refines", "parstar({B},{n})", "seqstar({B},{n})"), 1),
    "mono": (("refines", "seqstar({B},{n})", "seqstar({B},{p})"), 0),
    "mono_rev": (("refines", "seqstar({B},{p})", "seqstar({B},{n})"), 1),
    "empty_dep": (
        ("equal", "seqstar({B},{n})", "parstar({B},{n})", "--weak-dep", "empty"),
        0,
    ),
    "sandwich": (
        ("refines", "seqstar({B},{n})", "parstar({B},{n})", "--weak-dep", "a:b"),
        0,
    ),
    "full_dep": (
        ("refines", "parstar({B},{n})", "seqstar({B},{n})", "--weak-dep", "full"),
        1,
    ),
}

# (group, bound) per family slot; a slot runs every family once, taking
# the group's bodies in turn.  Families also build bound n+1, so caps are
# "two" <= 6, "three" <= 4, "swap" <= 5; the failing verdicts need n >= 3.
FAMILY_SLOTS = (
    ("two", 3),
    ("two", 3),
    ("two", 4),
    ("two", 5),
    ("three", 3),
    ("swap", 3),
    ("swap", 4),
)


def star_generators(body: str, op: str, dep: str | None, n: int) -> int:
    """Closed-form generator count of ``cka star body n``."""
    if body == "(a;b)+(b;a)" and dep in ("a:b", "b:a"):
        # One of the two chains weakens to a|b and absorbs the other.
        return n
    if body == "a+b+c":
        return (3**n - 1) // 2 if op == "seq" else math.comb(n + 2, 3)
    return 2**n - 1 if op == "seq" else n * (n + 1) // 2


def _star_argv(body: str, op: str, dep: str | None, n: int) -> list[str]:
    argv = ["star", body, str(n)]
    if op == "par":
        argv += ["--op", "par"]
    if dep is not None:
        argv += ["--weak-dep", dep]
    return argv


def _family_argv(family: str, body: str, spelling: str, n: int) -> list[str]:
    template, _ = FAMILIES[family]
    return [
        part.format(B=body, B2=spelling, n=n, m=n - 1, p=n + 1) for part in template
    ]


def star_universe() -> list[list[str]]:
    """Every canonical `cka star` argv that the star workload can draw."""
    out = []
    for group, op, weak, n in STAR_SLOTS:
        for body in GROUPS[group]:
            for dep in ("a:b", "b:a") if weak else (None,):
                out.append(_star_argv(body, op, dep, n))
    return out


def star_queries(rng: random.Random, expected: dict) -> list[dict]:
    """The same bodies and bounds for every seed; the seed draws spellings
    and dependence directions."""
    queries = []
    for group, op, weak, n in STAR_SLOTS:
        for body in GROUPS[group]:
            dep = rng.choice(("a:b", "b:a")) if weak else None
            canonical = _star_argv(body, op, dep, n)
            argv = list(canonical)
            argv[1] = rng.choice(SPELLINGS[body])
            queries.append({
                "kind": "cli",
                "argv": argv,
                "expect": {
                    "exit": 0,
                    "generators": star_generators(body, op, dep, n),
                    "sha": expected["star"][" ".join(canonical)],
                },
            })
    for k, (group, n) in enumerate(FAMILY_SLOTS):
        bodies = GROUPS[group]
        for i, (family, (_, verdict)) in enumerate(FAMILIES.items()):
            body = bodies[(i + k) % len(bodies)]
            spelling, other = rng.sample(SPELLINGS[body], 2)
            queries.append({
                "kind": "cli",
                "argv": _family_argv(family, spelling, other, n),
                "expect": {"exit": verdict},
            })
    return queries


# --------------------------------------------------------------------- #
# lang: word enumeration of antichains, ladders and small parallel stars
# --------------------------------------------------------------------- #

# (count, events) per antichain slot; 10 or more events is a blow-up.
ANTICHAIN_SLOTS = ((3, 9), (10, 8), (10, 7), (12, 6), (12, 5), (12, 4))
# (count, rungs) per ladder slot (a;b)|(a;b)|...; 5 rungs is 10 events.
LADDER_SLOTS = ((3, 5), (6, 4), (8, 3), (8, 2))
# Small stars composed in parallel, each run once; word counts are recorded.
STAR_PAR_EXPRS = (
    "seqstar(a+b,3)|seqstar(c,3)",
    "parstar(a+b,3)|seqstar(a;b,2)",
    "seqstar(a,3)|seqstar(b,3)|c",
    "parstar(a+b,4)|c",
    "seqstar(a+b,3)|parstar(a,3)",
    "seqstar(a;b,3)|c",
    "parstar(a;b,3)|seqstar(c,2)",
    "seqstar(a|b,3)|c",
    "seqstar(a+b,4)|a",
    "parstar(a+c,3)|seqstar(b,3)",
    "seqstar(a+c,3)|seqstar(b;c,2)",
    "parstar(a,3)|parstar(b,3)|c",
    "seqstar(a;b+c,3)|a",
    "parstar(a|b,3)|c",
    "seqstar(b+c,3)|seqstar(a,2)|b",
    "parstar(a+b+c,3)|a",
    "seqstar(a+b+c,3)|c",
    "seqstar(c;a,3)|b|a",
    "parstar(b;c,2)|seqstar(a+b,3)",
    "seqstar(a|c,2)|seqstar(b+a,3)",
)


def _lang_query(expr: str, words: int) -> dict:
    return {
        "kind": "cli",
        "argv": ["lang", expr, "--max-display", "0"],
        "expect": {"exit": 0, "words": words},
    }


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` positive counts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _par_operands(expr: str) -> list[str]:
    """Operands of the top-level ``|`` chain; reordering keeps the language."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(expr):
        depth += (ch == "(") - (ch == ")")
        if ch == "|" and depth == 0:
            parts.append(expr[start:i])
            start = i + 1
    return parts + [expr[start:]]


def lang_universe() -> list[list[str]]:
    """Every lang argv whose answer comes from expected.json."""
    return [["lang", expr, "--max-display", "0"] for expr in STAR_PAR_EXPRS]


def lang_queries(rng: random.Random, expected: dict) -> list[dict]:
    queries = []
    for count, events in ANTICHAIN_SLOTS:
        for _ in range(count):
            counts = _split(rng, events, rng.choice((2, 3)))
            labels = [lab for lab, k in zip("abc", counts) for _ in range(k)]
            rng.shuffle(labels)
            words = math.factorial(events)
            for k in counts:
                words //= math.factorial(k)
            queries.append(_lang_query("|".join(labels), words))
    for count, rungs in LADDER_SLOTS:
        for _ in range(count):
            rung = rng.choice(("(a;b)", "(b;a)"))
            queries.append(_lang_query("|".join([rung] * rungs), math.comb(2 * rungs, rungs) // (rungs + 1)))
    for expr in STAR_PAR_EXPRS:
        words = expected["lang"][" ".join(["lang", expr, "--max-display", "0"])]
        parts = _par_operands(expr)
        rng.shuffle(parts)
        queries.append(_lang_query("|".join(parts), words))
    return queries


# --------------------------------------------------------------------- #
# laws: every law of the suite at several seeded configurations
# --------------------------------------------------------------------- #

# Forty seeded configurations of 10 cases, most of them at five events.
# The seed's random inputs move query_p90_norm; resampling timed queries
# of every law suggested that between seeds it spreads by about 8% at 12
# configurations of 20 cases spread evenly over 3-5 events, 6% at 30 of 10
# spread evenly, and 4% at these 40.
LAW_MAX_EVENTS = (3,) * 5 + (4,) * 10 + (5,) * 25
LAW_CASES = 10


def laws_queries(rng: random.Random, law_names: list[str]) -> list[dict]:
    queries = []
    for max_events in LAW_MAX_EVENTS:
        cfg = {
            "max_events": max_events,
            "alphabet": ["a", "b"],
            "edge_probability": 0.4,
            "seed": rng.randrange(2**31),
        }
        for name in law_names:
            queries.append({"kind": "law", "law": name, "cfg": cfg, "cases": LAW_CASES})
    return queries


# --------------------------------------------------------------------- #


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build(workload: str, seed: int, law_names: list[str] | None = None) -> list[dict]:
    """The seeded query list of one workload, in the order it is issued.

    ``law_names`` lists the law suite's laws; only ``laws`` needs it.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "laws":
        queries = laws_queries(rng, law_names or [])
    else:
        make = star_queries if workload == "star" else lang_queries
        queries = make(rng, load_expected())
    rng.shuffle(queries)
    return queries
