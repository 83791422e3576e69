"""Span tracing of cka's public functions, installed from outside the package.

Each traced function is replaced, in every ``cka`` module that bound it
(and in function defaults such as ``evaluate``'s ``seq_compose``), by a
wrapper that records one span: layer id, parent span id, start and end.
Spans stay in flat arrays until the pass ends; self time is a span's
duration minus the durations of its direct children, which also handles
recursion such as ``evaluate`` calling itself.  Work counts are taken at
the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# Metric prefix -> (module, public functions it covers).
LAYERS = {
    "partial_string.find_morphism": ("cka.partial_string", ("find_morphism",)),
    "partial_string.compose": ("cka.partial_string", ("seq", "par", "weakseq")),
    "partial_string.to_text": ("cka.partial_string", ("to_text",)),
    "program.normalize_program": ("cka.program", ("normalize_program",)),
    "program.pcompose": ("cka.program", ("pcompose",)),
    "program.punion": ("cka.program", ("punion",)),
    "program.star": ("cka.program", ("star",)),
    "program.subset": ("cka.program", ("subset", "equals", "contains")),
    "language.linearize": ("cka.language", ("linearize",)),
    "language.language": ("cka.language", ("language",)),
    "expr.tokenize": ("cka.expr", ("tokenize",)),
    "expr.parse": ("cka.expr", ("parse",)),
    "expr.evaluate": ("cka.expr", ("evaluate",)),
    "testkit.law_suite": ("cka.testkit", ("law_suite",)),
    "testkit.brute_force_refines": ("cka.testkit", ("brute_force_refines",)),
    "cli.main": ("cka.cli", ("main",)),
}

# The span the benchmark itself opens around each query.
QUERY = "query"


def _found(totals, args, result):
    totals["found"] += result is not None


def _gens(totals, args, result):
    totals["gens_in"] += len(args[0].generators)
    totals["gens_out"] += len(result.generators)


def _words(totals, args, result):
    totals["words"] += len(result)


def _tokens(totals, args, result):
    totals["tokens"] += len(result)


# Work counted per layer from each call's arguments and result.
COUNTERS = {
    "partial_string.find_morphism": _found,
    "program.normalize_program": _gens,
    "language.linearize": _words,
    "expr.tokenize": _tokens,
}


class Tracer:
    """In-memory span store for one pass of one worker process."""

    def __init__(self) -> None:
        self.names = [QUERY] + list(LAYERS)
        self.layer = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = [-1]
        self.totals = {name: Counter() for name in self.names}

    def _traced(self, layer_id: int, fn, counter, totals):
        layer, parent, start, end, current = (
            self.layer, self.parent, self.start, self.end, self.current,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(layer)
            up = current[0]
            layer.append(layer_id)
            parent.append(up)
            start.append(0.0)
            end.append(0.0)
            current[0] = sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                current[0] = up
                start[sid] = t0
                end[sid] = t1
            if counter is not None:
                counter(totals, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the cka modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "cka" or n.startswith("cka.")]
        replace = {}
        for layer_id, (name, (module, functions)) in enumerate(LAYERS.items(), start=1):
            for fname in functions:
                fn = getattr(sys.modules[module], fname)
                replace[fn] = self._traced(layer_id, fn, COUNTERS.get(name), self.totals[name])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not callable(value):
                    continue
                if value in replace:
                    setattr(module, attr, replace[value])
                defaults = getattr(value, "__defaults__", None)
                if defaults:
                    value.__defaults__ = tuple(
                        replace.get(d, d) if callable(d) else d for d in defaults
                    )

    def query(self, fn, *args):
        """Run ``fn(*args)`` inside a root span of its own."""
        return self._traced(0, fn, None, None)(*args)

    def summary(self) -> dict:
        """Per-layer calls, self time and work counts of the recorded spans."""
        n = len(self.layer)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = layer[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {
            name: dict(self.totals[name], calls=calls[k], self_s=self_s[k])
            for k, name in enumerate(self.names)
        }
