"""Answer a query list once, closed loop, and check every answer."""

from __future__ import annotations

import contextlib
import io
import random
import resource
import time

import spans
import workloads


def run_cli(cka, argv):
    """``cka.cli.main(argv)``'s exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cka.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _law(cka, law, cfg, cases):
    result = cka.law_suite(cfg, cases, laws=[law]).results[0]
    return result.passes, result.failures


def _prepare(cka, query):
    """The call that answers ``query``, with its inputs built beforehand."""
    if query["kind"] == "cli":
        return run_cli, (cka, query["argv"])
    law = next(law for law in cka.LAWS if law.name == query["law"])
    cfg = dict(query["cfg"], alphabet=tuple(query["cfg"]["alphabet"]))
    return _law, (cka, law, cka.GenConfig(**cfg), query["cases"])


def _wrong(query, answer) -> str | None:
    if isinstance(answer, Exception):
        return f"raised {type(answer).__name__}: {answer}"
    if query["kind"] == "cli":
        return workloads.check_cli(query, *answer)
    return workloads.check_law(query, *answer)


_PROBE_ROWS = tuple(random.Random(7).getrandbits(24) for _ in range(24))


def probe() -> None:
    """A fixed pure-Python computation of about a millisecond.

    It shares no code with cka, so its time tracks only the machine's
    current speed, which on a shared machine drifts by up to a half.
    """
    rows = list(_PROBE_ROWS)
    seen: dict = {}
    for _ in range(12):
        closed = [row | (1 << i) for i, row in enumerate(rows)]
        for k in range(len(closed)):
            bit, row_k = 1 << k, closed[k]
            for i in range(len(closed)):
                if closed[i] & bit:
                    closed[i] |= row_k
        key = tuple(sorted(row.bit_count() for row in closed))
        seen[key] = seen.get(key, 0) + 1
        rows = [(row * 2654435761) & 0xFFFFFF for row in rows]


def fastest_probe(repeats: int = 3) -> float:
    """Seconds of the fastest of ``repeats`` probes.

    The fastest, because the first probe in a fresh interpreter runs cold.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_pass(cka, queries: list[dict], trace: bool) -> dict:
    """Issue ``queries`` one at a time and report times and wrong answers.

    A probe runs before each query, outside the query's time.
    """
    calls = [_prepare(cka, q) for q in queries]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()

    answers, times, probes = [], [], []
    for fn, args in calls:
        t0 = time.perf_counter()
        probe()
        probes.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            answer = fn(*args) if tracer is None else tracer.query(fn, *args)
        except Exception as exc:  # a raising query is a wrong answer, not a crash
            answer = exc
        times.append(time.perf_counter() - t0)
        answers.append(answer)

    failures = []
    for i, (query, answer) in enumerate(zip(queries, answers)):
        why = _wrong(query, answer)
        if why is not None:
            failures.append({"index": i, "query": query.get("argv") or query["law"], "why": why})
    result = {
        "times": times,
        "probes": probes,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result
