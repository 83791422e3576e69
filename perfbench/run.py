"""Benchmark of the cka library: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload star --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each
printing its table and its JSON line.

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``star``: ``cka star``, ``cka equal`` and ``cka refines`` on bounded
  stars.  Normalisation's all-pairs absorption and ``find_morphism``
  dominate; ``linearize`` is never called.
- ``lang``: ``cka lang --max-display 0`` on antichains, ladders and small
  parallel stars.  Enumerating linear extensions dominates; normalisation
  sees mostly one-generator programs.
- ``laws``: each of the suite's laws as one ``cka.law_suite`` query at
  forty seeded configurations.  Thousands of cold ``find_morphism`` calls on
  strings of at most five events, plus the brute-force oracles.

One run lasts about ``--seconds``.  It starts a fresh interpreter for
every pass over the seeded query list, so ``find_morphism``'s table cache
carries over between the queries of a pass but never between passes, and
no query is repeated inside a pass.  Each pass is a single client in a
closed loop, one query at a time, calling ``cka.cli.main(argv)`` (or
``cka.law_suite``) in process.  Passes run one after another, each after
two import-only interpreter starts.

Before each query the worker times a probe: a fixed pure-Python
computation of about a millisecond that shares no code with cka.  On a
shared machine the speed of every process drifts by up to a half, over
seconds as well as over minutes; dividing a query's time by the median of
the probes timed within ``PROBE_WINDOW`` queries of it cancels most of that
drift, and the ratio stays put where wall time does not.

With ``--trace 0`` the run reports:

- ``setup_s``: median over every start of the run of the time from
  starting an interpreter until ``import cka, cka.cli`` is done, divided by
  the time of the fastest of three probes that interpreter runs right
  after, times ``PROBE_REF_S`` (the probe's time on the host the bounds
  were set on), so that it reads in seconds of that host;
- ``query_p50_norm`` and ``query_p90_norm``: percentiles over the queries
  of the list of each query's median over passes of its time divided by
  the median of the probes around it (unit ``probe``);
- ``run_norm``: the sum of those per-query figures, the time to answer
  the whole list in probes;
- ``peak_rss_mb``: median over passes of the pass process's peak resident
  memory.

The table also prints the same figures in wall-clock time (``run_s``,
``query_p50_ms``, ``query_p90_ms``, ``setup_wall_s``) and the median probe
time, and ``fail_rate``: wrong answers, exceptions and unexpected exit
codes, which ``failed`` counts, over ``attempted``.

With ``--trace 1`` it alternates untraced passes with passes whose calls
into cka's public functions are wrapped from outside (``spans.py``), and
reports per-layer calls, self time and work counts (medians over traced
passes), ``trace.run_s`` (wall-clock ``run_s`` of the traced passes) and
``trace.overhead_s`` (traced minus untraced ``run_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Import-only interpreter starts before each pass, on top of the pass's own.
SETUP_STARTS = 2
# Seconds one probe takes on the 2-vCPU x86-64 host the bounds were set
# on; ``setup_s`` is the set-up time in probes times this, so it reads in
# seconds of that host at its usual speed.
PROBE_REF_S = 0.00085
# A query's time is divided by the median of the probes timed before the
# queries up to this many places before and after it.  On a 2-vCPU x86-64
# host in a noisy hour, this nearer measure of the speed cut the spread of
# the per-pass median query time on lang from 11% (with the pass's median
# probe) to 3%.
PROBE_WINDOW = 2
# A run must end within 180 s, whatever --seconds asks for.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_norm": "probe",
    "query_p50_norm": "probe",
    "query_p90_norm": "probe",
    "peak_rss_mb": "MB",
}

# Wall-clock figures printed beside the metrics; too noisy to gate on.
WALL_CLOCK = {
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_wall_s": "s",
    "probe_ms": "ms",
}

PER_LAYER = {
    "partial_string.find_morphism.calls": "count",
    "partial_string.find_morphism.self_s": "s",
    "partial_string.find_morphism.found_ratio": "ratio",
    "partial_string.compose.calls": "count",
    "partial_string.compose.self_s": "s",
    "partial_string.to_text.calls": "count",
    "partial_string.to_text.self_s": "s",
    "program.normalize_program.calls": "count",
    "program.normalize_program.self_s": "s",
    "program.normalize_program.gens_in": "count",
    "program.normalize_program.gens_out": "count",
    "program.normalize_program.keep_ratio": "ratio",
    "program.pcompose.self_s": "s",
    "program.punion.self_s": "s",
    "program.star.self_s": "s",
    "program.subset.calls": "count",
    "program.subset.self_s": "s",
    "language.linearize.calls": "count",
    "language.linearize.self_s": "s",
    "language.linearize.words": "count",
    "language.language.self_s": "s",
    "expr.tokenize.tokens": "count",
    "expr.tokenize.self_s": "s",
    "expr.parse.self_s": "s",
    "expr.evaluate.self_s": "s",
    "testkit.law_suite.self_s": "s",
    "testkit.brute_force_refines.calls": "count",
    "testkit.brute_force_refines.self_s": "s",
    "cli.main.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# Ratio metrics: numerator and denominator counts of the same layer.
RATIOS = {
    "found_ratio": ("found", "calls"),
    "keep_ratio": ("gens_out", "gens_in"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def _worker(mode: str, limit: float, queries: list | None = None) -> tuple[float, float, dict | None]:
    """Start a fresh interpreter; return its set-up time, the time of the
    fastest probe it ran right after set-up, and its pass result.

    The interpreter is killed if it is still running at ``limit``, a
    ``time.perf_counter()`` reading.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", WORKER, SRC, mode],
        cwd=ROOT,
        stdin=subprocess.DEVNULL if queries is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        bufsize=0,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        probe_line = proc.stdout.readline()
        payload = None if queries is None else json.dumps(queries).encode()
        out, _ = proc.communicate(payload, timeout=max(limit - time.perf_counter(), 0.001))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    return setup_s, float(probe_line), None if queries is None else json.loads(out)


def _per_query(passes: list[dict], normalize: bool = False) -> list[float]:
    """Each query's median time over the passes, in seconds or, with
    ``normalize``, in multiples of the median probe time around it."""
    scaled = []
    for p in passes:
        times, probes = p["times"], p["probes"]
        if normalize:
            times = [
                t / statistics.median(probes[max(i - PROBE_WINDOW, 0) : i + PROBE_WINDOW + 1])
                for i, t in enumerate(times)
            ]
        scaled.append(times)
    return [statistics.median(ts) for ts in zip(*scaled)]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _layer_value(layers: dict, name: str):
    layer, key = name.rsplit(".", 1)
    totals = layers[layer]
    if key in RATIOS:
        num, den = (totals.get(k, 0) for k in RATIOS[key])
        return num / den if den else 0.0
    return totals.get(key, 0)


def measure(queries: list[dict], seconds: float, trace: bool) -> dict:
    """Run passes of ``queries`` for about ``seconds`` and aggregate them."""
    start = time.perf_counter()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    setups, plain, traced = [], [], []
    while True:
        setups += [_worker("setup", limit)[:2] for _ in range(SETUP_STARTS)]
        mode = "trace" if trace and len(traced) < len(plain) else "run"
        setup_s, probe_s, result = _worker(mode, limit, queries)
        setups.append((setup_s, probe_s))
        (traced if mode == "trace" else plain).append(result)
        if time.perf_counter() >= deadline and (traced or not trace):
            break

    passes = plain + traced
    wall, norm = _per_query(plain), _per_query(plain, normalize=True)
    out = {
        "queries": len(queries),
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "setup_starts": len(setups),
        "attempted": len(queries) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "end_to_end": {
            "setup_s": statistics.median([w / p for w, p in setups]) * PROBE_REF_S,
            "run_norm": sum(norm),
            "query_p50_norm": statistics.median(norm),
            "query_p90_norm": _p90(norm),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
        },
        "wall_clock": {
            "run_s": sum(wall),
            "query_p50_ms": statistics.median(wall) * 1000.0,
            "query_p90_ms": _p90(wall) * 1000.0,
            "setup_wall_s": statistics.median([w for w, _ in setups]),
            "probe_ms": statistics.median([t for p in plain for t in p["probes"]]) * 1000.0,
        },
    }
    if trace:
        layers = {}
        for name in PER_LAYER:
            if not name.startswith("trace."):
                values = [_layer_value(p["layers"], name) for p in traced]
                layers[name] = statistics.median(values)
        layers["trace.run_s"] = sum(_per_query(traced))
        layers["trace.overhead_s"] = layers["trace.run_s"] - sum(wall)
        out["per_layer"] = layers
    return out


def report(title: str, m: dict) -> dict:
    """Print the human-readable table of ``measure``'s result; return the
    final JSON object, with per-layer metrics if the run was traced."""
    plain = m["plain_passes"]
    print(
        f"{title}: {m['queries']} queries per pass, {plain} untraced and "
        f"{m['traced_passes']} traced passes, {m['setup_starts']} interpreter starts"
    )
    per_query = f"{m['queries']} queries, each its median of {plain} passes"
    samples = {
        "setup_s": f"median of {m['setup_starts']} starts, in probes x {PROBE_REF_S} s",
        "run_norm": f"sum over {per_query}",
        "query_p50_norm": per_query,
        "query_p90_norm": per_query,
        "peak_rss_mb": f"median of {plain} passes",
        "run_s": f"sum over {per_query}",
        "query_p50_ms": per_query,
        "query_p90_ms": per_query,
        "setup_wall_s": f"median of {m['setup_starts']} starts",
        "probe_ms": f"median probe of {plain} passes",
    }
    rows = [(n, m["end_to_end"][n], u) for n, u in END_TO_END.items()]
    rows += [(n, m["wall_clock"][n], u) for n, u in WALL_CLOCK.items()]
    for name, value, unit in rows:
        print(f"  {name:<15} {value:>12.6g} {unit:<5} {samples[name]}")
    rate = m["failed"] / m["attempted"]
    print(f"  {'fail_rate':<15} {rate:>12.6g} {'':<5} {m['failed']} of {m['attempted']} attempted")
    metrics = {name: {"value": m["end_to_end"][name], "unit": unit} for name, unit in END_TO_END.items()}
    if "per_layer" in m:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<42} {m['per_layer'][name]:>14.6g} {unit}")
        metrics = {name: {"value": m["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    wrong = {f["index"]: f for f in m["failures"]}
    for failure in list(wrong.values())[:10]:
        print(f"wrong answer: {failure}", file=sys.stderr)
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }


def law_names() -> list[str]:
    sys.path.insert(0, SRC)
    from cka.testkit import LAWS

    return [law.name for law in LAWS]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seconds <= RUN_LIMIT_S - 50:
        ap.error(f"--seconds must be within [0, {RUN_LIMIT_S - 50}]")
    if not os.path.isfile(os.path.join(SRC, "cka", "__init__.py")):
        print(f"error: no cka sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        names = law_names() if workload == "laws" else None
        queries = workloads.build(workload, args.seed, names)
        try:
            m = measure(queries, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        title = f"perfbench {workload} seed={args.seed} trace={args.trace}"
        print(json.dumps(report(title, m)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
