"""One pass of the benchmark in a fresh interpreter.

Usage: python -I worker.py SRC_DIR MODE, where MODE is ``setup`` (import
cka and exit), ``run`` or ``trace``.  The worker imports ``cka`` and
``cka.cli`` from SRC_DIR and prints ``ready``, so the parent can time the
set-up before any benchmark module is imported.  Next it prints the
seconds of the fastest of a few probes (see ``passes.probe``), the
machine's speed right after that set-up.  It then reads a JSON list
of queries on stdin, answers them one at a time and prints one JSON
object with the keys ``times`` (each query's seconds), ``probes`` (the
seconds of the probe timed before each query), ``failures`` (every wrong
answer), ``peak_rss_mb`` and, when tracing, ``layers`` (per-layer totals).
Answers are checked after the timed loop.
"""

import sys


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import cka
    import cka.cli

    print("ready", flush=True)

    import os

    if os.path.realpath(os.path.dirname(cka.__file__)) != os.path.realpath(
        os.path.join(src, "cka")
    ):
        print(f"cka imported from {cka.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import json

    from passes import fastest_probe, run_pass

    print(fastest_probe(), flush=True)
    if mode == "setup":
        return 0

    json.dump(run_pass(cka, json.load(sys.stdin), mode == "trace"), sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
