"""Record the reference outputs that have no closed form into expected.json.

Run from the repository root, once, at a commit whose outputs are trusted:

    python3 perfbench/record_expected.py

It stores, per canonical query, a digest of what ``cka star`` prints and
the word count of each parallel-star ``cka lang`` query.  The benchmark
compares respelled queries against these entries.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cka.cli  # noqa: E402
import workloads  # noqa: E402
from passes import run_cli  # noqa: E402


def _run(argv: list[str]) -> str:
    code, out = run_cli(cka, argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return workloads.normalize_output(out)


def main() -> int:
    expected = {
        "star": {" ".join(a): workloads.digest(_run(a)) for a in workloads.star_universe()},
        "lang": {" ".join(a): workloads.word_count(_run(a)) for a in workloads.lang_universe()},
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
