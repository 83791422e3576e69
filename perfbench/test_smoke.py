"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def tiny(workload):
    """A few cheap queries of the workload's seed-1 list."""
    queries = workloads.build(workload, 1, run.law_names())
    if workload == "star":
        picked = [q for q in queries if q["argv"][0] == "star" and int(q["argv"][2]) <= 4]
        picked += [q for q in queries if q["argv"][0] != "star" and q["argv"][1].endswith(",3)")]
    elif workload == "lang":
        picked = [q for q in queries if len(q["argv"][1]) <= 9]
    else:
        picked = [dict(q, cases=2) for q in queries]
    return picked[:12]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.report("smoke", run.measure(tiny(workload), 0, trace))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload,key", [("star", "generators"), ("lang", "words")])
def test_wrong_expected_count_is_a_failure(workload, key):
    queries = tiny(workload)
    target = next(q for q in queries if key in q["expect"])
    target["expect"][key] += 1
    m = run.measure(queries, 0, False)
    assert m["failed"] == 1
    assert m["failed"] / m["attempted"] > 0
    assert not run.report("smoke", m)["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = SPEC["command"] + ["--workload", "star", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
