"""Smoke test of the benchmark itself: a few ops of every workload, untraced
and traced, and a run without the library sources.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ORDERS = {"star": 4, "beta": 3, "cochain-algebra": 6, "weyl-homotopy": 6}
# layers each workload must not touch at all
UNUSED = {"star": ("cochains.", "weylhh."), "beta": ("weylhh.",),
          "cochain-algebra": ("weylhh.",), "weyl-homotopy": ("poly.",)}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "5", "--trace", str(trace), "--order", str(ORDERS[workload]),
         "--max-ops", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(ORDERS)


@pytest.mark.parametrize("workload", list(ORDERS))
def test_end_to_end_metrics(workload):
    lines, res = result(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert f"{workload} op_fail_ratio 0 ratio" in lines
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(f"{workload} {m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(ORDERS))
def test_per_layer_metrics_and_isolation(workload):
    lines, res = result(bench(workload, 1))
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for name, value in metrics.items():
        if name.endswith(".calls") and name.startswith(UNUSED[workload]):
            assert value["value"] == 0, name
    if workload == "star":
        assert metrics["weyl.moyal_product.share"]["value"] > 0.5


def test_fails_without_sources():
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("star", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
