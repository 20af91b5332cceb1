"""Smoke self-test of the benchmark harness, at a tiny load.

    python3 -m pytest perfbench/tests

Each workload runs one round untraced and one round traced.  The test
checks the result line against BENCHMARK.json, that every metric is
printed by name with its unit, and that no op fails.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# The six end-to-end metrics by name and unit; fail_ratio is printed on a
# line of its own because the result line carries it as failed/attempted.
SIX = [("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
       ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("fail_ratio", "-")]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _printed(lines, name):
    hits = [line.split(" = ", 1)[1] for line in lines if line.strip().startswith(name + " = ")]
    assert len(hits) == 1, name
    return hits[0].split()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in SIX:
        value, printed_unit = _printed(lines[:-1], name)[:2]
        assert printed_unit == unit
        if name == "fail_ratio":
            assert float(value) == 0
    assert any("outputs_sha256" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    n = len(SPEC["per_layer"])
    assert any(f"per-layer metrics produced: {n}/{n}" == line.strip() for line in lines)
    assert any(line.strip().startswith("tracing overhead:") for line in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    busy = {"words": "idem.eulerian_idempotent.self_s", "topo": "topo.QuasiOrderClass.calls",
            "descent": "descent.de_equal.calls"}[workload]
    assert metrics[busy] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_schedule_is_seeded_and_mix_is_fixed():
    def mix(rounds):
        return Counter(
            (op.get("kind"), op.get("structure"), len(op.get("word", "").split(".")))
            if "argv" not in op else tuple(op["argv"][:2])
            for op in rounds[0]
        )

    for name in WORKLOADS:
        a = workloads.schedule(name, 1, rounds=2)
        assert a == workloads.schedule(name, 1, rounds=2)
        b = workloads.schedule(name, 2, rounds=2)
        assert mix(a) == mix(b)
        if name != "descent":
            assert a != b
