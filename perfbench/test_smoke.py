"""Smoke tests of the benchmark: every workload at small n, untraced and
traced, plus the pieces the full runs rely on.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd, workload="kv2-sweep", trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stderr
    assert result["correct"] is True
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)
    assert any(line.startswith("outputs_match ") for line in lines)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 101)) == (90.0, 90)
    assert run.tail(range(1, 1001)) == (99.0, 990)
    assert run.tail([3.0, 1.0]) == (100.0, 3.0)


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.build_inputs(workload, 5, smoke=True)
        assert first == workloads.build_inputs(workload, 5, smoke=True)
        assert first != workloads.build_inputs(workload, 6, smoke=True)


def test_uninstall_restores_every_wrapped_name():
    from ldpgauss import cli, harness, numerics, protocols

    def names():
        return (
            numerics.uniform_block, protocols.rr1_values, protocols.plan_partition,
            harness.plan_partition, harness.sample_population, cli.sample_population,
            cli.main, cli.replay_analyst, dict(protocols.RUNNERS),
            dict(vars(protocols.Transcript)),
        )

    before = names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert numerics.uniform_block is not before[0]
        assert protocols.RUNNERS["kv2"] is not before[8]["kv2"]
    finally:
        assert tracer.uninstall() == []
    assert all(a is b or a == b for a, b in zip(names(), before))


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench(tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
