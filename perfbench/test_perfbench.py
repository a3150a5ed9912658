"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run each workload for one second, so they check the benchmark's
wiring and output checks, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_first_sum(monkeypatch):
    from repro.service.executor import BatchArrays

    to_outcome = BatchArrays.to_outcome

    def corrupted(self):
        outcome = to_outcome(self)
        outcome.sums[0] ^= 1
        return outcome

    monkeypatch.setattr(BatchArrays, "to_outcome", corrupted)


@pytest.mark.parametrize("workload", ["bulk", "scalar", "verify"])
def test_corrupted_sum_raises_failed_share(workload, monkeypatch):
    _corrupt_first_sum(monkeypatch)
    result = workloads.run(workload, seed=5, seconds=1, trace=False)
    assert result.attempted > 0
    assert 0 < result.failed / result.attempted <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "bulk", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_coverage():
    log = spans.SpanLog([("a", 0, 100, -1, 1), ("b", 10, 30, 0, 1),
                         ("c", 20, 50, 0, 1), ("d", 60, 70, 0, 1),
                         ("e", 65, 90, 3, 1)])
    assert spans.self_times(log.spans) == [100 - 40 - 10, 20, 30, 5, 25]


def test_wrappers_record_parent_and_request_and_uninstall():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    original = Layer.outer
    log = spans.SpanLog()
    log.wrap(Layer, "outer", "outer", request_of=True)
    log.wrap(Layer, "inner", "inner", ops_of=lambda self, x: x)
    layer = Layer()
    assert layer.outer(3) == 7
    outer, inner = log.finished()
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == outer[4] == 1
    assert log.ops == {"inner": 3}
    log.uninstall()
    assert Layer.outer is original
    layer.outer(1)
    assert len(log.finished()) == 2
