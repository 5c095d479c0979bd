"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload for real, briefly, so they take a minute or two.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _expected(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_benchmark_json_lists_what_run_reports():
    assert _expected(0) == {n: unit for n, (unit, _) in run.END_TO_END.items()}
    per_layer = {n: tracing.unit_of(n) for n in tracing.metric_names()}
    per_layer.update({"trace.pipeline_s": "s", "trace.overhead_s": "s"})
    assert _expected(1) == per_layer
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = _expected(trace)
    assert {n: m["unit"] for n, m in last["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(last["metrics"][name]["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_forced_check_failure_shows_in_error_rate(tmp_path, capsys):
    wl = replace(WORKLOADS["readme-192"], test_floor=1.01)
    result = worker.run_pipeline(wl, 0, tmp_path, time.perf_counter())
    assert result["failed"] == 1
    assert result["failures"][0].startswith("test_metric_floor")
    result["env"] = {}
    run.report("readme-192", 0, 1, 0, [result], *run.summarize([result]), tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    error_rate = next(line.split() for line in lines if line.startswith("  error_rate"))
    assert float(error_rate[1]) == pytest.approx(1 / result["attempted"])
    last = json.loads(lines[-1])
    assert not last["correct"] and last["failed"] == 1


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme-192",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_readings_leave_the_collector_schedule_alone():
    import gc

    import hostspeed
    speed = hostspeed.HostSpeed()
    speed.read()                       # lists grow once; no container stays behind
    before = gc.get_count()[0]
    for _ in range(5):
        speed.read()
    assert gc.get_count()[0] == before
    assert gc.isenabled()
    scale = speed.scale(speed.times[0], speed.times[-1])
    assert scale == pytest.approx(hostspeed.REFERENCE_MS / (sum(speed.ms) / len(speed.ms)))
