"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with --size tiny, and
checks that each metric BENCHMARK.json names comes out with its unit, that
every per-layer metric maps to an end-to-end metric and workload, that a
traced pass leaves aalpha's functions as it found them, and that the
benchmark refuses to run without the aalpha sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import MOVES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if workload == "grid":  # the endpoint probe's false ConsistencyErrors
        assert result["failed"] > 0


def test_every_layer_metric_maps_to_an_end_to_end_metric():
    assert set(MOVES) == {m["name"] for m in SPEC["per_layer"]}
    for name, moves in MOVES.items():
        assert moves or name == "trace.overhead_s", name
        for metric, workloads in moves:
            assert metric in END_TO_END, (name, metric)
            assert workloads and set(workloads) <= set(WORKLOADS), name


def test_known_grid_tally():
    from workloads import FULL_GRID_COUNTS, expected_grid_counts, probe_points
    assert expected_grid_counts(60, 60, 100) == FULL_GRID_COUNTS
    assert len(probe_points()) == 645


def test_traced_pass_puts_the_library_back(tmp_path):
    from spans import Tracer
    from workloads import WORKLOADS
    tracer = Tracer()
    for cls in WORKLOADS.values():
        hooks = cls(1, "tiny", str(tmp_path), tracer).hooks()
        before = [getattr(h.module, h.attr) for h in hooks]
        with tracer.installed(hooks):
            assert all(getattr(h.module, h.attr) is not fn
                       for h, fn in zip(hooks, before))
        assert [getattr(h.module, h.attr) for h in hooks] == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
