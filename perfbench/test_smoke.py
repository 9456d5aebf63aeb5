"""Smoke test of the benchmark: a tiny version of every workload, untraced and
traced, emits every metric that BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py    # from the repository root
"""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(wl):
    """Two trials on the first three grid points; the statistical checks need full size."""
    return dataclasses.replace(
        wl, config=dict(wl.config, m_grid=wl.config["m_grid"][:3], trials=2), checks=()
    )


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(name, trace, tmp_path):
    result = run.run_workload(
        tiny(run.WORKLOADS[name]), ROOT, seed=1, seconds=0, trace=bool(trace),
        out_root=tmp_path, reference=None,
    )
    assert result["failed"] == 0, result["invocations"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_checks_reject_bad_curves():
    wl = run.WORKLOADS["uniform-sparse"]
    grid = wl.config["m_grid"]
    good = {("glasso", m): 10.0 / math.sqrt(m) for m in grid}
    assert run.check_uniform_slope(wl, good, {}) is None
    flat = {("glasso", m): 1.0 for m in grid}
    assert "slope" in run.check_uniform_slope(wl, flat, {})

    lowrank = run.WORKLOADS["lowrank-nuclear"]
    rising = {("glasso", m): float(m) for m in lowrank.config["m_grid"]}
    assert "decreasing" in run.check_decreasing(lowrank, rising, {})

    compare = run.WORKLOADS["compare-paired"]
    assert "win rate" in run.check_winrate_m1000(
        compare, {}, {("winrate_glasso_vs_pbp", 1000): 0.9}
    )
