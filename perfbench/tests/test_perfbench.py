"""Tests of the benchmark itself: tiny smoke runs and the output checks.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import serveload  # noqa: E402
import workloads  # noqa: E402

#: Workloads whose output checks fail at this commit on every seed:
#: SuDoku-Z scrub passes report some stuck-at lines twice, so the
#: outcome total exceeds lines x intervals (README.md, "Known failures").
STUCK_AT_DOUBLE_COUNT = pytest.mark.xfail(
    strict=True,
    reason="scrub passes count stuck-at lines twice (outcome total check)",
)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced tiny run per workload, made once."""
    cache = {}

    def runs(workload):
        if workload not in cache:
            bench = run.Bench(workload, workloads.DEFAULT_SEED,
                              tmp_path_factory.mktemp(workload))
            plain = [bench.child(scale="tiny")]
            traced = [bench.child(scale="tiny", trace=True)]
            cache[workload] = bench, plain, traced
        return cache[workload]

    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, tiny_runs):
    bench, plain, traced = tiny_runs(workload)
    assert all(record is not None for _, record in plain + traced), bench.messages
    summary = run.summary_metrics(workload, plain)
    for name, _unit, _better in run.end_to_end_metrics(workload):
        assert math.isfinite(summary[name]) and summary[name] > 0, name
    metrics = run.layer_report(workload, plain, traced, help_s=1.0)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
    if workload == "campaign_z_hot":
        # Shard-side wrappers ran after the fork and shipped their counts.
        assert metrics["parallel.shard_busy_max_s"]["value"] > 0
        assert metrics["kernels.batch_decode.calls"]["value"] > 0
        assert metrics["resilience.checkpoint_save.bytes"]["value"] > 0
    if workload == "serve_mixed":
        assert 0 < metrics["serve.dedup_ratio"]["value"] < 1
        assert metrics["serve.hit_p50_s"]["value"] > 0


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([4.0, 1.0, 2.0, 3.0, 100.0]) == 3.0
    assert run.interquartile_mean([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert run.interquartile_mean([5.0]) == 5.0


def test_job_metrics_exist_on_serve_only():
    for workload in workloads.WORKLOADS:
        names = {name for name, _, _ in run.end_to_end_metrics(workload)}
        assert ("jobs_per_s" in names) == (workload == "serve_mixed")
        assert ("units_per_s" in names) == (workload != "serve_mixed")


@pytest.mark.parametrize("workload", [
    "campaign_z_hot",
    pytest.param("scenario_z_64k", marks=STUCK_AT_DOUBLE_COUNT),
    "raresim_z",
    pytest.param("serve_mixed", marks=STUCK_AT_DOUBLE_COUNT),
])
def test_tiny_run_passes_its_output_checks(workload, tiny_runs):
    bench, _plain, _traced = tiny_runs(workload)
    assert bench.failed == 0, bench.messages


def _campaign_result(tmp_path):
    params = workloads.program_inputs("campaign_z_hot", "tiny",
                                      workloads.DEFAULT_SEED)
    record = workloads.run_simulation("campaign_z_hot", params,
                                      str(tmp_path), trace=False)
    assert record["failures"] == []
    return params, record["result"]


@pytest.mark.parametrize("corrupt", [
    lambda r: r["outcomes"].update(sdc=1, clean=r["outcomes"]["clean"] - 1),
    lambda r: r.update(intervals=r["intervals"] - 1),
    lambda r: r.update(truncated=True, stop_reason="deadline"),
    lambda r: r["outcomes"].update(clean=r["outcomes"]["clean"] + 1),
])
def test_checker_fails_a_corrupted_result(corrupt, tmp_path):
    params, result = _campaign_result(tmp_path)
    broken = copy.deepcopy(result)
    corrupt(broken)
    assert workloads.check_output("campaign", params, broken)
    digest = workloads.result_digest(broken)
    assert workloads.check_golden("campaign_z_hot", "tiny",
                                  workloads.DEFAULT_SEED, digest)


def test_serve_summary_fails_when_store_hits_simulate():
    spec = {"kind": "raresim", "trials": 20, "seed": 1}
    samples = [{"units": 20, "failures": [], "created": True,
                "latency_s": 0.1, "submitted": 0.0, "fetched": 0.1},
               {"units": 20, "failures": [], "cached": True,
                "latency_s": 0.01, "submitted": 0.1, "fetched": 0.11}]
    ok = serveload.summarize(samples, [spec, spec], 20.0, trace=False)
    assert ok["failed"] == 0
    resimulated = serveload.summarize(samples, [spec, spec], 40.0, trace=False)
    assert resimulated["failed"] == 1


def _gated():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_metrics_every_gated_workload_prints():
    spec = _gated()
    gated = [w["name"] for w in spec["workloads"]]
    assert set(gated) <= set(workloads.WORKLOADS)
    for workload in gated:
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
            == run.end_to_end_metrics(workload)
    per_layer = [(name, unit) for name, unit, _ in run.PER_LAYER]
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == [pair for pair in per_layer if pair in listed]


def test_gated_per_layer_metrics_move_on_a_gated_workload(tiny_runs):
    """A per-layer metric no gated workload exercises reads a constant 0."""
    spec = _gated()
    seen = set()
    for workload in (w["name"] for w in spec["workloads"]):
        _bench, plain, traced = tiny_runs(workload)
        metrics = run.layer_report(workload, plain, traced, help_s=1.0)
        seen |= {name for name, m in metrics.items() if m["value"]}
    assert {m["name"] for m in spec["per_layer"]} <= seen


def _bench_checkout(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def _run_command(cwd, workload="raresim_z", trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


def test_run_without_the_program_fails_without_a_result(tmp_path):
    done = _run_command(_bench_checkout(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_ends_and_fails_when_every_run_crashes(tmp_path, trace):
    checkout = _bench_checkout(tmp_path)
    package = checkout / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise RuntimeError('broken build')\n")
    done = _run_command(checkout, trace=trace)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
