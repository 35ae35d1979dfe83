"""Self-test of the benchmark at tiny sizes (``REPRO_BENCH_SMOKE=1``).

Run from the repo root: ``python3 -m pytest -q perfbench``.  It checks
that every workload emits every metric ``BENCHMARK.json`` names, with
its unit, in both the untraced and the traced run; that a deliberately
wrong reference registers as a failed op; and that the traced run's
layers are the benchmark's layer table.  It writes only to pytest's
temporary directories and the runs' own ``.perfbench/`` scratch space.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

#: The layer table: layer -> its per-layer metrics.
LAYER_TABLE = {
    "import": ["import.total_s", "import.scipy_s", "import.numpy_s",
               "import.repro_s"],
    "cli": ["cli.goals_s", "cli.verify_s", "cli.review_s", "cli.fleet_s",
            "cli.fleet_is_s", "cli.dossier_s"],
    "core": ["core.norm_s", "core.allocate_lp_s", "core.goals_s",
             "core.verify_s", "core.review_s"],
    "reporting": ["reporting.dossier_s"],
    "stats.parallel": ["parallel.self_s", "parallel.chunks",
                       "parallel.workers", "parallel.bytes_shipped",
                       "parallel.retries"],
    "traffic.fleet": ["fleet.self_s", "fleet.validate_s"],
    "traffic.simulator": ["simulator.self_s", "simulator.merge_s",
                          "simulator.calls"],
    "traffic.encounters": ["encounters.sample_s", "encounters.batches",
                           "encounters.sampled"],
    "traffic.engine": ["engine.resolve_s", "engine.batches",
                       "engine.mean_batch", "engine.importance_s"],
    "traffic.records": ["records.concat_sort_s", "records.sink_append_s",
                        "records.sink_mb"],
    "traffic.checkpoint, io": [
        "checkpoint.record_s", "checkpoint.saves", "checkpoint.written_mb",
        "checkpoint.write_amplification", "checkpoint.load_s", "io.save_s",
        "io.load_s", "io.fsyncs"],
    "obs.events, obs.status": ["events.appends", "events.append_s",
                               "events.mb", "events.replay_s",
                               "status.writes", "status.progress_s"],
    "obs.session, obs.manifest": ["telemetry.spans", "telemetry.manifest_s"],
    "obs.budget_monitor, traffic.incidents": ["budget.classify_s",
                                              "budget.monitor_s"],
    "traffic.acceleration, stats.importance, stats.splitting": [
        "accel.is_s", "accel.is_ess_fraction", "accel.splitting_s",
        "splitting.mutations", "splitting.scores", "splitting.levels",
        "splitting.pass_fraction"],
    "process": ["proc.cpu_s", "proc.cpu_util", "proc.rss_mb"],
}


def bench_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_BENCH_SMOKE="1")
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_layer_table_matches_benchmark_json():
    import layers
    import tracer

    assert list(tracer.LAYERS) == list(LAYER_TABLE)
    table_metrics = sorted(m for ms in LAYER_TABLE.values() for m in ms)
    assert sorted(layers.PER_LAYER) == table_metrics
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]
            ] == [(name, unit, better) for name, (unit, better)
                  in layers.PER_LAYER.items()]
    assert WORKLOAD_NAMES == ["cli-session", "campaign", "campaign-durable",
                              "rare-event"]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == [
        ("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"),
        ("disk_mb", "MB")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_with_its_unit(workload, trace):
    run = bench_run(workload, trace)
    assert run.returncode == 0, run.stderr[-3000:]
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, run.stdout[-3000:]
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {m["name"]: m["unit"]
                                              for m in declared}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
    metadata = json.loads(lines[-2])["metadata"]
    assert metadata["workload"] == workload
    assert metadata["traced"] == bool(trace)
    if trace:
        assert list(metadata["samples"]["layers"]) == list(LAYER_TABLE)
        assert any("tracing overhead" in line for line in lines)


def _corrupt(workload):
    """Make the workload's reference wrong in a way its check must see."""
    if workload.name == "cli-session":
        workload.fleet_reference["encounters_resolved"] += 1
    elif workload.name == "rare-event":
        workload.seed += 1
        workload.reference = workload.estimate()
        workload.seed -= 1
    else:
        workload.reference["encounters_resolved"] += 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_wrong_reference_is_a_failed_op(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workloads = importlib.reload(importlib.import_module("workloads"))
    run = importlib.reload(importlib.import_module("run"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workload = workloads.WORKLOADS[name](5, ROOT, tmp_path, env)
    workload.setup()
    runner = run.Runner(workload, ROOT, tmp_path, env)
    assert runner.op(0)["ok"], runner.errors
    _corrupt(workload)
    assert not runner.op(1)["ok"]
    assert len(runner.errors) == 1
    assert "check failed" in runner.errors[0]
