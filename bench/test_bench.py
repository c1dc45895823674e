"""Checks of the benchmark itself, at its ``--smoke`` sizes (a few seconds)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import child
import ledger
import workloads

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads((out / "latest.json").read_text())["workloads"]


def test_every_benchmark_metric_is_printed(smoke_run):
    stdout, runs = smoke_run
    printed = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    for workload in workloads.WORKLOADS:
        assert runs[workload]["fail_ratio"] == 0
        assert runs[workload]["absent"] == []
        for metric in CONFIG["end_to_end"]:
            assert metric["name"] in runs[workload]["metrics"]
            assert f"  {metric['name']} " in stdout
        for metric in CONFIG["per_layer"]:
            assert f"{workload}.{metric['name']}" in printed
    # every per-layer name is measured on some workload, not just printed as
    # 0; smoke runs skip all but a few harnesses
    produced = {name for run in runs.values() for name in run["per_layer_all"]}
    produced |= {f"analysis.{harness}.wall_s" for harness in workloads.PAPER_HARNESSES
                 if harness not in workloads.SMOKE_HARNESSES}
    assert [m["name"] for m in CONFIG["per_layer"] if m["name"] not in produced] == []


def test_traced_ledger_closes_on_pass_wall_time(smoke_run):
    _, runs = smoke_run
    for workload in workloads.WORKLOADS:
        ledgers = runs[workload]["ledgers"]
        assert ledgers
        for entry in ledgers:
            parts = sum(entry["self_ns"].values()) + entry["unattributed_ns"]
            assert abs(parts - entry["wall_ns"]) <= 1_000_000


def test_deleted_wrapper_target_is_reported_absent(monkeypatch):
    import repro.serving.columnar_cluster as columnar_cluster
    from repro.runtime import simulator

    original = simulator.simulate
    monkeypatch.delattr(columnar_cluster, "run_fast_faulted")
    tracer = ledger.Tracer()
    try:
        absent = tracer.install()
        assert simulator.simulate is not original
    finally:
        tracer.uninstall()
    assert "serving.columnar_cluster.run_fast_faulted" in absent
    assert simulator.simulate is original


def test_corrupted_golden_entry_fails_the_pass(tmp_path):
    spec = {"workload": "fleet_knee", "seed": 0, "smoke": True, "trace": False, "index": 0,
            "spawn_ns": ledger.now_ns(), "out_dir": str(tmp_path), "golden": None}
    clean = child.run_child(spec)
    golden = {"fleet_knee": clean["observed"]}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    assert child.run_child(dict(spec, golden=str(path)))["errors"] == []

    name = next(iter(golden["fleet_knee"]))
    golden["fleet_knee"][name]["p99_s"] = repr(1.0)
    path.write_text(json.dumps(golden))
    errors = child.run_child(dict(spec, golden=str(path)))["errors"]
    assert errors and name in errors[0]
