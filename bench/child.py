"""One benchmark child process: set up a workload, time one pass, check it.

``bench/run.py`` starts it as ``python bench/child.py '<spec json>'`` with the
environment the workload needs (``PYTHONPATH``, ``REPRO_CACHE_DIR``, thread
caps) and reads the JSON object on the last line of its stdout.  The spec
carries ``spawn_ns``, the parent's monotonic clock just before the spawn, so
``ready_ns - spawn_ns`` is the set-up time including interpreter start.

A child runs exactly one pass: a second pass in the same process would see
the first one's heap, and its peak RSS would depend on fragmentation.

:func:`run_child` is importable, so tests can run a child in-process.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

import ledger
import workloads
from ledger import now_ns

CACHE_STAGES = ("graph", "plan", "memory", "serving", "transform")


def run_child(spec: dict) -> dict:
    """Set up ``spec["workload"]`` and run one timed, checked pass."""
    tracer = ledger.Tracer() if spec["trace"] else None
    region = tracer.region if tracer else (lambda name: nullcontext())
    with region("bench.import"):
        workload = workloads.make(spec)
    result: dict = {"absent": tracer.install() if tracer else []}
    try:
        workload.setup()
        result["ready_ns"] = now_ns()
        if tracer:
            result["setup"] = ledger.setup_metrics(
                tracer.end(result["ready_ns"] - spec["spawn_ns"])
            )
            before = _counters()
            tracer.begin("pass")
        steps_ns, outputs = {}, []
        begin = now_ns()
        try:
            for name, step in workload.steps():
                step_begin = now_ns()
                outputs.append(step())
                steps_ns[name] = now_ns() - step_begin
        except Exception:
            # a pass that raises is a failed pass; its traceback is the error
            result["errors"] = [traceback.format_exc()]
            return result
        wall_ns = now_ns() - begin
        result["wall_s"] = wall_ns / 1e9
        result["steps_s"] = {name: ns / 1e9 for name, ns in steps_ns.items()}
        pass_ledger = tracer.end(wall_ns) if tracer else None
        result["observed"], result["errors"], counts = workload.check(outputs)
        if tracer:
            counts.update(_counter_delta(before))
            result["ledger"] = pass_ledger
            result["metrics"] = ledger.pass_metrics(pass_ledger, counts)
            result["events"] = tracer.chrome_events(spec["index"], spec["spawn_ns"])
    finally:
        if tracer:
            tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _counters() -> dict:
    from repro.sweep.cache import PLAN_CACHE

    return {"cache": PLAN_CACHE.stats.snapshot(), "store_bytes": _store_bytes()}


def _counter_delta(before: dict) -> dict:
    """Cache and store activity since :func:`_counters` gave ``before``."""
    from repro.sweep.cache import PLAN_CACHE

    delta = PLAN_CACHE.stats.delta_since(before["cache"])
    out: dict[str, float] = {}
    for stage in CACHE_STAGES:
        hits = delta["hits"].get(stage, 0) + delta["disk_hits"].get(stage, 0)
        misses = delta["misses"].get(stage, 0)
        out[f"sweep.cache.{stage}.misses"] = misses
        out[f"sweep.cache.{stage}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["sweep.cache.evictions"] = delta["evictions"]
    out["disk_hits"] = sum(delta["disk_hits"].values())
    out["sweep.store.put.bytes"] = _store_bytes() - before["store_bytes"]
    return out


def _store_bytes() -> int:
    from repro.sweep.cache import PLAN_CACHE

    if PLAN_CACHE.store is None:
        return 0
    return sum(path.stat().st_size for path in Path(PLAN_CACHE.store.directory).glob("*.pkl"))


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1]))))
