"""The benchmark's workloads: what one timed pass runs and how it is checked.

``paper_cold`` and ``paper_warm`` regenerate the paper's figures and tables
(the two differ only in the artifact store the child starts with);
``fleet_knee`` and ``fleet_disrupted`` serve request traces through
replicated fleets.  Nothing here imports ``repro`` at module level: the
constructors import it, inside the child's ``bench.import`` span, so
set-up time covers the imports.

Only public names are called: ``repro.analysis.run_*`` and
``ExperimentResult.render``/``save``; ``ClusterConfig``, ``ClusterRouter``,
``AutoscaleConfig`` and ``make_trace``.  ``backend`` is never set and
``backend_used`` is read through ``getattr``, so the router's knobs can be
removed without editing the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

#: harness -> iterations, as ``benchmarks/`` runs them (None: the harness
#: takes neither iterations nor a seed).
PAPER_HARNESSES = {
    "fig1": 3,
    "fig5": 2,
    "fig6": 2,
    "fig7": 3,
    "fig8": 2,
    "fig9": 2,
    "table1": None,
    "table4": 2,
    "table5": 2,
    "ext1": 2,
}
#: cheap harnesses that between them run every lowering pass (fig7's ORT
#: flow inserts transfers)
SMOKE_HARNESSES = ("fig1", "fig7", "table1")

#: shared by every fleet config: the paper's autoregressive LLM on platform
#: A, 1-4 decode steps per request, capped streaming metrics, 100 ms deadline.
FLEET_MODEL = "gpt2"
FLEET_PLATFORM = "A"
DECODE_STEPS = (1, 4)
RECORD_CAP = 4096
DEADLINE_S = 0.1

#: ``load`` is the offered rate as a fraction of the whole fleet's batch-1
#: capacity; ext4's demand D on 4 replicas is load D/4, ext5's demand 4 on
#: an 8-replica ceiling is load 0.5.  ``expect`` names a counter that must
#: be nonzero, proving the config exercised the machinery it was chosen for.
FLEET_CONFIGS = {
    "fleet_knee": (
        dict(name="fifo-d1", replicas=4, load=0.25, trace="poisson", requests=100_000,
             cluster=dict(scheduler="fifo", policy="least-loaded", max_batch=8)),
        dict(name="fifo-d4", replicas=4, load=1.0, trace="poisson", requests=100_000,
             cluster=dict(scheduler="fifo", policy="least-loaded", max_batch=8)),
        dict(name="continuous-d1", replicas=4, load=0.25, trace="poisson", requests=100_000,
             cluster=dict(scheduler="continuous", policy="least-loaded", max_batch=8)),
        dict(name="continuous-d4", replicas=4, load=1.0, trace="poisson", requests=100_000,
             cluster=dict(scheduler="continuous", policy="least-loaded", max_batch=8)),
    ),
    "fleet_disrupted": (
        # (a) crash windows and timeout retries: the faulted columnar rail.
        dict(name="crash", replicas=4, load=0.32, trace="poisson", requests=50_000,
             expect="retries",
             cluster=dict(scheduler="dynamic", policy="round-robin", fault_profile="crash",
                          timeout_s=0.02, timeout_cap_s=0.16, max_retries=3)),
        # (b) ext5's goodput autoscaler: the elastic lifecycle.
        dict(name="autoscale", replicas=8, load=0.5, trace="bursty", requests=30_000,
             expect="scale_events",
             cluster=dict(scheduler="continuous", policy="least-loaded", max_batch=8),
             autoscale=dict(controller="goodput", min_replicas=1, max_replicas=8,
                            interval_s=0.1, cooldown_s=0.0, provision_delay_s=0.1)),
        # (c) hedged dispatch.
        dict(name="hedge", replicas=4, load=0.32, trace="poisson", requests=20_000,
             expect="hedges",
             cluster=dict(scheduler="dynamic", policy="least-loaded", hedge_after_s=0.05)),
    ),
}
SMOKE_REQUESTS = 2_000
#: set-up serves every router a short trace at 4x its rate, so batches of
#: every size form and the lazily built batch-cost rows (a lowering and a
#: simulation each) and lazy imports are paid before the timed pass.
WARMUP_REQUESTS = 2_000
WARMUP_OVERLOAD = 4.0

WORKLOADS = ("paper_cold", "paper_warm", "fleet_knee", "fleet_disrupted")


def make(spec: dict):
    """The workload object for a child spec (imports ``repro``)."""
    if spec["workload"] in ("paper_cold", "paper_warm"):
        return PaperWorkload(spec)
    return FleetWorkload(spec)


class PaperWorkload:
    """Ten paper harnesses, each rendered and saved as CSV and txt."""

    def __init__(self, spec: dict):
        from repro import analysis

        self.analysis = analysis
        self.seed = spec["seed"]
        self.harnesses = SMOKE_HARNESSES if spec["smoke"] else tuple(PAPER_HARNESSES)
        self.out_dir = Path(spec["out_dir"])
        self.golden = Path(spec["golden"]) if spec.get("golden") else None

    def setup(self) -> None:
        pass

    def steps(self) -> list[tuple[str, object]]:
        """One step per harness: run it, save its CSV, write its txt."""
        return [(harness, functools.partial(self._harness, harness)) for harness in self.harnesses]

    def _harness(self, harness: str) -> str:
        iterations = PAPER_HARNESSES[harness]
        kwargs = {} if iterations is None else {"iterations": iterations, "seed": self.seed}
        result = getattr(self.analysis, f"run_{harness}")(**kwargs)
        result.save(self.out_dir)
        (self.out_dir / f"{result.name}.txt").write_text(result.render() + "\n")
        return result.name

    def check(self, names: list[str]) -> tuple[dict, list[str], dict]:
        """(digest per artifact, errors, counts) for one pass's outputs."""
        observed, errors = {}, []
        for name in names:
            blobs = [(self.out_dir / f"{name}.{ext}").read_bytes() for ext in ("csv", "txt")]
            observed[name] = hashlib.sha256(b"\0".join(blobs)).hexdigest()
            if self.golden is not None:
                for ext, blob in zip(("csv", "txt"), blobs):
                    golden = self.golden / f"{name}.{ext}"
                    if not golden.exists() or golden.read_bytes() != blob:
                        errors.append(f"{name}.{ext} differs from {golden}")
        return observed, errors, {}


class FleetWorkload:
    """Replicated fleets serving seeded traces through routers built in set-up."""

    def __init__(self, spec: dict):
        import numpy as np

        import repro.serving

        self._np = np
        # names are looked up on the package at call time, so a traced
        # child's wrappers are the ones called
        self.serving = repro.serving
        self.seed = spec["seed"]
        self.smoke = spec["smoke"]
        self.configs = FLEET_CONFIGS[spec["workload"]]
        self.golden = None
        if spec.get("golden"):
            self.golden = json.loads(Path(spec["golden"]).read_text())[spec["workload"]]
        self.runs: list[tuple[dict, object, object, float]] = []

    def _requests(self, config: dict) -> int:
        return SMOKE_REQUESTS if self.smoke else config["requests"]

    def _trace(self, config: dict, rate: float, requests: int):
        return self.serving.make_trace(
            config["trace"], rate, requests,
            rng=self._np.random.default_rng(self.seed), decode_steps=DECODE_STEPS,
        )

    def setup(self) -> None:
        """Build routers and traces, then serve each a short warm-up trace."""
        serving = self.serving
        for config in self.configs:
            autoscale = config.get("autoscale")
            router = serving.ClusterRouter(
                serving.ClusterConfig(
                    model=FLEET_MODEL,
                    platforms=(FLEET_PLATFORM,) * config["replicas"],
                    record_requests=RECORD_CAP,
                    deadline_s=DEADLINE_S,
                    fault_seed=self.seed,
                    policy_seed=self.seed,
                    autoscale=None if autoscale is None else serving.AutoscaleConfig(**autoscale),
                    **config["cluster"],
                )
            )
            rate = config["load"] * router.fleet_capacity_rps()
            warmup = min(WARMUP_REQUESTS, self._requests(config))
            router.run(self._trace(config, WARMUP_OVERLOAD * rate, warmup))
            self.runs.append((config, router, self._trace(config, rate, self._requests(config)), rate))

    def steps(self) -> list[tuple[str, object]]:
        """One step per config: serve its trace."""
        return [(config["name"], functools.partial(router.run, trace, offered_rate_rps=rate))
                for config, router, trace, rate in self.runs]

    def check(self, results: list) -> tuple[dict, list[str], dict]:
        """(summary per config, errors, work counts) for one pass's results."""
        observed, errors = {}, []
        work = ("requests", "retries", "hedges", "scale_events")
        counts = {f"serving.sim.{key}": 0 for key in work}
        for (config, _, _, _), result in zip(self.runs, results):
            name = config["name"]
            summary = fleet_summary(result)
            observed[name] = summary
            requests = self._requests(config)
            served = summary["completed"] + summary["shed"] + summary["failed"]
            if served != requests:
                errors.append(f"{name}: completed+shed+failed = {served} != {requests} requests")
            expect = config.get("expect")
            if expect is not None and summary[expect] <= 0:
                errors.append(f"{name}: no {expect}; the config missed its machinery")
            if self.golden is not None and self.golden.get(name) != summary:
                errors.append(f"{name}: summary differs from golden {self.golden.get(name)}")
            for key in work:
                counts[f"serving.sim.{key}"] += requests if key == "requests" else summary[key]
            path = f"serving.cluster.path.{getattr(result, 'backend_used', None) or 'unknown'}"
            counts[path] = counts.get(path, 0) + 1
        return observed, errors, counts


def fleet_summary(result) -> dict:
    """The checked outcome of one fleet run; floats as ``repr`` strings.

    Every config sets ``record_requests``, so the counters are always set.
    """
    return {
        "completed": result.num_completed,
        "shed": result.num_shed,
        "failed": result.num_failed,
        "retries": result.num_retries,
        "hedges": result.num_hedges,
        "scale_events": len(result.scale_events),
        "p50_s": repr(float(result.p50_s)),
        "p99_s": repr(float(result.p99_s)),
        "replica_seconds": repr(float(result.replica_seconds)),
        "makespan_s": repr(float(result.makespan_s)),
    }
