"""Extension 4: the fleet knee — how many replicas until the tail flattens.

Extension 3 asked how a fixed-size fleet degrades under faults; this
experiment asks the provisioning question ROADMAP item 1 poses: for a given
offered demand, where is the knee in p99 versus fleet size?  Fleets of 1, 2,
4, and 8 replicas of the paper's autoregressive LLM on platform A serve the
same absolute demand under two batching disciplines (no batching,
continuous), at 10⁵ requests per point via the columnar cluster fast path.

The grid is parameterized by **demand** — the offered rate as a fraction of
a *single replica's* capacity — rather than the sweep axis's fleet-relative
``load``.  A fleet of R replicas serving demand D runs at load D/R, so the
absolute arrival rate (and, by common random numbers, the entire arrival
trace) is identical across fleet sizes: every p99-vs-replicas column
compares the same requests against more machines.  Demand 4 crushes one
replica, saturates four, and leaves eight with headroom — the knee is the
smallest fleet whose tail has already flattened onto the 8-replica floor.

Everything is deterministic (seeded trace, seeded policy draws, streaming
capped metrics), so the committed CSV/txt artifacts are byte-stable.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.serving.metrics import ClusterResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec

#: the fleet grid: one LLM on platform A, two disciplines, four fleet sizes,
#: five absolute demand levels (fractions of one replica's capacity).
FLEET_MODELS = ("gpt2",)
FLEET_SCHEDULERS = ("fifo", "continuous")
FLEET_SIZES = (1, 2, 4, 8)
FLEET_DEMANDS = (0.25, 0.5, 1.0, 2.0, 4.0)
FLEET_POLICY = "least-loaded"

#: 10⁵ requests per point (the columnar fast path makes this cheap), with
#: capped streaming metrics so memory stays flat; 100 ms goodput deadline.
NUM_REQUESTS = 100_000
RECORD_CAP = 4096
DEADLINE_S = 0.1
#: the knee tolerance: the knee is the smallest fleet whose p99 is within
#: 20% of the largest fleet's (the flat part of the curve).
KNEE_SLACK = 1.2


def run_ext4(
    platform_ids: tuple[str, ...] = ("A",),
    models: tuple[str, ...] = FLEET_MODELS,
    schedulers: tuple[str, ...] = FLEET_SCHEDULERS,
    fleet_sizes: tuple[int, ...] = FLEET_SIZES,
    demands: tuple[float, ...] = FLEET_DEMANDS,
    num_requests: int = NUM_REQUESTS,
    max_batch: int = 8,
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    runner = SweepRunner()
    result = ExperimentResult(
        name="ext4_fleet_knee",
        title="Fleet knee: p99 vs fleet size at fixed absolute demand"
        " (1/2/4/8 replicas, demands 0.25-4x one replica, two disciplines)",
    )

    for scheduler in schedulers:
        for replicas in fleet_sizes:
            # demand D of one replica's capacity == load D/R of the fleet's,
            # so every fleet size sees the identical arrival trace.
            spec = SweepSpec(
                name=f"ext4-{scheduler}-x{replicas}",
                platforms=platform_ids,
                models=models,
                flows=("pytorch",),
                devices=("gpu",),
                loads=tuple(demand / replicas for demand in demands),
                policies=(FLEET_POLICY,),
                scheduler=scheduler,
                trace="poisson",
                num_requests=num_requests,
                max_batch=max_batch,
                decode_steps=(1, 4),
                num_replicas=replicas,
                deadline_s=DEADLINE_S,
                record_requests=RECORD_CAP,
                iterations=iterations,
                seed=seed,
            )
            for record in runner.run(spec).records:
                point, profile = record.point, record.profile
                cluster: ClusterResult = record.serving
                utils = cluster.utilization()
                target_util = sum(u.get(profile.target, 0.0) for u in utils) / len(utils)
                result.rows.append(
                    {
                        "platform": point.platform,
                        "model": point.model,
                        "scheduler": scheduler,
                        "policy": point.policy,
                        "replicas": replicas,
                        "demand": round(point.load * replicas, 6),
                        "load": round(point.load, 6),
                        "offered_rps": round(cluster.offered_rate_rps, 3),
                        "throughput_rps": round(cluster.throughput_rps, 3),
                        "goodput_pct": round(100 * cluster.goodput, 2),
                        "p50_ms": round(cluster.p50_s * 1e3, 4),
                        "p99_ms": round(cluster.p99_s * 1e3, 4),
                        "mean_target_util_pct": round(100 * target_util, 2),
                        "non_gemm_busy_pct": round(100 * cluster.non_gemm_busy_share, 2),
                        "energy_j": round(cluster.total_energy_j, 3),
                    }
                )

    result.notes.extend(_knee_notes(result.rows, schedulers, fleet_sizes, demands))
    return result


def _knee_notes(rows, schedulers, fleet_sizes, demands) -> list[str]:
    """Narrate, per discipline and demand >= 1, where the p99 curve flattens."""
    notes = []
    largest = max(fleet_sizes)
    for scheduler in schedulers:
        for demand in demands:
            if demand < 1.0:
                continue
            curve = {
                r["replicas"]: r["p99_ms"]
                for r in rows
                if r["scheduler"] == scheduler and r["demand"] == demand
            }
            if largest not in curve or curve[largest] <= 0.0:
                continue
            floor = curve[largest]
            knee = next(
                (
                    size
                    for size in sorted(curve)
                    if curve[size] <= KNEE_SLACK * floor
                ),
                largest,
            )
            shape = " -> ".join(f"{curve[size]:.1f}" for size in sorted(curve))
            notes.append(
                f"{scheduler} demand {demand:g}: p99 {shape} ms across"
                f" {'/'.join(str(s) for s in sorted(curve))} replicas;"
                f" knee at {knee} replicas (within 20% of the {largest}-replica floor)"
            )
    return notes
