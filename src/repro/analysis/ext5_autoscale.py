"""Extension 5: autoscaling — cost vs goodput on a bursty arrival trace.

Extension 4 found the static provisioning knee: at demand 4 the p99 of the
continuous-batching fleet flattens by 2-4 replicas, and every further
machine is idle headroom.  This experiment asks the elastic question that
follows: can a feedback controller *discover* that knee online and pay for
it only while the load is there?  Static fleets of 1/2/4/8 replicas and the
three built-in autoscalers (``target-utilization``, ``goodput``, ``step``)
serve the same bursty arrival trace; every row reports tail latency next to
**replica-seconds** — the integral of provisioned capacity over the run,
i.e. the bill.

The grid reuses Extension 4's common-random-numbers trick: demand is a
fraction of a *single* replica's capacity, every config serves the
identical absolute trace, and the autoscaled rows give the controller the
full 8-replica ceiling with a floor of 1.  Static rows ride the columnar
cluster fast path; elastic rows run the reference event loop (scale
evaluations and provisioning live in the event heap), which the fast-path
fallback rails keep bit-identical in the static limit.

The headline is the Pareto chart at demand 4: the SLO-feedback ``goodput``
controller matches the static-4 tail within a few percent at roughly half
the replica-seconds, because it scales on the deadline the operator
actually cares about; both utilization controllers sit at their set-points
well below the ceiling's busy fraction and therefore hold (or flap toward)
the full fleet, buying latency nobody asked for.  Everything is seeded and
streaming-capped, so the committed CSV/txt artifacts are byte-stable.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.serving.metrics import ClusterResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.viz.ascii import render_stacked_chart

#: one LLM on platform A under continuous batching — the discipline that
#: owns the serving regime — with least-loaded admission.
AUTOSCALE_MODELS = ("gpt2",)
AUTOSCALE_SCHEDULER = "continuous"
AUTOSCALE_POLICY = "least-loaded"
AUTOSCALE_TRACE = "bursty"

#: static fleet sizes vs the elastic controllers (floor 1, ceiling 8).
STATIC_FLEETS = (1, 2, 4, 8)
CONTROLLERS = ("target-utilization", "goodput", "step")
CEILING = 8
FLOOR = 1

#: absolute demand as a fraction of one replica's capacity; demand 4 is the
#: ext4 operating point where the static knee sits between 2 and 4 replicas.
AUTOSCALE_DEMANDS = (1.0, 2.0, 4.0)
HEADLINE_DEMAND = 4.0
HEADLINE_STATIC = 4

#: controller timing: evaluate every 100 ms, no cooldown, 100 ms cold-start.
INTERVAL_S = 0.1
COOLDOWN_S = 0.0
PROVISION_S = 0.1

#: 3x10^4 requests per point with capped streaming metrics; the 100 ms
#: goodput deadline doubles as the SLO the goodput controller tracks.
NUM_REQUESTS = 30_000
RECORD_CAP = 4096
DEADLINE_S = 0.1


def run_ext5(
    platform_ids: tuple[str, ...] = ("A",),
    models: tuple[str, ...] = AUTOSCALE_MODELS,
    static_fleets: tuple[int, ...] = STATIC_FLEETS,
    controllers: tuple[str, ...] = CONTROLLERS,
    demands: tuple[float, ...] = AUTOSCALE_DEMANDS,
    num_requests: int = NUM_REQUESTS,
    max_batch: int = 8,
    iterations: int = 3,
    seed: int = 0,
    workers: int = 0,
) -> ExperimentResult:
    runner = SweepRunner(workers=workers)
    result = ExperimentResult(
        name="ext5_autoscale",
        title="Autoscaling: p99 vs replica-seconds on a bursty trace"
        " (static 1/2/4/8 fleets vs three feedback controllers, ceiling 8)",
    )

    def serve(spec: SweepSpec, config: str, replicas: int) -> None:
        for record in runner.run(spec).records:
            point = record.point
            cluster: ClusterResult = record.serving
            ups = sum(1 for e in cluster.scale_events if e.action == "up")
            downs = sum(1 for e in cluster.scale_events if e.action == "down")
            # mean busy fraction of each replica's own online window,
            # over replicas that ever came online (spent a nonzero span).
            utils = cluster.active_utilization()
            spans = cluster.replica_active_s
            online = [
                sum(utils[i].values())
                for i in range(len(utils))
                if i >= len(spans) or spans[i] > 0.0
            ]
            active_util = sum(online) / len(online) if online else 0.0
            result.rows.append(
                {
                    "config": config,
                    "platform": point.platform,
                    "model": point.model,
                    "replicas": replicas,
                    "demand": round(point.load * replicas, 6),
                    "offered_rps": round(cluster.offered_rate_rps, 3),
                    "throughput_rps": round(cluster.throughput_rps, 3),
                    "goodput_pct": round(100 * cluster.goodput, 2),
                    "p50_ms": round(cluster.p50_s * 1e3, 4),
                    "p99_ms": round(cluster.p99_s * 1e3, 4),
                    "mean_replicas": round(cluster.mean_replicas, 3),
                    "replica_seconds": round(cluster.replica_seconds, 3),
                    "scale_ups": ups,
                    "scale_downs": downs,
                    "active_util_pct": round(100 * active_util, 2),
                }
            )

    common = dict(
        platforms=platform_ids,
        models=models,
        flows=("pytorch",),
        devices=("gpu",),
        policies=(AUTOSCALE_POLICY,),
        scheduler=AUTOSCALE_SCHEDULER,
        trace=AUTOSCALE_TRACE,
        num_requests=num_requests,
        max_batch=max_batch,
        decode_steps=(1, 4),
        deadline_s=DEADLINE_S,
        record_requests=RECORD_CAP,
        iterations=iterations,
        seed=seed,
    )
    for replicas in static_fleets:
        # demand D of one replica == load D/R of the fleet: common random
        # numbers across fleet sizes and controllers (same trick as ext4).
        serve(
            SweepSpec(
                name=f"ext5-static-x{replicas}",
                loads=tuple(demand / replicas for demand in demands),
                num_replicas=replicas,
                **common,
            ),
            config=f"static-{replicas}",
            replicas=replicas,
        )
    for controller in controllers:
        serve(
            SweepSpec(
                name=f"ext5-{controller}",
                loads=tuple(demand / CEILING for demand in demands),
                num_replicas=CEILING,
                autoscalers=(controller,),
                min_replicas=FLOOR,
                interval_s=INTERVAL_S,
                cooldown_s=COOLDOWN_S,
                provision_delay_s=PROVISION_S,
                **common,
            ),
            config=controller,
            replicas=CEILING,
        )

    result.chart = _pareto_chart(result.rows)
    result.notes.extend(_headline_notes(result.rows))
    return result


def _pareto_chart(rows) -> str:
    """Replica-seconds bars at the headline demand, annotated with p99."""
    at_knee = [r for r in rows if r["demand"] == HEADLINE_DEMAND]
    if not at_knee:
        return ""
    ceiling = max(r["replica_seconds"] for r in at_knee)
    bars = []
    for row in sorted(at_knee, key=lambda r: r["replica_seconds"]):
        bars.append(
            (
                str(row["config"]),
                {"replica-seconds": row["replica_seconds"] / ceiling},
                f"{row['replica_seconds']:8.1f} rs  p99 {row['p99_ms']:7.2f} ms"
                f"  goodput {row['goodput_pct']:5.1f}%",
            )
        )
    return (
        f"cost vs tail at demand {HEADLINE_DEMAND:g} (bursty arrivals):\n"
        + render_stacked_chart(bars)
    )


def _headline_notes(rows) -> list[str]:
    """Narrate the goodput-vs-static comparison and the controller split."""

    def row(config, demand):
        matched = [
            r for r in rows if r["config"] == config and r["demand"] == demand
        ]
        return matched[0] if matched else None

    notes = []
    static = row(f"static-{HEADLINE_STATIC}", HEADLINE_DEMAND)
    elastic = row("goodput", HEADLINE_DEMAND)
    if static and elastic and static["p99_ms"] > 0:
        p99_delta = 100 * (elastic["p99_ms"] / static["p99_ms"] - 1.0)
        savings = 100 * (1.0 - elastic["replica_seconds"] / static["replica_seconds"])
        notes.append(
            f"demand {HEADLINE_DEMAND:g}: goodput controller p99"
            f" {elastic['p99_ms']:.2f} ms vs static-{HEADLINE_STATIC}"
            f" {static['p99_ms']:.2f} ms ({p99_delta:+.1f}%) at"
            f" {savings:.1f}% fewer replica-seconds"
            f" ({elastic['replica_seconds']:.1f} vs"
            f" {static['replica_seconds']:.1f}; mean"
            f" {elastic['mean_replicas']:.2f} of {CEILING} replicas)"
        )
    for controller in CONTROLLERS:
        r = row(controller, HEADLINE_DEMAND)
        if r is None:
            continue
        notes.append(
            f"{controller} at demand {HEADLINE_DEMAND:g}: mean"
            f" {r['mean_replicas']:.2f} replicas,"
            f" {r['scale_ups']} up / {r['scale_downs']} down,"
            f" active-time utilization {r['active_util_pct']:.1f}%"
        )
    return notes
