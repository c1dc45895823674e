"""Extension 3: the fault horizon — tail latency and goodput under failures.

Extension 2 established that the non-GEMM horizon persists under load on a
healthy server; this experiment asks what happens when the fleet *fails*.
Three-replica fleets of the paper's autoregressive LLM on platforms A/B/C
serve offered load 1.0 (of fleet capacity) under two batching disciplines
(no batching, continuous) while a seeded fault injector drives three
profiles — ``none``, ``crash`` (one replica down for ~a quarter of the run,
lost work re-routed by timeout retries), and ``straggler`` (~15% of
dispatches 2-6x slow) — across all three admission policies.

Two focused studies ride along on platform A:

* **graceful degradation** — the same crash scenario with and without
  admission control (``shed_queue_s``).  With shedding, requests that would
  have queued behind the outage are rejected up front; both goodput
  (completed within deadline / all requests, shed counted against) and
  p99-of-admitted beat the no-shedding configuration at load >= 1.
* **hedging** — the straggler scenario at half load (continuous batching;
  duplicates need capacity headroom) with and without hedged dispatch; hedge
  wins show duplicates rescuing requests stuck behind slow dispatches.

Everything is deterministic (seeded trace, seeded fault schedule, seeded
policy draws), so the committed CSV/txt artifacts are byte-stable.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.serving.metrics import ClusterResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec

#: the fault grid: one LLM, three platform fleets, two disciplines, the
#: three headline fault profiles, all registered policies.
FAULT_MODELS = ("gpt2",)
FAULT_SCHEDULERS = ("fifo", "continuous")
FAULT_PROFILES = ("none", "crash", "straggler")
FAULT_POLICIES = ("round-robin", "least-loaded", "power-of-two-choices")

#: shared cluster knobs: a 3-replica fleet at fleet-capacity load, 20 ms
#: detection timeout doubling to a 320 ms cap, 100 ms goodput deadline.
NUM_REPLICAS = 3
CLUSTER_LOAD = 1.0
TIMEOUT_S = 0.02
TIMEOUT_CAP_S = 0.32
DEADLINE_S = 0.1
FAULT_SEED = 3
#: degradation study: shed when estimated queue delay exceeds 20 ms.
SHED_QUEUE_S = 0.02
#: hedging study: duplicate a request outstanding for 20 ms, at half load
#: (duplicates need capacity headroom to help rather than add pressure).
HEDGE_AFTER_S = 0.02
HEDGE_LOAD = 0.5


def run_ext3(
    platform_ids: tuple[str, ...] = ("A", "B", "C"),
    models: tuple[str, ...] = FAULT_MODELS,
    schedulers: tuple[str, ...] = FAULT_SCHEDULERS,
    fault_profiles: tuple[str, ...] = FAULT_PROFILES,
    policies: tuple[str, ...] = FAULT_POLICIES,
    num_requests: int = 48,
    max_batch: int = 4,
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    runner = SweepRunner()
    result = ExperimentResult(
        name="ext3_fault_horizon",
        title="Fault horizon: goodput and tail latency of 3-replica fleets"
        " under crash/straggler faults (A/B/C, two disciplines, three policies)",
    )

    def base_spec(scheduler: str, **overrides) -> SweepSpec:
        defaults = dict(
            platforms=platform_ids,
            models=models,
            flows=("pytorch",),
            devices=("gpu",),
            loads=(CLUSTER_LOAD,),
            policies=policies,
            fault_profiles=fault_profiles,
            scheduler=scheduler,
            trace="poisson",
            num_requests=num_requests,
            max_batch=max_batch,
            decode_steps=(1, 4),
            num_replicas=NUM_REPLICAS,
            fault_seed=FAULT_SEED,
            timeout_s=TIMEOUT_S,
            timeout_cap_s=TIMEOUT_CAP_S,
            deadline_s=DEADLINE_S,
            iterations=iterations,
            seed=seed,
            order=("platform", "model", "policy", "fault_profile"),
        )
        defaults.update(overrides)
        return SweepSpec(name=f"ext3-{scheduler}", **defaults)

    def add_rows(sweep, scheduler: str, variant: str) -> list[dict]:
        added = []
        for record in sweep.records:
            point, profile = record.point, record.profile
            cluster: ClusterResult = record.serving
            utils = cluster.utilization()
            target_util = sum(u.get(profile.target, 0.0) for u in utils) / len(utils)
            row = {
                "platform": point.platform,
                "model": point.model,
                "scheduler": scheduler,
                "policy": point.policy,
                "fault": point.fault_profile or "none",
                "variant": variant,
                "load": point.load,
                "replicas": point.num_replicas,
                "offered_rps": round(cluster.offered_rate_rps, 3),
                "throughput_rps": round(cluster.throughput_rps, 3),
                "goodput_pct": round(100 * cluster.goodput, 2),
                "p50_ms": round(cluster.p50_s * 1e3, 4),
                "p99_ms": round(cluster.p99_s * 1e3, 4),
                "shed": cluster.num_shed,
                "failed": cluster.num_failed,
                "retries": cluster.num_retries,
                "hedges": cluster.num_hedges,
                "hedge_wins": cluster.num_hedge_wins,
                "recovery_ms": round(cluster.time_to_recovery_s * 1e3, 4),
                "mean_target_util_pct": round(100 * target_util, 2),
                "non_gemm_busy_pct": round(100 * cluster.non_gemm_busy_share, 2),
                "energy_j": round(cluster.total_energy_j, 3),
            }
            result.rows.append(row)
            added.append(row)
        return added

    for scheduler in schedulers:
        add_rows(runner.run(base_spec(scheduler)), scheduler, "baseline")

    # -- graceful degradation study (platform A fleet, no batching) ----------
    degradation = {}
    for variant, shed_queue_s in (("no-shed", None), ("shed", SHED_QUEUE_S)):
        sweep = runner.run(
            base_spec(
                "fifo",
                platforms=platform_ids[:1],
                policies=("least-loaded",),
                fault_profiles=("crash",),
                shed_queue_s=shed_queue_s,
            ).subset(name=f"ext3-degradation-{variant}")
        )
        (degradation[variant],) = add_rows(sweep, "fifo", variant)

    # -- hedging study (platform A fleet, continuous batching, stragglers) ---
    hedging = {}
    for variant, hedge_after_s in (("no-hedge", None), ("hedge", HEDGE_AFTER_S)):
        sweep = runner.run(
            base_spec(
                "continuous",
                platforms=platform_ids[:1],
                loads=(HEDGE_LOAD,),
                policies=("least-loaded",),
                fault_profiles=("straggler",),
                hedge_after_s=hedge_after_s,
            ).subset(name=f"ext3-hedging-{variant}")
        )
        (hedging[variant],) = add_rows(sweep, "continuous", variant)

    result.notes.extend(
        _fault_notes(result.rows, platform_ids, schedulers, degradation, hedging)
    )
    return result


def _fault_notes(rows, platform_ids, schedulers, degradation, hedging) -> list[str]:
    notes = []
    baseline = [r for r in rows if r["variant"] == "baseline"]
    for platform in platform_ids:
        for scheduler in schedulers:
            subset = [
                r
                for r in baseline
                if r["platform"] == platform and r["scheduler"] == scheduler
            ]
            if not subset:
                continue
            healthy = [r for r in subset if r["fault"] == "none"]
            crashed = [r for r in subset if r["fault"] == "crash"]
            if healthy and crashed:
                h99 = sum(r["p99_ms"] for r in healthy) / len(healthy)
                c99 = sum(r["p99_ms"] for r in crashed) / len(crashed)
                recovery = max(r["recovery_ms"] for r in crashed)
                notes.append(
                    f"platform {platform} {scheduler}: a crash inflates mean"
                    f" p99 {c99 / h99:.1f}x ({h99:.1f} -> {c99:.1f} ms);"
                    f" worst time-to-recovery {recovery:.1f} ms"
                )
    shed, no_shed = degradation.get("shed"), degradation.get("no-shed")
    if shed and no_shed:
        notes.append(
            "graceful degradation (crash, fifo, load"
            f" {shed['load']:g}): shedding {shed['shed']} requests lifts goodput"
            f" {no_shed['goodput_pct']:.1f}% -> {shed['goodput_pct']:.1f}% and cuts"
            f" p99-of-admitted {no_shed['p99_ms']:.1f} -> {shed['p99_ms']:.1f} ms"
            " vs no shedding"
        )
    hedge, no_hedge = hedging.get("hedge"), hedging.get("no-hedge")
    if hedge and no_hedge:
        notes.append(
            f"hedging (straggler, continuous): {hedge['hedge_wins']} of"
            f" {hedge['hedges']} hedges win, p99"
            f" {no_hedge['p99_ms']:.1f} -> {hedge['p99_ms']:.1f} ms"
        )
    return notes
