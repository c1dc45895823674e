"""Extension 2: the serving horizon — non-GEMM cost under load.

The paper measures non-GEMM share for a single inference; this experiment
asks what happens when the same models *serve traffic*.  The paper models
(a vision transformer and an autoregressive LLM) are swept over offered
load — 0.25x, 1x, and 4x of single-stream capacity — on platforms A/B/C
under three batching disciplines (no batching, dynamic batching, continuous
iteration-level batching), through the discrete-event engine in
:mod:`repro.serving`.

Declared as sweep-engine grids using the ``load`` axis (one grid per
scheduler, so every build/plan/batch-cost is shared across all three), with
all randomness seeded from the spec: the committed CSV/txt artifacts are
byte-stable across runs.

What the numbers show:

* tail latency amplifies with load under every discipline, but no-batching
  saturates at single-stream capacity while batching absorbs the 4x load;
* continuous batching dominates dynamic batching on p99 whenever decode
  lengths vary (no head-of-line blocking on the slowest member);
* the non-GEMM horizon *persists under load*: batching amortizes per-kernel
  dispatch, yet even at the largest sustained batch the non-GEMM share of
  busy time stays far above the GEMM-only ideal on every platform class.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.serving.metrics import ServingResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec

#: the serving grid: paper-representative vision + LLM models, three
#: platform classes, three offered loads, three batching disciplines.
SERVING_MODELS = ("vit-b", "gpt2")
SERVING_LOADS = (0.25, 1.0, 4.0)
SERVING_SCHEDULERS = ("fifo", "dynamic", "continuous")


def run_ext2(
    platform_ids: tuple[str, ...] = ("A", "B", "C"),
    models: tuple[str, ...] = SERVING_MODELS,
    loads: tuple[float, ...] = SERVING_LOADS,
    schedulers: tuple[str, ...] = SERVING_SCHEDULERS,
    num_requests: int = 24,
    max_batch: int = 4,
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    runner = SweepRunner()
    result = ExperimentResult(
        name="ext2_serving_horizon",
        title="Serving horizon: tail latency and non-GEMM share vs offered load"
        " (A/B/C, three batching disciplines)",
    )
    chart_bars = []
    for scheduler in schedulers:
        sweep = runner.run(
            SweepSpec(
                name=f"ext2-{scheduler}",
                platforms=platform_ids,
                models=models,
                flows=("pytorch",),
                devices=("gpu",),
                loads=loads,
                scheduler=scheduler,
                trace="poisson",
                num_requests=num_requests,
                max_batch=max_batch,
                #: decode lengths vary 1..4 so iteration-level batching has
                #: head-of-line blocking to remove (vision models reuse the
                #: same step counts as sequential re-invocations).
                decode_steps=(1, 4),
                iterations=iterations,
                seed=seed,
                order=("platform", "model", "load"),
            )
        )
        for record in sweep.records:
            point, profile = record.point, record.profile
            serving: ServingResult = record.serving
            target_util = serving.utilization().get(profile.target, 0.0)
            result.rows.append(
                {
                    "platform": point.platform,
                    "model": point.model,
                    "flow": point.flow,
                    "device": point.device,
                    "scheduler": scheduler,
                    "load": point.load,
                    "offered_rps": round(serving.offered_rate_rps, 3),
                    "throughput_rps": round(serving.throughput_rps, 3),
                    "p50_ms": round(serving.p50_s * 1e3, 4),
                    "p95_ms": round(serving.p95_s * 1e3, 4),
                    "p99_ms": round(serving.p99_s * 1e3, 4),
                    "mean_queue_ms": round(serving.mean_queue_s * 1e3, 4),
                    "mean_batch": round(serving.mean_batch_size, 3),
                    "max_queue_depth": serving.max_queue_depth,
                    "target_util_pct": round(100 * target_util, 2),
                    "non_gemm_busy_pct": round(100 * serving.non_gemm_busy_share, 2),
                    "static_non_gemm_pct": round(100 * profile.non_gemm_share, 2),
                    "energy_j": round(sum(serving.energy_j.values()), 3),
                }
            )
            if scheduler == "continuous" and point.model == "gpt2":
                chart_bars.append(
                    (
                        f"{point.platform} load {point.load:g}",
                        {
                            "GEMM": 1.0 - serving.non_gemm_busy_share,
                            "non-GEMM": serving.non_gemm_busy_share,
                        },
                        f"p99 {serving.p99_s * 1e3:8.2f} ms",
                    )
                )

    result.notes.extend(_horizon_notes(result.rows, platform_ids, loads, schedulers))
    if chart_bars:
        from repro.viz.ascii import render_stacked_chart

        result.chart = render_stacked_chart(chart_bars)
    return result


def _horizon_notes(rows, platform_ids, loads, schedulers) -> list[str]:
    """Per-platform summary lines at the top load."""
    notes = []
    top = max(loads)
    for platform in platform_ids:
        at_top = [r for r in rows if r["platform"] == platform and r["load"] == top]
        if not at_top:
            continue
        share = sum(r["non_gemm_busy_pct"] for r in at_top) / len(at_top)
        notes.append(
            f"platform {platform} @ load {top:g}: average non-GEMM busy share"
            f" {share:.1f}% across schedulers/models"
        )
        if "fifo" in schedulers and "continuous" in schedulers:
            fifo99 = [r["p99_ms"] for r in at_top if r["scheduler"] == "fifo"]
            cont99 = [r["p99_ms"] for r in at_top if r["scheduler"] == "continuous"]
            if fifo99 and cont99:
                ratio = (sum(fifo99) / len(fifo99)) / (sum(cont99) / len(cont99))
                notes.append(
                    f"platform {platform} @ load {top:g}: continuous batching cuts"
                    f" mean p99 {ratio:.1f}x vs no batching"
                )
    return notes
