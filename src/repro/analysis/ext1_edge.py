"""Extension 1: the non-GEMM horizon on an edge platform.

Beyond the paper's Table III pair, this experiment sweeps the paper models
over three platform classes — data center (A), workstation (B), and the edge
SoC Platform C (big-core CPU + XDNA NPU + Radeon iGPU) — under the PyTorch
flow, plus the ``npu-offload`` flow on C's matrix engine.  The thesis the
paper establishes for data-center hardware only sharpens at the edge: the
more specialized the accelerated fraction (a GEMM-only NPU being the limit),
the larger the non-GEMM share of end-to-end latency, amplified by fabric-DMA
transfers around every offloaded group.

Declared as two sweep-engine grids (the cross-product baseline plus the
C-only NPU column) so all builds/plans/memory profiles are shared.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult, group_share_columns
from repro.models import PAPER_MODELS
from repro.profiler import ProfileResult
from repro.sweep.runner import SweepRunner, SweepResult
from repro.sweep.spec import SweepSpec
from repro.viz.ascii import render_stacked_chart

#: the platform whose NPU column extends the baseline grid.
EDGE_PLATFORM = "C"


def run_ext1(
    platform_ids: tuple[str, ...] = ("A", "B", "C"),
    models: tuple[str, ...] | None = None,
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    models = models or tuple(PAPER_MODELS)
    runner = SweepRunner()
    baseline = runner.run(
        SweepSpec(
            name="ext1-baseline",
            platforms=platform_ids,
            models=models,
            flows=("pytorch",),
            batch_sizes=(1,),
            devices=("cpu", "gpu"),
            iterations=iterations,
            seed=seed,
            order=("platform", "model", "device"),
        )
    )
    npu = None
    if EDGE_PLATFORM in platform_ids:
        npu = runner.run(
            SweepSpec(
                name="ext1-npu",
                platforms=(EDGE_PLATFORM,),
                models=models,
                flows=("npu-offload",),
                batch_sizes=(1,),
                devices=("npu",),
                iterations=iterations,
                seed=seed,
                order=("model",),
            )
        )

    result = ExperimentResult(
        name="ext1_edge_horizon",
        title="Non-GEMM share horizon across platform classes (A/B/C + edge NPU offload)",
    )
    accelerated: dict[str, list[ProfileResult]] = {}
    for sweep in filter(None, (baseline, npu)):
        for record in sweep.records:
            point, profile = record.point, record.profile
            row = {
                "platform": point.platform,
                "model": point.model,
                "flow": point.flow,
                "device": point.device,
                "latency_ms": round(profile.total_latency_ms, 3),
                "gemm_pct": round(100 * profile.gemm_share, 2),
                "non_gemm_pct": round(100 * profile.non_gemm_share, 2),
            }
            row.update(group_share_columns(profile))
            result.rows.append(row)
            if point.device != "cpu":
                key = f"{point.platform}/{point.device}"
                accelerated.setdefault(key, []).append(profile)

    for key, profiles in accelerated.items():
        average = sum(p.non_gemm_share for p in profiles) / len(profiles)
        result.notes.append(f"average accelerated non-GEMM share {key}: {average:.1%}")
    result.chart = _npu_chart(npu)
    return result


def _npu_chart(npu: "SweepResult | None") -> str:
    """Stacked GEMM/non-GEMM bars for the edge NPU column."""
    if npu is None:
        return ""
    bars = []
    for record in npu.records:
        profile = record.profile
        bars.append(
            (
                f"{record.point.model} [C/npu]",
                {"GEMM": profile.gemm_share, "non-GEMM": profile.non_gemm_share},
                f"{profile.total_latency_ms:8.2f} ms",
            )
        )
    return render_stacked_chart(bars) if bars else ""
