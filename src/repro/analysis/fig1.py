"""Figure 1: the motivational GEMM/non-GEMM split, CPU vs CPU+GPU.

GPT2-XL and Swin-b on Platform A (EPYC 7763 + A100), batch 1, PyTorch.
The paper's takeaway: GEMM dominates on CPU; once the GPU accelerates the
GEMMs, non-GEMM operators account for roughly half of the latency.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.viz.ascii import render_stacked_chart

MODELS = ("gpt2-xl", "swin-b")


def run_fig1(platform_id: str = "A", iterations: int = 5, seed: int = 0) -> ExperimentResult:
    spec = SweepSpec(
        name="fig1",
        platforms=(platform_id,),
        models=MODELS,
        flows=("pytorch",),
        batch_sizes=(1,),
        devices=("cpu", "gpu"),
        iterations=iterations,
        seed=seed,
        order=("model", "device"),
    )
    result = ExperimentResult(
        name="fig1_motivation",
        title="GEMM vs non-GEMM latency split, CPU vs CPU+GPU (batch 1, PyTorch)",
    )
    bars = []
    for record in SweepRunner().run(spec).records:
        profile = record.profile
        device = "CPU" if record.point.device == "cpu" else "CPU+GPU"
        result.rows.append(
            {
                "model": record.point.model,
                "device": device,
                "latency_ms": round(profile.total_latency_ms, 2),
                "gemm_pct": round(100 * profile.gemm_share, 1),
                "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
            }
        )
        bars.append(
            (
                f"{record.point.model} [{device}]",
                {"GEMM": profile.gemm_share, "non-GEMM": profile.non_gemm_share},
                f"{profile.total_latency_ms:7.2f} ms",
            )
        )
    result.chart = render_stacked_chart(bars)
    return result
