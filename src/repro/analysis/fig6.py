"""Figure 6: the full latency-breakdown grid.

Every paper model x {batch 1, 8} x {CPU-only, CPU+GPU} x {Platform A, B},
PyTorch flow, broken into the ten operator groups of the paper's legend.

The grid is declared as a :class:`~repro.sweep.spec.SweepSpec` and executed
by the sweep engine, which shares model builds, plan lowerings, and memory
profiles across the cross-product (each graph is built once, not once per
platform) and simulates each point vectorized.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult, group_share_columns, ordered_shares
from repro.models import PAPER_MODELS, get_model
from repro.profiler import ProfileResult
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.viz.ascii import render_stacked_chart


def run_fig6(
    platform_ids: tuple[str, ...] = ("A", "B"),
    models: tuple[str, ...] | None = None,
    batch_sizes: tuple[int, ...] = (1, 8),
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    spec = SweepSpec(
        name="fig6",
        platforms=platform_ids,
        models=models or tuple(PAPER_MODELS),
        flows=("pytorch",),
        batch_sizes=batch_sizes,
        devices=("cpu", "gpu"),
        iterations=iterations,
        seed=seed,
        order=("platform", "model", "batch_size", "device"),
    )
    result = ExperimentResult(
        name="fig6_breakdown",
        title="Operator-group latency breakdown (PyTorch, CPU vs CPU+GPU, platforms A/B)",
    )
    sweep = SweepRunner().run(spec)
    profiles: list[ProfileResult] = []
    domains = {model: get_model(model).domain.value for model in spec.models}
    for record in sweep.records:
        point, profile = record.point, record.profile
        profiles.append(profile)
        row = {
            "platform": point.platform,
            "domain": domains[point.model],
            "model": point.model,
            "batch": point.batch_size,
            "device": "cpu" if point.device == "cpu" else "cpu+gpu",
            "latency_ms": round(profile.total_latency_ms, 3),
            "non_gemm_pct": round(100 * profile.non_gemm_share, 2),
        }
        row.update(group_share_columns(profile))
        result.rows.append(row)

    gpu_profiles = [p for p in profiles if p.use_gpu]
    cpu_profiles = [p for p in profiles if not p.use_gpu]
    if cpu_profiles and gpu_profiles:
        cpu_avg = sum(p.non_gemm_share for p in cpu_profiles) / len(cpu_profiles)
        gpu_avg = sum(p.non_gemm_share for p in gpu_profiles) / len(gpu_profiles)
        result.notes.append(
            f"average non-GEMM share: CPU-only {cpu_avg:.1%} -> CPU+GPU {gpu_avg:.1%}"
            " (paper: 17.2% -> 42.3%)"
        )
    result.chart = _headline_chart(gpu_profiles, platform_ids, batch_sizes)
    return result


def _headline_chart(
    gpu_profiles: list[ProfileResult],
    platform_ids: tuple[str, ...],
    batch_sizes: tuple[int, ...],
) -> str:
    """Stacked bars for the first platform/batch, falling back when filters
    leave that combination empty (custom model/platform subsets)."""
    if not gpu_profiles:
        return ""

    def bars_for(platform_id: str, batch: int):
        return [
            (
                f"{p.model} b{p.batch_size}",
                ordered_shares(p),
                f"{p.total_latency_ms:8.2f} ms",
            )
            for p in gpu_profiles
            if p.platform.platform_id == platform_id and p.batch_size == batch
        ]

    for platform_id in platform_ids:
        for batch in batch_sizes:
            bars = bars_for(platform_id, batch)
            if bars:
                return render_stacked_chart(bars)
    return ""
