"""Tables I, IV, and V of the paper.

* Table I  — the non-GEMM operator taxonomy with example captured shapes.
* Table IV — most time-consuming non-GEMM group per model (platform A,
  GPU, averaged over batch sizes).
* Table V  — TensorRT fusion rate and non-GEMM latency before/after fusion.

Tables IV and V declare their grids as sweep specs; Table I is static (no
profiling) but pulls its graphs from the sweep engine's build cache so
taxonomy extraction shares work with any profiling sweep of the same models.
"""

from __future__ import annotations

from repro.analysis.common import ExperimentResult
from repro.core.reports import NonGemmReport
from repro.models import PAPER_MODELS
from repro.profiler import ProfileResult, dominant_group_table
from repro.sweep.cache import cached_build_model
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec

#: the paper's Table IV anchors (platform A, GPU, averaged over batch
#: sizes): model -> (most time-consuming non-GEMM group, its latency share)
PAPER_TABLE4 = {
    "vit-b": ("Normalization", 0.140),
    "vit-l": ("Normalization", 0.133),
    "vit-h": ("Normalization", 0.112),
    "swin-t": ("Memory", 0.318),
    "swin-s": ("Memory", 0.331),
    "swin-b": ("Memory", 0.328),
    "faster-rcnn": ("Element-wise Arithmetic", 0.344),
    "mask-rcnn": ("Element-wise Arithmetic", 0.336),
    "detr": ("Normalization", 0.348),
    "maskformer": ("Memory", 0.408),
    "segformer": ("Normalization", 0.174),
    "gpt2": ("Activation", 0.302),
    "gpt2-l": ("Activation", 0.299),
    "gpt2-xl": ("Activation", 0.281),
    "llama2-7b": ("Normalization", 0.149),
    "bert": ("Normalization", 0.131),
    "mixtral-8x7b": ("Memory", 0.431),
}

#: the eight model variants Table I draws its examples from
TABLE1_MODELS = ("detr", "vit-l", "gpt2-xl", "llama2-7b", "segformer", "mask-rcnn", "swin-b", "bert")


def run_table1(models: tuple[str, ...] = TABLE1_MODELS) -> ExperimentResult:
    result = ExperimentResult(
        name="table1_taxonomy",
        title="Non-GEMM operator taxonomy with example input shapes (Table I)",
    )
    for model in models:
        graph = cached_build_model(model, batch_size=1)
        report = NonGemmReport(graph)
        result.rows.extend(report.taxonomy_rows(unique=True))
    return result


def run_table4(
    platform_id: str = "A",
    models: tuple[str, ...] | None = None,
    batch_sizes: tuple[int, ...] = (1, 8),
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    spec = SweepSpec(
        name="table4",
        platforms=(platform_id,),
        models=models or tuple(PAPER_MODELS),
        flows=("pytorch",),
        batch_sizes=batch_sizes,
        iterations=iterations,
        seed=seed,
        order=("model", "batch_size"),
    )
    result = ExperimentResult(
        name="table4_dominant_groups",
        title="Most time-consuming non-GEMM group per model (platform A, GPU, batch-avg)",
    )
    profiles: dict[str, list[ProfileResult]] = {}
    for record in SweepRunner().run(spec).records:
        profiles.setdefault(record.point.model, []).append(record.profile)
    for model, group, share in dominant_group_table(profiles):
        result.rows.append(
            {
                "model": model,
                "operator_group": group.value,
                "latency_pct": round(100 * share, 1),
            }
        )
    return result


def run_table5(
    platform_id: str = "A",
    models: tuple[str, ...] = ("swin-t", "swin-b", "detr", "segformer"),
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    spec = SweepSpec(
        name="table5",
        platforms=(platform_id,),
        models=models,
        flows=("pytorch", "tensorrt"),
        batch_sizes=batch_sizes,
        iterations=iterations,
        seed=seed,
        order=("model", "batch_size", "flow"),
    )
    result = ExperimentResult(
        name="table5_fusion_rate",
        title="TensorRT non-GEMM fusion rate and latency before/after (Table V)",
    )
    by_model: dict[str, dict[str, list[ProfileResult]]] = {}
    for record in SweepRunner().run(spec).records:
        by_model.setdefault(record.point.model, {}).setdefault(
            record.point.flow, []
        ).append(record.profile)
    for model in models:
        base_runs = by_model[model]["pytorch"]
        fused_runs = by_model[model]["tensorrt"]
        before_ms = [p.non_gemm_latency_s * 1e3 for p in base_runs]
        before_pct = [100 * p.non_gemm_share for p in base_runs]
        after_ms = [p.non_gemm_latency_s * 1e3 for p in fused_runs]
        after_pct = [100 * p.non_gemm_share for p in fused_runs]
        rates = [100 * p.non_gemm_fusion_rate for p in fused_runs]
        n = len(batch_sizes)
        speedup = (sum(before_ms) / n) / max(sum(after_ms) / n, 1e-9)
        result.rows.append(
            {
                "model": model,
                "fusion_rate_pct": round(sum(rates) / n, 1),
                "non_gemm_before_ms": round(sum(before_ms) / n, 2),
                "non_gemm_before_pct": round(sum(before_pct) / n, 1),
                "non_gemm_after_ms": round(sum(after_ms) / n, 2),
                "non_gemm_after_pct": round(sum(after_pct) / n, 1),
                "non_gemm_speedup": round(speedup, 2),
            }
        )
    return result
