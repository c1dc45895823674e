"""Ablation benches: which modelled mechanisms produce the paper's results?

DESIGN.md names four load-bearing mechanisms; each ablation removes one and
checks that the corresponding phenomenon weakens or disappears:

1. composite Python ops (multi-kernel GELU/RMSNorm) -> GPT-2's activation
   bottleneck;
2. eager dispatch overhead -> the launch-bound non-GEMM share on GPUs;
3. GEMM-epilogue fusion (vs pointwise-only) -> DETR's TensorRT win;
4. ORT's CPU fallback -> the memory-group blowup of Fig. 7.
"""

import dataclasses

from repro.flows import (
    FusionConfig,
    ONNXRuntimeFlow,
    PyTorchEagerFlow,
    TensorRTFlow,
)
from repro.hardware import PLATFORM_A
from repro.hardware.calibration import DISPATCH_PROFILES
from repro.models import build_model
from repro.ops.base import OpCategory
from repro.profiler import profile_graph


class _EagerCollapsedComposites(PyTorchEagerFlow):
    """Eager flow but every composite op launches a single kernel."""

    name = "pytorch-nocomposite"
    collapses_composites = True


class _TensorRTNoEpilogue(TensorRTFlow):
    """TensorRT with GEMM-epilogue fusion disabled (pointwise chains only)."""

    name = "tensorrt-noepilogue"
    fusion = FusionConfig(
        gemm_epilogue=False,
        pointwise_chains=True,
        chain_norms=True,
        max_chain=6,
    )


class _ORTNoFallback(ONNXRuntimeFlow):
    """ORT with a fully-capable CUDA provider (no CPU fallback)."""

    name = "onnxruntime-nofallback"
    gpu_unsupported_kinds = frozenset()


def test_ablation_composite_kernels(benchmark):
    """Collapsing HF's composite GELU removes most of GPT-2's activation cost."""
    graph = build_model("gpt2-xl", batch_size=1)
    base = profile_graph(graph, PyTorchEagerFlow(), PLATFORM_A)
    ablated = benchmark.pedantic(
        lambda: profile_graph(graph, _EagerCollapsedComposites(), PLATFORM_A),
        rounds=1,
        iterations=1,
    )
    act_base = base.share_by_group().get(OpCategory.ACTIVATION, 0.0)
    act_ablated = ablated.share_by_group().get(OpCategory.ACTIVATION, 0.0)
    assert act_ablated < act_base / 2
    assert ablated.total_latency_s < base.total_latency_s


def test_ablation_dispatch_overhead(benchmark):
    """With near-zero dispatch overhead, ViT's non-GEMM share collapses."""
    graph = build_model("vit-b", batch_size=1)
    base = profile_graph(graph, PyTorchEagerFlow(), PLATFORM_A)

    original = DISPATCH_PROFILES["eager"]
    DISPATCH_PROFILES["eager"] = dataclasses.replace(
        original, gpu_kernel=0.1e-6, gpu_metadata=0.05e-6
    )
    try:
        ablated = benchmark.pedantic(
            lambda: profile_graph(graph, PyTorchEagerFlow(), PLATFORM_A),
            rounds=1,
            iterations=1,
        )
    finally:
        DISPATCH_PROFILES["eager"] = original

    assert ablated.non_gemm_share < base.non_gemm_share - 0.10
    assert ablated.total_latency_s < base.total_latency_s


def test_ablation_gemm_epilogue_fusion(benchmark):
    """DETR's fusion win requires folding norms INTO GEMMs, not just chaining."""
    graph = build_model("detr", batch_size=1)
    full = profile_graph(graph, TensorRTFlow(), PLATFORM_A)
    no_epilogue = benchmark.pedantic(
        lambda: profile_graph(graph, _TensorRTNoEpilogue(), PLATFORM_A),
        rounds=1,
        iterations=1,
    )
    assert no_epilogue.non_gemm_latency_s > 2 * full.non_gemm_latency_s


def test_ablation_ort_fallback(benchmark):
    """Without CPU fallback, GPT2-XL's ORT memory blowup disappears."""
    graph = build_model("gpt2-xl", batch_size=1)
    with_fallback = profile_graph(graph, ONNXRuntimeFlow(), PLATFORM_A)
    without = benchmark.pedantic(
        lambda: profile_graph(graph, _ORTNoFallback(), PLATFORM_A),
        rounds=1,
        iterations=1,
    )
    mem_with = with_fallback.share_by_group().get(OpCategory.MEMORY, 0.0)
    mem_without = without.share_by_group().get(OpCategory.MEMORY, 0.0)
    assert mem_without < mem_with / 2
    assert without.total_latency_s < with_fallback.total_latency_s
