"""The profiling loop: simulate a plan repeatedly and aggregate statistics.

Mirrors the paper's methodology: N warm profiling iterations per
configuration, per-operator latency collection, then aggregation into
operator groups.  Run-to-run jitter is modelled with a deterministic seeded
multiplicative noise so that repeated profiles have realistic variance
without being flaky.

Hot-path plumbing: lowering and memory profiling go through the sweep
engine's :class:`~repro.sweep.cache.PlanCache` (so repeated profiles of the
same graph/flow reuse the plan and liveness walk), and the simulator's
vectorized array view feeds the per-kernel statistics directly — no
per-kernel estimate objects are materialized while profiling.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError
from repro.flows.base import DeploymentFlow
from repro.flows.plan import CATEGORIES, ExecutionPlan
from repro.hardware.device import DeviceKind, as_device_kind
from repro.hardware.platform import Platform
from repro.ir.graph import Graph
from repro.ops.base import OpCategory
from repro.profiler.records import ProfileResult, report_group
from repro.runtime.simulator import plan_arrays, simulate
from repro.sweep.cache import cached_lower, cached_profile_memory

#: relative run-to-run jitter of kernel latencies (std of multiplicative noise)
JITTER_STD = 0.03

#: report-group category index of each fine category, aligned with the
#: simulator's category order (used to group kernels without Python loops).
_GROUP_OF_CATEGORY = np.array(
    [CATEGORIES.index(report_group(category)) for category in CATEGORIES]
)


def _plan_group_index(plan: ExecutionPlan) -> tuple[list[OpCategory], np.ndarray]:
    """Per-kernel reporting-group positions, in first-occurrence order.

    Memoized on the plan: the group partition is a pure function of the
    kernel list, and every profile of the plan reuses it.
    """
    cached = plan.__dict__.get("_group_index")
    if cached is None:
        group_cat = _GROUP_OF_CATEGORY[plan_arrays(plan).category_idx]
        unique_cats, first_idx, inverse = np.unique(
            group_cat, return_index=True, return_inverse=True
        )
        order = np.argsort(first_idx, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        groups = [CATEGORIES[unique_cats[i]] for i in order]
        cached = (groups, rank[inverse])
        plan.__dict__["_group_index"] = cached
    return cached


def profile_graph(
    graph: Graph,
    flow: DeploymentFlow,
    platform: Platform,
    use_gpu: "bool | str | DeviceKind" = True,
    batch_size: int = 1,
    iterations: int = 5,
    seed: int = 0,
    model_name: str | None = None,
) -> ProfileResult:
    """Profile one model graph under one deployment flow on one platform.

    ``use_gpu`` keeps its historical name and booleans but accepts any
    :class:`~repro.hardware.device.DeviceKind` (or device-mode string) as
    the placement target; targets the platform lacks fall back to the host
    CPU, exactly as missing GPUs always have.

    ``graph`` may also be a lazy :class:`~repro.sweep.cache.GraphRef`: the
    whole profile is derivable from the cached/stored plan and memory
    profile, so when both tiers are warm the graph is never built.
    """
    if iterations < 1:
        raise ConfigError("iterations must be positive")
    target = as_device_kind(use_gpu)
    if target is not DeviceKind.CPU and not platform.has_device(target):
        target = DeviceKind.CPU
    use_gpu = target is not DeviceKind.CPU
    plan = cached_lower(flow, graph, target)
    baseline = simulate(plan, platform)
    rng = np.random.default_rng(seed)

    # per-kernel noisy samples across iterations
    base_latencies = baseline.latencies
    n_kernels = len(base_latencies)
    noise = 1.0 + JITTER_STD * rng.standard_normal((iterations, n_kernels))
    noise = np.clip(noise, 0.7, 1.3)
    samples = noise * base_latencies[None, :]

    mean_lat = samples.mean(axis=0)
    std_lat = samples.std(axis=0)
    totals = samples.sum(axis=1)

    groups, group_pos = _plan_group_index(plan)

    memory = cached_profile_memory(graph)
    scale = float(totals.mean()) / baseline.total_latency_s if baseline.total_latency_s else 1.0
    return ProfileResult(
        model=model_name or graph.name,
        flow=flow.name,
        platform=platform,
        use_gpu=use_gpu,
        target=target,
        batch_size=batch_size,
        iterations=iterations,
        total_latency_s=float(totals.mean()),
        total_latency_std_s=float(totals.std()) / math.sqrt(iterations),
        energy_j={kind: joules * scale for kind, joules in baseline.energy_j.items()},
        peak_memory_bytes=memory.peak_total_bytes,
        # the kernels partition the graph's compute nodes exactly (enforced
        # by ExecutionPlan.validate at lowering time), so this equals
        # len(graph.compute_nodes()) without touching graph structure.
        num_graph_ops=plan.covered_node_count(),
        num_kernels=plan.num_kernels,
        non_gemm_fusion_rate=plan.non_gemm_fusion_rate(),
        plan=plan,
        kernel_latency_s=mean_lat,
        kernel_latency_std_s=std_lat,
        bound_code=baseline.estimates.bound_code,
        gemm_mask=plan_arrays(plan).is_gemm,
        group_categories=groups,
        group_pos=group_pos,
    )
