"""The profiling loop: simulate a plan repeatedly and aggregate statistics.

Mirrors the paper's methodology: N warm profiling iterations per
configuration, per-operator latency collection, then aggregation into
operator groups.  Run-to-run jitter is modelled with a deterministic seeded
multiplicative noise so that repeated profiles have realistic variance
without being flaky.

Hot-path plumbing: lowering, memory profiling and the measurement itself
go through the sweep engine's :class:`~repro.sweep.cache.PlanCache` (so
repeated profiles of the same graph/flow reuse the plan and liveness walk,
and a repeated point reuses its whole measurement), and the simulator's
vectorized array view feeds the per-kernel statistics directly — no
per-kernel estimate objects are materialized while profiling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.flows.base import DeploymentFlow
from repro.flows.plan import CATEGORIES, ExecutionPlan
from repro.hardware.device import DeviceKind
from repro.hardware.platform import Platform, resolve_target
from repro.ir.graph import Graph
from repro.ops.base import OpCategory
from repro.profiler.records import ProfileResult, report_group
from repro.runtime.simulator import plan_arrays, simulate
from repro.sweep.cache import cached_lower, cached_profile, cached_profile_memory

#: relative run-to-run jitter of kernel latencies (std of multiplicative noise)
JITTER_STD = 0.03

#: report-group category index of each fine category, aligned with the
#: simulator's category order (used to group kernels without Python loops).
_GROUP_OF_CATEGORY = np.array(
    [CATEGORIES.index(report_group(category)) for category in CATEGORIES]
)


class Measurement(NamedTuple):
    """What profiling one point measures beyond its plan: the simulated
    run's scalars and per-kernel arrays.

    A pure function of the plan, platform, iterations and seed (and of the
    graph's memory profile), so the plan cache keeps one per distinct point
    and the store persists a sweep's measurements together.
    """

    total_latency_s: float
    total_latency_std_s: float
    energy_j: dict[DeviceKind, float]
    peak_memory_bytes: int
    kernel_latency_s: np.ndarray
    kernel_latency_std_s: np.ndarray
    bound_code: np.ndarray


def _measure(
    plan: ExecutionPlan, graph: Graph, platform: Platform, iterations: int, seed: int
) -> Measurement:
    """Simulate ``plan`` and draw ``iterations`` jittered runs of it."""
    baseline = simulate(plan, platform)
    rng = np.random.default_rng(seed)

    # per-kernel noisy samples across iterations
    base_latencies = baseline.latencies
    n_kernels = len(base_latencies)
    noise = 1.0 + JITTER_STD * rng.standard_normal((iterations, n_kernels))
    noise = np.clip(noise, 0.7, 1.3)
    samples = noise * base_latencies[None, :]
    totals = samples.sum(axis=1)

    scale = float(totals.mean()) / baseline.total_latency_s if baseline.total_latency_s else 1.0
    return Measurement(
        total_latency_s=float(totals.mean()),
        total_latency_std_s=float(totals.std()) / math.sqrt(iterations),
        energy_j={kind: joules * scale for kind, joules in baseline.energy_j.items()},
        peak_memory_bytes=cached_profile_memory(graph).peak_total_bytes,
        kernel_latency_s=samples.mean(axis=0),
        kernel_latency_std_s=samples.std(axis=0),
        bound_code=baseline.estimates.bound_code,
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
    target: DeviceKind = DeviceKind.GPU,
    batch_size: int = 1,
    iterations: int = 5,
    seed: int = 0,
    model_name: str | None = None,
) -> ProfileResult:
    """Profile one model graph under one deployment flow on one platform.

    ``(platform, target)`` goes through
    :func:`~repro.hardware.platform.resolve_target`: a target the platform
    lacks falls back to the host CPU, and a CPU target runs on the
    platform's CPU-only derivation, so the result's ``platform`` is the one
    the profile ran on.

    ``graph`` may also be a lazy :class:`~repro.sweep.cache.GraphRef`: the
    whole profile is derivable from the cached/stored plan and memory
    profile, so when both tiers are warm the graph is never built.  The
    measurement is memoized too (see
    :meth:`~repro.sweep.cache.PlanCache.profile`), so a repeated point, or
    a plain sweep served from a warm store, does not simulate either.
    """
    if iterations < 1:
        raise ConfigError("iterations must be positive")
    platform, target = resolve_target(platform, target)
    plan = cached_lower(flow, graph, target)
    model = model_name or graph.name
    measured = cached_profile(
        flow, graph, target, platform, batch_size, iterations, seed, model,
        lambda: _measure(plan, graph, platform, iterations, seed),
    )
    groups, group_pos = _plan_group_index(plan)
    return ProfileResult(
        model=model,
        flow=flow.name,
        platform=platform,
        target=target,
        batch_size=batch_size,
        iterations=iterations,
        total_latency_s=measured.total_latency_s,
        total_latency_std_s=measured.total_latency_std_s,
        energy_j=measured.energy_j,
        peak_memory_bytes=measured.peak_memory_bytes,
        # the kernels partition the graph's compute nodes exactly (enforced
        # by ExecutionPlan.validate at lowering time), so this equals
        # len(graph.compute_nodes()) without touching graph structure.
        num_graph_ops=plan.covered_node_count(),
        num_kernels=plan.num_kernels,
        non_gemm_fusion_rate=plan.non_gemm_fusion_rate(),
        plan=plan,
        kernel_latency_s=measured.kernel_latency_s,
        kernel_latency_std_s=measured.kernel_latency_std_s,
        bound_code=measured.bound_code,
        gemm_mask=plan_arrays(plan).is_gemm,
        group_categories=groups,
        group_pos=group_pos,
    )
