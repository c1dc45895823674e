"""The scalar reference implementations (the bit-identity oracles).

* :func:`simulate_reference` — the kernel-by-kernel simulation loop over the
  scalar :func:`estimate_kernel` and :class:`EnergyAccumulator`; the vectorized
  :func:`~repro.runtime.simulator.simulate` must match it exactly on every
  registered platform (``tests/test_sweep.py``, ``tests/test_store.py``).
* :func:`reference_lower` — the monolithic ``DeploymentFlow.lower``
  algorithm as it existed before lowering was decomposed into
  :mod:`repro.flows.passes`; every registered flow must produce its plans
  kernel for kernel (``tests/test_passes.py``).
* :func:`group_cost` — one fused group's cost by per-node set arithmetic,
  the oracle of the columnar :func:`~repro.flows.plan.group_costs_batch`.
* :func:`profile_memory_reference` — the node-by-node liveness walk, the
  oracle of the prefix-sum :func:`~repro.runtime.memory.profile_memory`.
* :func:`run_engine_reference` — the single engine's scalar event loop.  It
  lives only here: production serves every engine on a launch machine (the
  callback machine for a scheduler that declares no kind).
* :func:`reference_paths` / :func:`run_reference` — route engine and
  cluster runs onto the reference loops.

Production code picks its path from facts in the config — the scheduler
and policy classes, hedge/autoscale/timeout settings and the fault
schedule — so nothing in ``src/`` lets a caller force the slow loops.  The
equivalence batteries reach them by swapping two functions:

* ``repro.serving.columnar.run_fast`` becomes :func:`run_engine_reference`
  capped by ``record_requests``, so :meth:`ServingEngine.run` serves on the
  engine loop above;
* ``repro.serving.columnar_cluster.fast_path_fallback_reason`` returns a
  reason, so :meth:`ClusterRouter.run` serves on its event loop instead of
  the launch machines (fault-free) or the faulted core.

The engine oracle is independent of the fleet event loop, so an engine run
and a fleet run are checked against two loops.  The fast side replays each
scheduler's launch rules once, in one family of launch machines shared by
the engine and both fleet rails, so the engine batteries and the fleet
batteries check the same machines from several entry points.  The two sides
assemble their results independently: the fast paths hand columns to
:func:`~repro.serving.metrics.assemble_replica` and
:func:`~repro.serving.metrics.assemble_fleet_records`, while the reference
side builds full results in its own loops and caps them with
:func:`~repro.serving.metrics.cap_serving_result` /
:func:`~repro.serving.metrics.cap_cluster_result`.  So a run inside
:func:`reference_paths` is the oracle for the same run outside it, result
assembly included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator
from unittest import mock

import numpy as np

from repro.errors import PlanError, ServingError
from repro.flows.fusion import fuse_graph
from repro.flows.plan import ExecutionPlan, PlannedKernel, node_base_cost
from repro.hardware.calibration import (
    CUSTOM_KERNEL_PENALTY,
    FALLBACK_SYNC_S,
    dispatch_profile,
    efficiency_for_kind,
    gemm_saturation,
)
from repro.hardware.cost_model import BOUND_LABELS, BatchEstimates, LatencyEstimate
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.platform import Platform
from repro.ir.dtype import DType
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ops.base import OpCategory, OpCost
from repro.runtime.simulator import SimulationResult, _transfer_peer
from repro.serving.metrics import RequestRecord, ServingResult, cap_serving_result
from repro.serving.scheduler import Dispatch, get_scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.base import DeploymentFlow
    from repro.flows.passes.placement import PlacementPolicy

#: the fallback reason a forced reference run records on its result.
FORCED_REASON = "reference path forced by tests/oracles.py"


@contextmanager
def reference_paths() -> Iterator[None]:
    """Serve every engine and cluster run in the block on the reference loops."""
    with mock.patch(
        "repro.serving.columnar_cluster.fast_path_fallback_reason",
        lambda config: FORCED_REASON,
    ), mock.patch("repro.serving.columnar.run_fast", _forced_engine_run):
        yield


def run_reference(runner, trace, offered_rate_rps=None):
    """``runner.run(trace, offered_rate_rps)`` on the reference loops, for a
    :class:`ServingEngine` or a :class:`ClusterRouter`."""
    with reference_paths():
        return runner.run(trace, offered_rate_rps)


def _forced_engine_run(engine, trace, offered_rate_rps=None) -> ServingResult:
    """The ``run_fast`` stand-in :func:`reference_paths` installs."""
    result = run_engine_reference(engine, trace, offered_rate_rps)
    cap = engine.config.record_requests
    if cap is not None:
        result = cap_serving_result(result, cap)
    result.backend_used = "reference"
    return result


def run_engine_reference(engine, trace, offered_rate_rps=None) -> ServingResult:
    """The engine's scalar reference event loop: asks the scheduler object
    at every decision time and folds accounting at launch.  Uncapped."""
    config = engine.config
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    requests = trace.requests
    # dense cost rows (shared with the columnar path): list index +
    # None check instead of a dict hash per dispatch.
    cost_table = engine.costs.cost_table(scheduler.max_batch)
    busy: dict[DeviceKind, float] = {spec.kind: 0.0 for spec in engine.platform.devices}
    energy: dict[DeviceKind, float] = {spec.kind: 0.0 for spec in engine.platform.devices}
    result = ServingResult(
        model=config.model,
        flow=engine.flow.name,
        platform_id=config.platform,
        device=engine.target.value,
        scheduler=scheduler.name,
        trace=trace.name,
        offered_rate_rps=(
            trace.offered_rate_rps if offered_rate_rps is None else offered_rate_rps
        ),
        # filled in place below; an empty trace reports idle devices.
        busy_s=busy,
        energy_j=energy,
    )
    if not requests:
        return result

    total = len(requests)
    next_index = 0
    now = 0.0
    host_free = 0.0
    accel_free: dict[DeviceKind, float] = {}
    starts: dict[int, float] = {}
    completions: dict[int, tuple[float, int]] = {}
    gemm_busy = 0.0
    non_gemm_busy = 0.0
    depth_samples: list[tuple[float, int]] = []
    dispatches = 0
    iterations_run = 0
    weighted_size = 0

    # every loop turn either launches work or strictly advances the
    # clock, so this bound is generous; hitting it means a (custom)
    # scheduler is stalling or spinning.
    max_turns = 8 * (total + trace.total_decode_steps()) + 64
    turns = 0
    while len(completions) < total:
        turns += 1
        if turns > max_turns:
            raise ServingError(
                f"scheduler {scheduler.name!r} made no progress after"
                f" {max_turns} decision turns ({len(completions)}/{total} done,"
                f" queue depth {scheduler.queue_depth}, clock t={now:.6f}s)"
            )
        while next_index < total and requests[next_index].arrival_s <= now:
            scheduler.admit(requests[next_index])
            depth_samples.append(
                (requests[next_index].arrival_s, scheduler.queue_depth)
            )
            next_index += 1
        arrivals_pending = next_index < total

        verdict = scheduler.next_dispatch(now, arrivals_pending)
        if isinstance(verdict, Dispatch):
            cost = cost_table.row(verdict.size)
            start = max(now, host_free)
            cursor = start
            for _ in range(verdict.iterations):
                host_end = cursor + cost.host_s
                if cost.has_accel:
                    accel_start = max(host_end, accel_free.get(cost.target, 0.0))
                    if accel_start == host_end:
                        # uncontended: serial semantics, bit-identical to
                        # the per-inference simulator's total.
                        end = cursor + cost.total_s
                    else:
                        end = accel_start + cost.accel_s
                    accel_free[cost.target] = end
                else:
                    end = cursor + cost.total_s
                    host_end = end
                host_free = host_end
                cursor = end
            for kind, seconds in cost.busy_s.items():
                busy[kind] += seconds * verdict.iterations
            for kind, joules in cost.energy_j.items():
                energy[kind] += joules * verdict.iterations
            gemm_busy += cost.gemm_s * verdict.iterations
            non_gemm_busy += cost.non_gemm_s * verdict.iterations
            dispatches += 1
            iterations_run += verdict.iterations
            weighted_size += verdict.size * verdict.iterations
            for request_id in verdict.members:
                starts.setdefault(request_id, start)
            for request_id in verdict.completes:
                completions[request_id] = (cursor, verdict.size)
            depth_samples.append((start, scheduler.queue_depth))
            now = cursor if verdict.barrier else max(now, host_free)
            continue

        if verdict is None:
            if arrivals_pending:
                now = requests[next_index].arrival_s
                continue
            raise ServingError(
                f"scheduler {scheduler.name!r} returned no work with"
                f" {total - len(completions)} requests outstanding, the"
                f" trace exhausted, queue depth {scheduler.queue_depth},"
                f" and clock t={now:.6f}s"
            )

        # float deadline: advance to it (or to an earlier arrival).
        wake = float(verdict)
        if arrivals_pending:
            wake = min(wake, requests[next_index].arrival_s)
        if wake <= now:
            raise ServingError(
                f"scheduler {scheduler.name!r} requested a wake-up at"
                f" {wake} that does not advance the clock (t={now:.6f}s,"
                f" queue depth {scheduler.queue_depth})"
            )
        now = wake

    first_arrival = requests[0].arrival_s
    last_completion = max(end for end, _ in completions.values())
    result.records = [
        RequestRecord(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            start_s=starts[request.request_id],
            completion_s=completions[request.request_id][0],
            decode_steps=request.decode_steps,
            batch_size=completions[request.request_id][1],
        )
        for request in requests
    ]
    result.makespan_s = last_completion - first_arrival
    result.num_dispatches = dispatches
    result.num_iterations = iterations_run
    result.mean_batch_size = (
        weighted_size / iterations_run if iterations_run else 0.0
    )
    result.gemm_busy_s = gemm_busy
    result.non_gemm_busy_s = non_gemm_busy
    result.queue_depth_timeline = tuple(depth_samples)
    return result


@dataclass
class EnergyAccumulator:
    """Accumulates one device's energy over a simulated run: the two-term
    power model ``P_idle * T_wall + sum_k (P_peak - P_idle) * util_k * t_k``
    over the kernels executed on that device."""

    device: DeviceSpec
    dynamic_j: float = 0.0
    busy_s: float = 0.0

    def add_kernel(self, estimate: LatencyEstimate) -> None:
        dynamic_power = (self.device.peak_power_w - self.device.idle_power_w)
        self.dynamic_j += dynamic_power * estimate.utilization * estimate.device_s
        self.busy_s += estimate.device_s

    def total_j(self, wall_s: float) -> float:
        """Total energy given the end-to-end wall time of the run."""
        return self.device.idle_power_w * wall_s + self.dynamic_j


def estimate_kernel(
    device: DeviceSpec,
    category: OpCategory,
    cost: OpCost,
    dtype: DType,
    dispatch_s: float,
    is_custom: bool = False,
    metadata_only: bool = False,
    launch_count: int = 1,
    gemm_peak_scale_f32: float = 1.0,
    gemm_saturation_scale: float = 1.0,
) -> LatencyEstimate:
    """Estimate wall-clock latency of one kernel.

    ``dispatch_s`` is the deployment flow's host-side per-kernel overhead;
    ``is_custom`` applies the custom-kernel efficiency penalty (non vendor-
    library implementations, e.g. DETR's FrozenBatchNorm2d).
    ``launch_count > 1`` models composite Python ops that issue several
    device kernels per call (the cost's traffic must already include the
    repeated tensor passes — flows do this when lowering).
    """
    host_s = dispatch_s * launch_count
    if metadata_only:
        return LatencyEstimate(
            total_s=host_s,
            host_s=host_s,
            device_s=0.0,
            compute_s=0.0,
            memory_s=0.0,
            launch_s=0.0,
            bound="dispatch",
        )

    eff = efficiency_for_kind(category, device.kind)
    scale = CUSTOM_KERNEL_PENALTY if is_custom else 1.0
    if category is OpCategory.GEMM:
        saturation = gemm_saturation(
            cost.flops, device.gemm_saturation_flops * gemm_saturation_scale
        )
        peak = device.gemm_peak(dtype)
        # the f32 scale models TF32 tensor cores — GPU-only hardware
        if dtype == DType.F32 and device.is_gpu:
            peak *= gemm_peak_scale_f32
        peak_flops = peak * saturation
    else:
        peak_flops = device.vector_flops
    compute_s = cost.flops / (peak_flops * eff.compute * scale) if cost.flops else 0.0
    memory_s = (
        cost.total_bytes / (device.mem_bandwidth * eff.memory * scale)
        if cost.total_bytes
        else 0.0
    )
    work_s = max(compute_s, memory_s)
    launch_s = device.kernel_launch_s * launch_count
    device_s = launch_s + work_s

    # async accelerators (GPU/NPU command queues) overlap host dispatch with
    # device work; CPUs run the kernel inline on the dispatching thread.
    is_async = device.async_dispatch
    if is_async:
        total_s = max(host_s, device_s)
    else:
        total_s = host_s + work_s

    if work_s <= 0.0:
        bound = "launch" if is_async and launch_s >= host_s else "dispatch"
    elif is_async and host_s >= device_s:
        bound = "dispatch"
    elif is_async and launch_s >= work_s:
        bound = "launch"
    elif compute_s >= memory_s:
        bound = "compute"
    else:
        bound = "memory"

    return LatencyEstimate(
        total_s=total_s,
        host_s=host_s,
        device_s=device_s,
        compute_s=compute_s,
        memory_s=memory_s,
        launch_s=launch_s,
        bound=bound,
    )


def simulate_reference(plan: ExecutionPlan, platform: Platform) -> SimulationResult:
    """Kernel-by-kernel scalar simulation — the reference implementation.

    The vectorized :func:`~repro.runtime.simulator.simulate` must match this
    exactly.  The scalar estimates are stacked into the result's
    :class:`~repro.hardware.cost_model.BatchEstimates` columns.
    """
    profile = dispatch_profile(plan.dispatch_profile)
    accumulators = {spec.kind: EnergyAccumulator(spec) for spec in platform.devices}
    target = plan.target
    estimates: list[LatencyEstimate] = []
    transfers: list[float] = []
    wall = 0.0

    for kernel in plan.kernels:
        device = platform.device(kernel.device)
        estimate = estimate_kernel(
            device=device,
            category=kernel.category,
            cost=kernel.cost,
            dtype=kernel.dtype,
            dispatch_s=profile.dispatch_for(device.kind, kernel.metadata_only),
            is_custom=kernel.is_custom,
            metadata_only=kernel.metadata_only,
            launch_count=kernel.launch_count,
            gemm_peak_scale_f32=plan.gemm_peak_scale_f32,
            gemm_saturation_scale=plan.gemm_saturation_scale,
        )
        peer = _transfer_peer(target, kernel.device)
        transfer_s = 0.0
        if kernel.transfer_bytes_in:
            transfer_s += (
                platform.transfer_time(peer, kernel.device, kernel.transfer_bytes_in)
                + FALLBACK_SYNC_S
            )
        if kernel.transfer_bytes_out:
            transfer_s += (
                platform.transfer_time(kernel.device, peer, kernel.transfer_bytes_out)
                + FALLBACK_SYNC_S
            )
        estimates.append(estimate)
        transfers.append(transfer_s)
        wall += estimate.total_s + transfer_s
        accumulator = accumulators.get(kernel.device)
        if accumulator is not None:
            accumulator.add_kernel(estimate)

    def column(field: str) -> np.ndarray:
        return np.array([getattr(e, field) for e in estimates], dtype=np.float64)

    stacked = BatchEstimates(
        **{field: column(field) for field in (
            "total_s", "host_s", "device_s", "compute_s", "memory_s", "launch_s"
        )},
        bound_code=np.array([BOUND_LABELS.index(e.bound) for e in estimates], dtype=np.int8),
    )
    return SimulationResult(
        plan=plan,
        platform=platform,
        total_latency_s=wall,
        energy_j={kind: acc.total_j(wall) for kind, acc in accumulators.items()},
        estimates=stacked,
        transfer_s=np.array(transfers, dtype=np.float64),
    )


def reference_lower(
    flow: "DeploymentFlow", graph: Graph, target: DeviceKind = DeviceKind.GPU
) -> ExecutionPlan:
    """Lower ``graph`` for a CPU or GPU ``target`` with the pre-refactor
    monolithic planner."""
    graph.validate()
    result = fuse_graph(graph, flow.fusion)
    policy = flow.placement_policy()
    # uniform flows resolve the device once, not per node
    device = target if flow.uniform_placement else None
    kernels: list[PlannedKernel] = []
    nodes = graph.nodes
    consumers = consumer_map(graph)
    for group in result.groups:
        if len(group) == 1:
            kernels.append(_plan_single(flow, policy, graph, nodes[group[0]], target, device))
        else:
            kernels.append(_plan_group(flow, policy, graph, group, target, consumers))
    plan = ExecutionPlan(
        graph=graph,
        flow=flow.name,
        dispatch_profile=flow.dispatch_profile,
        kernels=kernels,
        target=target,
        gemm_peak_scale_f32=flow.gemm_peak_scale_f32,
        gemm_saturation_scale=flow.gemm_saturation_scale,
    )
    plan.validate()
    return plan


def _plan_single(
    flow: "DeploymentFlow",
    policy: "PlacementPolicy",
    graph: Graph,
    node: Node,
    target: DeviceKind,
    device: DeviceKind | None = None,
) -> PlannedKernel:
    if device is None:
        device = policy.device_for(node, target)
    fallback = target is not DeviceKind.CPU and device is DeviceKind.CPU
    metadata = node.op.is_metadata_only and not fallback
    if fallback:
        # an op forced off the accelerator materializes its data on the
        # host: inputs cross PCIe down, outputs cross back up.
        in_bytes = sum(v.spec.nbytes for v in node.inputs)
        out_bytes = sum(s.nbytes for s in node.outputs)
        cost = OpCost(flops=0, bytes_read=in_bytes, bytes_written=out_bytes)
        return PlannedKernel(
            name=node.qualified_name,
            node_ids=(node.node_id,),
            op_kinds=(node.op.kind,),
            category=node.op.category,
            device=DeviceKind.CPU,
            cost=cost,
            dtype=_node_dtype(node),
            metadata_only=False,
            is_custom=node.op.is_custom_kernel,
            launch_count=1,
            transfer_bytes_in=in_bytes,
            transfer_bytes_out=out_bytes,
        )
    cost = node_base_cost(node)
    # data-dependent ops (nonzero, dynamic shapes) stall the pipeline with
    # a device->host round trip to read their result size.
    sync_bytes = 0
    if device is DeviceKind.GPU and node.op.forces_sync:
        sync_bytes = sum(s.nbytes for s in node.outputs)
    launches = 1
    if not flow.collapses_composites and node.op.eager_kernels > 1:
        launches = node.op.eager_kernels
        # full-size sub-kernels of a Python composite re-stream the tensor
        passes = node.op.traffic_passes
        cost = OpCost(
            flops=cost.flops,
            bytes_read=cost.bytes_read * passes,
            bytes_written=cost.bytes_written * passes,
        )
    return PlannedKernel(
        name=node.qualified_name,
        node_ids=(node.node_id,),
        op_kinds=(node.op.kind,),
        category=node.op.category,
        device=device,
        cost=cost,
        dtype=_node_dtype(node),
        metadata_only=metadata and not sync_bytes,
        is_custom=node.op.is_custom_kernel and not flow.collapses_composites,
        launch_count=launches,
        transfer_bytes_out=sync_bytes,
    )


def _plan_group(
    flow: "DeploymentFlow",
    policy: "PlacementPolicy",
    graph: Graph,
    group: tuple[int, ...],
    target: DeviceKind,
    consumers: "dict[tuple[int, int], list[int]]",
) -> PlannedKernel:
    nodes = [graph.nodes[i] for i in group]
    devices = {policy.device_for(n, target) for n in nodes}
    if len(devices) > 1:
        raise PlanError(f"fused group {group} spans devices {devices}")
    category = _group_category(graph, group)
    first = nodes[0]
    return PlannedKernel(
        name=f"{first.qualified_name}+{len(group) - 1}",
        node_ids=tuple(group),
        op_kinds=tuple(n.op.kind for n in nodes),
        category=category,
        device=devices.pop(),
        cost=group_cost(graph, group, consumers),
        dtype=_node_dtype(first),
        metadata_only=False,
        is_custom=False,  # fused kernels are generated, not hand-written
        launch_count=1,
    )


def consumer_map(graph: Graph) -> "dict[tuple[int, int], list[int]]":
    """``(producer node, port) -> consumer node ids``, read off ``graph.nodes``."""
    consumers: dict[tuple[int, int], list[int]] = {}
    for node in graph.nodes:
        for value in node.inputs:
            consumers.setdefault((value.node_id, value.port), []).append(node.node_id)
    return consumers


def group_cost(
    graph: Graph,
    node_ids: tuple[int, ...],
    consumers: "dict[tuple[int, int], list[int]] | None" = None,
) -> OpCost:
    """Fusion-adjusted cost of a node group.

    FLOPs add up; traffic counts only values crossing the group boundary
    (external inputs once each, external outputs once each) plus weights —
    the whole point of fusion is that intermediates stay in registers/SRAM.
    ``consumers`` is the graph's :func:`consumer_map`, built here when not
    given; callers costing many groups of one graph build it once.
    """
    members = set(node_ids)
    flops = 0
    weight_bytes = 0
    read = 0
    if consumers is None:
        consumers = consumer_map(graph)
    seen_inputs: set[tuple[int, int]] = set()
    written = 0
    for node_id in node_ids:
        node = graph.nodes[node_id]
        base = node_base_cost(node)
        flops += base.flops
        weight_bytes += node.op.weight_bytes()
        for value in node.inputs:
            key = (value.node_id, value.port)
            if value.node_id not in members and key not in seen_inputs:
                seen_inputs.add(key)
                read += value.spec.nbytes
        for port, spec in enumerate(node.outputs):
            users = consumers.get((node_id, port), [])
            escapes = any(u not in members for u in users) or _is_graph_output(
                graph, node_id, port
            )
            if escapes:
                written += spec.nbytes
    return OpCost(flops=flops, bytes_read=read + weight_bytes, bytes_written=written)


def _is_graph_output(graph: Graph, node_id: int, port: int) -> bool:
    return any(v.node_id == node_id and v.port == port for v in graph.outputs)


def _group_category(graph: Graph, node_ids: tuple[int, ...]) -> OpCategory:
    """Any GEMM member makes a fused kernel GEMM; otherwise the member with
    the largest unfused traffic (the first on ties) names it."""
    best: tuple[int, OpCategory] | None = None
    for node_id in node_ids:
        node = graph.nodes[node_id]
        if node.op.category is OpCategory.GEMM:
            return OpCategory.GEMM
        key = node_base_cost(node).total_bytes
        if best is None or key > best[0]:
            best = (key, node.op.category)
    assert best is not None
    return best[1]


def _node_dtype(node: Node) -> DType:
    """Execution precision of a node: its first tensor input, else its output."""
    if node.inputs:
        return node.inputs[0].spec.dtype
    return node.outputs[0].dtype


def profile_memory_reference(graph: Graph) -> tuple[int, int]:
    """``(weight_bytes, peak_activation_bytes)`` by walking the nodes in
    order, keeping every value alive until its last consumer."""
    weight_bytes = sum(node.op.weight_bytes() for node in graph.nodes)
    last_use: dict[tuple[int, int], int] = {}
    for node in graph.nodes:
        for value in node.inputs:
            last_use[(value.node_id, value.port)] = node.node_id
    for value in graph.outputs:
        last_use[(value.node_id, value.port)] = len(graph.nodes)
    # metadata-only ops alias their input storage: attribute zero new bytes.
    live = 0
    peak = 0
    free_at: dict[int, int] = {}
    for node in graph.nodes:
        if not node.op.is_metadata_only or node.is_placeholder:
            for port, spec in enumerate(node.outputs):
                release = last_use.get((node.node_id, port))
                if release is not None:
                    live += spec.nbytes
                    free_at[release] = free_at.get(release, 0) + spec.nbytes
            peak = max(peak, live)
        live -= free_at.pop(node.node_id, 0)
    return weight_bytes, peak
