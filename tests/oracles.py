"""The scalar reference implementations (the bit-identity oracles).

* :func:`simulate_reference` — the kernel-by-kernel simulation loop over the
  scalar :func:`~repro.hardware.cost_model.estimate_kernel`; the vectorized
  :func:`~repro.runtime.simulator.simulate` must match it exactly on every
  registered platform (``tests/test_sweep.py``, ``tests/test_store.py``).
* :func:`reference_lower` — the monolithic ``DeploymentFlow.lower``
  algorithm as it existed before lowering was decomposed into
  :mod:`repro.flows.passes`; every registered flow must produce its plans
  kernel for kernel (``tests/test_passes.py``).
* :func:`reference_paths` / :func:`run_reference` — the serving reference
  loops, which stay in ``src/`` as fallbacks.

Production code picks its path from facts in the config — the scheduler
and policy classes, hedge/autoscale/timeout settings and the fault
schedule — so nothing in ``src/`` lets a caller force the slow loops.  The
equivalence batteries reach them by swapping in selectors that refuse every
fast path:

* ``repro.serving.columnar.kernel_for`` returns ``None``, so
  :meth:`ServingEngine.run` serves on ``ServingEngine._run_reference``
  instead of its scheduler's launch machine;
* ``repro.serving.columnar_cluster.fast_path_fallback_reason`` returns a
  reason, so :meth:`ClusterRouter.run` serves on its event loop instead of
  the launch machines (fault-free) or the faulted replay.

The fast side replays each scheduler's launch rules once, in one family of
launch machines shared by the engine and the fault-free fleet, so the
engine batteries and the fleet batteries check the same machines from two
entry points.  The two sides assemble their results independently: the fast
paths hand columns to :func:`~repro.serving.metrics.assemble_replica` and
:func:`~repro.serving.metrics.assemble_fleet_records`, while the reference
side builds full results in its own loops and caps them with
:func:`~repro.serving.metrics.cap_serving_result` /
:func:`~repro.serving.metrics.cap_cluster_result`.  So a run inside
:func:`reference_paths` is the oracle for the same run outside it, result
assembly included.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator
from unittest import mock

from repro.errors import PlanError
from repro.flows.fusion import fuse_graph, group_category
from repro.flows.passes.construct import node_dtype
from repro.flows.plan import ExecutionPlan, PlannedKernel, group_cost
from repro.hardware.calibration import FALLBACK_SYNC_S, dispatch_profile
from repro.hardware.cost_model import estimate_kernel
from repro.hardware.device import DeviceKind
from repro.hardware.energy import EnergyAccumulator
from repro.hardware.platform import Platform
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ops.base import OpCost
from repro.runtime.simulator import KernelRecord, SimulationResult, _transfer_peer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.base import DeploymentFlow
    from repro.flows.passes.placement import PlacementPolicy

#: the fallback reason a forced reference run records on its result.
FORCED_REASON = "reference path forced by tests/oracles.py"


@contextmanager
def reference_paths() -> Iterator[None]:
    """Serve every engine and cluster run in the block on the reference loops."""
    # columnar_cluster first: patching it imports it, and an import under the
    # kernel_for patch would bind the refusing stub into its globals for good.
    with mock.patch(
        "repro.serving.columnar_cluster.fast_path_fallback_reason",
        lambda config, policy, scheduler: FORCED_REASON,
    ), mock.patch(
        "repro.serving.columnar.kernel_for", lambda scheduler: None
    ):
        yield


def run_reference(runner, trace, offered_rate_rps=None):
    """``runner.run(trace, offered_rate_rps)`` on the reference loops, for a
    :class:`ServingEngine` or a :class:`ClusterRouter`."""
    with reference_paths():
        return runner.run(trace, offered_rate_rps)


def simulate_reference(plan: ExecutionPlan, platform: Platform) -> SimulationResult:
    """Kernel-by-kernel scalar simulation — the reference implementation.

    The vectorized :func:`~repro.runtime.simulator.simulate` must match this
    exactly.
    """
    profile = dispatch_profile(plan.dispatch_profile)
    result = SimulationResult(plan=plan, platform=platform, records=[])
    accumulators = {spec.kind: EnergyAccumulator(spec) for spec in platform.devices}
    target = plan.target

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
        record = KernelRecord(kernel=kernel, estimate=estimate, transfer_s=transfer_s)
        result.records.append(record)
        result.total_latency_s += record.latency_s
        accumulator = accumulators.get(kernel.device)
        if accumulator is not None:
            accumulator.add_kernel(estimate)

    wall = result.total_latency_s
    result.energy_j = {
        kind: accumulator.total_j(wall) for kind, accumulator in accumulators.items()
    }
    return result


def reference_lower(
    flow: "DeploymentFlow", graph: Graph, use_gpu: bool = True
) -> ExecutionPlan:
    """Lower ``graph`` with the pre-refactor monolithic planner."""
    graph.validate()
    result = fuse_graph(graph, flow.fusion)
    policy = flow.placement_policy()
    # uniform flows resolve the device once, not per node
    device = None
    if flow.uniform_placement:
        device = DeviceKind.GPU if use_gpu else DeviceKind.CPU
    kernels: list[PlannedKernel] = []
    nodes = graph.nodes
    node_costs = graph.node_costs()
    for group in result.groups:
        if len(group) == 1:
            kernels.append(
                _plan_single(flow, policy, graph, nodes[group[0]], use_gpu, device, node_costs)
            )
        else:
            kernels.append(_plan_group(flow, policy, graph, group, use_gpu))
    plan = ExecutionPlan(
        graph=graph,
        flow=flow.name,
        dispatch_profile=flow.dispatch_profile,
        kernels=kernels,
        target=DeviceKind.GPU if use_gpu else DeviceKind.CPU,
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
    use_gpu: bool,
    device: DeviceKind | None = None,
    node_costs: list | None = None,
) -> PlannedKernel:
    if device is None:
        device = policy.device_for(node, use_gpu)
    fallback = use_gpu and device is DeviceKind.CPU
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
            dtype=node_dtype(node),
            metadata_only=False,
            is_custom=node.op.is_custom_kernel,
            launch_count=1,
            transfer_bytes_in=in_bytes,
            transfer_bytes_out=out_bytes,
        )
    if node_costs is None:
        node_costs = graph.node_costs()
    cost = node_costs[node.node_id]
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
        dtype=node_dtype(node),
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
    use_gpu: bool,
) -> PlannedKernel:
    nodes = [graph.nodes[i] for i in group]
    devices = {policy.device_for(n, use_gpu) for n in nodes}
    if len(devices) > 1:
        raise PlanError(f"fused group {group} spans devices {devices}")
    category = group_category(graph, group)
    first = nodes[0]
    return PlannedKernel(
        name=f"{first.qualified_name}+{len(group) - 1}",
        node_ids=tuple(group),
        op_kinds=tuple(n.op.kind for n in nodes),
        category=category,
        device=devices.pop(),
        cost=group_cost(graph, group),
        dtype=node_dtype(first),
        metadata_only=False,
        is_custom=False,  # fused kernels are generated, not hand-written
        launch_count=1,
    )
