"""PlacementPass: assign every fusion group to a device.

Placement is a *policy* plugged into one pass; policies speak the N-device
model: they map ``(node, target)`` to a :class:`DeviceKind`, where ``target``
is the device class the lowering aims at.

* :class:`UniformPlacement` — all flows except the per-op ones: the whole
  plan lands on the target device, resolved once per lowering (never per
  node — re-deriving the device for every member of every fused group was
  redundant work on the hot lowering path of the pre-pass planner).
* :class:`PerOpFallbackPlacement` — ORT-style: ops whose kind the accelerator
  provider lacks fall back to the host CPU provider.  Groups whose members
  disagree either abort lowering (the historical contract) or, with
  ``split_mixed_groups``, are split: accelerator members stay fused in
  contiguous runs, while CPU members become singleton kernels (the host
  provider runs fallback ops one by one, and each must pay its interconnect
  transfers) — so aggressive fusion configs can coexist with per-op fallback.
* :class:`CategoryRoutePlacement` — NPU-offload-style: node categories in the
  accelerated set go to the target device, everything else stays on the
  host.  This is how matrix engines with no general op coverage (edge NPUs)
  are modelled: GEMM-family work offloads, non-GEMM work cannot.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable

from repro.errors import PlanError
from repro.hardware.device import DeviceKind
from repro.flows.passes.manager import LoweringPass
from repro.flows.passes.state import LoweringState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.node import Node
    from repro.ops.base import OpCategory


class PlacementPolicy(abc.ABC):
    """Where nodes run for a given lowering target."""

    #: True when the policy maps every node to one device per target;
    #: decides the pipeline's shape (uniform pipelines skip transfer passes).
    is_uniform: bool = False

    @abc.abstractmethod
    def device_for(self, node: "Node", target: DeviceKind) -> DeviceKind:
        """Device for one node."""

    def resolve_uniform(self, target: DeviceKind) -> DeviceKind | None:
        """The single device every node maps to, or None for per-op policies."""
        return None

    @abc.abstractmethod
    def signature(self) -> str:
        """Stable content description of the policy's configuration."""


class UniformPlacement(PlacementPolicy):
    """Every node on the target device; resolved once per lowering."""

    is_uniform = True

    def device_for(self, node: "Node", target: DeviceKind) -> DeviceKind:
        return target

    def resolve_uniform(self, target: DeviceKind) -> DeviceKind | None:
        return target

    def signature(self) -> str:
        return "uniform"


class PerOpFallbackPlacement(PlacementPolicy):
    """Ops the accelerator provider lacks kernels for fall back to the CPU."""

    def __init__(self, cpu_fallback_kinds: frozenset[str]):
        self.cpu_fallback_kinds = frozenset(cpu_fallback_kinds)

    def device_for(self, node: "Node", target: DeviceKind) -> DeviceKind:
        if node.op.kind in self.cpu_fallback_kinds:
            return DeviceKind.CPU
        return target

    def signature(self) -> str:
        return f"per-op-fallback({','.join(sorted(self.cpu_fallback_kinds))})"


class CategoryRoutePlacement(PlacementPolicy):
    """Route accelerated op categories to the target, the rest to the host.

    The inverse of :class:`PerOpFallbackPlacement`: instead of enumerating
    what the accelerator *lacks*, enumerate the categories it *has* — the
    natural description of matrix engines (edge NPUs) whose coverage is a
    short allowlist rather than a short denylist.
    """

    def __init__(self, accelerated_categories: "Iterable[OpCategory]"):
        self.accelerated_categories = frozenset(accelerated_categories)

    def device_for(self, node: "Node", target: DeviceKind) -> DeviceKind:
        if node.op.category in self.accelerated_categories:
            return target
        return DeviceKind.CPU

    def signature(self) -> str:
        names = ",".join(sorted(c.name for c in self.accelerated_categories))
        return f"category-route({names})"


class PlacementPass(LoweringPass):
    """Resolve a device per group under the flow's placement policy."""

    name = "placement"

    def __init__(self, policy: PlacementPolicy, split_mixed_groups: bool = False):
        self.policy = policy
        self.split_mixed_groups = split_mixed_groups

    def describe(self) -> str:
        return f"{self.policy.signature()},split={int(self.split_mixed_groups)}"

    def run(self, state: LoweringState) -> None:
        assert state.groups is not None, "placement requires fusion groups"
        target = state.target
        uniform = self.policy.resolve_uniform(target)
        if uniform is not None:
            # uniform flows resolve the device once, not per node or group
            state.devices = [uniform] * len(state.groups)
            state.note(self.name, device=uniform.value, groups=len(state.groups))
            return
        nodes = state.graph.nodes
        groups: list[tuple[int, ...]] = []
        devices: list[DeviceKind] = []
        splits = 0
        for group in state.groups:
            if len(group) == 1:
                groups.append(group)
                devices.append(self.policy.device_for(nodes[group[0]], target))
                continue
            member_devices = [self.policy.device_for(nodes[i], target) for i in group]
            distinct = set(member_devices)
            if len(distinct) == 1:
                groups.append(group)
                devices.append(member_devices[0])
                continue
            if not self.split_mixed_groups:
                raise PlanError(f"fused group {group} spans devices {distinct}")
            splits += 1
            for run_ids, run_device in _split_runs(group, member_devices):
                if run_device is not target:
                    # the host provider runs off-target ops one by one, not as
                    # a fused generated kernel: emit singletons so each gets
                    # the standard fallback transfer accounting downstream.
                    for node_id in run_ids:
                        groups.append((node_id,))
                        devices.append(run_device)
                else:
                    groups.append(run_ids)
                    devices.append(run_device)
        state.groups = groups
        state.devices = devices
        if state.record_provenance:
            off_target = (
                sum(1 for d in devices if d is not target)
                if target is not DeviceKind.CPU
                else 0
            )
            state.note(
                self.name,
                groups=len(groups),
                cpu_placed_kernels=off_target,
                split_groups=splits,
            )


def _split_runs(
    group: tuple[int, ...], member_devices: list[DeviceKind]
) -> list[tuple[tuple[int, ...], DeviceKind]]:
    """Split a device-spanning group into contiguous same-device runs."""
    runs: list[tuple[tuple[int, ...], DeviceKind]] = []
    start = 0
    for i in range(1, len(group) + 1):
        if i == len(group) or member_devices[i] is not member_devices[start]:
            runs.append((group[start:i], member_devices[start]))
            start = i
    return runs
