"""Lowering state shared by the pass pipeline.

A :class:`LoweringState` is the only thing passes read and write: the source
graph, the target device mode, and three progressively-refined artifacts —
fusion ``groups``, per-group ``devices``, and mutable :class:`KernelDraft`
records that the flow finally freezes into an immutable
:class:`~repro.flows.plan.KernelTable`.

Drafts are deliberately tiny mutable objects (``__slots__``, no dataclass
machinery): tens of thousands are minted per sweep, so their construction
cost sits on the engine's cold path next to the table build itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.device import DeviceKind
    from repro.ir.graph import Graph
    from repro.ir.node import Node
    from repro.ops.base import OpCategory, OpCost
    from repro.ir.dtype import DType


class KernelDraft:
    """A mutable kernel under construction; frozen into a KernelTable row.

    Carries the twelve :class:`~repro.flows.plan.PlannedKernel` field names,
    which :meth:`~repro.flows.plan.KernelTable.from_rows` reads.
    """

    __slots__ = (
        "name",
        "node_ids",
        "op_kinds",
        "category",
        "device",
        "cost",
        "dtype",
        "metadata_only",
        "is_custom",
        "launch_count",
        "transfer_bytes_in",
        "transfer_bytes_out",
        "fallback",
        "provenance",
    )

    def __init__(
        self,
        name: str,
        node_ids: "tuple[int, ...]",
        op_kinds: "tuple[str, ...]",
        category: "OpCategory",
        device: "DeviceKind",
        cost: "OpCost",
        dtype: "DType",
        is_custom: bool = False,
        fallback: bool = False,
    ):
        self.name = name
        self.node_ids = node_ids
        self.op_kinds = op_kinds
        self.category = category
        self.device = device
        self.cost = cost
        self.dtype = dtype
        self.metadata_only = False
        self.is_custom = is_custom
        self.launch_count = 1
        self.transfer_bytes_in = 0
        self.transfer_bytes_out = 0
        #: True when a per-op placement policy forced this kernel off the
        #: accelerator: refinement passes skip fallback drafts the way the
        #: pre-pass planner's early return did.
        self.fallback = fallback
        #: per-pass annotations, recorded only when provenance is requested.
        self.provenance: list[str] | None = None

    @property
    def fused(self) -> bool:
        return len(self.node_ids) > 1

    def single_node(self, graph: "Graph") -> "Node | None":
        """The draft's node when it wraps exactly one, else None."""
        if len(self.node_ids) != 1:
            return None
        return graph.nodes[self.node_ids[0]]

    def tag(self, label: str) -> None:
        """Record a provenance annotation (inspect/debug paths only)."""
        if self.provenance is None:
            self.provenance = [label]
        else:
            self.provenance.append(label)


@dataclass(frozen=True)
class PassTrace:
    """What one pass did to the state, for ``nongemm-bench inspect``."""

    pass_name: str
    summary: dict[str, object]


@dataclass
class LoweringState:
    """Everything a lowering pipeline accumulates for one (graph, target) pair."""

    graph: "Graph"
    #: the device class this lowering targets (CPU means host-only); replaces
    #: the historical ``use_gpu`` boolean, which remains as a derived view.
    target: "DeviceKind"
    #: disjoint node-id groups in topological order (set by FusionPass).
    groups: list[tuple[int, ...]] | None = None
    #: device per group, aligned with ``groups`` (set by PlacementPass).
    devices: "list[DeviceKind] | None" = None
    #: kernels under construction (set by KernelConstructionPass).
    drafts: list[KernelDraft] | None = None
    #: when True, passes record PassTrace entries and draft provenance tags.
    record_provenance: bool = False
    trace: list[PassTrace] = field(default_factory=list)

    @property
    def use_gpu(self) -> bool:
        """Legacy view of the target: True for any accelerator target."""
        from repro.hardware.device import DeviceKind

        return self.target is not DeviceKind.CPU

    def note(self, pass_name: str, **summary: object) -> None:
        """Append a trace entry (no-op unless provenance recording is on)."""
        if self.record_provenance:
            self.trace.append(PassTrace(pass_name, dict(summary)))
