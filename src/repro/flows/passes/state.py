"""Lowering state shared by the pass pipeline.

A :class:`LoweringState` is the only thing passes read and write: the source
graph, the target device mode, and three progressively-refined artifacts —
fusion ``groups``, per-group ``devices``, and the plan's kernels as
writable :class:`KernelColumns`, which the flow finally freezes into an
immutable :class:`~repro.flows.plan.KernelTable`.

Passes rewrite kernels as masked column updates, e.g. every single-node,
non-fallback kernel on an accelerator::

    kernels = state.kernels
    mask = kernels.single() & ~kernels.fallback & (kernels.device != gpu)
    kernels.launch_count[mask] += 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.flows.plan import KERNEL_COLUMNS, KernelTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.device import DeviceKind
    from repro.ir.graph import Graph


class KernelColumns:
    """A plan's kernels under construction, one row per kernel.

    The :class:`~repro.flows.plan.KernelTable` columns, writable (``names``
    is an object array of str), plus two that only lowering uses:

    * ``fallback`` (bool): a per-op placement policy forced the kernel off
      the accelerator, so refinement passes skip it and
      :class:`~repro.flows.passes.refine.TransferInsertionPass` prices it;
    * ``provenance``: per kernel, the list of tags passes recorded
      (``None`` unless the lowering records provenance).
    """

    __slots__ = (*KERNEL_COLUMNS, "fallback", "provenance")

    def __init__(self, fallback: np.ndarray, record_provenance: bool, **columns: object):
        for name in KERNEL_COLUMNS:
            setattr(self, name, columns[name])
        self.fallback = fallback
        self.provenance: list[list[str]] | None = (
            [[] for _ in self.names] if record_provenance else None
        )

    @classmethod
    def from_table(cls, table: KernelTable, record_provenance: bool = False) -> "KernelColumns":
        """Writable copies of a frozen table's columns; no kernel is a fallback."""
        columns = {name: getattr(table, name) for name in KERNEL_COLUMNS}
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                columns[name] = value.copy()
        columns["names"] = np.array(table.names, dtype=object)
        return cls(np.zeros(len(table), dtype=bool), record_provenance, **columns)

    def __len__(self) -> int:
        return len(self.names)

    def sizes(self) -> np.ndarray:
        """Nodes per kernel."""
        return np.diff(self.offsets)

    def single(self) -> np.ndarray:
        """Mask of the kernels that wrap exactly one node."""
        return self.sizes() == 1

    def first_nodes(self) -> np.ndarray:
        """Each kernel's first node id (its only one, for a single-node kernel)."""
        return self.node_ids[self.offsets[:-1]]

    def tag(self, mask: np.ndarray, labels: "str | Iterable[str]") -> None:
        """Record a provenance tag on every masked kernel (no-op unless
        provenance is recorded); ``labels`` is one label for all, or one per
        masked kernel in kernel order."""
        if self.provenance is None:
            return
        indices = np.flatnonzero(mask).tolist()
        if isinstance(labels, str):
            labels = [labels] * len(indices)
        for index, label in zip(indices, labels):
            self.provenance[index].append(label)

    def freeze(self) -> KernelTable:
        """The columns as an immutable :class:`KernelTable` (no copy)."""
        columns = {name: getattr(self, name) for name in KERNEL_COLUMNS}
        columns["names"] = tuple(self.names.tolist())
        return KernelTable.checked(**columns)


@dataclass(frozen=True)
class PassTrace:
    """What one pass did to the state, for ``nongemm-bench inspect``."""

    pass_name: str
    summary: dict[str, object]


@dataclass
class LoweringState:
    """Everything a lowering pipeline accumulates for one (graph, target) pair."""

    graph: "Graph"
    #: the device class this lowering targets (CPU means host-only).
    target: "DeviceKind"
    #: disjoint node-id groups in topological order (set by FusionPass).
    groups: list[tuple[int, ...]] | None = None
    #: device per group, aligned with ``groups`` (set by PlacementPass).
    devices: "list[DeviceKind] | None" = None
    #: kernels under construction (set by KernelConstructionPass).
    kernels: KernelColumns | None = None
    #: when True, passes record PassTrace entries and kernel provenance tags.
    record_provenance: bool = False
    trace: list[PassTrace] = field(default_factory=list)

    def note(self, pass_name: str, **summary: object) -> None:
        """Append a trace entry (no-op unless provenance recording is on)."""
        if self.record_provenance:
            self.trace.append(PassTrace(pass_name, dict(summary)))
