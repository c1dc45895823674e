"""Execution plans: what a deployment flow actually runs.

A flow lowers an operator graph into an ordered sequence of kernels —
possibly-fused groups of graph nodes assigned to a device, with
fusion-adjusted cost and optional PCIe transfers (for CPU-fallback kernels).

A plan holds its kernels in one frozen form, a :class:`KernelTable`: numpy
columns with small-int codes and vocabularies, frozen once from the
lowering's kernel columns.  This module alone defines that column layout.
The simulator casts the columns into its per-kernel arrays, and the artifact
store pickles the table as it is.  Indexing or iterating the table yields
:class:`PlannedKernel` rows for code that reads kernels one at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.errors import PlanError
from repro.hardware.device import DeviceKind
from repro.ir.dtype import DType
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.table import (
    CATEGORIES,
    CATEGORY_CODE,
    DTYPE_CODE,
    DTYPES,
    GEMM_CODE,
    segment_sum,
)
from repro.ops.base import OpCategory, OpCost


class PlannedKernel(NamedTuple):
    """One schedulable unit: a single op or a fused group.

    The row type of a :class:`KernelTable`: what indexing and iterating
    ``plan.kernels`` yields, and one way to describe kernels when building
    an :class:`ExecutionPlan` by hand.
    """

    name: str
    node_ids: tuple[int, ...]
    op_kinds: tuple[str, ...]
    category: OpCategory
    device: DeviceKind
    cost: OpCost
    dtype: DType
    metadata_only: bool = False
    is_custom: bool = False
    #: device kernels launched for this unit (eager composites launch many).
    launch_count: int = 1
    #: PCIe traffic for CPU-fallback kernels (ORT unsupported-op study).
    transfer_bytes_in: int = 0
    transfer_bytes_out: int = 0

    @property
    def fused(self) -> bool:
        return len(self.node_ids) > 1

    @property
    def is_gemm(self) -> bool:
        return self.category is OpCategory.GEMM


#: vocabulary of the table's device codes: a code is the member's position
#: in declaration order, like the category and dtype codes it shares with
#: the graph's node table (:data:`~repro.ir.table.CATEGORIES`,
#: :data:`~repro.ir.table.DTYPES`).
DEVICE_KINDS: tuple[DeviceKind, ...] = tuple(DeviceKind)
DEVICE_CODE = {kind: code for code, kind in enumerate(DEVICE_KINDS)}

_INT64_MAX = np.iinfo(np.int64).max

#: the table's columns, in pickle order.
KERNEL_COLUMNS = (
    "names",
    "node_ids",
    "offsets",
    "op_kind_vocab",
    "op_kind_idx",
    "category",
    "device",
    "dtype",
    "flops",
    "bytes_read",
    "bytes_written",
    "metadata_only",
    "is_custom",
    "launch_count",
    "transfer_bytes_in",
    "transfer_bytes_out",
)


class KernelTable:
    """A plan's kernels as immutable columns, one row per kernel.

    Columns, one per :class:`PlannedKernel` field:

    * ``names``: a tuple of str;
    * ``node_ids``: every kernel's node ids, flat (int64); kernel ``i`` owns
      ``node_ids[offsets[i]:offsets[i + 1]]``;
    * ``op_kinds``: kernel ``i`` ran ``op_kind_vocab[op_kind_idx[i]]``, a
      deduplicated tuple of op kinds (index int32);
    * ``category``, ``device``, ``dtype``: int8 codes into
      :data:`CATEGORIES`, :data:`DEVICE_KINDS` and :data:`DTYPES`;
    * ``cost`` as ``flops``, ``bytes_read``, ``bytes_written`` (int64);
    * ``metadata_only``, ``is_custom`` (bool), ``launch_count`` (int32),
      ``transfer_bytes_in``, ``transfer_bytes_out`` (int64).

    The arrays are read-only.  Indexing and iteration yield
    :class:`PlannedKernel` rows, built once on first use; that row cache is
    left out when the table is pickled.
    """

    __slots__ = (*KERNEL_COLUMNS, "_rows")

    def __init__(self, **columns: object):
        for name in KERNEL_COLUMNS:
            value = columns[name]
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(self, name, value)
        self._rows: list[PlannedKernel] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable) -> "KernelTable":
        """Freeze ``rows`` into a table.

        A row is anything carrying the twelve :class:`PlannedKernel` field
        names as attributes, e.g. ``PlannedKernel`` tuples; the lowering
        pipeline builds its tables from columns instead
        (:class:`~repro.flows.passes.state.KernelColumns`).  Raises
        :class:`PlanError` when a cost or transfer does not fit int64.
        """
        rows = list(rows)
        (names, node_ids, op_kinds, categories, devices, costs, dtypes,
         metadata_only, is_custom, launch_count, transfer_in, transfer_out) = (
            list(map(attrgetter(name), rows)) for name in PlannedKernel._fields
        )
        flops, bytes_read, bytes_written = (
            list(map(attrgetter(name), costs)) for name in OpCost._fields
        )
        offsets = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(list(map(len, node_ids)), out=offsets[1:])
        try:
            flops, bytes_read, bytes_written, transfer_in, transfer_out = (
                np.array(column, dtype=np.int64)
                for column in (flops, bytes_read, bytes_written, transfer_in, transfer_out)
            )
        except OverflowError:
            raise PlanError("a kernel's cost or transfer bytes exceed int64") from None
        vocab: dict[tuple[str, ...], int] = {}
        op_kind_idx = [vocab.setdefault(kinds, len(vocab)) for kinds in op_kinds]
        return cls.checked(
            names=tuple(names),
            node_ids=np.fromiter(chain.from_iterable(node_ids), np.int64, int(offsets[-1])),
            offsets=offsets,
            op_kind_vocab=tuple(vocab),
            op_kind_idx=np.array(op_kind_idx, dtype=np.int32),
            category=np.array([CATEGORY_CODE[c] for c in categories], dtype=np.int8),
            device=np.array([DEVICE_CODE[d] for d in devices], dtype=np.int8),
            dtype=np.array([DTYPE_CODE[d] for d in dtypes], dtype=np.int8),
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            metadata_only=np.array(metadata_only, dtype=bool),
            is_custom=np.array(is_custom, dtype=bool),
            launch_count=np.array(launch_count, dtype=np.int32),
            transfer_bytes_in=transfer_in,
            transfer_bytes_out=transfer_out,
        )

    @classmethod
    def checked(cls, **columns: object) -> "KernelTable":
        """A table of ``columns``, refusing a kernel whose total traffic
        wraps int64 (the simulator sums the two byte columns in int64)."""
        if np.any(columns["bytes_written"] > _INT64_MAX - columns["bytes_read"]):
            raise PlanError("a kernel's total traffic exceeds int64")
        return cls(**columns)

    def _row_list(self) -> list[PlannedKernel]:
        rows = self._rows
        if rows is None:
            flat = self.node_ids.tolist()
            bounds = self.offsets.tolist()
            vocab = self.op_kind_vocab
            rows = list(
                map(
                    PlannedKernel,
                    self.names,
                    [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])],
                    [vocab[i] for i in self.op_kind_idx.tolist()],
                    map(CATEGORIES.__getitem__, self.category.tolist()),
                    map(DEVICE_KINDS.__getitem__, self.device.tolist()),
                    map(
                        OpCost,
                        self.flops.tolist(),
                        self.bytes_read.tolist(),
                        self.bytes_written.tolist(),
                    ),
                    map(DTYPES.__getitem__, self.dtype.tolist()),
                    self.metadata_only.tolist(),
                    self.is_custom.tolist(),
                    self.launch_count.tolist(),
                    self.transfer_bytes_in.tolist(),
                    self.transfer_bytes_out.tolist(),
                )
            )
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[PlannedKernel]:
        return iter(self._row_list())

    def __getitem__(self, index):
        return self._row_list()[index]

    def __eq__(self, other: object) -> bool:
        """Row-wise equality with another table or a PlannedKernel sequence."""
        if isinstance(other, (KernelTable, list, tuple)):
            return self._row_list() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in KERNEL_COLUMNS)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(**dict(zip(KERNEL_COLUMNS, state)))


@dataclass
class ExecutionPlan:
    """A lowered graph, ready for simulation.

    ``graph`` is normally the :class:`~repro.ir.graph.Graph` the plan was
    lowered from; plans served by the persistent artifact store may instead
    carry a lazy :class:`~repro.sweep.cache.GraphRef` (same ``content_hash``
    /``materialize``/``name`` surface), which the rare structure-walking
    paths resolve on demand — the profiling hot path never does.

    ``kernels`` is always a :class:`KernelTable`; a sequence of
    :class:`PlannedKernel` rows passed in is frozen into one.
    """

    graph: Graph  # or a lazy GraphRef (see docstring)
    flow: str
    dispatch_profile: str  # key into hardware.calibration.DISPATCH_PROFILES
    kernels: KernelTable
    #: the device class this lowering targeted; the simulator routes
    #: transfers of kernels forced off it over the platform's link table.
    #: (Defaults to GPU — the only accelerator the pre-N-device model knew.)
    target: DeviceKind = DeviceKind.GPU
    #: flow-level GEMM rate adjustments (see DeploymentFlow)
    gemm_peak_scale_f32: float = 1.0
    gemm_saturation_scale: float = 1.0
    notes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kernels, KernelTable):
            self.kernels = KernelTable.from_rows(self.kernels)

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def num_fused_kernels(self) -> int:
        return int(np.count_nonzero(np.diff(self.kernels.offsets) > 1))

    def content_hash(self) -> str:
        """Structural fingerprint of the lowered plan.

        Combines the source graph's content hash with the flow-level knobs and
        every kernel's schedulable identity, so two plans hash equal exactly
        when the simulator would produce identical timelines for them.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.graph.content_hash().encode())
        digest.update(
            f"|{self.flow}|{self.dispatch_profile}|{self.target.value}"
            f"|{self.gemm_peak_scale_f32!r}|{self.gemm_saturation_scale!r}".encode()
        )
        for kernel in self.kernels:
            digest.update(
                f"\x00{kernel.node_ids}{kernel.category.name}{kernel.device.value}"
                f"{kernel.cost.flops},{kernel.cost.bytes_read},{kernel.cost.bytes_written}"
                f"{kernel.dtype.name}{int(kernel.metadata_only)}{int(kernel.is_custom)}"
                f"{kernel.launch_count},{kernel.transfer_bytes_in},{kernel.transfer_bytes_out}".encode()
            )
        return digest.hexdigest()

    def covered_node_count(self) -> int:
        """Number of graph nodes the kernels cover.

        Equals ``len(graph.compute_nodes())`` for any validated plan (the
        kernels partition the compute nodes exactly), which lets profiling
        report the graph's op count without touching graph structure.
        """
        return int(self.kernels.offsets[-1])

    def validate(self) -> None:
        """Every compute node appears in exactly one kernel; order respects deps."""
        graph = self.graph.materialize()
        table = graph.freeze()
        ids = self.kernels.node_ids
        _, first = np.unique(ids, return_index=True)
        if len(first) < len(ids):
            repeated = np.ones(len(ids), dtype=bool)
            repeated[first] = False
            node_id = int(ids[np.argmax(repeated)])
            raise PlanError(f"node {node_id} planned twice in {self.flow}")
        known = (ids >= 0) & (ids < table.num_nodes)
        covered = np.zeros(table.num_nodes, dtype=bool)
        covered[ids[known]] = True
        missing = np.flatnonzero(~table.placeholder & ~covered)
        placeholders = covered & table.placeholder
        extra = np.union1d(ids[~known], np.flatnonzero(placeholders))
        if len(missing):
            raise PlanError(f"plan for {graph.name} misses nodes {missing[:8].tolist()}")
        if len(extra):
            raise PlanError(f"plan for {graph.name} has unknown nodes {extra[:8].tolist()}")
        # every input edge: the producer's kernel must not follow the
        # consumer's (placeholder producers belong to no kernel).
        kernel_of = np.full(table.num_nodes, -1, dtype=np.int64)
        kernel_of[ids] = np.repeat(np.arange(len(self.kernels)), np.diff(self.kernels.offsets))
        producer = kernel_of[table.value_node()[table.in_values]]
        consumer = kernel_of[table.edge_node()]
        late = np.flatnonzero(producer > consumer)
        if len(late):
            edge = int(late[0])
            raise PlanError(
                f"plan for {graph.name} reads a later kernel: kernel {int(consumer[edge])}"
                f" consumes the output of kernel {int(producer[edge])}"
            )

    def non_gemm_fusion_rate(self) -> float:
        """Fraction of non-GEMM graph ops that were fused away (paper Table V).

        Memoized: plans are immutable once lowered, and cached plans are
        re-profiled many times per sweep.
        """
        cached = self.__dict__.get("_non_gemm_fusion_rate")
        if cached is not None:
            return cached
        rate = self._compute_non_gemm_fusion_rate()
        self.__dict__["_non_gemm_fusion_rate"] = rate
        return rate

    def _compute_non_gemm_fusion_rate(self) -> float:
        table = self.kernels
        non_gemm = self.graph.materialize().freeze().category[table.node_ids] != GEMM_CODE
        sizes = np.diff(table.offsets)
        fused = np.repeat(sizes > 1, sizes)
        non_gemm_total = int(np.count_nonzero(non_gemm))
        if non_gemm_total == 0:
            return 0.0
        return int(np.count_nonzero(non_gemm & fused)) / non_gemm_total


def group_costs_batch(
    graph: Graph, node_ids: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fusion-adjusted ``(flops, bytes_read, bytes_written)`` of node groups.

    The groups are CSR: group ``i`` is ``node_ids[offsets[i]:offsets[i + 1]]``.
    FLOPs add up; traffic counts only values crossing a group's boundary
    (each external input once per group, each escaping output once) plus
    weights — the whole point of fusion is that intermediates stay in
    registers/SRAM.  A value escapes when a node outside its producer's
    group reads it, or when it is a graph output.  Every group is costed in
    a few numpy passes over the node table's edges.
    """
    table = graph.freeze()
    count = len(offsets) - 1
    owner = np.full(table.num_nodes, -1, dtype=np.int64)
    owner[node_ids] = np.repeat(np.arange(count), np.diff(offsets))
    flops = segment_sum(table.flops[node_ids], offsets)
    weights = segment_sum(table.weight_bytes[node_ids], offsets)
    value_owner = owner[table.value_node()]
    reader = owner[table.edge_node()]
    writer = value_owner[table.in_values]
    crossing = reader != writer
    # each (group, external value) pair is charged once
    charged = np.unique(
        reader[crossing & (reader >= 0)] * table.num_values
        + table.in_values[crossing & (reader >= 0)]
    )
    read = np.zeros(count, dtype=np.int64)
    np.add.at(read, charged // table.num_values, table.value_nbytes[charged % table.num_values])
    escapes = table.is_output()
    escapes[table.in_values[crossing]] = True
    escaping = np.flatnonzero(escapes & (value_owner >= 0))
    written = np.zeros(count, dtype=np.int64)
    np.add.at(written, value_owner[escaping], table.value_nbytes[escaping])
    return flops, read + weights, written


def node_base_cost(node: Node) -> OpCost:
    """Unfused cost of a single node."""
    return node.op.cost([v.spec for v in node.inputs], list(node.outputs))
