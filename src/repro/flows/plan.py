"""Execution plans: what a deployment flow actually runs.

A flow lowers an operator graph into an ordered sequence of kernels —
possibly-fused groups of graph nodes assigned to a device, with
fusion-adjusted cost and optional PCIe transfers (for CPU-fallback kernels).

A plan holds its kernels in one frozen form, a :class:`KernelTable`: numpy
columns with small-int codes and vocabularies, built once when the flow
freezes its drafts.  This module alone defines that column layout.  The
simulator casts the columns into its per-kernel arrays, and the artifact
store pickles the table as it is.  Indexing or iterating the table yields
:class:`PlannedKernel` rows for code that reads kernels one at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import PlanError
from repro.hardware.device import DeviceKind
from repro.ir.dtype import DType
from repro.ir.graph import Graph
from repro.ir.node import Node
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


#: vocabularies of the table's code columns: a code is the member's position
#: in its enum's declaration order.
CATEGORIES: tuple[OpCategory, ...] = tuple(OpCategory)
DEVICE_KINDS: tuple[DeviceKind, ...] = tuple(DeviceKind)
DTYPES: tuple[DType, ...] = tuple(DType)
CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}
DEVICE_CODE = {kind: code for code, kind in enumerate(DEVICE_KINDS)}
DTYPE_CODE = {dtype: code for code, dtype in enumerate(DTYPES)}

_INT64_MAX = np.iinfo(np.int64).max

#: the table's columns, in pickle order.
_COLUMNS = (
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

    __slots__ = (*_COLUMNS, "_rows")

    def __init__(self, **columns: object):
        for name in _COLUMNS:
            value = columns[name]
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(self, name, value)
        self._rows: list[PlannedKernel] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable) -> "KernelTable":
        """Freeze ``rows`` into a table: the one loop that builds it.

        A row is anything carrying the twelve :class:`PlannedKernel` field
        names as attributes: ``PlannedKernel`` tuples, or the lowering
        pipeline's kernel drafts.  Raises :class:`PlanError` when a cost or
        transfer does not fit int64.
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
        # the simulator sums the two in int64, where an overflow would wrap.
        if np.any(bytes_written > _INT64_MAX - bytes_read):
            raise PlanError("a kernel's total traffic exceeds int64")
        vocab: dict[tuple[str, ...], int] = {}
        op_kind_idx = [vocab.setdefault(kinds, len(vocab)) for kinds in op_kinds]
        return cls(
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
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(**dict(zip(_COLUMNS, state)))


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
        seen: set[int] = set()
        for node_id in self.kernels.node_ids.tolist():
            if node_id in seen:
                raise PlanError(f"node {node_id} planned twice in {self.flow}")
            seen.add(node_id)
        expected = {n.node_id for n in graph.compute_nodes()}
        missing = expected - seen
        extra = seen - expected
        if missing:
            raise PlanError(f"plan for {graph.name} misses nodes {sorted(missing)[:8]}")
        if extra:
            raise PlanError(f"plan for {graph.name} has unknown nodes {sorted(extra)[:8]}")

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
        nodes = self.graph.materialize().nodes
        gemm = OpCategory.GEMM
        table = self.kernels
        node_ids = table.node_ids.tolist()
        non_gemm = np.fromiter(
            (nodes[i].op.category is not gemm for i in node_ids), bool, len(node_ids)
        )
        sizes = np.diff(table.offsets)
        fused = np.repeat(sizes > 1, sizes)
        non_gemm_total = int(np.count_nonzero(non_gemm))
        if non_gemm_total == 0:
            return 0.0
        return int(np.count_nonzero(non_gemm & fused)) / non_gemm_total


def group_cost(graph: Graph, node_ids: tuple[int, ...]) -> OpCost:
    """Fusion-adjusted cost of a node group.

    FLOPs add up; traffic counts only values crossing the group boundary
    (external inputs once each, external outputs once each) plus weights —
    the whole point of fusion is that intermediates stay in registers/SRAM.
    """
    members = set(node_ids)
    flops = 0
    weight_bytes = 0
    read = 0
    consumers = graph.consumers()
    node_costs = graph.node_costs()
    seen_inputs: set[tuple[int, int]] = set()
    written = 0
    for node_id in node_ids:
        node = graph.nodes[node_id]
        base = node_costs[node_id]
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


def group_costs_batch(graph: Graph, groups: Sequence[tuple[int, ...]]) -> list[OpCost]:
    """Fusion-adjusted cost of every group in one walk of the graph.

    Produces exactly :func:`group_cost` of each group (integer sums are
    exact regardless of association order), but amortizes the boundary
    analysis: instead of per-group member sets and consumer-map probes, one
    pass over the graph's edges classifies every value as internal or
    escaping.  Kernel construction calls this once per lowering, which is
    where profiling shows the cold path's per-group set arithmetic.
    """
    owner: dict[int, int] = {}
    for index, group in enumerate(groups):
        for node_id in group:
            owner[node_id] = index
    node_costs = graph.node_costs()
    nodes = graph.nodes
    count = len(groups)
    flops = [0] * count
    read = [0] * count
    weights = [0] * count
    written = [0] * count
    #: (group, producer, port) pairs already charged as reads — a group
    #: streams each external value once however many members consume it.
    seen_reads: set[tuple[int, int, int]] = set()
    #: (producer, port) values consumed outside their producer's group.
    escapes: set[tuple[int, int]] = set()
    get_owner = owner.get
    for node in nodes:
        group_index = get_owner(node.node_id)
        if group_index is None:
            # not in any costed group: only relevant as an outside consumer.
            for value in node.inputs:
                if get_owner(value.node_id) is not None:
                    escapes.add((value.node_id, value.port))
            continue
        base = node_costs[node.node_id]
        flops[group_index] += base.flops
        weights[group_index] += node.op.weight_bytes()
        for value in node.inputs:
            producer = value.node_id
            if get_owner(producer) != group_index:
                key = (group_index, producer, value.port)
                if key not in seen_reads:
                    seen_reads.add(key)
                    read[group_index] += value.spec.nbytes
                if producer in owner:
                    escapes.add((producer, value.port))
    for value in graph.outputs:
        if get_owner(value.node_id) is not None:
            escapes.add((value.node_id, value.port))
    for producer, port in escapes:
        written[owner[producer]] += nodes[producer].outputs[port].nbytes
    return [
        OpCost(flops=flops[i], bytes_read=read[i] + weights[i], bytes_written=written[i])
        for i in range(count)
    ]


def _is_graph_output(graph: Graph, node_id: int, port: int) -> bool:
    return any(v.node_id == node_id and v.port == port for v in graph.outputs)


def node_base_cost(node: Node) -> OpCost:
    """Unfused cost of a single node."""
    return node.op.cost([v.spec for v in node.inputs], list(node.outputs))
