"""A graph frozen into columns: the node table every lowering walk reads.

:meth:`Graph.freeze <repro.ir.graph.Graph.freeze>` walks the node list once
and returns a :class:`NodeTable`: numpy columns with small-int codes, plus
CSR edge lists.  Fusion, group costs, kernel construction, plan validation
and the liveness walk of :func:`~repro.runtime.memory.profile_memory` read
these columns instead of ``Node`` objects, so their work is numpy passes
rather than per-node Python.

Values (node outputs) are numbered flat: node ``i`` produces values
``out_offsets[i]:out_offsets[i + 1]``, port ``p`` being value
``out_offsets[i] + p``.
"""

from __future__ import annotations

import itertools
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PlanError
from repro.ir.dtype import DType
from repro.ops.base import OpCategory, Operator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.graph import Graph

#: vocabularies of the category and dtype code columns (shared with the
#: kernel table): a code is the member's position in declaration order.
CATEGORIES: tuple[OpCategory, ...] = tuple(OpCategory)
DTYPES: tuple[DType, ...] = tuple(DType)
CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}
DTYPE_CODE = {dtype: code for code, dtype in enumerate(DTYPES)}
GEMM_CODE = CATEGORY_CODE[OpCategory.GEMM]
#: the same codes keyed by member identity: the per-node lookups of the
#: freeze walk then hash an int instead of calling ``Enum.__hash__``.
_CATEGORY_BY_ID = {id(category): code for category, code in CATEGORY_CODE.items()}
_DTYPE_BY_ID = {id(dtype): code for dtype, code in DTYPE_CODE.items()}

#: a graph's summed costs (times its largest composite pass count) stay
#: below this, so no kernel cost built from them — a fused group's sums, a
#: composite's traffic times its passes — can wrap int64.
_SUM_BOUND = 2.0**62

_OP_FIELDS = attrgetter(
    "kind", "category", "is_metadata_only", "forces_sync", "is_custom_kernel",
    "eager_kernels", "traffic_passes",
)


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of ``values[offsets[i]:offsets[i + 1]]`` per segment, exactly
    (int64 prefix sums; empty segments sum to 0)."""
    prefix = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=prefix[1:])
    return prefix[offsets[1:]] - prefix[offsets[:-1]]


class NodeTable:
    """A graph's nodes as read-only columns, one row per node.

    Per node: ``kind`` (int32 index into ``kind_vocab``), ``category`` and
    ``dtype`` (int8 codes into :data:`CATEGORIES` / :data:`DTYPES`; the
    dtype is the node's execution precision, that of its first input, else
    of its first output), the unfused cost ``flops``,
    ``bytes_read``, ``bytes_written`` and ``weight_bytes`` (int64), the
    summed nbytes of its inputs and outputs ``in_bytes``/``out_bytes``, the
    flags ``metadata_only``, ``placeholder``, ``forces_sync`` and
    ``is_custom``, ``eager_kernels`` and ``traffic_passes`` (int32), and its
    qualified name in ``names`` (an object array of str).

    Per value: ``value_nbytes``.  Edges, as CSR (int32): node ``i`` reads
    values ``in_values[in_offsets[i]:in_offsets[i + 1]]`` in argument
    order, and value ``v`` is read by nodes
    ``use_nodes[use_offsets[v]:use_offsets[v + 1]]`` in node order (a node
    reading a value twice is listed twice).  ``outputs`` holds the graph
    outputs' value indices.
    """

    __slots__ = (
        "kind_vocab", "kind", "category", "dtype",
        "flops", "bytes_read", "bytes_written", "weight_bytes",
        "in_bytes", "out_bytes",
        "metadata_only", "placeholder", "forces_sync", "is_custom",
        "eager_kernels", "traffic_passes", "names",
        "out_offsets", "value_nbytes", "in_offsets", "in_values",
        "use_offsets", "use_nodes", "outputs",
    )

    def __init__(self, **columns: object):
        for name in self.__slots__:
            value = columns[name]
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(self, name, value)

    @property
    def num_nodes(self) -> int:
        return len(self.names)

    @property
    def num_values(self) -> int:
        return len(self.value_nbytes)

    def value_node(self) -> np.ndarray:
        """The producing node of every value."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int32), np.diff(self.out_offsets)
        )

    def edge_node(self) -> np.ndarray:
        """The consuming node of every input edge (aligned with ``in_values``)."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int32), np.diff(self.in_offsets)
        )

    def is_output(self) -> np.ndarray:
        """Per value: True for the graph outputs."""
        mask = np.zeros(self.num_values, dtype=bool)
        mask[self.outputs] = True
        return mask

    def sole_consumers(self) -> np.ndarray:
        """Per node, the one node that reads its one output, else -1.

        A node qualifies when it has a single output, that output is not a
        graph output, and exactly one input edge reads it.
        """
        out_counts = np.diff(self.out_offsets)
        single = np.flatnonzero(out_counts == 1)
        value = self.out_offsets[single]
        starts = self.use_offsets[value]
        sole = (self.use_offsets[value + 1] - starts == 1) & ~self.is_output()[value]
        result = np.full(self.num_nodes, -1, dtype=np.int64)
        result[single[sole]] = self.use_nodes[starts[sole]]
        return result


def freeze_graph(graph: "Graph") -> NodeTable:
    """Build ``graph``'s :class:`NodeTable`: the one per-node walk.

    Raises :class:`~repro.errors.PlanError` when a node's cost, or the
    graph's summed costs, do not fit int64 (the kernel table's width).
    """
    nodes = graph.nodes
    n = len(nodes)
    ops = [node.op for node in nodes]
    inputs = [node.inputs for node in nodes]
    outputs = [node.outputs for node in nodes]
    names = list(map(attrgetter("qualified_name"), nodes))

    out_offsets = _offsets(map(len, outputs), n)
    in_offsets = _offsets(map(len, inputs), n)
    specs = list(chain.from_iterable(outputs))
    edges = list(chain.from_iterable(inputs))
    try:
        value_nbytes = np.array(list(map(attrgetter("nbytes"), specs)), dtype=np.int64)
    except OverflowError:
        raise PlanError(f"graph {graph.name!r}: a tensor's size exceeds int64") from None
    value_dtype = np.fromiter(
        map(_DTYPE_BY_ID.__getitem__, map(id, map(attrgetter("dtype"), specs))),
        np.int8,
        len(specs),
    )
    in_values = (
        out_offsets[np.fromiter(map(itemgetter(0), edges), np.int32, len(edges))]
        + np.fromiter(map(itemgetter(1), edges), np.int32, len(edges))
    )
    in_bytes = segment_sum(value_nbytes[in_values], in_offsets)
    out_bytes = segment_sum(value_nbytes, out_offsets)
    # the execution dtype: the first input's, else the first output's (a
    # trailing 0 stands in for a node with neither).
    first_input = np.append(in_values, 0)[in_offsets[:-1]]
    first_value = np.where(np.diff(in_offsets) > 0, first_input, out_offsets[:-1])
    dtype = np.append(value_dtype, np.int8(0))[first_value]

    kinds, categories, metadata_only, forces_sync, is_custom, eager, passes = (
        zip(*map(_OP_FIELDS, ops)) if n else ((),) * 7
    )
    kind_code = {kind: code for code, kind in enumerate(dict.fromkeys(kinds))}
    metadata_only = np.array(metadata_only, dtype=bool)

    # operator classes that keep the stock weightless / streaming-cost
    # behavior are answered on the columns; only the others are asked.
    types = list(map(type, ops))
    weighted = {
        t for t in set(types)
        if t.weight_specs is not Operator.weight_specs
        or t.weight_bytes is not Operator.weight_bytes
    }
    own_cost = {t for t in set(types) if t.cost is not Operator.cost}
    has_weights = np.fromiter(map(weighted.__contains__, types), bool, n)
    asked = np.flatnonzero(np.fromiter(map(own_cost.__contains__, types), bool, n)).tolist()
    # the stock cost streams inputs in and outputs out with zero flops; an
    # own cost model is called with the spec lists ``op.cost`` takes.
    asked_costs = [
        ops[i].cost([value.spec for value in inputs[i]], list(outputs[i])) for i in asked
    ]
    try:
        weight_bytes = np.zeros(n, dtype=np.int64)
        weight_bytes[has_weights] = [
            op.weight_bytes() for op in itertools.compress(ops, has_weights.tolist())
        ]
        streamed = ~metadata_only
        flops = np.zeros(n, dtype=np.int64)
        bytes_read = np.where(streamed, in_bytes + weight_bytes, 0)
        bytes_written = np.where(streamed, out_bytes, 0)
        if asked:
            own = np.array(asked_costs, dtype=np.int64).reshape(len(asked), 3)
            flops[asked], bytes_read[asked], bytes_written[asked] = own.T
    except OverflowError:
        raise PlanError(f"graph {graph.name!r}: a node's cost exceeds int64") from None

    traffic_passes = np.array(passes, dtype=np.int32)
    columns = (flops, bytes_read, bytes_written, weight_bytes, in_bytes, out_bytes)
    total = sum(float(column.sum(dtype=np.float64)) for column in columns)
    if total * max(int(traffic_passes.max(initial=1)), 1) >= _SUM_BOUND:
        raise PlanError(f"graph {graph.name!r}: summed costs exceed int64")

    # consumers: a stable sort of the edges by value keeps node order.
    order = np.argsort(in_values, kind="stable")
    edge_node = np.repeat(np.arange(n, dtype=np.int32), np.diff(in_offsets))
    use_offsets = np.zeros(len(specs) + 1, dtype=np.int32)
    np.cumsum(np.bincount(in_values, minlength=len(specs)), out=use_offsets[1:])
    output_values = [int(out_offsets[value.node_id]) + value.port for value in graph.outputs]

    return NodeTable(
        kind_vocab=tuple(kind_code),
        kind=np.fromiter(map(kind_code.__getitem__, kinds), np.int32, n),
        category=np.fromiter(map(_CATEGORY_BY_ID.__getitem__, map(id, categories)), np.int8, n),
        dtype=dtype.astype(np.int8, copy=False),
        flops=flops,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        weight_bytes=weight_bytes,
        in_bytes=in_bytes,
        out_bytes=out_bytes,
        metadata_only=metadata_only,
        placeholder=np.fromiter(map(attrgetter("is_placeholder"), nodes), bool, n),
        forces_sync=np.array(forces_sync, dtype=bool),
        is_custom=np.array(is_custom, dtype=bool),
        eager_kernels=np.array(eager, dtype=np.int32),
        traffic_passes=traffic_passes,
        names=np.array(names, dtype=object),
        out_offsets=out_offsets,
        value_nbytes=value_nbytes,
        in_offsets=in_offsets,
        in_values=in_values.astype(np.int32, copy=False),
        use_offsets=use_offsets,
        use_nodes=edge_node[order],
        outputs=np.array(output_values, dtype=np.int32),
    )


def _offsets(counts, n: int) -> np.ndarray:
    """CSR offsets (int32, ``n + 1`` entries) of per-row counts."""
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.fromiter(counts, np.int32, n), out=offsets[1:])
    return offsets
