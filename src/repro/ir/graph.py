"""The operator graph: an append-only DAG in topological order.

Graphs are built by model builders (:mod:`repro.models`) through
:meth:`Graph.input` and :meth:`Graph.call`, transformed by deployment flows
(fusion, quantization), and consumed by the executor, simulator, and
profiler.  Because nodes can only reference values created earlier, the node
list is always a valid topological order.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.ir.node import Node, Value
from repro.ir.table import NodeTable, freeze_graph
from repro.ir.tensor import TensorSpec
from repro.ops.base import InputOp, OpCategory, Operator


def derived_hash(tag: str, parent_hash: str) -> str:
    """The content hash of a graph produced by deterministic derivation.

    Shared by :meth:`Graph.derive_content_hash` and the sweep cache's lazy
    :class:`~repro.sweep.cache.GraphRef`, which must be able to name a
    registry build's hash *without* building the graph.
    """
    return hashlib.blake2b(f"{tag}:{parent_hash}".encode(), digest_size=16).hexdigest()


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the block (or, as
    ``@collector_paused()``, for each call of the decorated function).

    Building, lowering and rewriting a graph allocate objects in bursts that
    trigger full collections, each walking every cached graph and plan, yet
    these layers create no reference cycles, so those collections free
    nothing.  A no-op when the collector is already off, by the caller's
    choice or an enclosing pause: only the outermost pause re-enables it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class GraphStats:
    """Aggregate statistics of a graph, used by the workload report."""

    num_nodes: int
    num_inputs: int
    num_params: int
    op_counts: dict[str, int]
    category_counts: dict[OpCategory, int]

    @property
    def gemm_op_count(self) -> int:
        return self.category_counts.get(OpCategory.GEMM, 0)

    @property
    def non_gemm_op_count(self) -> int:
        return sum(c for cat, c in self.category_counts.items() if not cat.is_gemm)


class Graph:
    """A dataflow graph of ML operators.

    ``name`` identifies the model; ``scope`` tracking gives every node a
    hierarchical qualified name (e.g. ``encoder.block3/gelu``) that survives
    into profiling reports.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: list[Node] = []
        self.input_ids: list[int] = []
        self.outputs: list[Value] = []
        self._scope_parts: list[str] = []
        self._scope_str = ""
        self._name_counts: Counter[tuple[str, str]] = Counter()
        #: memoized structural state; any mutation resets all (see _mutated).
        #: ``_has_memo`` tracks whether any of it is populated, so the
        #: per-append invalidation during bulk construction is one flag read
        #: instead of four attribute writes.
        self._has_memo = False
        self._validated = False
        self._content_hash: str | None = None
        self._table: NodeTable | None = None
        self._compute_nodes: list[Node] | None = None

    # -- construction ------------------------------------------------------

    def input(self, spec: TensorSpec, name: str = "input") -> Value:
        """Add a graph input placeholder and return its value."""
        node = self._append(InputOp(spec, name), (), name)
        self.input_ids.append(node.node_id)
        return node.value()

    def call(self, op: Operator, *args: Value, name: str | None = None) -> Value | tuple[Value, ...]:
        """Apply ``op`` to ``args``; returns one Value, or a tuple for multi-output ops."""
        node = self._append(op, args, name or op.kind)
        outputs = node.outputs
        if len(outputs) == 1:  # overwhelmingly common: skip the tuple round trip
            return Value(node.node_id, 0, outputs[0])
        return node.values()

    def set_outputs(self, *values: Value) -> None:
        for value in values:
            self._check_value(value)
        self.outputs = list(values)
        self._mutated()

    @contextlib.contextmanager
    def scope(self, part: str) -> Iterator[None]:
        """Push a scope component onto the hierarchical name stack."""
        self._scope_parts.append(part)
        self._scope_str = ".".join(self._scope_parts)
        try:
            yield
        finally:
            self._scope_parts.pop()
            self._scope_str = ".".join(self._scope_parts)

    def _append(self, op: Operator, args: Sequence[Value], name: str) -> Node:
        nodes = self.nodes
        count = len(nodes)
        for value in args:
            # inline fast path of _check_value: values minted by Node.value()
            # share the producer's spec object, so bounds + one identity
            # comparison settle the overwhelmingly common case.
            if (
                0 <= value.node_id < count
                and 0 <= value.port < len(nodes[value.node_id].outputs)
                and nodes[value.node_id].outputs[value.port] is value.spec
            ):
                continue
            self._check_value(value)
        out_specs = op.infer_spec([v.spec for v in args])
        node = Node(
            node_id=count,
            op=op,
            inputs=tuple(args),
            outputs=tuple(out_specs),
            name=self._unique_name(name),
            scope=self._scope_str,
        )
        nodes.append(node)
        if self._has_memo:
            self._mutated()
        return node

    def _mutated(self) -> None:
        if not self._has_memo:
            return
        self._has_memo = False
        self._validated = False
        self._content_hash = None
        self._table = None
        self._compute_nodes = None

    def _unique_name(self, base: str) -> str:
        key = (self._scope_str, base)
        count = self._name_counts[key] + 1
        self._name_counts[key] = count
        return base if count == 1 else f"{base}_{count}"

    def _check_value(self, value: Value) -> None:
        if not 0 <= value.node_id < len(self.nodes):
            raise GraphError(f"value {value} references unknown node")
        node = self.nodes[value.node_id]
        if not 0 <= value.port < len(node.outputs):
            raise GraphError(f"value {value} references invalid port of {node}")
        spec = node.outputs[value.port]
        # identity fast path: values minted by Node.value() share the spec object
        if spec is not value.spec and spec != value.spec:
            raise GraphError(f"value {value} spec disagrees with producer {node}")

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    @property
    def input_nodes(self) -> list[Node]:
        return [self.nodes[i] for i in self.input_ids]

    def materialize(self) -> "Graph":
        """This graph; mirrors :class:`~repro.sweep.cache.GraphRef` so cache
        consumers can handle built graphs and lazy references uniformly."""
        return self

    def compute_nodes(self) -> list[Node]:
        """All nodes except input placeholders (memoized; treat as read-only)."""
        if self._compute_nodes is None:
            self._compute_nodes = [n for n in self.nodes if not n.is_placeholder]
            self._has_memo = True
        return self._compute_nodes

    def freeze(self) -> NodeTable:
        """The graph as a :class:`~repro.ir.table.NodeTable` of columns.

        Built in one walk of the nodes and memoized until the next mutation,
        like every structural memo here; fusion, kernel construction, plan
        validation and memory profiling all read it.
        """
        if self._table is None:
            self._table = freeze_graph(self)
            self._has_memo = True
        return self._table

    def consumers(self) -> dict[tuple[int, int], list[int]]:
        """Map (node_id, port) -> ids of nodes consuming that value.

        A view of the node table's consumer edges, built per call; the
        lowering walks read the table itself.
        """
        table = self.freeze()
        used = np.flatnonzero(np.diff(table.use_offsets))
        producers = table.value_node()[used]
        ports = used - table.out_offsets[producers]
        users = np.split(table.use_nodes, table.use_offsets[used[1:]])
        keys = zip(producers.tolist(), ports.tolist())
        return dict(zip(keys, map(np.ndarray.tolist, users)))

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on violation.

        The full walk runs once per structural version of the graph: a passing
        validation is memoized and any mutation (node append, output change)
        resets the flag, so flows, plans, and executors can all call
        ``validate()`` defensively without paying for repeated walks.
        """
        if self._validated:
            return
        for i, node in enumerate(self.nodes):
            if node.node_id != i:
                raise GraphError(f"node id {node.node_id} at position {i}")
            for value in node.inputs:
                if value.node_id >= i:
                    raise GraphError(f"node {node} consumes a later value {value} (cycle)")
                self._check_value(value)
        if not self.outputs:
            raise GraphError(f"graph {self.name!r} has no outputs")
        for value in self.outputs:
            self._check_value(value)
        self._validated = True
        self._has_memo = True

    def content_hash(self) -> str:
        """Structural fingerprint of the graph, memoized until mutation.

        Covers everything the lowering and cost pipeline reads: per node the
        operator identity (kind, configuration via ``describe``, category,
        kernel-count/custom/metadata flags, weight size summary), input wiring,
        output specs, and qualified name, plus the graph outputs.  Two graphs
        with equal hashes lower to equivalent plans under any flow, which is
        what makes the hash a safe memoization key for
        :class:`~repro.sweep.cache.PlanCache`.
        """
        if self._content_hash is None:
            parts = [self.name]
            for node in self.nodes:
                op = node.op
                parts.append(
                    f"{node.name}|{node.scope}|{op.kind}|{op.describe()}"
                    f"|{op.category.name}"
                    f"|{int(op.is_metadata_only)}{op.eager_kernels}{op.traffic_passes}"
                    f"{int(op.is_custom_kernel)}{int(op.forces_sync)}"
                    f"|{[(v[0], v[1]) for v in node.inputs]}"
                    f"|{[(s.shape, s.dtype.name) for s in node.outputs]}"
                    f"|{op.param_count()},{op.weight_bytes()}"
                )
            parts.append(str([(v[0], v[1]) for v in self.outputs]))
            digest = hashlib.blake2b("\x00".join(parts).encode(), digest_size=16)
            self._content_hash = digest.hexdigest()
            self._has_memo = True
        return self._content_hash

    def derive_content_hash(self, tag: str, parent_hash: str) -> str:
        """Record this graph's content hash as a derivation of a parent's.

        For graphs produced by a *deterministic* transform of a parent graph
        (e.g. the LLM.int8() rewrite), ``hash(tag, parent)`` identifies the
        structure exactly as well as re-walking it, at none of the cost.
        """
        self._content_hash = derived_hash(tag, parent_hash)
        self._has_memo = True
        return self._content_hash

    def stats(self) -> GraphStats:
        op_counts: Counter[str] = Counter()
        category_counts: Counter[OpCategory] = Counter()
        params = 0
        for node in self.compute_nodes():
            op_counts[node.op.kind] += 1
            category_counts[node.op.category] += 1
            params += node.op.param_count()
        return GraphStats(
            num_nodes=len(self.compute_nodes()),
            num_inputs=len(self.input_ids),
            num_params=params,
            op_counts=dict(op_counts),
            category_counts=dict(category_counts),
        )

    def param_count(self) -> int:
        return sum(node.op.param_count() for node in self.nodes)

    def __str__(self) -> str:
        lines = [f"graph {self.name} ({len(self.nodes)} nodes)"]
        lines.extend(f"  {node}" for node in self.nodes)
        outs = ", ".join(str(v) for v in self.outputs)
        lines.append(f"  return {outs}")
        return "\n".join(lines)
