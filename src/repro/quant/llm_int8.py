"""LLM.int8()-style post-training quantization as a graph transform.

Rewrites every large-enough Linear layer of a floating-point graph into the
mixed-precision decomposition of Dettmers et al.:

    x ──► Quantize ──► Int8Linear ──► Dequantize ──► × weight-scale ──► (+bias)
     │                                                              ▲
     └──► outlier columns (Slice) ──► fp16 Linear ─────────────────┘

plus the outlier-detection arithmetic (abs/threshold/reduce) that runs
before each quantized matmul.  Every inserted Quantize/Dequantize lands in
the paper's "Q/DQ" operator group and every scale/add in "Element-wise
Arithmetic" — the added non-GEMM work whose growth with sequence length
Fig. 9 charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import ops
from repro.ir.dtype import DType
from repro.ir.graph import Graph, collector_paused
from repro.ir.node import Node, Value
from repro.ops.gemm import Linear


@dataclass
class QuantizationStats:
    """Accounting of what the pass changed (paper: "6510 additional operators")."""

    linears_quantized: int = 0
    linears_kept_fp: int = 0
    ops_before: int = 0
    ops_after: int = 0
    qdq_ops_added: int = 0
    elementwise_ops_added: int = 0

    @property
    def ops_added(self) -> int:
        return self.ops_after - self.ops_before


@dataclass
class QuantizedModel:
    """Result of the pass: the rewritten graph plus its accounting."""

    graph: Graph
    stats: QuantizationStats = field(default_factory=QuantizationStats)


@collector_paused()
def quantize_llm_int8(
    graph: Graph,
    min_features: int = 1024,
    outlier_fraction: float = 0.002,
    compute_dtype: DType = DType.F16,
) -> QuantizedModel:
    """Apply LLM.int8() to ``graph``, returning a rewritten copy.

    Linears with either dimension below ``min_features`` stay in floating
    point (LLM.int8() quantizes "more than 99% of linear layers" — the tiny
    projection heads are the exception).
    """
    graph.validate()
    new = Graph(f"{graph.name}-int8")
    stats = QuantizationStats(ops_before=len(graph.compute_nodes()))
    mapping: dict[tuple[int, int], Value] = {}

    for node in graph.nodes:
        if node.is_placeholder:
            mapping[(node.node_id, 0)] = new.input(node.outputs[0], node.name)
            continue
        inputs = [mapping[(v.node_id, v.port)] for v in node.inputs]
        if _should_quantize(node, min_features):
            out = _emit_int8_linear(new, node, inputs[0], outlier_fraction, compute_dtype, stats)
            mapping[(node.node_id, 0)] = out
            stats.linears_quantized += 1
            continue
        if isinstance(node.op, Linear):
            stats.linears_kept_fp += 1
        result = new.call(node.op, *inputs, name=node.name)
        # Value is itself a (named) tuple, so test for it, not for tuple-ness.
        values = (result,) if isinstance(result, Value) else result
        for port, value in enumerate(values):
            mapping[(node.node_id, port)] = value

    new.set_outputs(*[mapping[(v.node_id, v.port)] for v in graph.outputs])
    stats.ops_after = len(new.compute_nodes())
    return QuantizedModel(graph=new, stats=stats)


def _should_quantize(node: Node, min_features: int) -> bool:
    op = node.op
    return (
        isinstance(op, Linear)
        and op.in_features >= min_features
        and op.out_features >= min_features
    )


def _emit_int8_linear(
    g: Graph,
    node: Node,
    x: Value,
    outlier_fraction: float,
    compute_dtype: DType,
    stats: QuantizationStats,
) -> Value:
    op: Linear = node.op  # type: ignore[assignment]
    in_f, out_f = op.in_features, op.out_features
    outlier_cols = max(1, int(in_f * outlier_fraction))
    name = node.name

    # outlier detection: abs -> column max -> threshold compare
    magnitude = g.call(ops.Abs(), x, name=f"{name}_absmax")
    col_max = g.call(ops.Max(-2, keepdim=True), magnitude, name=f"{name}_colmax")
    threshold = g.call(
        ops.Constant(col_max.spec.shape, compute_dtype, name="outlier_threshold"),
        name=f"{name}_threshold",
    )
    _ = g.call(ops.Sub(), col_max, threshold, name=f"{name}_outlier_mask")
    stats.elementwise_ops_added += 3

    # int8 path: rowwise quantize, int8 GEMM, dequantize, weight scale
    q, sx = g.call(ops.Quantize(), x, name=f"{name}_quantize")
    acc = g.call(ops.Int8Linear(in_f, out_f), q, name=f"{name}_int8")
    deq = g.call(ops.Dequantize(compute_dtype), acc, sx, name=f"{name}_dequantize")
    w_scale = g.call(
        ops.Constant((1, out_f), compute_dtype, name="weight_scale"), name=f"{name}_wscale"
    )
    y = g.call(ops.Mul(), deq, w_scale, name=f"{name}_apply_wscale")
    stats.qdq_ops_added += 2
    stats.elementwise_ops_added += 1

    # fp16 outlier path: slice the outlier columns and matmul in fp16
    lo = g.call(ops.Slice(-1, 0, outlier_cols), x, name=f"{name}_outlier_slice")
    fp = g.call(
        ops.Linear(outlier_cols, out_f, bias=False, dtype=compute_dtype),
        lo,
        name=f"{name}_outlier_fp16",
    )
    y = g.call(ops.Add(), y, fp, name=f"{name}_merge_outliers")
    stats.elementwise_ops_added += 1

    if op.bias:
        bias = g.call(
            ops.Constant((1, out_f), compute_dtype, name="bias"), name=f"{name}_bias"
        )
        y = g.call(ops.Add(), y, bias, name=f"{name}_add_bias")
        stats.elementwise_ops_added += 1
    return y
