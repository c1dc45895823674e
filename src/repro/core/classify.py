"""Operator taxonomy: the characteristics columns of the paper's Table I.

Classifies every operator kind by the five structural properties the paper
uses to explain why non-GEMM operators resist GEMM-style optimization:
single-operation, single-operand, non-linearity, dynamicity, and reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.node import Node


@dataclass(frozen=True)
class OpTraits:
    """Structural characteristics of one operator kind (Table I columns)."""

    single_operation: bool
    single_operand: bool
    non_linear: bool
    dynamic: bool
    reduction: bool


_TRAITS: dict[str, OpTraits] = {
    # activations: one elementwise op over one operand; GELU/SiLU non-linear
    "relu": OpTraits(True, True, True, False, False),
    "gelu": OpTraits(True, True, True, False, False),
    "silu": OpTraits(True, True, True, False, False),
    "sigmoid": OpTraits(True, True, True, False, False),
    "tanh": OpTraits(True, True, True, False, False),
    "hardswish": OpTraits(True, True, True, False, False),
    # normalizations: single operand, non-linear (sqrt), reduction over a dim
    "layer_norm": OpTraits(False, True, True, False, True),
    "rms_norm": OpTraits(False, True, True, False, True),
    "batch_norm2d": OpTraits(False, True, True, False, True),
    "frozen_batch_norm2d": OpTraits(False, True, True, False, True),
    "group_norm": OpTraits(False, True, True, False, True),
    # elementwise arithmetic
    "add": OpTraits(True, False, False, False, False),
    "sub": OpTraits(True, False, False, False, False),
    "mul": OpTraits(True, False, False, False, False),
    "div": OpTraits(True, False, False, False, False),
    "maximum": OpTraits(True, False, False, False, False),
    "neg": OpTraits(True, True, False, False, False),
    "abs": OpTraits(True, True, False, False, False),
    "sqrt": OpTraits(True, True, True, False, False),
    "rsqrt": OpTraits(True, True, True, False, False),
    "exp": OpTraits(True, True, True, False, False),
    "add_scalar": OpTraits(True, True, False, False, False),
    "mul_scalar": OpTraits(True, True, False, False, False),
    "div_scalar": OpTraits(True, True, False, False, False),
    "pow_scalar": OpTraits(True, True, True, False, False),
    # memory ops: single op, single operand
    "reshape": OpTraits(True, True, False, False, False),
    "view": OpTraits(True, True, False, False, False),
    "permute": OpTraits(True, True, False, False, False),
    "transpose": OpTraits(True, True, False, False, False),
    "contiguous": OpTraits(True, True, False, False, False),
    "expand": OpTraits(True, True, False, False, False),
    "squeeze": OpTraits(True, True, False, False, False),
    "unsqueeze": OpTraits(True, True, False, False, False),
    "split": OpTraits(True, True, False, False, False),
    "slice": OpTraits(True, True, False, False, False),
    "concat": OpTraits(True, False, False, False, False),
    "roll": OpTraits(True, True, False, False, False),
    "pad": OpTraits(True, True, False, False, False),
    "gather": OpTraits(True, False, False, True, False),
    "index_add": OpTraits(True, False, False, True, False),
    "nonzero": OpTraits(True, True, False, True, False),
    # logit computation: non-linear + dynamic-range + reduction
    "softmax": OpTraits(False, True, True, True, True),
    "log_softmax": OpTraits(False, True, True, True, True),
    # RoI selection: data-dependent control flow
    "nms": OpTraits(False, False, False, True, False),
    "roi_align": OpTraits(False, False, False, True, False),
    # interpolation / pooling / reductions
    "interpolate": OpTraits(False, True, False, False, False),
    "max_pool2d": OpTraits(False, True, False, False, True),
    "avg_pool2d": OpTraits(False, True, False, False, True),
    "adaptive_avg_pool2d": OpTraits(False, True, False, False, True),
    "mean": OpTraits(True, True, False, False, True),
    "sum": OpTraits(True, True, False, False, True),
    "max": OpTraits(True, True, False, False, True),
    "argmax": OpTraits(True, True, False, False, True),
    # misc
    "where": OpTraits(True, False, False, False, False),
    "masked_fill": OpTraits(True, False, False, False, False),
    "tril": OpTraits(True, True, False, False, False),
    "topk": OpTraits(False, True, False, True, False),
    "cast": OpTraits(True, True, False, False, False),
    "embedding": OpTraits(True, False, False, False, False),
    "constant": OpTraits(True, True, False, False, False),
    # quantization
    "quantize": OpTraits(False, True, True, False, True),
    "dequantize": OpTraits(True, False, False, False, False),
}


def traits_for(kind: str) -> OpTraits:
    """Structural traits of an op kind; conservative default when unlisted."""
    return _TRAITS.get(kind, OpTraits(False, False, False, False, False))


def describe_node(node: Node) -> dict[str, object]:
    """One Table I row for a graph node: op, group, traits, example shape."""
    traits = traits_for(node.op.kind)
    shape = list(node.inputs[0].spec.shape) if node.inputs else []
    return {
        "operator": node.op.kind,
        "group": node.op.category.value,
        "single_operation": traits.single_operation,
        "single_operand": traits.single_operand,
        "non_linearity": traits.non_linear,
        "dynamicity": traits.dynamic,
        "reduction": traits.reduction,
        "example_input_shape": shape,
    }
