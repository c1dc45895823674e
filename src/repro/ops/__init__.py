"""The benchmark's operator library.

Every operator implements shape inference (graph building), numpy execution
(reference semantics), and FLOP/byte cost (latency modelling).  See
:mod:`repro.ops.base` for the contract.
"""

from repro.ops.activation import GELU, HardSwish, ReLU, Sigmoid, SiLU, Tanh
from repro.ops.base import (
    MISC_LIKE,
    InputOp,
    OpCategory,
    OpCost,
    Operator,
    WeightSpec,
)
from repro.ops.elementwise import (
    Abs,
    Add,
    AddScalar,
    Div,
    DivScalar,
    Exp,
    Maximum,
    Mul,
    MulScalar,
    Neg,
    PowScalar,
    Rsqrt,
    Sqrt,
    Sub,
)
from repro.ops.embedding import Embedding
from repro.ops.gemm import BMM, Conv1DGPT, Conv2d, Linear, MatMul
from repro.ops.interpolation import Interpolate
from repro.ops.logits import LogSoftmax, Softmax
from repro.ops.memory import (
    Concat,
    Contiguous,
    Expand,
    Pad,
    Permute,
    Reshape,
    Roll,
    Slice,
    Split,
    Squeeze,
    Transpose,
    Unsqueeze,
    View,
)
from repro.ops.misc import (
    Cast,
    Constant,
    Gather,
    IndexAdd,
    MaskedFill,
    Nonzero,
    TopK,
    Tril,
    Where,
)
from repro.ops.normalization import (
    BatchNorm2d,
    FrozenBatchNorm2d,
    GroupNorm,
    LayerNorm,
    RMSNorm,
)
from repro.ops.pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d
from repro.ops.quantized import Dequantize, Int8Linear, Quantize
from repro.ops.reduction import ArgMax, Max, Mean, Sum
from repro.ops.roi import NMS, RoIAlign

__all__ = [
    "MISC_LIKE",
    "InputOp",
    "OpCategory",
    "OpCost",
    "Operator",
    "WeightSpec",
    # gemm
    "BMM",
    "Conv1DGPT",
    "Conv2d",
    "Linear",
    "MatMul",
    # activation
    "GELU",
    "HardSwish",
    "ReLU",
    "SiLU",
    "Sigmoid",
    "Tanh",
    # normalization
    "BatchNorm2d",
    "FrozenBatchNorm2d",
    "GroupNorm",
    "LayerNorm",
    "RMSNorm",
    # memory
    "Concat",
    "Contiguous",
    "Expand",
    "Pad",
    "Permute",
    "Reshape",
    "Roll",
    "Slice",
    "Split",
    "Squeeze",
    "Transpose",
    "Unsqueeze",
    "View",
    # elementwise
    "Abs",
    "Add",
    "AddScalar",
    "Div",
    "DivScalar",
    "Exp",
    "Maximum",
    "Mul",
    "MulScalar",
    "Neg",
    "PowScalar",
    "Rsqrt",
    "Sqrt",
    "Sub",
    # logit
    "LogSoftmax",
    "Softmax",
    # roi / interpolation / pooling
    "NMS",
    "RoIAlign",
    "Interpolate",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "MaxPool2d",
    # reduction / embedding / misc
    "ArgMax",
    "Max",
    "Mean",
    "Sum",
    "Embedding",
    "Cast",
    "Constant",
    "Gather",
    "IndexAdd",
    "MaskedFill",
    "Nonzero",
    "TopK",
    "Tril",
    "Where",
    # quantized
    "Dequantize",
    "Int8Linear",
    "Quantize",
]
