"""GEMM-based operators: Linear, Conv2d, GPT-2 Conv1D, BMM, MatMul.

These are the operators whose inner loop is a perfectly-nested
multiply-and-accumulate; the paper's GEMM/non-GEMM split puts exactly this
family on the GEMM side.  FLOP counts follow the 1 MAC = 2 FLOPs convention.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.ir.dtype import DType
from repro.ir.tensor import TensorSpec
from repro.ops.base import OpCategory, OpCost, Operator, WeightSpec


class Linear(Operator):
    """Fully-connected layer: ``y = x @ W.T + b`` over the last dimension."""

    kind = "linear"
    category = OpCategory.GEMM

    def __init__(self, in_features: int, out_features: int, bias: bool = True, dtype: DType = DType.F32):
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("linear features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.bias = bias
        self.dtype = dtype

    def infer_spec(self, inputs: Sequence[TensorSpec]) -> tuple[TensorSpec, ...]:
        self._expect_inputs(inputs, 1, self.kind)
        (x,) = inputs
        if x.rank < 1 or x.shape[-1] != self.in_features:
            raise ShapeError(
                f"linear expects last dim {self.in_features}, got shape {x.shape}"
            )
        return (x.with_shape(x.shape[:-1] + (self.out_features,)),)

    def weight_specs(self) -> tuple[WeightSpec, ...]:
        specs = [WeightSpec("weight", (self.out_features, self.in_features), self.dtype)]
        if self.bias:
            specs.append(WeightSpec("bias", (self.out_features,), self.dtype))
        return tuple(specs)

    def run(self, inputs: Sequence[np.ndarray], weights: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
        (x,) = inputs
        y = x @ weights["weight"].T
        if self.bias:
            y = y + weights["bias"]
        return (y.astype(x.dtype, copy=False),)

    def cost(self, inputs: Sequence[TensorSpec], outputs: Sequence[TensorSpec]) -> OpCost:
        rows = inputs[0].numel // self.in_features
        flops = 2 * rows * self.in_features * self.out_features
        if self.bias:
            flops += rows * self.out_features
        return OpCost(
            flops=flops,
            bytes_read=inputs[0].nbytes + self.weight_bytes(),
            bytes_written=outputs[0].nbytes,
        )

    def describe(self) -> str:
        return f"linear({self.in_features}->{self.out_features}{', bias' if self.bias else ''})"


class Conv1DGPT(Linear):
    """GPT-2's ``Conv1D``: a Linear with transposed weight storage.

    HuggingFace GPT-2 uses this op for attention/MLP projections; it appears
    in profiles under its own name, so it keeps a distinct ``kind``.
    """

    kind = "conv1d"

    def weight_specs(self) -> tuple[WeightSpec, ...]:
        specs = [WeightSpec("weight", (self.in_features, self.out_features), self.dtype)]
        if self.bias:
            specs.append(WeightSpec("bias", (self.out_features,), self.dtype))
        return tuple(specs)

    def run(self, inputs: Sequence[np.ndarray], weights: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
        (x,) = inputs
        y = x @ weights["weight"]
        if self.bias:
            y = y + weights["bias"]
        return (y.astype(x.dtype, copy=False),)


class Conv2d(Operator):
    """2D convolution over NCHW tensors, with stride/padding/groups."""

    kind = "conv2d"
    category = OpCategory.GEMM

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        groups: int = 1,
        bias: bool = True,
        dtype: DType = DType.F32,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = groups
        self.bias = bias
        self.dtype = dtype
        if in_channels % groups or out_channels % groups:
            raise ShapeError("conv2d channels must be divisible by groups")

    def infer_spec(self, inputs: Sequence[TensorSpec]) -> tuple[TensorSpec, ...]:
        self._expect_inputs(inputs, 1, self.kind)
        (x,) = inputs
        if x.rank != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"conv2d expects NCHW with C={self.in_channels}, got {x.shape}")
        n, _, h, w = x.shape
        ho = _conv_out(h, self.kernel_size[0], self.stride[0], self.padding[0])
        wo = _conv_out(w, self.kernel_size[1], self.stride[1], self.padding[1])
        if ho <= 0 or wo <= 0:
            raise ShapeError(f"conv2d output collapses to {ho}x{wo} for input {x.shape}")
        return (x.with_shape((n, self.out_channels, ho, wo)),)

    def weight_specs(self) -> tuple[WeightSpec, ...]:
        kh, kw = self.kernel_size
        specs = [
            WeightSpec(
                "weight",
                (self.out_channels, self.in_channels // self.groups, kh, kw),
                self.dtype,
            )
        ]
        if self.bias:
            specs.append(WeightSpec("bias", (self.out_channels,), self.dtype))
        return tuple(specs)

    def run(self, inputs: Sequence[np.ndarray], weights: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
        (x,) = inputs
        weight = weights["weight"]
        n, c, h, w = x.shape
        kh, kw = self.kernel_size
        ho = _conv_out(h, kh, self.stride[0], self.padding[0])
        wo = _conv_out(w, kw, self.stride[1], self.padding[1])
        cols = _im2col(x, kh, kw, self.stride, self.padding, ho, wo)
        group_in = c // self.groups
        group_out = self.out_channels // self.groups
        out = np.empty((n, self.out_channels, ho * wo), dtype=x.dtype)
        for g in range(self.groups):
            w_g = weight[g * group_out : (g + 1) * group_out].reshape(group_out, -1)
            cols_g = cols[:, g * group_in * kh * kw : (g + 1) * group_in * kh * kw, :]
            out[:, g * group_out : (g + 1) * group_out, :] = np.einsum(
                "ok,nkp->nop", w_g, cols_g, optimize=True
            )
        y = out.reshape(n, self.out_channels, ho, wo)
        if self.bias:
            y = y + weights["bias"][None, :, None, None]
        return (y.astype(x.dtype, copy=False),)

    def cost(self, inputs: Sequence[TensorSpec], outputs: Sequence[TensorSpec]) -> OpCost:
        n, _, ho, wo = outputs[0].shape
        kh, kw = self.kernel_size
        macs = n * self.out_channels * ho * wo * (self.in_channels // self.groups) * kh * kw
        flops = 2 * macs + (n * self.out_channels * ho * wo if self.bias else 0)
        return OpCost(
            flops=flops,
            bytes_read=inputs[0].nbytes + self.weight_bytes(),
            bytes_written=outputs[0].nbytes,
        )

    def describe(self) -> str:
        kh, kw = self.kernel_size
        return (
            f"conv2d({self.in_channels}->{self.out_channels}, k={kh}x{kw},"
            f" s={self.stride[0]}, p={self.padding[0]}, g={self.groups})"
        )


class BMM(Operator):
    """Batched matrix multiply: ``[B, M, K] x [B, K, N] -> [B, M, N]``.

    Batch dimensions broadcast numpy-style, which covers the attention
    ``QK^T`` and ``PV`` products with a leading (batch, heads) pair.
    """

    kind = "bmm"
    category = OpCategory.GEMM

    def infer_spec(self, inputs: Sequence[TensorSpec]) -> tuple[TensorSpec, ...]:
        self._expect_inputs(inputs, 2, self.kind)
        a, b = inputs
        if a.rank < 2 or b.rank < 2:
            raise ShapeError(f"bmm expects rank>=2 inputs, got {a.shape} x {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"bmm inner dims disagree: {a.shape} x {b.shape}")
        try:
            batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError as exc:
            raise ShapeError(f"bmm batch dims do not broadcast: {a.shape} x {b.shape}") from exc
        return (a.with_shape(tuple(batch) + (a.shape[-2], b.shape[-1])),)

    def run(self, inputs: Sequence[np.ndarray], weights: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
        a, b = inputs
        return (np.matmul(a, b),)

    def cost(self, inputs: Sequence[TensorSpec], outputs: Sequence[TensorSpec]) -> OpCost:
        out = outputs[0]
        k = inputs[0].shape[-1]
        flops = 2 * out.numel * k
        return OpCost(
            flops=flops,
            bytes_read=inputs[0].nbytes + inputs[1].nbytes,
            bytes_written=out.nbytes,
        )


class MatMul(BMM):
    """Alias of BMM under the name deployment flows report for ``@``."""

    kind = "matmul"


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise ShapeError(f"expected int or pair, got {value!r}")
    return pair  # type: ignore[return-value]


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    ho: int,
    wo: int,
) -> np.ndarray:
    """Unfold NCHW input into (N, C*kh*kw, ho*wo) patch columns."""
    n, c = x.shape[:2]
    ph, pw = padding
    sh, sw = stride
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw]
    return cols.reshape(n, c * kh * kw, ho * wo)
