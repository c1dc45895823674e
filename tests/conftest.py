"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ir import DType, Graph, TensorSpec
from repro.ops.base import Operator

try:
    from hypothesis import settings
except ImportError:  # only tests/test_properties.py needs it
    settings = None

if settings is not None:
    # CI (GitHub sets ``CI``) draws examples deterministically and prints
    # the reproduction blob of a failure, so a red fuzz run in CI replays
    # locally with ``CI=1``.
    settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def run_op(op: Operator, *arrays: np.ndarray, weights: dict | None = None):
    """Infer specs and execute one operator; asserts shapes agree."""
    specs = [TensorSpec(a.shape, _dtype_of(a)) for a in arrays]
    out_specs = op.infer_spec(specs)
    outputs = op.run(list(arrays), weights or {})
    assert len(outputs) == len(out_specs)
    for out, spec in zip(outputs, out_specs):
        assert tuple(out.shape) == spec.shape, f"{op.kind}: {out.shape} != {spec.shape}"
    return outputs if len(outputs) > 1 else outputs[0]


def _dtype_of(array: np.ndarray) -> DType:
    mapping = {
        np.dtype(np.float32): DType.F32,
        np.dtype(np.float16): DType.F16,
        np.dtype(np.int8): DType.I8,
        np.dtype(np.int32): DType.I32,
        np.dtype(np.int64): DType.I64,
        np.dtype(np.bool_): DType.BOOL,
    }
    return mapping.get(array.dtype, DType.F32)


def make_weights(op: Operator, seed: int = 0) -> dict[str, np.ndarray]:
    """Random weights for an op, respecting spec shapes and dtypes."""
    gen = np.random.default_rng(seed)
    weights = {}
    for spec in op.weight_specs():
        if spec.dtype == DType.I8:
            weights[spec.name] = gen.integers(-8, 8, size=spec.shape, dtype=np.int8)
        elif spec.dtype.is_integer:
            weights[spec.name] = gen.integers(0, 4, size=spec.shape).astype(spec.dtype.to_numpy())
        else:
            data = gen.normal(0, 0.5, size=spec.shape)
            if spec.name == "running_var":
                data = np.abs(data) + 0.5
            weights[spec.name] = data.astype(spec.dtype.to_numpy())
    return weights


@pytest.fixture
def tiny_transformer_graph() -> Graph:
    """A small but non-trivial graph used by flow/runtime/profiler tests."""
    from repro import ops

    g = Graph("tiny")
    x = g.input(TensorSpec((2, 8, 32)), "x")
    h = g.call(ops.LayerNorm(32), x)
    h = g.call(ops.Linear(32, 64), h)
    h = g.call(ops.GELU(), h)
    h = g.call(ops.Linear(64, 32), h)
    h = g.call(ops.Add(), h, x)
    h = g.call(ops.Softmax(-1), h)
    g.set_outputs(h)
    return g
