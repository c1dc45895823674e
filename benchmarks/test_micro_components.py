"""Micro-benchmarks of the library itself: graph build, lowering, simulation.

These measure the *framework's* throughput (not the simulated hardware), so
regressions in the IR or flows show up here.
"""

import itertools

import pytest

from repro.flows import PyTorchEagerFlow, TensorRTFlow
from repro.hardware import PLATFORM_A
from repro.models import build_model
from repro.profiler import profile_graph
from repro.runtime import simulate


@pytest.fixture(scope="module")
def gpt2_graph():
    return build_model("gpt2", batch_size=1)


@pytest.fixture(scope="module")
def swin_graph():
    return build_model("swin-b", batch_size=1)


def test_build_gpt2_graph(benchmark):
    graph = benchmark(lambda: build_model("gpt2", batch_size=1))
    assert len(graph.compute_nodes()) > 300


def test_build_mask_rcnn_graph(benchmark):
    graph = benchmark(lambda: build_model("mask-rcnn", batch_size=1))
    assert len(graph.compute_nodes()) > 300


def test_lower_eager(benchmark, gpt2_graph):
    flow = PyTorchEagerFlow()
    plan = benchmark(lambda: flow.lower(gpt2_graph, use_gpu=True))
    assert plan.num_kernels == len(gpt2_graph.compute_nodes())


def test_lower_tensorrt_with_fusion(benchmark, swin_graph):
    flow = TensorRTFlow()
    plan = benchmark(lambda: flow.lower(swin_graph, use_gpu=True))
    assert plan.num_fused_kernels > 0


def test_simulate_plan(benchmark, gpt2_graph):
    plan = PyTorchEagerFlow().lower(gpt2_graph, use_gpu=True)
    result = benchmark(lambda: simulate(plan, PLATFORM_A))
    assert result.total_latency_s > 0


def test_full_profile_pipeline(benchmark, gpt2_graph):
    # profiles are memoized, so each round takes its own seed: round 1 lowers
    # and simulates, later rounds hit the plan and simulate
    seeds = itertools.count()
    result = benchmark.pedantic(
        lambda: profile_graph(
            gpt2_graph, PyTorchEagerFlow(), PLATFORM_A, use_gpu=True, iterations=5,
            seed=next(seeds),
        ),
        rounds=3,
        iterations=1,
    )
    assert result.num_kernels > 0
