"""Unit tests for the runtime: executor, simulator, memory profiling."""

import numpy as np
import pytest

from repro import ops
from repro.errors import ExecutionError
from repro.flows import PyTorchEagerFlow, TensorRTFlow, get_flow
from repro.hardware import PLATFORM_A, PLATFORM_B, DeviceKind
from repro.ir import DType, Graph, TensorSpec
from repro.runtime import GraphExecutor, profile_memory, run_graph, simulate

from oracles import profile_memory_reference


class TestExecutor:
    def test_runs_tiny_graph(self, tiny_transformer_graph, rng):
        x = rng.normal(size=(2, 8, 32)).astype(np.float32)
        (out,) = run_graph(tiny_transformer_graph, {"x": x})
        assert out.shape == (2, 8, 32)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)  # ends in softmax

    def test_deterministic_given_seed(self, tiny_transformer_graph, rng):
        x = rng.normal(size=(2, 8, 32)).astype(np.float32)
        a = run_graph(tiny_transformer_graph, {"x": x}, seed=3)[0]
        b = run_graph(tiny_transformer_graph, {"x": x}, seed=3)[0]
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_weights(self, tiny_transformer_graph, rng):
        x = rng.normal(size=(2, 8, 32)).astype(np.float32)
        a = run_graph(tiny_transformer_graph, {"x": x}, seed=1)[0]
        b = run_graph(tiny_transformer_graph, {"x": x}, seed=2)[0]
        assert not np.allclose(a, b)

    def test_missing_input_raises(self, tiny_transformer_graph):
        with pytest.raises(ExecutionError, match="missing graph input"):
            run_graph(tiny_transformer_graph, {})

    def test_wrong_shape_raises(self, tiny_transformer_graph):
        with pytest.raises(ExecutionError, match="shape"):
            run_graph(tiny_transformer_graph, {"x": np.zeros((1, 8, 32), np.float32)})

    def test_weight_cache_reused(self, tiny_transformer_graph, rng):
        executor = GraphExecutor(tiny_transformer_graph, seed=0)
        x = rng.normal(size=(2, 8, 32)).astype(np.float32)
        executor.run({"x": x})
        cached = dict(executor._weight_cache)
        executor.run({"x": x})
        for key, value in executor._weight_cache.items():
            assert value is cached[key]

    def test_multi_output_graph(self, rng):
        g = Graph("m")
        x = g.input(TensorSpec((2, 6)), "x")
        a, b = g.call(ops.Split(2, dim=1), x)
        g.set_outputs(a, b)
        outs = run_graph(g, {"x": rng.normal(size=(2, 6)).astype(np.float32)})
        assert len(outs) == 2 and outs[0].shape == (2, 3)

    def test_integer_inputs_cast(self, rng):
        g = Graph("e")
        ids = g.input(TensorSpec((1, 4), DType.I64), "ids")
        g.set_outputs(g.call(ops.Embedding(10, 8), ids))
        (out,) = run_graph(g, {"ids": np.array([[1, 2, 3, 9]])})
        assert out.shape == (1, 4, 8)


class TestSimulator:
    def test_latency_positive_and_summed(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph)
        result = simulate(plan, PLATFORM_A)
        assert result.total_latency_s > 0
        assert result.total_latency_s == pytest.approx(
            sum(r.latency_s for r in result.records)
        )

    def test_gpu_energy_zero_without_gpu(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph, target=DeviceKind.CPU)
        result = simulate(plan, PLATFORM_A.cpu_only())
        assert result.gpu_energy_j == 0.0
        assert result.cpu_energy_j > 0.0

    def test_trt_faster_than_eager(self, tiny_transformer_graph):
        eager = simulate(PyTorchEagerFlow().lower(tiny_transformer_graph), PLATFORM_A)
        trt = simulate(TensorRTFlow().lower(tiny_transformer_graph), PLATFORM_A)
        assert trt.total_latency_s < eager.total_latency_s

    def test_platform_b_differs(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph)
        a = simulate(plan, PLATFORM_A)
        b = simulate(plan, PLATFORM_B)
        assert a.total_latency_s != b.total_latency_s

    def test_fallback_transfer_time_charged(self):
        g = Graph("split")
        x = g.input(TensorSpec((2, 12)), "x")
        a, b, c = g.call(ops.Split(3, dim=1), x)
        g.set_outputs(g.call(ops.Concat(1), a, b, c))
        plan = get_flow("ort").lower(g)
        result = simulate(plan, PLATFORM_A)
        fallback = [r for r in result.records if r.kernel.transfer_bytes_in > 0]
        assert fallback and all(r.transfer_s > 0 for r in fallback)


class TestMemoryProfile:
    def test_weights_counted(self, tiny_transformer_graph):
        profile = profile_memory(tiny_transformer_graph)
        expected_weights = tiny_transformer_graph.param_count() * 4
        assert profile.weight_bytes == expected_weights

    def test_peak_at_least_largest_tensor(self, tiny_transformer_graph):
        profile = profile_memory(tiny_transformer_graph)
        largest = max(
            s.nbytes for n in tiny_transformer_graph.nodes for s in n.outputs
        )
        assert profile.peak_activation_bytes >= largest

    def test_views_add_no_activation_memory(self):
        g = Graph("views")
        x = g.input(TensorSpec((4, 4)), "x")
        h = g.call(ops.Reshape((16,)), x)
        h = g.call(ops.Reshape((2, 8)), h)
        g.set_outputs(h)
        profile = profile_memory(g)
        assert profile.peak_activation_bytes == TensorSpec((4, 4)).nbytes

    @pytest.mark.parametrize("batch_size", (1, 4))
    def test_matches_the_liveness_walk_on_every_model(self, batch_size):
        from repro.models import build_model, list_models

        for entry in list_models():
            graph = build_model(entry.name, batch_size=batch_size)
            profile = profile_memory(graph)
            expected = profile_memory_reference(graph)
            assert (profile.weight_bytes, profile.peak_activation_bytes) == expected, entry.name

    def test_unread_values_are_never_allocated(self):
        g = Graph("unread")
        x = g.input(TensorSpec((2, 12)), "x")
        y = g.call(ops.ReLU(), x)
        out = g.call(ops.Sigmoid(), y)
        g.call(ops.Tanh(), x)  # nothing reads it and it is no output
        g.set_outputs(out)
        profile = profile_memory(g)
        # x, y and the output are live together; the tanh value never is
        assert profile.peak_activation_bytes == 3 * x.spec.nbytes
        assert (profile.weight_bytes, profile.peak_activation_bytes) == (
            profile_memory_reference(g)
        )

    def test_peak_total_includes_weights(self, tiny_transformer_graph):
        profile = profile_memory(tiny_transformer_graph)
        assert profile.peak_total_bytes == profile.weight_bytes + profile.peak_activation_bytes
