"""Unit tests for the IR: dtypes, tensor specs, graph construction."""

import gc
import inspect
import sys

import pytest

from repro import ops
from repro.errors import ConfigError, GraphError, ShapeError
from repro.flows import DeploymentFlow, get_flow
from repro.hardware import DeviceKind
from repro.ir import DType, Graph, TensorSpec, broadcast_shapes, normalize_axis
from repro.ir.graph import collector_paused
from repro.models import ModelEntry, build_model, get_model
from repro.quant.llm_int8 import quantize_llm_int8


class TestDType:
    def test_itemsizes(self):
        assert DType.F32.itemsize == 4
        assert DType.F16.itemsize == 2
        assert DType.BF16.itemsize == 2
        assert DType.I8.itemsize == 1
        assert DType.I64.itemsize == 8
        assert DType.BOOL.itemsize == 1

    def test_float_and_int_predicates(self):
        assert DType.F16.is_floating and not DType.F16.is_integer
        assert DType.I32.is_integer and not DType.I32.is_floating
        assert not DType.BOOL.is_floating and not DType.BOOL.is_integer

    def test_bf16_executes_as_float32(self):
        import numpy as np

        assert DType.BF16.to_numpy() == np.dtype(np.float32)
        assert DType.BF16.itemsize == 2  # cost accounting keeps 2 bytes


class TestTensorSpec:
    def test_numel_and_nbytes(self):
        spec = TensorSpec((2, 3, 4), DType.F16)
        assert spec.numel == 24
        assert spec.nbytes == 48
        assert spec.rank == 3

    def test_scalar_spec(self):
        spec = TensorSpec((), DType.I64)
        assert spec.numel == 1
        assert spec.nbytes == 8

    def test_rejects_negative_dims(self):
        with pytest.raises(ShapeError):
            TensorSpec((2, -3))

    def test_with_shape_and_dtype(self):
        spec = TensorSpec((4, 4))
        assert spec.with_shape((2, 8)).shape == (2, 8)
        assert spec.with_dtype(DType.I8).dtype == DType.I8
        assert spec.with_dtype(DType.I8).shape == (4, 4)

    def test_str_format(self):
        assert str(TensorSpec((1, 8, 64), DType.F32)) == "1x8x64:f32"


class TestBroadcast:
    def test_equal_shapes(self):
        assert broadcast_shapes((2, 3), (2, 3)) == (2, 3)

    def test_singleton_expansion(self):
        assert broadcast_shapes((2, 1, 4), (1, 3, 4)) == (2, 3, 4)

    def test_rank_padding(self):
        assert broadcast_shapes((4,), (2, 3, 4)) == (2, 3, 4)

    def test_incompatible(self):
        with pytest.raises(ShapeError):
            broadcast_shapes((2, 3), (2, 4))

    def test_normalize_axis(self):
        assert normalize_axis(-1, 3) == 2
        assert normalize_axis(0, 3) == 0
        with pytest.raises(ShapeError):
            normalize_axis(3, 3)


class TestGraph:
    def test_build_and_validate(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        y = g.call(ops.Linear(4, 8), x)
        g.set_outputs(y)
        g.validate()
        assert len(g) == 2
        assert len(g.compute_nodes()) == 1

    def test_requires_outputs(self):
        g = Graph("t")
        g.input(TensorSpec((1, 4)), "x")
        with pytest.raises(GraphError):
            g.validate()

    def test_unique_names_within_scope(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        a = g.call(ops.ReLU(), x, name="act")
        b = g.call(ops.ReLU(), a, name="act")
        names = [n.name for n in g.compute_nodes()]
        assert names == ["act", "act_2"]

    def test_scopes_produce_qualified_names(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        with g.scope("enc"):
            with g.scope("layer0"):
                y = g.call(ops.ReLU(), x)
        assert g.nodes[y.node_id].qualified_name == "enc.layer0/relu"

    def test_multi_output_values(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 6)), "x")
        a, b, c = g.call(ops.Split(3, dim=1), x)
        assert a.spec.shape == (1, 2)
        assert (a.port, b.port, c.port) == (0, 1, 2)
        g.set_outputs(a, b, c)
        g.validate()

    def test_rejects_foreign_values(self):
        g1 = Graph("a")
        x1 = g1.input(TensorSpec((1, 4)), "x")
        g2 = Graph("b")
        g2.input(TensorSpec((2, 2)), "y")
        with pytest.raises(GraphError):
            g2.call(ops.ReLU(), x1)

    def test_stats_counts_categories_and_params(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        y = g.call(ops.Linear(4, 8), x)
        y = g.call(ops.ReLU(), y)
        g.set_outputs(y)
        stats = g.stats()
        assert stats.gemm_op_count == 1
        assert stats.non_gemm_op_count == 1
        assert stats.num_params == 4 * 8 + 8

    def test_consumers_map(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        a = g.call(ops.ReLU(), x)
        b = g.call(ops.Add(), a, x)
        g.set_outputs(b)
        uses = g.consumers()
        assert uses[(x.node_id, 0)] == [a.node_id, b.node_id]
        assert uses[(a.node_id, 0)] == [b.node_id]

    def test_freeze_is_memoized_until_mutation(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        a = g.call(ops.ReLU(), x)
        g.set_outputs(a)
        table = g.freeze()
        assert g.freeze() is table
        b = g.call(ops.Sigmoid(), a)
        assert g.freeze() is not table
        assert g.freeze().num_nodes == 3
        g.set_outputs(b)
        assert g.freeze().outputs.tolist() == [b.node_id]

    def test_node_table_edges(self):
        g = Graph("t")
        x = g.input(TensorSpec((2, 6)), "x")
        a, b = g.call(ops.Split(2, dim=1), x)
        c = g.call(ops.Add(), a, a)  # one value read twice
        d = g.call(ops.ReLU(), b)
        g.set_outputs(g.call(ops.Concat(1), c, d), d)
        table = g.freeze()
        assert table.out_offsets.tolist() == [0, 1, 3, 4, 5, 6]
        assert table.in_values.tolist() == [0, 1, 1, 2, 3, 4]
        # value 1 (split port 0) is read twice by node 2
        assert table.use_nodes[table.use_offsets[1] : table.use_offsets[2]].tolist() == [2, 2]
        # the split has two outputs; the relu's and the concat's are outputs
        assert table.sole_consumers().tolist() == [1, -1, 4, -1, -1]
        assert table.names[1] == "split" and table.kind_vocab[table.kind[2]] == "add"
        assert g.consumers() == {(0, 0): [1], (1, 0): [2, 2], (1, 1): [3], (2, 0): [4], (3, 0): [4]}

    def test_freeze_refuses_costs_beyond_int64(self):
        from repro.errors import PlanError
        from repro.ops.base import OpCost

        class Huge(ops.ReLU):
            def cost(self, inputs, outputs):
                return OpCost(flops=2**63)

        g = Graph("huge")
        g.set_outputs(g.call(Huge(), g.input(TensorSpec((1, 4)), "x")))
        with pytest.raises(PlanError, match="exceeds int64"):
            g.freeze()

    def test_str_rendering(self):
        g = Graph("t")
        x = g.input(TensorSpec((1, 4)), "x")
        g.set_outputs(g.call(ops.ReLU(), x))
        text = str(g)
        assert "graph t" in text and "relu" in text


@pytest.fixture
def collector_on():
    """Start with the collector enabled and leave it as the test found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_on")
class TestCollectorPaused:
    def test_reenabled_after_a_pause(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_restore_only_at_the_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_reenabled_when_a_paused_build_raises(self):
        with pytest.raises(ConfigError):
            get_model("gpt2").build(batch_size=0)
        assert gc.isenabled()


@pytest.mark.usefixtures("collector_on")
class TestPausedLayersCreateNoCycles:
    """Build, lowering and the int8 rewrite run with the collector paused;
    that only never delays freeing memory because they create no cycles."""

    FLOWS = ("pytorch", "torchinductor", "onnxruntime", "tensorrt", "ort-cpu-ep")

    def test_paused_layers_start_no_collection(self):
        # a collection may run as a pause ends, in the decorator's exit; count
        # only those started while a layer's own body is on the stack
        bodies = {
            inspect.unwrap(layer).__code__
            for layer in (ModelEntry.build, DeploymentFlow.lower, quantize_llm_int8)
        }
        starts = []

        def hook(phase, info):
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                if frame.f_code in bodies:
                    starts.append((frame.f_code.co_name, info["generation"]))
                    return
                frame = frame.f_back

        gc.callbacks.append(hook)
        try:
            graph = build_model("llama2-7b")
            get_flow("pytorch").lower(graph)
            quantize_llm_int8(graph)
        finally:
            gc.callbacks.remove(hook)
        assert starts == []

    def _build_lower_rewrite(self):
        for name in ("gpt2", "swin-t", "llama2-7b"):
            graph = build_model(name)
            for flow in self.FLOWS:
                for target in (DeviceKind.GPU, DeviceKind.CPU):
                    get_flow(flow).lower(graph, target=target)
            quantize_llm_int8(graph)

    def test_a_second_pass_leaves_no_garbage(self):
        # the first pass may leave first-use garbage (functions, cells, types)
        self._build_lower_rewrite()
        gc.collect()
        gc.disable()
        self._build_lower_rewrite()
        assert gc.collect() == 0
