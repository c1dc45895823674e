"""Unit tests for deployment flows, fusion, and execution plans."""

import numpy as np
import pytest

from repro import ops
from repro.errors import RegistryError
from repro.flows import (
    FusionConfig,
    ONNXRuntimeFlow,
    PyTorchEagerFlow,
    TensorRTFlow,
    TorchInductorFlow,
    fuse_graph,
    get_flow,
)
from repro.flows.plan import group_costs_batch
from repro.hardware import DeviceKind
from repro.ir import DType, Graph, TensorSpec
from repro.ops.base import OpCategory, OpCost

from oracles import consumer_map, group_cost


def batch_costs(graph: Graph, groups: list[tuple[int, ...]]) -> list[OpCost]:
    """``group_costs_batch`` of ``groups``, one OpCost per group."""
    node_ids = np.array([i for group in groups for i in group], dtype=np.int64)
    offsets = np.cumsum([0] + [len(group) for group in groups])
    columns = group_costs_batch(graph, node_ids, offsets)
    return list(map(OpCost, *(column.tolist() for column in columns)))


def conv_bn_relu_graph() -> Graph:
    g = Graph("cbr")
    x = g.input(TensorSpec((1, 3, 8, 8)), "x")
    h = g.call(ops.Conv2d(3, 8, 3, padding=1, bias=False), x)
    h = g.call(ops.FrozenBatchNorm2d(8, precomputed=False), h)
    h = g.call(ops.ReLU(), h)
    g.set_outputs(h)
    return g


def pointwise_chain_graph() -> Graph:
    g = Graph("chain")
    x = g.input(TensorSpec((4, 16)), "x")
    h = g.call(ops.Add(), x, x)
    h = g.call(ops.MulScalar(2.0), h)
    h = g.call(ops.ReLU(), h)
    g.set_outputs(h)
    return g


class TestFlowRegistry:
    def test_aliases(self):
        assert isinstance(get_flow("pt"), PyTorchEagerFlow)
        assert isinstance(get_flow("trt"), TensorRTFlow)
        assert isinstance(get_flow("ort"), ONNXRuntimeFlow)
        assert isinstance(get_flow("inductor"), TorchInductorFlow)

    def test_unknown_flow(self):
        with pytest.raises(RegistryError):
            get_flow("tvm")


class TestFusionEngine:
    def test_no_fusion_config_yields_singletons(self):
        result = fuse_graph(pointwise_chain_graph(), FusionConfig())
        assert all(len(group) == 1 for group in result.groups)

    def test_pointwise_chain_fuses(self):
        result = fuse_graph(
            pointwise_chain_graph(), FusionConfig(pointwise_chains=True)
        )
        assert any(len(group) == 3 for group in result.groups)

    def test_gemm_epilogue_absorbs_bn_relu(self):
        config = FusionConfig(gemm_epilogue=True, epilogue_norms=True)
        result = fuse_graph(conv_bn_relu_graph(), config)
        fused = result.fused_groups
        assert len(fused) == 1 and len(fused[0]) == 3

    def test_epilogue_without_norms_stops_at_bn(self):
        config = FusionConfig(gemm_epilogue=True, epilogue_norms=False)
        result = fuse_graph(conv_bn_relu_graph(), config)
        assert all(len(group) == 1 for group in result.groups)

    def test_multi_consumer_blocks_fusion(self):
        g = Graph("fork")
        x = g.input(TensorSpec((4, 4)), "x")
        a = g.call(ops.ReLU(), x)
        b = g.call(ops.Sigmoid(), a)
        c = g.call(ops.Tanh(), a)  # a has two consumers
        g.set_outputs(g.call(ops.Add(), b, c))
        result = fuse_graph(g, FusionConfig(pointwise_chains=True, max_chain=8))
        for group in result.fused_groups:
            assert a.node_id not in group or len(group) == 1

    def test_graph_output_never_fused_past(self):
        g = Graph("out")
        x = g.input(TensorSpec((4, 4)), "x")
        a = g.call(ops.ReLU(), x)
        b = g.call(ops.Sigmoid(), a)
        g.set_outputs(a, b)  # a is both an output and b's input
        result = fuse_graph(g, FusionConfig(pointwise_chains=True))
        for group in result.fused_groups:
            assert group != (a.node_id, b.node_id)

    def test_groups_are_disjoint_and_cover(self, tiny_transformer_graph):
        for config in (
            FusionConfig(),
            FusionConfig(pointwise_chains=True, chain_norms=True),
            FusionConfig(gemm_epilogue=True, epilogue_norms=True, pointwise_chains=True),
        ):
            result = fuse_graph(tiny_transformer_graph, config)
            seen = [n for g_ in result.groups for n in g_]
            expected = [n.node_id for n in tiny_transformer_graph.compute_nodes()]
            assert sorted(seen) == sorted(expected)


class TestFusionBoundaries:
    """Edge cases of the fuser: exact limits, breaks, QDQ at group edges."""

    @staticmethod
    def _linear_chain(num_pointwise: int) -> Graph:
        g = Graph("epi")
        h = g.call(ops.Linear(16, 16), g.input(TensorSpec((4, 16)), "x"))
        for _ in range(num_pointwise):
            h = g.call(ops.ReLU(), h)
        g.set_outputs(h)
        return g

    def test_epilogue_exactly_at_limit_fuses_completely(self):
        config = FusionConfig(gemm_epilogue=True, max_epilogue=3)
        result = fuse_graph(self._linear_chain(3), config)
        assert [len(group) for group in result.groups] == [4]  # GEMM + 3

    def test_epilogue_one_past_limit_leaves_a_singleton(self):
        config = FusionConfig(gemm_epilogue=True, max_epilogue=3)
        result = fuse_graph(self._linear_chain(4), config)
        assert [len(group) for group in result.groups] == [4, 1]

    @staticmethod
    def _pointwise_chain(length: int) -> Graph:
        g = Graph("chain")
        h = g.input(TensorSpec((4, 16)), "x")
        for _ in range(length):
            h = g.call(ops.ReLU(), h)
        g.set_outputs(h)
        return g

    def test_chain_exactly_at_limit_fuses_completely(self):
        config = FusionConfig(pointwise_chains=True, max_chain=3)
        result = fuse_graph(self._pointwise_chain(3), config)
        assert [len(group) for group in result.groups] == [3]

    def test_chain_one_past_limit_starts_a_new_group(self):
        config = FusionConfig(pointwise_chains=True, max_chain=3)
        result = fuse_graph(self._pointwise_chain(4), config)
        assert [len(group) for group in result.groups] == [3, 1]

    def test_chain_breaks_after_multi_consumer_node(self):
        g = Graph("fork")
        x = g.input(TensorSpec((4, 4)), "x")
        a = g.call(ops.ReLU(), x)
        b = g.call(ops.Sigmoid(), a)  # two consumers below
        g.set_outputs(g.call(ops.Add(), g.call(ops.Tanh(), b), g.call(ops.Sigmoid(), b)))
        result = fuse_graph(g, FusionConfig(pointwise_chains=True, max_chain=8))
        # the fork node itself joins the chain; growth stops right after it
        assert (a.node_id, b.node_id) in result.groups

    def test_quantize_fuses_as_epilogue_edge(self):
        g = Graph("qdq-epilogue")
        h = g.call(ops.Linear(16, 16), g.input(TensorSpec((4, 16)), "x"))
        h = g.call(ops.ReLU(), h)
        q, scales = g.call(ops.Quantize(), h)
        g.set_outputs(q, scales)
        result = fuse_graph(g, FusionConfig(gemm_epilogue=True, max_epilogue=3))
        # Quantize (QDQ) rides the epilogue; its two outputs end the chain
        assert [len(group) for group in result.groups] == [3]

    def test_dequantize_starts_a_chain(self):
        g = Graph("qdq-chain")
        acc = g.input(TensorSpec((4, 16), DType.I32), "acc")
        scales = g.input(TensorSpec((4, 1)), "scales")
        h = g.call(ops.Dequantize(DType.F32), acc, scales)
        g.set_outputs(g.call(ops.ReLU(), h))
        result = fuse_graph(g, FusionConfig(pointwise_chains=True))
        assert any(len(group) == 2 for group in result.groups)

    def test_dequantize_fuses_behind_int8_gemm(self):
        g = Graph("int8-epilogue")
        x = g.input(TensorSpec((4, 16), DType.I8), "x")
        scales = g.input(TensorSpec((4, 1)), "scales")
        acc = g.call(ops.Int8Linear(16, 16), x)
        g.set_outputs(g.call(ops.Dequantize(DType.F16), acc, scales))
        result = fuse_graph(g, FusionConfig(gemm_epilogue=True))
        assert result.fused_groups == [(acc.node_id, g.outputs[0].node_id)]


class TestGroupCost:
    def test_fusion_saves_intermediate_traffic(self):
        g = pointwise_chain_graph()
        node_ids = tuple(n.node_id for n in g.compute_nodes())
        (fused,) = batch_costs(g, [node_ids])
        assert fused == group_cost(g, node_ids)
        separate = [
            n.op.cost([v.spec for v in n.inputs], list(n.outputs)) for n in g.compute_nodes()
        ]
        assert fused.flops == sum(c.flops for c in separate)
        assert fused.total_bytes < sum(c.total_bytes for c in separate)

    def test_external_inputs_counted_once(self):
        g = Graph("dual")
        x = g.input(TensorSpec((4, 4)), "x")
        a = g.call(ops.Add(), x, x)  # same external value twice
        b = g.call(ops.ReLU(), a)
        g.set_outputs(b)
        (cost,) = batch_costs(g, [(a.node_id, b.node_id)])
        assert cost == group_cost(g, (a.node_id, b.node_id))
        assert cost.bytes_read == x.spec.nbytes  # x read once
        assert cost.bytes_written == b.spec.nbytes

    def test_batch_matches_scalar_oracle_on_fused_plans(self):
        # every fused kernel of every fusing flow, on models with epilogues,
        # pointwise chains and multi-consumer values
        from repro.models import build_model

        for model in ("swin-t", "detr", "gpt2"):
            graph = build_model(model, batch_size=1)
            for flow in ("torchinductor", "tensorrt"):
                groups = fuse_graph(graph, get_flow(flow).fusion).fused_groups
                assert groups
                consumers = consumer_map(graph)
                assert batch_costs(graph, groups) == [
                    group_cost(graph, g, consumers) for g in groups
                ]


class TestPlans:
    def test_eager_plan_one_kernel_per_op(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph)
        assert plan.num_kernels == len(tiny_transformer_graph.compute_nodes())
        plan.validate()

    def test_plan_validate_catches_duplicates(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph)
        from repro.errors import PlanError
        from repro.flows import ExecutionPlan

        plan = ExecutionPlan(
            graph=plan.graph,
            flow=plan.flow,
            dispatch_profile=plan.dispatch_profile,
            kernels=[*plan.kernels, plan.kernels[0]],
        )

        with pytest.raises(PlanError):
            plan.validate()

    def test_eager_composites_multi_launch(self):
        g = Graph("comp")
        x = g.input(TensorSpec((2, 8)), "x")
        g.set_outputs(g.call(ops.GELU(composite=True), x))
        eager = PyTorchEagerFlow().lower(g)
        assert eager.kernels[0].launch_count == 8
        compiled = TorchInductorFlow().lower(g)
        assert compiled.kernels[0].launch_count == 1

    def test_fused_kernel_category_gemm_wins(self):
        plan = TensorRTFlow().lower(conv_bn_relu_graph())
        fused = [k for k in plan.kernels if k.fused]
        assert len(fused) == 1
        assert fused[0].category is OpCategory.GEMM

    def test_cpu_lowering_places_on_cpu(self, tiny_transformer_graph):
        plan = PyTorchEagerFlow().lower(tiny_transformer_graph, target=DeviceKind.CPU)
        assert all(k.device is DeviceKind.CPU for k in plan.kernels)

    def test_ort_fallback_has_transfers(self):
        g = Graph("split")
        x = g.input(TensorSpec((2, 12)), "x")
        a, b, c = g.call(ops.Split(3, dim=1), x)
        g.set_outputs(g.call(ops.Concat(1), a, b, c))
        plan = ONNXRuntimeFlow().lower(g)
        split_kernels = [k for k in plan.kernels if "split" in k.op_kinds]
        assert split_kernels[0].device is DeviceKind.CPU
        assert split_kernels[0].transfer_bytes_in > 0
        assert split_kernels[0].transfer_bytes_out > 0

    def test_ort_fallback_disabled_on_cpu_run(self):
        g = Graph("split")
        x = g.input(TensorSpec((2, 12)), "x")
        a, b, c = g.call(ops.Split(3, dim=1), x)
        g.set_outputs(g.call(ops.Concat(1), a, b, c))
        plan = ONNXRuntimeFlow().lower(g, target=DeviceKind.CPU)
        assert all(k.transfer_bytes_in == 0 for k in plan.kernels)

    def test_fusion_rate_metric(self):
        plan = TensorRTFlow().lower(conv_bn_relu_graph())
        assert plan.non_gemm_fusion_rate() == 1.0  # bn+relu both fused
        eager = PyTorchEagerFlow().lower(conv_bn_relu_graph())
        assert eager.non_gemm_fusion_rate() == 0.0

    def test_flow_gemm_knobs_propagate(self, tiny_transformer_graph):
        plan = TensorRTFlow().lower(tiny_transformer_graph)
        assert plan.gemm_peak_scale_f32 == 8.0
        assert plan.gemm_saturation_scale == 0.15
