"""Pass-pipeline tests.

Covers three layers:

* the **equivalence suite** — every registered flow, over every registered
  model, on both device classes, must produce exactly the plan the
  pre-refactor monolithic planner (:func:`oracles.reference_lower`)
  produced, kernel-for-kernel;
* unit tests for the individual passes and the pass manager;
* the cache contract: plans are keyed by pipeline signature, not flow name.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import ops
from repro.errors import PlanError, RegistryError
from repro.flows import (
    FLOW_REGISTRY,
    FusionConfig,
    ONNXRuntimeFlow,
    ORTCpuEpFlow,
    TensorRTFlow,
    get_flow,
    list_flows,
    register_flow,
)
from repro.flows.plan import DEVICE_CODE, DEVICE_KINDS
from repro.flows.passes import (
    CompositeExpansionPass,
    FusionPass,
    KernelConstructionPass,
    MetadataElisionPass,
    PassManager,
    PerOpFallbackPlacement,
    PlacementPass,
    SyncInsertionPass,
    TransferInsertionPass,
    UniformPlacement,
)
from repro.flows.plan import node_base_cost
from repro.hardware import PLATFORM_A, DeviceKind
from repro.ir import Graph, TensorSpec
from repro.models import build_model, list_models
from repro.profiler import profile_graph
from repro.runtime.simulator import simulate
from repro.sweep.cache import PlanCache, cached_lower

from oracles import reference_lower
from registrations import restored

ALL_FLOWS = tuple(list_flows())
ALL_MODELS = tuple(entry.name for entry in list_models())


@pytest.fixture(scope="module")
def model_graphs():
    """Every registered model, built once for the whole module."""
    return {name: build_model(name, batch_size=1) for name in ALL_MODELS}


def chain_graph(*op_list, spec=(4, 16)):
    g = Graph("chain")
    value = g.input(TensorSpec(spec), "x")
    for op in op_list:
        value = g.call(op, value)
    g.set_outputs(value)
    return g


def devices_of(kernels) -> list[DeviceKind]:
    return [DEVICE_KINDS[code] for code in kernels.device.tolist()]


def _standard_pipeline(policy, fusion=None, **placement_kwargs):
    return PassManager(
        (
            FusionPass(fusion or FusionConfig(pointwise_chains=True)),
            PlacementPass(policy, **placement_kwargs),
            KernelConstructionPass(collapse=True),
            TransferInsertionPass(),
            SyncInsertionPass(),
            MetadataElisionPass(),
        )
    )


class TestEquivalenceWithReferencePlanner:
    """The pass pipeline reproduces the pre-refactor planner exactly."""

    @pytest.mark.parametrize("flow_name", ALL_FLOWS)
    def test_kernel_for_kernel_all_models_both_devices(self, flow_name, model_graphs):
        flow = get_flow(flow_name)
        for model, graph in model_graphs.items():
            for use_gpu in (True, False):
                actual = flow.lower(graph, use_gpu=use_gpu)
                expected = reference_lower(flow, graph, use_gpu=use_gpu)
                # PlannedKernel is a NamedTuple: == compares every field of
                # every kernel, in order.
                assert actual.kernels == expected.kernels, (model, use_gpu)
                assert actual.flow == expected.flow
                assert actual.dispatch_profile == expected.dispatch_profile
                assert actual.gemm_peak_scale_f32 == expected.gemm_peak_scale_f32
                assert actual.gemm_saturation_scale == expected.gemm_saturation_scale
                assert actual.content_hash() == expected.content_hash()


class TestDerivePlanProperty:
    """derive_plan(lower(g, gpu), cpu) == lower(g, cpu), field for field."""

    def test_every_uniform_flow_every_model(self, model_graphs):
        uniform = [name for name in ALL_FLOWS if get_flow(name).uniform_placement]
        assert uniform  # the property must actually cover something
        for flow_name in uniform:
            flow = get_flow(flow_name)
            for model, graph in model_graphs.items():
                gpu = flow.lower(graph, use_gpu=True)
                cpu = flow.lower(graph, use_gpu=False)
                for derived, direct in (
                    (flow.derive_plan(gpu, use_gpu=False), cpu),
                    (flow.derive_plan(cpu, use_gpu=True), gpu),
                ):
                    assert derived.kernels == direct.kernels, (flow_name, model)
                    assert derived.flow == direct.flow
                    assert derived.dispatch_profile == direct.dispatch_profile
                    assert derived.gemm_peak_scale_f32 == direct.gemm_peak_scale_f32
                    assert derived.gemm_saturation_scale == direct.gemm_saturation_scale
                    assert derived.content_hash() == direct.content_hash()

    def test_per_op_flows_refuse_derivation(self, model_graphs):
        for flow_name in ("onnxruntime", "ort-cpu-ep"):
            flow = get_flow(flow_name)
            assert not flow.supports_derivation()
            plan = flow.lower(model_graphs["gpt2"], use_gpu=True)
            with pytest.raises(PlanError):
                flow.derive_plan(plan, use_gpu=False)

    def test_knob_only_per_op_policy_opts_out_of_derivation(self):
        # a custom flow that overrides only placement_policy() but forgets to
        # flip uniform_placement must not be served sibling-derived plans
        # (derivation would drop every CPU-fallback kernel's transfers)
        from repro.flows import TorchInductorFlow

        class ForgetfulFlow(TorchInductorFlow):
            def placement_policy(self):
                return PerOpFallbackPlacement(frozenset({"split", "where"}))

        flow = ForgetfulFlow()
        assert flow.uniform_placement  # the forgotten declaration
        assert not flow.supports_derivation()
        cache = PlanCache()
        graph = build_model("gpt2", batch_size=1)
        cache.plan(flow, graph, use_gpu=False)
        derived = cache.plan(flow, graph, use_gpu=True)
        assert derived.kernels == flow.lower(graph, use_gpu=True).kernels
        assert any(k.transfer_bytes_in > 0 for k in derived.kernels)

    def test_custom_refinement_pass_opts_out_of_derivation(self):
        from repro.flows import TorchInductorFlow
        from repro.flows.passes import LoweringPass

        class DeviceTaxPass(LoweringPass):
            """A device-sensitive refinement derive_plan knows nothing about."""

            name = "device-tax"

            def run(self, state):
                kernels = state.kernels
                kernels.launch_count[kernels.device == DEVICE_CODE[DeviceKind.GPU]] += 1

        class TaxedFlow(TorchInductorFlow):
            def build_pipeline(self):
                base = super().build_pipeline()
                return type(base)(base.passes + (DeviceTaxPass(),))

        flow = TaxedFlow()
        assert flow.uniform_placement and not flow.supports_derivation()
        graph = build_model("segformer", batch_size=1)
        source = flow.lower(graph, use_gpu=True)
        with pytest.raises(PlanError, match="custom refinement"):
            flow.derive_plan(source, use_gpu=False)
        # the cache must not take the sibling-derivation shortcut either
        cache = PlanCache()
        cache.plan(flow, graph, use_gpu=True)
        derived = cache.plan(flow, graph, use_gpu=False)
        assert derived.kernels == flow.lower(graph, use_gpu=False).kernels


class TestPaperPathInvariants:
    """Oracle-free checks of every registered model at batch 1 under every
    flow, on the path the paper's figures take (lowering, then profiling on
    platform A), plus batches 2 and 4 for the latency-versus-batch order."""

    @pytest.fixture(scope="class")
    def profiles(self, model_graphs):
        """(model, flow) -> (the GPU plan, its profile on platform A)."""
        runs = {}
        for model, graph in model_graphs.items():
            for flow_name in ALL_FLOWS:
                flow = get_flow(flow_name)
                profile = profile_graph(graph, flow, PLATFORM_A, iterations=2)
                runs[model, flow_name] = (cached_lower(flow, graph, DeviceKind.GPU), profile)
        return runs

    def test_kernel_flops_are_their_nodes_flops(self, model_graphs, profiles):
        # except CPU-fallback kernels, whose cost is pure transfer traffic
        node_flops = {
            model: np.array([node_base_cost(node).flops for node in graph.nodes], dtype=np.int64)
            for model, graph in model_graphs.items()
        }
        for (model, flow_name), (plan, _) in profiles.items():
            kernels = plan.kernels
            sizes = np.diff(kernels.offsets)
            covered = np.add.reduceat(node_flops[model][kernels.node_ids], kernels.offsets[:-1])
            fallback = (
                (sizes == 1)
                & (kernels.device == DEVICE_CODE[DeviceKind.CPU])
                & (plan.target is not DeviceKind.CPU)
            )
            assert np.array_equal(kernels.flops[~fallback], covered[~fallback]), (model, flow_name)
            assert not kernels.flops[fallback].any()
            assert np.array_equal(kernels.bytes_read[fallback], kernels.transfer_bytes_in[fallback])
            assert np.array_equal(
                kernels.bytes_written[fallback], kernels.transfer_bytes_out[fallback]
            )

    def test_category_latencies_sum_to_the_total(self, profiles):
        for key, (_, profile) in profiles.items():
            by_group = profile.latency_by_group()
            assert min(by_group.values()) >= 0.0, key
            assert sum(by_group.values()) == pytest.approx(profile.total_latency_s, rel=1e-12), key

    def test_derived_plans_cover_their_source_nodes(self, profiles):
        for (model, flow_name), (plan, _) in profiles.items():
            flow = get_flow(flow_name)
            if not flow.supports_derivation():
                continue
            source = plan.kernels
            derived = flow.derive_plan(plan, use_gpu=False).kernels
            assert np.array_equal(derived.node_ids, source.node_ids), (model, flow_name)
            assert np.array_equal(derived.offsets, source.offsets)

    def test_no_kernel_reads_a_later_kernel(self, profiles):
        # every value's consumers, from the value-to-use CSR: a fused chain
        # must not read a value that a later kernel produces.
        for (model, flow_name), (plan, _) in profiles.items():
            table = plan.graph.materialize().freeze()
            kernels = plan.kernels
            kernel_of = np.full(table.num_nodes, -1, dtype=np.int64)
            kernel_of[kernels.node_ids] = np.repeat(
                np.arange(len(kernels)), np.diff(kernels.offsets)
            )
            producer = np.repeat(kernel_of[table.value_node()], np.diff(table.use_offsets))
            consumer = kernel_of[table.use_nodes]
            assert not np.any(producer > consumer), (model, flow_name)

    def test_latency_does_not_fall_as_batch_grows(self, model_graphs, profiles):
        for model in model_graphs:
            larger = [build_model(model, batch_size=batch) for batch in (2, 4)]
            for flow_name in ALL_FLOWS:
                flow = get_flow(flow_name)
                plans = [profiles[model, flow_name][0]]
                plans += [cached_lower(flow, graph, DeviceKind.GPU) for graph in larger]
                latencies = [simulate(plan, PLATFORM_A).total_latency_ms for plan in plans]
                assert latencies == sorted(latencies), (model, flow_name, latencies)

    def test_validate_rejects_reversed_kernels(self, model_graphs):
        plan = cached_lower(get_flow("pytorch"), model_graphs["gpt2"], DeviceKind.GPU)
        plan.validate()
        reversed_plan = replace(plan, kernels=list(plan.kernels)[::-1])
        with pytest.raises(PlanError, match="reads a later kernel"):
            reversed_plan.validate()


class TestPlacementPass:
    def test_uniform_policy_never_resolves_per_node(self):
        class CountingUniform(UniformPlacement):
            def __init__(self):
                self.calls = 0

            def device_for(self, node, use_gpu):
                self.calls += 1
                return super().device_for(node, use_gpu)

        policy = CountingUniform()
        graph = chain_graph(ops.ReLU(), ops.Sigmoid(), ops.Tanh())
        manager = PassManager(
            (FusionPass(FusionConfig(pointwise_chains=True)), PlacementPass(policy))
        )
        state = manager.run(graph, use_gpu=True)
        # the device is resolved once per lowering, not per node or group
        assert policy.calls == 0
        assert all(d is DeviceKind.GPU for d in state.devices)
        assert len(state.devices) == len(state.groups)

    def test_per_op_span_aborts_without_split(self):
        policy = PerOpFallbackPlacement(frozenset({"sigmoid"}))
        graph = chain_graph(ops.ReLU(), ops.Sigmoid(), ops.Tanh())
        manager = PassManager(
            (FusionPass(FusionConfig(pointwise_chains=True)), PlacementPass(policy))
        )
        with pytest.raises(PlanError, match="spans devices"):
            manager.run(graph, use_gpu=True)

    def test_per_op_span_splits_into_runs(self):
        policy = PerOpFallbackPlacement(frozenset({"sigmoid"}))
        graph = chain_graph(ops.ReLU(), ops.Sigmoid(), ops.Tanh())
        pipeline = _standard_pipeline(
            policy, FusionConfig(pointwise_chains=True), split_mixed_groups=True
        )
        state = pipeline.run(graph, use_gpu=True)
        kernels = state.kernels
        assert devices_of(kernels) == [DeviceKind.GPU, DeviceKind.CPU, DeviceKind.GPU]
        # the split singleton is a real fallback kernel: PCIe both ways
        assert kernels.transfer_bytes_in[1] > 0 and kernels.transfer_bytes_out[1] > 0
        # off GPU, everything lands on CPU and nothing transfers
        cpu_kernels = pipeline.run(graph, use_gpu=False).kernels
        assert devices_of(cpu_kernels) == [DeviceKind.CPU]
        assert cpu_kernels.transfer_bytes_in[0] == 0

    def test_split_cpu_runs_become_fallback_singletons(self):
        # two adjacent fallback-kind ops in a fused chain must not surface
        # as a fused CPU kernel with free transfers: the host provider runs
        # them one by one, each paying PCIe
        policy = PerOpFallbackPlacement(frozenset({"sigmoid"}))
        graph = chain_graph(ops.ReLU(), ops.Sigmoid(), ops.Sigmoid(), ops.Tanh())
        pipeline = _standard_pipeline(
            policy, FusionConfig(pointwise_chains=True), split_mixed_groups=True
        )
        kernels = pipeline.run(graph, use_gpu=True).kernels
        assert devices_of(kernels) == [
            DeviceKind.GPU,
            DeviceKind.CPU,
            DeviceKind.CPU,
            DeviceKind.GPU,
        ]
        cpu = kernels.device == DEVICE_CODE[DeviceKind.CPU]
        assert np.all(kernels.fallback[cpu] & kernels.single()[cpu])
        assert np.all(kernels.transfer_bytes_in[cpu] > 0)
        assert np.all(kernels.transfer_bytes_out[cpu] > 0)
        assert np.all(kernels.flops[cpu] == 0)

    def test_policy_signatures_cover_config(self):
        a = PerOpFallbackPlacement(frozenset({"split", "where"}))
        b = PerOpFallbackPlacement(frozenset({"split"}))
        assert a.signature() != b.signature()
        assert UniformPlacement().signature() == UniformPlacement().signature()


class TestRefinementPasses:
    def test_composite_expansion_scales_launches_and_traffic(self):
        graph = chain_graph(ops.GELU(composite=True), spec=(2, 8))
        manager = PassManager(
            (
                FusionPass(FusionConfig()),
                PlacementPass(UniformPlacement()),
                KernelConstructionPass(collapse=False),
                CompositeExpansionPass(),
            )
        )
        kernels = manager.run(graph, use_gpu=True).kernels
        (node_id,) = kernels.node_ids.tolist()
        op = graph.nodes[node_id].op
        assert kernels.launch_count[0] == op.eager_kernels > 1
        base = node_base_cost(graph.nodes[node_id])
        assert kernels.bytes_read[0] == base.bytes_read * op.traffic_passes

    def test_transfer_insertion_zeroes_flops(self):
        g = Graph("split")
        x = g.input(TensorSpec((2, 12)), "x")
        a, b, c = g.call(ops.Split(3, dim=1), x)
        g.set_outputs(g.call(ops.Concat(1), a, b, c))
        kernels = ONNXRuntimeFlow().pipeline.run(g, use_gpu=True).kernels
        split = kernels.op_kind_idx.tolist().index(kernels.op_kind_vocab.index(("split",)))
        assert kernels.fallback[split]
        assert kernels.flops[split] == 0
        assert kernels.transfer_bytes_in[split] == x.spec.nbytes
        assert kernels.transfer_bytes_out[split] == sum(
            s.nbytes for s in g.nodes[int(kernels.node_ids[split])].outputs
        )

    def test_sync_insertion_gpu_only(self):
        graph = chain_graph(ops.Nonzero(max_outputs=8), spec=(4, 4))
        flow = get_flow("pytorch")
        gpu = flow.lower(graph, use_gpu=True)
        cpu = flow.lower(graph, use_gpu=False)
        assert gpu.kernels[0].transfer_bytes_out > 0  # device->host round trip
        assert cpu.kernels[0].transfer_bytes_out == 0

    def test_metadata_elision_spares_synced_kernels(self):
        graph = chain_graph(ops.Reshape((16, 4)), spec=(4, 16))
        manager = PassManager(
            (
                FusionPass(FusionConfig()),
                PlacementPass(UniformPlacement()),
                KernelConstructionPass(collapse=True),
            )
        )
        state = manager.run(graph, use_gpu=True)
        # a sync forced this shape-op's data to materialize: no elision
        state.kernels.transfer_bytes_out[0] = 64
        MetadataElisionPass().run(state)
        assert not state.kernels.metadata_only[0]
        # without the sync it is elided
        clean = manager.run(graph, use_gpu=True)
        MetadataElisionPass().run(clean)
        assert clean.kernels.metadata_only[0]


class TestPipelineSignature:
    def test_stable_across_instances(self):
        assert get_flow("tensorrt").pipeline_signature() == get_flow(
            "tensorrt"
        ).pipeline_signature()

    def test_distinct_across_flows(self):
        signatures = {get_flow(name).pipeline_signature() for name in ALL_FLOWS}
        assert len(signatures) == len(ALL_FLOWS)

    def test_knob_change_changes_signature_despite_same_name(self):
        class WiderTRT(TensorRTFlow):
            fusion = FusionConfig(
                gemm_epilogue=True,
                max_epilogue=8,
                pointwise_chains=True,
                epilogue_norms=True,
                max_chain=6,
            )

        assert WiderTRT.name == TensorRTFlow.name
        assert WiderTRT().pipeline_signature() != TensorRTFlow().pipeline_signature()

    def test_manager_signature_is_order_sensitive(self):
        sync, elide = SyncInsertionPass(), MetadataElisionPass()
        fuse = FusionPass(FusionConfig())
        assert (
            PassManager((fuse, sync, elide)).signature()
            != PassManager((fuse, elide, sync)).signature()
        )

    def test_cache_discriminates_same_named_flow_variants(self):
        class WiderTRT(TensorRTFlow):
            fusion = FusionConfig(
                gemm_epilogue=True,
                max_epilogue=8,
                pointwise_chains=True,
                epilogue_norms=True,
                max_chain=6,
            )

        cache = PlanCache()
        graph = build_model("swin-t", batch_size=1)
        base_plan = cache.plan(TensorRTFlow(), graph, use_gpu=True)
        variant_plan = cache.plan(WiderTRT(), graph, use_gpu=True)
        # same flow name, different knobs: the signature key keeps them apart
        assert variant_plan is not base_plan
        assert cache.stats.misses.get("plan") == 2
        # and the true hit still hits
        assert cache.plan(TensorRTFlow(), graph, use_gpu=True) is base_plan


class TestProvenance:
    def test_lower_records_pass_trace_on_request(self):
        flow = get_flow("tensorrt")
        graph = build_model("swin-t", batch_size=1)
        plain = flow.lower(graph, use_gpu=True)
        assert "passes" not in plain.notes  # hot path stays allocation-free
        traced = flow.lower(graph, use_gpu=True, record_provenance=True)
        assert traced.kernels == plain.kernels
        pass_names = [entry["pass"] for entry in traced.notes["passes"]]
        assert pass_names == list(flow.pipeline.pass_names())
        provenance = traced.notes["kernel_provenance"]
        assert len(provenance) == traced.num_kernels
        fused_tags = [
            tags for kernel, tags in zip(traced.kernels, provenance) if kernel.fused
        ]
        assert fused_tags and all(
            any(tag.startswith("fused[") for tag in tags) for tags in fused_tags
        )


class TestFlowRegistry:
    def test_register_flow_rejects_duplicates(self):
        with pytest.raises(RegistryError):
            register_flow(TensorRTFlow)

    def test_register_flow_rejects_alias_collisions(self):
        class Impostor(TensorRTFlow):
            name = "eager"  # a built-in alias of the pytorch flow

        with pytest.raises(RegistryError, match="alias"):
            register_flow(Impostor)

    def test_register_custom_flow_roundtrip(self):
        class ToyFlow(TensorRTFlow):
            name = "toy-trt"

        with restored(FLOW_REGISTRY):
            register_flow(ToyFlow)
            assert isinstance(get_flow("toy-trt"), ToyFlow)
            assert "toy-trt" in list_flows()

    def test_get_flow_shares_instances(self):
        # flows are stateless: the registry memoizes one instance per name so
        # per-point lookups do not rebuild the pipeline or its signature
        assert get_flow("tensorrt") is get_flow("trt")


class TestORTCpuEpFlow:
    def test_combines_fallback_with_inductor_fusion(self, model_graphs):
        from repro.flows import TorchInductorFlow

        assert ORTCpuEpFlow.fusion == TorchInductorFlow.fusion
        # gpt2's Split/Expand/Where attention exercises the CPU-EP fallback
        plan = ORTCpuEpFlow().lower(model_graphs["gpt2"], use_gpu=True)
        ort_plan = ONNXRuntimeFlow().lower(model_graphs["gpt2"], use_gpu=True)
        fallback = {k.node_ids for k in plan.kernels if k.transfer_bytes_in > 0}
        ort_fallback = {
            k.node_ids for k in ort_plan.kernels if k.transfer_bytes_in > 0
        }
        assert fallback  # the CPU-EP story survives the fuser swap
        assert fallback == ort_fallback
        # faster-rcnn has pointwise chains longer than ORT's max_chain=4:
        # the inductor-style fuser turns them into fewer kernels
        rcnn = model_graphs["faster-rcnn"]
        assert (
            ORTCpuEpFlow().lower(rcnn, use_gpu=True).num_kernels
            < ONNXRuntimeFlow().lower(rcnn, use_gpu=True).num_kernels
        )

    def test_available_from_sweep_cli(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--models",
                    "segformer",
                    "--flows",
                    "ort-cpu-ep",
                    "--iterations",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ort-cpu-ep" in out and "1 points" in out


class TestInspectCli:
    def test_inspect_dumps_pipeline_and_provenance(self, capsys):
        from repro.cli import main

        assert main(["inspect", "swin-t", "--flow", "tensorrt", "--kernels", "5"]) == 0
        out = capsys.readouterr().out
        assert "pass pipeline:" in out
        assert "fusion" in out and "metadata-elision" in out
        assert "pipeline signature:" in out
        assert "top 5 kernels by traffic:" in out
