"""Sweep engine tests: vectorized-vs-scalar equivalence, caching, specs."""

from __future__ import annotations

import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro import ops
from repro.errors import ConfigError, RegistryError
from repro.flows import get_flow
from repro.hardware import PLATFORM_A, PLATFORM_B, DeviceKind, list_platforms, resolve_target
from repro.ir import Graph, TensorSpec
from repro.models import build_model
from repro.profiler import profile_graph
from repro.runtime.memory import profile_memory
from repro.runtime.simulator import simulate
from repro.sweep.cache import PLAN_CACHE, PlanCache, get_transform, register_transform
from repro.sweep.runner import SweepRunner, run_point, run_sweep
from repro.sweep.spec import DIMENSIONS, SweepPoint, SweepSpec
from repro.sweep.store import ArtifactStore

from oracles import simulate_reference

ALL_FLOWS = ("pytorch", "torchinductor", "tensorrt", "onnxruntime")
SMALL_MODELS = ("swin-t", "segformer", "gpt2")


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("flow_name", ALL_FLOWS)
    @pytest.mark.parametrize("platform", [PLATFORM_A, PLATFORM_B], ids=["A", "B"])
    def test_matches_scalar_reference_per_kernel(self, flow_name, platform):
        for model in SMALL_MODELS:
            graph = build_model(model, batch_size=1)
            for kind in (DeviceKind.GPU, DeviceKind.CPU):
                plat, target = resolve_target(platform, kind)
                plan = get_flow(flow_name).lower(graph, target=target)
                fast = simulate(plan, plat)
                slow = simulate_reference(plan, plat)
                ref = np.array([r.latency_s for r in slow.records])
                assert np.all(np.abs(fast.latencies - ref) <= 1e-12)
                # in practice the paths are bit-identical, not just close
                assert np.array_equal(fast.latencies, ref)
                assert fast.total_latency_s == slow.total_latency_s
                assert fast.gpu_energy_j == slow.gpu_energy_j
                assert fast.cpu_energy_j == slow.cpu_energy_j
                assert fast.bound_labels() == [r.estimate.bound for r in slow.records]

    def test_estimate_breakdowns_match(self, tiny_transformer_graph):
        plan = get_flow("pytorch").lower(tiny_transformer_graph)
        fast = simulate(plan, PLATFORM_A)
        slow = simulate_reference(plan, PLATFORM_A)
        for fast_rec, slow_rec in zip(fast.records, slow.records):
            assert fast_rec.estimate == slow_rec.estimate
            assert fast_rec.transfer_s == slow_rec.transfer_s


class TestPlatformBitIdentity:
    """Scalar-vs-vectorized equivalence over *every* registered platform,
    including the 3-device Platform C, on every device target the platform
    offers — the N-device generalization of the A/B-only battery above."""

    @pytest.mark.parametrize(
        "platform", list_platforms(), ids=lambda p: p.platform_id
    )
    def test_bit_identical_on_every_registered_platform(self, platform):
        graph = build_model("swin-t", batch_size=1)
        for flow_name in ("pytorch", "onnxruntime", "npu-offload"):
            flow = get_flow(flow_name)
            for kind in sorted(platform.kinds, key=lambda k: k.value):
                plat, target = resolve_target(platform, kind)
                plan = flow.lower(graph, target=target)
                fast = simulate(plan, plat)
                slow = simulate_reference(plan, plat)
                ref = np.array([r.latency_s for r in slow.records])
                assert np.array_equal(fast.latencies, ref), (flow_name, kind)
                assert fast.total_latency_s == slow.total_latency_s
                assert fast.energy_j == slow.energy_j  # per-device, bit-equal
                assert fast.bound_labels() == [r.estimate.bound for r in slow.records]

    def test_npu_target_offloads_only_gemm(self):
        graph = build_model("gpt2", batch_size=1)
        plan = get_flow("npu-offload").lower(graph, target=DeviceKind.NPU)
        assert plan.target is DeviceKind.NPU
        npu_kernels = [k for k in plan.kernels if k.device is DeviceKind.NPU]
        assert npu_kernels and all(k.is_gemm for k in npu_kernels)
        # off-target kernels pay fabric transfers, on-target ones do not
        assert all(
            k.transfer_bytes_in == 0 and k.transfer_bytes_out == 0
            for k in npu_kernels
            if not k.metadata_only
        )
        fallback = [k for k in plan.kernels if k.device is DeviceKind.CPU]
        assert any(k.transfer_bytes_in > 0 for k in fallback)

    def test_npu_sweep_point_profiles_on_platform_c(self):
        point = SweepPoint(
            platform="C", model="segformer", flow="npu-offload",
            batch_size=1, device="npu", iterations=2,
        )
        record = run_point(point)
        profile = record.profile
        assert profile.target is DeviceKind.NPU
        assert profile.platform.platform_id == "C"
        assert DeviceKind.NPU in profile.energy_j
        assert profile.energy_j[DeviceKind.NPU] > 0.0

    @pytest.mark.parametrize("mode", ["tpu", "GPU"])
    def test_device_axis_rejects_unknown_mode(self, mode):
        spec = SweepSpec(models=("segformer",), devices=(mode,))
        with pytest.raises(RegistryError, match=mode):
            spec.points()

    def test_device_axis_accepts_npu_mode(self):
        spec = SweepSpec(models=("segformer",), devices=("cpu", "npu"))
        points = spec.points()
        assert [p.device for p in points] == ["cpu", "npu"]
        assert points[1].target is DeviceKind.NPU
        assert points[0].target is DeviceKind.CPU


class TestDerivedPlans:
    @pytest.mark.parametrize("flow_name", ["pytorch", "torchinductor", "tensorrt"])
    def test_derive_matches_full_lower(self, flow_name):
        flow = get_flow(flow_name)
        graph = build_model("swin-t", batch_size=1)
        for source_target, target in ((DeviceKind.GPU, DeviceKind.CPU), (DeviceKind.CPU, DeviceKind.GPU)):
            source = flow.lower(graph, target=source_target)
            derived = flow.derive_plan(source, target=target)
            direct = flow.lower(graph, target=target)
            assert derived.kernels == direct.kernels
            assert derived.content_hash() == direct.content_hash()

    def test_ort_refuses_derivation(self):
        from repro.errors import PlanError

        flow = get_flow("onnxruntime")
        graph = build_model("gpt2", batch_size=1)
        plan = flow.lower(graph)
        with pytest.raises(PlanError):
            flow.derive_plan(plan, target=DeviceKind.CPU)


class TestContentHash:
    def test_stable_until_mutation(self, tiny_transformer_graph):
        first = tiny_transformer_graph.content_hash()
        assert tiny_transformer_graph.content_hash() == first
        out = tiny_transformer_graph.call(ops.GELU(), tiny_transformer_graph.outputs[0])
        tiny_transformer_graph.set_outputs(out)
        assert tiny_transformer_graph.content_hash() != first

    def test_identical_builds_hash_equal(self):
        a = build_model("swin-t", batch_size=1)
        b = build_model("swin-t", batch_size=1)
        assert a is not b
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != build_model("swin-t", batch_size=2).content_hash()

    def test_plan_hash_covers_flow(self, tiny_transformer_graph):
        eager = get_flow("pytorch").lower(tiny_transformer_graph)
        trt = get_flow("tensorrt").lower(tiny_transformer_graph)
        assert eager.content_hash() != trt.content_hash()


class TestValidationMemo:
    def test_validate_walk_runs_once(self, tiny_transformer_graph, monkeypatch):
        calls = {"n": 0}
        original = Graph._check_value

        def counting(self, value):
            calls["n"] += 1
            return original(self, value)

        monkeypatch.setattr(Graph, "_check_value", counting)
        tiny_transformer_graph.validate()
        after_first = calls["n"]
        assert after_first > 0
        tiny_transformer_graph.validate()
        assert calls["n"] == after_first  # memoized: no second walk

    def test_mutation_resets_validated_flag(self, tiny_transformer_graph):
        tiny_transformer_graph.validate()
        assert tiny_transformer_graph._validated
        out = tiny_transformer_graph.call(ops.GELU(), tiny_transformer_graph.outputs[0])
        assert not tiny_transformer_graph._validated
        tiny_transformer_graph.set_outputs(out)
        tiny_transformer_graph.validate()
        assert tiny_transformer_graph._validated


class TestPlanCache:
    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        flow = get_flow("pytorch")
        graph = build_model("swin-t", batch_size=1)
        first = cache.plan(flow, graph, target=DeviceKind.GPU)
        assert cache.plan(flow, graph, target=DeviceKind.GPU) is first
        assert cache.stats.hits.get("plan") == 1

    def test_hit_returns_identical_profile(self):
        graph = build_model("swin-t", batch_size=1)
        flow = get_flow("pytorch")
        cold = profile_graph(graph, flow, PLATFORM_A, iterations=3, seed=3)
        warm = profile_graph(graph, flow, PLATFORM_A, iterations=3, seed=3)
        assert warm.total_latency_s == cold.total_latency_s
        assert warm.gpu_energy_j == cold.gpu_energy_j
        assert warm.peak_memory_bytes == cold.peak_memory_bytes
        assert warm.latency_by_group() == cold.latency_by_group()
        assert warm.records == cold.records

    def test_mutated_graph_misses(self):
        cache = PlanCache()
        flow = get_flow("pytorch")
        graph = build_model("swin-t", batch_size=1)
        first = cache.plan(flow, graph, target=DeviceKind.GPU)
        out = graph.call(ops.GELU(), graph.outputs[0])
        graph.set_outputs(out)
        second = cache.plan(flow, graph, target=DeviceKind.GPU)
        assert second is not first
        assert second.num_kernels == first.num_kernels + 1

    def test_memory_memoized_by_structure(self):
        cache = PlanCache()
        a = build_model("segformer", batch_size=1)
        b = build_model("segformer", batch_size=1)
        first = cache.memory(a)
        assert cache.memory(b) is first  # structurally equal twin hits
        assert first == profile_memory(a)

    def test_lru_bound(self):
        cache = PlanCache(max_entries=2)
        for batch in (1, 2, 3):
            cache.graph("segformer", batch_size=batch)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # oldest entry (batch 1) was evicted; re-request misses
        cache.graph("segformer", batch_size=1)
        assert cache.stats.misses.get("graph") == 4

    def test_disabled_bypasses(self):
        cache = PlanCache()
        with cache.disabled():
            a = cache.graph("segformer", batch_size=1)
            b = cache.graph("segformer", batch_size=1)
        assert a is not b
        assert len(cache) == 0

    def test_mutated_cached_graph_is_not_reissued(self):
        cache = PlanCache()
        graph = cache.graph("segformer", batch_size=1)
        clean_len = len(graph.nodes)
        graph.set_outputs(graph.call(ops.GELU(), graph.outputs[0]))
        fresh = cache.graph("segformer", batch_size=1)
        assert fresh is not graph
        assert len(fresh.nodes) == clean_len

    def test_mutated_cached_graph_counts_one_miss(self):
        """A lookup that finds a mutated entry is a miss, not a hit too."""
        cache = PlanCache()
        graph = cache.graph("segformer", batch_size=1)
        graph.set_outputs(graph.call(ops.GELU(), graph.outputs[0]))
        cache.graph("segformer", batch_size=1)
        assert cache.stats.hits.get("graph", 0) == 0
        assert cache.stats.misses["graph"] == 2

    def test_disabled_never_reads_the_cache(self, monkeypatch):
        cache = PlanCache()
        flow = get_flow("pytorch")
        graph = build_model("gpt2", batch_size=1)

        def cost(plan):
            return [plan.num_kernels]

        def measure():
            return object()

        profile_args = (flow, graph, DeviceKind.GPU, PLATFORM_A, 1, 2, 0, "gpt2")
        sibling = cache.plan(flow, graph, target=DeviceKind.GPU)
        cached = (
            cache.memory(graph),
            cache.serving_cost(flow, graph, DeviceKind.GPU, PLATFORM_A, cost),
            cache.transform("llm-int8", graph),
            cache.profile(*profile_args, measure),
            cache.taxonomy_rows(graph),
            cache.graph("gpt2", batch_size=1),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a disabled cache must not derive from a cached sibling")

        monkeypatch.setattr(flow, "derive_plan", refuse)
        entries, before = len(cache), cache.stats.snapshot()
        with cache.disabled():
            assert cache.plan(flow, graph, target=DeviceKind.CPU).target is DeviceKind.CPU
            assert cache.plan(flow, graph, target=DeviceKind.GPU) is not sibling
            fresh = (
                cache.memory(graph),
                cache.serving_cost(flow, graph, DeviceKind.CPU, PLATFORM_A, cost),
                cache.transform("llm-int8", graph),
                cache.profile(*profile_args, measure),
                cache.taxonomy_rows(graph),
                cache.graph_ref("gpt2", batch_size=1),
            )
        assert all(new is not old for new, old in zip(fresh, cached))
        assert len(cache) == entries
        assert cache.stats.snapshot() == before
        # outside the block the CPU lookup would derive from the sibling
        with pytest.raises(AssertionError, match="cached sibling"):
            cache.plan(flow, graph, target=DeviceKind.CPU)

    def test_direct_profiles_are_memoized(self, monkeypatch):
        import repro.profiler.profiler as profiler_module
        from repro.sweep import cache as cache_module

        calls: list = []
        original = profiler_module.simulate

        def counting(plan, platform):
            calls.append(plan)
            return original(plan, platform)

        monkeypatch.setattr(profiler_module, "simulate", counting)
        cache = PlanCache()
        monkeypatch.setattr(cache_module, "PLAN_CACHE", cache)
        graph = build_model("segformer", batch_size=1)
        flow = get_flow("pytorch")
        first = profile_graph(graph, flow, PLATFORM_A, iterations=2, seed=3)
        second = profile_graph(graph, flow, PLATFORM_A, iterations=2, seed=3)
        assert len(calls) == 1
        assert cache.stats.hits["profile"] == 1
        assert second.total_latency_s == first.total_latency_s
        profile_graph(graph, flow, PLATFORM_A, iterations=2, seed=4)
        assert len(calls) == 2
        assert cache.stats.misses["profile"] == 2

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": True}, {"batch_size": 1.0}, {"seq_len": True}, {"seq_len": 1.0},
    ])
    @pytest.mark.parametrize("lookup", ["graph", "graph_ref"])
    def test_non_int_sizes_do_not_find_a_cached_build(self, kwargs, lookup):
        cache = PlanCache()
        cache.graph("gpt2", batch_size=1, seq_len=1)
        call = {"batch_size": 1, "seq_len": 1, **kwargs}
        with pytest.raises(ConfigError, match="must be an int"):
            getattr(cache, lookup)("gpt2", **call)

    def test_transform_cached_and_hash_derived(self):
        cache = PlanCache()
        graph = build_model("gpt2", batch_size=1)
        first = cache.transform("llm-int8", graph)
        assert cache.transform("llm-int8", graph) is first
        assert first.graph.content_hash() != graph.content_hash()


ANALYSIS = Path(__file__).resolve().parents[1] / "src" / "repro" / "analysis"


class TestSweepSpec:
    def test_every_axis_names_a_point_field(self):
        """Each dimension is the name of the point field its axis fills."""
        assert set(DIMENSIONS) <= {f.name for f in fields(SweepPoint)}
        spec = SweepSpec(
            models=("gpt2",), platforms=("B",), flows=("tensorrt",),
            batch_sizes=(2,), devices=("cpu",), seq_lens=(16,),
            loads=(0.5,), policies=("round-robin",), fault_profiles=("crash",),
            autoscalers=("step",),
        )
        (point,) = spec.points()
        for dimension in DIMENSIONS:
            assert (getattr(point, dimension),) == spec._values(dimension), dimension

    def test_analysis_orders_name_known_dimensions(self):
        orders = []
        for path in sorted(ANALYSIS.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg == "order":
                    orders.append((path.name, ast.literal_eval(node.value)))
        assert len(orders) >= 10
        for name, order in orders:
            assert set(order) <= set(DIMENSIONS), (name, order)

    def test_points_follow_order(self):
        spec = SweepSpec(
            models=("a", "b"),
            batch_sizes=(1, 2),
            order=("batch_size", "model"),
        )
        combos = [(p.batch_size, p.model) for p in spec.points()]
        assert combos == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_unknown_dimension_rejected(self):
        spec = SweepSpec(models=("a",), order=("nope",))
        with pytest.raises(RegistryError):
            spec.points()

    def test_unknown_device_rejected(self):
        spec = SweepSpec(models=("a",), devices=("tpu",))
        with pytest.raises(RegistryError):
            spec.points()

    def test_empty_dimension_yields_no_points(self):
        assert SweepSpec(models=()).points() == []

    def test_num_points(self):
        spec = SweepSpec(models=("a", "b"), batch_sizes=(1, 2, 4), devices=("gpu", "cpu"))
        assert spec.num_points == 12
        assert len(spec.points()) == 12


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Point the runner and profiler at an empty cache over an empty store.

    ``fresh_cache(name)`` installs one per call, each over its own store
    directory, which pool workers share whether forked or spawned.  No
    earlier run in this process, and no store kept across sessions, can
    then serve a point, so a pooled run really starts its pool.
    """
    from repro.sweep import cache as cache_module

    def install(name: str = "store") -> PlanCache:
        cache = PlanCache(store=ArtifactStore(tmp_path / name))
        monkeypatch.setattr(cache_module, "PLAN_CACHE", cache)
        monkeypatch.setattr("repro.sweep.runner.PLAN_CACHE", cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
        return cache

    return install


@pytest.fixture
def pool_starts(monkeypatch):
    """The process pools the sweep runner starts, one entry each."""
    from concurrent.futures import ProcessPoolExecutor

    started: list[int] = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("repro.sweep.runner.ProcessPoolExecutor", RecordingPool)
    return started


def _point(platform_id: str, mode: str) -> SweepPoint:
    return SweepPoint(
        platform=platform_id, model="gpt2", flow="pytorch", batch_size=1,
        device=mode, iterations=2,
    )


class TestOnePlacementDecision:
    """Sweep points and serving engines resolve (platform, target) through
    one resolver, so every layer agrees on where a mode runs."""

    @pytest.mark.parametrize("platform_id", [p.platform_id for p in list_platforms()])
    @pytest.mark.parametrize("mode", ["cpu", "gpu", "npu"])
    def test_run_point_and_engine_resolve_the_same_pair(self, platform_id, mode):
        from repro.serving import ServingConfig, ServingEngine

        profile = run_point(_point(platform_id, mode)).profile
        engine = ServingEngine(ServingConfig(model="gpt2", platform=platform_id, device=mode))
        assert (profile.platform.platform_id, profile.target) == (
            engine.platform.platform_id, engine.target
        )

    @pytest.mark.parametrize(
        "platform_id, mode", [("A", "npu"), ("B", "npu"), ("A-cpu", "gpu")]
    )
    def test_a_missing_target_profiles_exactly_like_the_cpu_point(self, platform_id, mode):
        missing = run_point(_point(platform_id, mode)).profile
        cpu = run_point(_point(platform_id, "cpu")).profile
        assert missing.target is DeviceKind.CPU
        assert missing.platform.platform_id == cpu.platform.platform_id
        assert missing.total_latency_s == cpu.total_latency_s
        # no idle accelerator is charged
        assert missing.energy_j == cpu.energy_j
        assert set(missing.energy_j) == {DeviceKind.CPU}


class TestSweepRunner:
    def test_cpu_point_uses_cpu_only_platform(self):
        point = SweepPoint(
            platform="A", model="segformer", flow="pytorch",
            batch_size=1, device="cpu", iterations=2,
        )
        record = run_point(point)
        assert record.profile.gpu_energy_j == 0.0
        assert record.profile.platform.platform_id == "A-cpu"

    def test_zero_iterations_is_a_config_error(self):
        with pytest.raises(ConfigError, match="iterations must be positive"):
            run_sweep(SweepSpec(models=("gpt2",), iterations=0))

    def test_matches_direct_profiling(self):
        spec = SweepSpec(
            models=("segformer",), batch_sizes=(1, 2), iterations=2, seed=5,
            order=("model", "batch_size"),
        )
        result = SweepRunner().run(spec)
        assert len(result) == 2
        for record, batch in zip(result.records, (1, 2)):
            direct = profile_graph(
                build_model("segformer", batch_size=batch),
                get_flow("pytorch"), PLATFORM_A,
                batch_size=batch, iterations=2, seed=5,
            )
            assert record.profile.total_latency_s == direct.total_latency_s

    def test_transform_point_carries_stats(self):
        point = SweepPoint(
            platform="A", model="gpt2-l", flow="pytorch", batch_size=1,
            device="gpu", transform="llm-int8", iterations=2,
        )
        record = run_point(point)
        assert record.transform_stats is not None
        assert record.transform_stats.ops_added > 0
        assert record.profile.model == "gpt2-l-llm-int8"

    def test_cache_info_is_per_run(self):
        spec = SweepSpec(models=("segformer",), batch_sizes=(1,), iterations=2)
        first = SweepRunner().run(spec)
        second = SweepRunner().run(spec)
        # the second run hits for every stage but reports only its own counts
        assert second.cache_info["hits"].get("plan") == 1
        assert first.cache_info["hits"].get("plan", 0) <= 1

    def test_seq_len_override_on_vision_model_names_the_problem(self):
        point = SweepPoint(
            platform="A", model="swin-t", flow="pytorch", batch_size=1,
            device="gpu", seq_len=128, iterations=2,
        )
        with pytest.raises(RegistryError, match="swin-t.*seq_len"):
            run_point(point)

    def test_transform_registry_errors_are_typed(self):
        with pytest.raises(RegistryError, match="unknown transform 'nope'.*llm-int8"):
            get_transform("nope")
        with pytest.raises(RegistryError, match="already registered"):
            register_transform("llm-int8", lambda graph: graph)
        point = SweepSpec(models=("gpt2",), transforms=("nope",)).points()[0]
        with pytest.raises(RegistryError, match="nope"):
            run_point(point)

    def test_parallel_matches_serial(self, fresh_cache, pool_starts):
        spec = SweepSpec(
            models=("segformer",), batch_sizes=(1, 2), iterations=2,
            order=("model", "batch_size"),
        )
        fresh_cache("serial")
        serial = SweepRunner(workers=0).run(spec)
        # a cache that knows nothing of the serial run: the pool's workers
        # measure every point themselves
        fresh_cache("pooled")
        parallel = SweepRunner(workers=2).run(spec)
        assert len(pool_starts) == 1
        assert parallel.cache_info["misses"]["profile"] == 2
        for a, b in zip(serial.records, parallel.records):
            assert a.point == b.point
            assert a.profile.total_latency_s == b.profile.total_latency_s
            assert a.profile.latency_by_group() == b.profile.latency_by_group()

    def test_pool_run_aggregates_worker_cache_deltas(self, fresh_cache, pool_starts):
        spec = SweepSpec(
            models=("segformer",), batch_sizes=(1, 2), iterations=2,
            order=("model", "batch_size"),
        )
        fresh_cache()
        result = SweepRunner(workers=2).run(spec)
        assert len(pool_starts) == 1
        info = result.cache_info
        # each of the two points touches the plan stage exactly once in its
        # worker — as an LRU hit, a disk hit or a miss — and the deltas ship
        # back.
        plan_events = sum(
            info.get(kind, {}).get("plan", 0)
            for kind in ("hits", "misses", "disk_hits")
        )
        assert plan_events == 2


    def test_pool_reads_a_warm_store(self, tmp_path, monkeypatch):
        # a fresh store shared by every worker, whether forked or spawned
        monkeypatch.setattr(PLAN_CACHE, "store", ArtifactStore(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = SweepSpec(
            models=("segformer",), batch_sizes=(5, 6), iterations=2,
            order=("model", "batch_size"),
        )
        cold = SweepRunner(workers=2).run(spec)
        warm = SweepRunner(workers=2).run(spec)
        # the warm run finds the cold run's profiles entry, so it computes
        # nothing (test_pool_workers_read_a_warm_store covers a warm run
        # whose workers do the reading).
        assert cold.cache_info["misses"]
        assert warm.cache_info["misses"] == {}
        assert warm.cache_info["disk_hits"]

    def test_pool_workers_read_a_warm_store(self, fresh_cache, pool_starts):
        spec = SweepSpec(
            models=("segformer",), batch_sizes=(5, 6), iterations=2,
            order=("model", "batch_size"),
        )
        fresh_cache()
        SweepRunner(workers=2).run(spec)
        # another seed shares every plan and memory profile but has no
        # profiles entry, so a pool starts.  The cold run's workers computed
        # what the parent's LRU lacks, so the warm run's workers can only
        # have read it from the store: just the profiles miss.
        warm = SweepRunner(workers=2).run(replace(spec, seed=1))
        assert len(pool_starts) == 2
        assert warm.cache_info["misses"] == {"profile": 2}
        assert warm.cache_info["disk_hits"]["plan"] == 2
        assert warm.cache_info["disk_hits"]["memory"] == 2


class TestSweepCLI:
    def test_sweep_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "--models", "segformer", "--batches", "1",
             "--devices", "gpu", "--iterations", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "segformer" in out
        assert "1 points" in out


class TestGraphCallValueSemantics:
    def test_value_is_tuple_but_not_unpacked_by_call(self):
        g = Graph("t")
        x = g.input(TensorSpec((2, 4)), "x")
        y = g.call(ops.GELU(), x)
        g.set_outputs(y)
        assert y.node_id == 1 and y.port == 0
        out = Graph("q")
        xin = out.input(TensorSpec((2, 12)), "x")
        parts = out.call(ops.Split(3, dim=1), xin)
        assert isinstance(parts, tuple) and len(parts) == 3
