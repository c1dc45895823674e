"""Persistent artifact store tests: correctness under every failure mode.

The product invariant is that the disk tier can make runs faster but never
different: outputs must be byte-identical with the store cold, warm,
disabled, or corrupted, across processes, schema versions, and code
fingerprints.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PlanError
from repro.flows import KernelTable, get_flow
from repro.hardware import PLATFORM_A
from repro.models import build_model
from repro.profiler import profile_graph
from repro.profiler.profiler import profile_graph as profile_graph_direct
from repro.runtime.simulator import simulate
from repro.sweep.cache import GraphRef, PlanCache
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ArtifactStore, plan_from_payload, plan_payload

from oracles import simulate_reference

MODEL = "segformer"
REPO_ROOT = Path(__file__).resolve().parent.parent


def make_store(tmp_path, **kwargs) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store", **kwargs)


def profile_with(cache: PlanCache, model: str = MODEL, seed: int = 3):
    graph = cache.graph_ref(model, batch_size=1)
    flow = get_flow("pytorch")
    plan = cache.plan(flow, graph, use_gpu=True)
    memory = cache.memory(graph)
    return plan, memory


class TestRoundTrip:
    def test_plan_served_from_disk_is_equivalent(self, tmp_path):
        store = make_store(tmp_path)
        writer = PlanCache(store=store)
        plan, memory = profile_with(writer)

        reader = PlanCache(store=make_store(tmp_path))
        loaded_plan, loaded_memory = profile_with(reader)
        assert reader.stats.disk_hits.get("plan") == 1
        assert reader.stats.disk_hits.get("memory") == 1
        assert reader.stats.misses == {}
        assert loaded_memory == memory
        assert loaded_plan.content_hash() == plan.content_hash()
        # lazily-decoded kernels reconstruct the exact PlannedKernel list
        assert isinstance(loaded_plan.kernels, KernelTable)
        assert loaded_plan.kernels == plan.kernels
        assert loaded_plan.covered_node_count() == plan.covered_node_count()
        loaded_plan.validate()

    def test_simulation_identical_with_and_without_store(self, tmp_path):
        import numpy as np

        from repro.runtime.simulator import simulate

        flow = get_flow("pytorch")
        graph = build_model(MODEL, batch_size=1)
        direct = simulate(flow.lower(graph, use_gpu=True), PLATFORM_A)

        profile_with(PlanCache(store=make_store(tmp_path)))
        reader = PlanCache(store=make_store(tmp_path))
        loaded_plan = reader.plan(flow, reader.graph_ref(MODEL, batch_size=1), True)
        loaded = simulate(loaded_plan, PLATFORM_A)
        assert loaded.total_latency_s == direct.total_latency_s
        assert loaded.gpu_energy_j == direct.gpu_energy_j
        assert np.array_equal(loaded.latencies, direct.latencies)

    def test_transform_round_trip_keeps_stats_and_hash(self, tmp_path):
        writer = PlanCache(store=make_store(tmp_path))
        parent = writer.graph_ref("gpt2", batch_size=1)
        first = writer.transform("llm-int8", parent)

        reader = PlanCache(store=make_store(tmp_path))
        loaded = reader.transform("llm-int8", reader.graph_ref("gpt2", batch_size=1))
        assert reader.stats.disk_hits.get("transform") == 1
        assert loaded.stats == first.stats
        # the lazy graph ref names the same derived content hash without
        # re-running the transform...
        assert isinstance(loaded.graph, GraphRef)
        assert loaded.graph.content_hash() == first.graph.content_hash()
        # ...and materializes to the same structure if actually walked
        assert len(loaded.graph.materialize()) == len(first.graph.materialize())


class TestCorruption:
    def corrupt(self, store: ArtifactStore, mutate) -> int:
        entries = list(store.directory.glob("*.pkl"))
        for path in entries:
            mutate(path)
        return len(entries)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
            lambda p: p.write_bytes(b"not a pickle"),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(pickle.dumps(("wrong", "key"))),
        ],
        ids=["truncated", "garbage", "empty", "wrong-shape"],
    )
    def test_corrupt_entries_recompute_not_crash(self, tmp_path, mutate):
        store = make_store(tmp_path)
        plan, memory = profile_with(PlanCache(store=store))
        assert self.corrupt(store, mutate) > 0

        reader = PlanCache(store=make_store(tmp_path))
        loaded_plan, loaded_memory = profile_with(reader)
        assert reader.stats.disk_hits == {}
        assert reader.stats.misses.get("plan") == 1
        assert loaded_memory == memory
        assert loaded_plan.kernels == plan.kernels

    def test_unreadable_entries_are_removed(self, tmp_path):
        store = make_store(tmp_path)
        profile_with(PlanCache(store=store))
        self.corrupt(store, lambda p: p.write_bytes(b"junk"))
        profile_with(PlanCache(store=make_store(tmp_path)))
        # the poisoned files were dropped and replaced by fresh writes
        for path in store.directory.glob("*.pkl"):
            assert path.read_bytes() != b"junk"


class TestInvalidation:
    def test_schema_version_mismatch_misses(self, tmp_path):
        old = make_store(tmp_path, schema_version=1)
        profile_with(PlanCache(store=old))

        bumped = make_store(tmp_path, schema_version=2)
        reader = PlanCache(store=bumped)
        profile_with(reader)
        assert reader.stats.disk_hits == {}
        assert reader.stats.misses.get("plan") == 1

    def test_code_fingerprint_mismatch_misses(self, tmp_path):
        current = make_store(tmp_path)
        profile_with(PlanCache(store=current))

        other_code = make_store(tmp_path, fingerprint="deadbeef")
        reader = PlanCache(store=other_code)
        profile_with(reader)
        assert reader.stats.disk_hits == {}
        assert reader.stats.misses.get("plan") == 1


class TestEviction:
    def test_size_cap_evicts_oldest(self, tmp_path):
        store = make_store(tmp_path, max_bytes=4096)
        blob = b"x" * 1200
        for index in range(8):  # sequential puts: mtimes strictly ordered
            store.put(("blob", index), blob)
        info = store.info()
        assert info.total_bytes <= 4096
        assert info.entries < 8
        # the most recent entries survived, the oldest were evicted
        assert store.get(("blob", 7)) == blob
        assert store.get(("blob", 0)) is None

    def test_oversized_value_is_not_stored(self, tmp_path):
        store = make_store(tmp_path, max_bytes=64)
        store.put(("blob", 0), b"y" * 4096)
        assert store.info().entries == 0


class TestSharedStore:
    def test_two_processes_share_one_directory(self, tmp_path):
        store_dir = tmp_path / "store"
        script = (
            "from repro.sweep.cache import PlanCache\n"
            "from repro.sweep.store import ArtifactStore\n"
            "from repro.flows import get_flow\n"
            f"cache = PlanCache(store=ArtifactStore({str(store_dir)!r}))\n"
            f"ref = cache.graph_ref({MODEL!r}, batch_size=1)\n"
            "cache.plan(get_flow('pytorch'), ref, use_gpu=True)\n"
            "cache.memory(ref)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=env, cwd=REPO_ROOT
        )
        reader = PlanCache(store=ArtifactStore(store_dir))
        profile_with(reader)
        assert reader.stats.disk_hits.get("plan") == 1
        assert reader.stats.misses == {}


class TestLazyGraphs:
    def test_warm_store_never_builds_the_graph(self, tmp_path, monkeypatch):
        flow = get_flow("pytorch")
        writer = PlanCache(store=make_store(tmp_path))
        profile_with(writer)

        from repro.models import registry

        def forbidden(name, batch_size=1, **overrides):
            raise AssertionError("graph was built despite a warm store")

        reader = PlanCache(store=make_store(tmp_path))
        ref = reader.graph_ref(MODEL, batch_size=1)
        monkeypatch.setattr(registry, "build_model", forbidden)
        monkeypatch.setattr("repro.sweep.cache.build_model", forbidden)
        profile = profile_graph_with_cache(reader, ref, flow)
        assert profile.num_graph_ops > 0
        assert profile.peak_memory_bytes > 0

    def test_graph_ref_hash_matches_built_graph(self):
        cache = PlanCache()
        ref = cache.graph_ref(MODEL, batch_size=1)
        twin = cache.graph_ref(MODEL, batch_size=1)
        assert isinstance(ref, GraphRef)
        lazy_hash = ref.content_hash()
        # two handles of one build key share one build
        assert twin.materialize() is ref.materialize()
        assert cache.stats.misses == {"graph": 1}
        built = cache.graph(MODEL, batch_size=1)
        assert built.content_hash() == lazy_hash
        assert ref.materialize() is built
        # once the LRU holds the build, the ref shortcut returns it directly
        assert cache.graph_ref(MODEL, batch_size=1) is built


def profile_graph_with_cache(cache: PlanCache, graph, flow):
    """profile_graph but routed through an isolated cache instance."""
    import repro.profiler.profiler as profiler_module

    original_lower = profiler_module.cached_lower
    original_memory = profiler_module.cached_profile_memory
    profiler_module.cached_lower = cache.plan
    profiler_module.cached_profile_memory = cache.memory
    try:
        return profile_graph_direct(
            graph, flow, PLATFORM_A, use_gpu=True, iterations=2, seed=1,
            model_name=MODEL,
        )
    finally:
        profiler_module.cached_lower = original_lower
        profiler_module.cached_profile_memory = original_memory


class TestExternalCode:
    """Out-of-tree lowering code must invalidate its store entries on edit."""

    FLOW_SOURCE = (
        "from repro.flows.base import DeploymentFlow\n"
        "class ExtFlow(DeploymentFlow):\n"
        "    name = 'ext-flow'\n"
        "    dispatch_profile = 'pytorch-eager'\n"
    )

    def test_in_tree_flows_contribute_nothing(self):
        from repro.sweep.store import external_fingerprint

        flow = get_flow("pytorch")
        assert PlanCache._flow_identity(flow) == ""
        from repro.models import get_model

        assert external_fingerprint(get_model(MODEL).builder) == ""

    def test_edited_external_flow_changes_identity(self, tmp_path, monkeypatch):
        import importlib

        module_dir = tmp_path / "ext"
        module_dir.mkdir()
        module_file = module_dir / "ext_flow_mod.py"
        module_file.write_text(self.FLOW_SOURCE)
        monkeypatch.syspath_prepend(str(module_dir))
        import ext_flow_mod  # noqa: F401  (dynamic test module)

        first = PlanCache._flow_identity(ext_flow_mod.ExtFlow())
        assert first != ""

        module_file.write_text(self.FLOW_SOURCE + "# behavior edited\n")
        os.utime(module_file, (os.path.getmtime(module_file) + 2,) * 2)
        importlib.reload(ext_flow_mod)
        second = PlanCache._flow_identity(ext_flow_mod.ExtFlow())
        assert second != "" and second != first


class TestDetach:
    def test_detach_materializes_records_and_drops_backrefs(self):
        graph = build_model(MODEL, batch_size=1)
        profile = profile_graph(
            graph, get_flow("pytorch"), PLATFORM_A, use_gpu=True, iterations=2, seed=4
        )
        reference = profile_graph(
            graph, get_flow("pytorch"), PLATFORM_A, use_gpu=True, iterations=2, seed=4
        )
        detached = profile.detach()
        assert detached is profile
        assert profile._plan is None
        assert profile._kernel_latency_s is None
        assert profile._gemm_mask is None
        assert profile._group_pos is None
        # aggregates fall back to record-order loops, bit-identically
        assert profile.records == reference.records
        assert profile.latency_by_group() == reference.latency_by_group()
        assert profile.non_gemm_latency_s == reference.non_gemm_latency_s

    def test_detached_profile_pickles_small(self):
        graph = build_model(MODEL, batch_size=1)
        profile = profile_graph(
            graph, get_flow("pytorch"), PLATFORM_A, use_gpu=True, iterations=2, seed=4
        )
        attached = len(pickle.dumps(profile))
        detached = len(pickle.dumps(profile.detach()))
        assert detached < attached


class TestServingCosts:
    """The batch-indexed ``"serving"`` artifact kind (BatchCost entries)."""

    def _compute(self, cache: PlanCache, counter: list):
        from repro.runtime.simulator import simulate
        from repro.serving.cost import batch_cost_from_simulation

        flow = get_flow("pytorch")
        graph = cache.graph_ref(MODEL, batch_size=1)

        def compute(plan):
            counter.append(1)
            return batch_cost_from_simulation(simulate(plan, PLATFORM_A), 1)

        return cache.serving_cost(flow, graph, "gpu", PLATFORM_A, compute)

    def test_round_trip_skips_compute_and_graph_build(self, tmp_path, monkeypatch):
        calls: list = []
        writer = PlanCache(store=make_store(tmp_path))
        written = self._compute(writer, calls)
        assert calls == [1] and written.total_s > 0.0

        from repro.models import registry

        def forbidden(name, batch_size=1, **overrides):
            raise AssertionError("graph was built despite a warm serving store")

        monkeypatch.setattr(registry, "build_model", forbidden)
        monkeypatch.setattr("repro.sweep.cache.build_model", forbidden)
        reader = PlanCache(store=make_store(tmp_path))
        restored = self._compute(reader, calls)
        assert calls == [1]  # served from disk, never recomputed
        assert restored == written
        assert pickle.loads(pickle.dumps(restored)) == written

    def test_platform_signature_invalidates(self, tmp_path):
        from repro.hardware.platform import Platform

        calls: list = []
        cache = PlanCache(store=make_store(tmp_path))
        self._compute(cache, calls)
        # a same-id platform with different numbers must miss, not alias
        twin = Platform(
            platform_id=PLATFORM_A.platform_id,
            description=PLATFORM_A.description,
            cpu=PLATFORM_A.cpu,
            gpu=PLATFORM_A.gpu,
            pcie_bandwidth=PLATFORM_A.pcie_bandwidth / 2,
        )
        assert twin.content_signature() != PLATFORM_A.content_signature()
        flow = get_flow("pytorch")
        graph = cache.graph_ref(MODEL, batch_size=1)
        fresh = PlanCache(store=make_store(tmp_path))
        sentinel = object()
        result = fresh.serving_cost(flow, graph, "gpu", twin, lambda plan: sentinel)
        assert result is sentinel  # recomputed, not served from the store

    def test_dispatch_profile_edit_invalidates(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from repro.hardware.calibration import DISPATCH_PROFILES

        calls: list = []
        cache = PlanCache(store=make_store(tmp_path))
        before = self._compute(cache, calls)
        # the simulator reads the dispatch profile on every call, so a
        # runtime edit of it must miss in the LRU and in the store alike
        eager = DISPATCH_PROFILES["eager"]
        monkeypatch.setitem(
            DISPATCH_PROFILES, "eager", replace(eager, gpu_kernel=eager.gpu_kernel / 10)
        )
        after = self._compute(cache, calls)
        assert calls == [1, 1]
        assert after.total_s < before.total_s

    def test_serving_result_pickles_lean(self):
        import numpy as np

        from repro.serving import ServingConfig, ServingEngine, make_trace

        engine = ServingEngine(ServingConfig(model=MODEL, platform="A"))
        rate = 1.0 / engine.base_latency_s()
        trace = make_trace("poisson", rate, 6, np.random.default_rng(0))
        result = engine.run(trace)
        blob = pickle.dumps(result)
        # plan-free by construction: no ExecutionPlan/Graph backrefs ride
        # along (the serving analogue of ProfileResult.detach()).
        assert b"ExecutionPlan" not in blob and b"PlannedKernel" not in blob
        restored = pickle.loads(blob)
        assert restored.records == result.records
        assert restored.busy_s == result.busy_s


@pytest.fixture
def install(monkeypatch):
    """Route the sweep runner, the profiler and Table I through ``cache``."""
    from repro.sweep import cache as cache_module

    def install(cache: PlanCache) -> PlanCache:
        monkeypatch.setattr(cache_module, "PLAN_CACHE", cache)
        monkeypatch.setattr("repro.sweep.runner.PLAN_CACHE", cache)
        monkeypatch.setattr("repro.analysis.tables.PLAN_CACHE", cache)
        return cache

    return install


def forbid_model_work(monkeypatch) -> None:
    """Make building a graph, simulating a plan or profiling memory raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("model work despite a warm store")

    from repro.models import registry

    monkeypatch.setattr(registry, "build_model", forbidden)
    monkeypatch.setattr("repro.sweep.cache.build_model", forbidden)
    monkeypatch.setattr("repro.profiler.profiler.simulate", forbidden)
    monkeypatch.setattr("repro.runtime.memory.profile_memory", forbidden)


#: a grid with CPU and GPU points, two flows and a transform-free batch axis
SPEC = SweepSpec(
    models=(MODEL, "gpt2"), batch_sizes=(1, 2), flows=("pytorch", "tensorrt"),
    devices=("gpu", "cpu"), iterations=2, seed=3,
)


def run_spec(spec: SweepSpec = SPEC):
    from repro.sweep.runner import SweepRunner

    return SweepRunner().run(spec)


class TestStoredProfiles:
    """The ``"profile"`` stage: one measurement per distinct point in process,
    one ``"profiles"`` store entry per sweep run."""

    AGGREGATES = (
        "model", "flow", "use_gpu", "target", "batch_size", "iterations",
        "total_latency_s", "total_latency_std_s", "energy_j", "gpu_energy_j",
        "cpu_energy_j", "total_latency_ms", "peak_memory_bytes", "num_graph_ops",
        "num_kernels", "non_gemm_fusion_rate", "gemm_latency_s",
        "non_gemm_latency_s", "gemm_share", "non_gemm_share",
    )

    def assert_same_profile(self, served, computed):
        for name in self.AGGREGATES:
            assert getattr(served, name) == getattr(computed, name), name
        assert served.platform.platform_id == computed.platform.platform_id
        assert served.latency_by_group() == computed.latency_by_group()
        assert served.share_by_group() == computed.share_by_group()
        assert served.dominant_non_gemm_group() == computed.dominant_non_gemm_group()
        assert served.describe() == computed.describe()
        assert served.records == computed.records
        assert served.top_operators(5) == computed.top_operators(5)
        assert served.top_operators(5, non_gemm_only=True) == computed.top_operators(
            5, non_gemm_only=True
        )

    def test_served_sweep_equals_computed(self, tmp_path, install, monkeypatch):
        install(PlanCache(store=make_store(tmp_path)))
        computed = run_spec()
        assert computed.cache_info["misses"]["profile"] == len(computed)
        reader = install(PlanCache(store=make_store(tmp_path)))
        forbid_model_work(monkeypatch)
        served = run_spec()
        assert served.cache_info["misses"] == {}
        # one store read serves every point of the run
        assert served.cache_info["disk_hits"]["profile"] == 1
        assert served.cache_info["hits"]["profile"] == len(served)
        # plans still come from the plan layer (decoded from the store)
        assert served.cache_info["disk_hits"]["plan"] == reader.stats.disk_hits["plan"] > 0
        for a, b in zip(served.records, computed.records):
            assert a.point == b.point
            self.assert_same_profile(a.profile, b.profile)
            a.profile.detach()
            b.profile.detach()
            self.assert_same_profile(a.profile, b.profile)

    def test_warm_paper_tables_do_no_model_work(self, tmp_path, install, monkeypatch):
        from repro.analysis import run_fig7, run_table1

        install(PlanCache(store=make_store(tmp_path)))
        cold = (run_table1(), run_fig7(iterations=2))
        install(PlanCache(store=make_store(tmp_path)))
        forbid_model_work(monkeypatch)
        warm = (run_table1(), run_fig7(iterations=2))
        for a, b in zip(warm, cold):
            assert a.rows == b.rows
            assert a.render() == b.render()

    def test_reregistered_platform_misses(self, tmp_path, install):
        from dataclasses import replace

        from repro.hardware.platform import PLATFORM_REGISTRY, Platform, register_platform

        spec = SweepSpec(models=(MODEL,), platforms=("store-twin",), iterations=2)
        try:
            register_platform(
                Platform("store-twin", "twin", cpu=PLATFORM_A.cpu, gpu=PLATFORM_A.gpu)
            )
            install(PlanCache(store=make_store(tmp_path)))
            first = run_spec(spec)
            slower = replace(PLATFORM_A.gpu, mem_bandwidth=PLATFORM_A.gpu.mem_bandwidth / 2)
            register_platform(
                Platform("store-twin", "twin", cpu=PLATFORM_A.cpu, gpu=slower), replace=True
            )
            install(PlanCache(store=make_store(tmp_path)))
            second = run_spec(spec)
        finally:
            PLATFORM_REGISTRY.unregister("store-twin")
        assert second.cache_info["misses"]["profile"] == 1
        assert second.records[0].profile.total_latency_s > first.records[0].profile.total_latency_s

    def test_edited_external_flow_misses(self, tmp_path, install, monkeypatch):
        import importlib

        from repro.flows import FLOW_REGISTRY, register_flow

        module_dir = tmp_path / "ext"
        module_dir.mkdir()
        module_file = module_dir / "ext_store_flow.py"
        source = TestExternalCode.FLOW_SOURCE.replace("ext-flow", "ext-store-flow").replace(
            "pytorch-eager", "eager"
        )
        module_file.write_text(source)
        monkeypatch.syspath_prepend(str(module_dir))
        import ext_store_flow

        spec = SweepSpec(models=(MODEL,), flows=("ext-store-flow",), iterations=2)
        try:
            register_flow(ext_store_flow.ExtFlow)
            install(PlanCache(store=make_store(tmp_path)))
            assert run_spec(spec).cache_info["misses"]["profile"] == 1
            install(PlanCache(store=make_store(tmp_path)))
            assert run_spec(spec).cache_info["hits"]["profile"] == 1

            module_file.write_text(source + "# behavior edited\n")
            os.utime(module_file, (os.path.getmtime(module_file) + 2,) * 2)
            importlib.reload(ext_store_flow)
            register_flow(ext_store_flow.ExtFlow, replace=True)
            install(PlanCache(store=make_store(tmp_path)))
            edited = run_spec(spec)
        finally:
            FLOW_REGISTRY.unregister("ext-store-flow")
        # the grid's entry is read, but the edited flow's point misses in it
        assert edited.cache_info["disk_hits"]["profile"] == 1
        assert edited.cache_info["misses"]["profile"] == 1
        assert "profile" not in edited.cache_info["hits"]

    @pytest.mark.parametrize("change", [{"iterations": 3}, {"seed": 4}])
    def test_other_iterations_or_seed_misses(self, tmp_path, install, change):
        from dataclasses import replace

        spec = SweepSpec(models=(MODEL,), iterations=2, seed=3)
        cache = install(PlanCache(store=make_store(tmp_path)))
        first = run_spec(spec)
        second = run_spec(replace(spec, **change))
        assert cache.stats.misses["profile"] == 2
        assert second.cache_info["misses"]["profile"] == 1
        assert second.records[0].profile.total_latency_s != first.records[0].profile.total_latency_s

    def test_dispatch_profile_edit_misses(self, tmp_path, install, monkeypatch):
        from dataclasses import replace

        from repro.hardware.calibration import DISPATCH_PROFILES

        spec = SweepSpec(models=(MODEL,), iterations=2)
        cache = install(PlanCache(store=make_store(tmp_path)))
        first = run_spec(spec)
        eager = DISPATCH_PROFILES["eager"]
        monkeypatch.setitem(
            DISPATCH_PROFILES, "eager", replace(eager, gpu_kernel=eager.gpu_kernel / 10)
        )
        edited = run_spec(spec)
        monkeypatch.setitem(DISPATCH_PROFILES, "eager", eager)
        restored = run_spec(spec)
        assert cache.stats.misses["profile"] == 2
        assert edited.cache_info["misses"]["profile"] == 1
        assert edited.records[0].profile.total_latency_s < first.records[0].profile.total_latency_s
        assert restored.cache_info["hits"]["profile"] == 1
        assert restored.records[0].profile.total_latency_s == first.records[0].profile.total_latency_s

    def test_shared_points_profile_once(self, install, monkeypatch):
        import repro.profiler.profiler as profiler_module

        calls: list = []
        original = profiler_module.simulate

        def counting(plan, platform):
            calls.append(plan)
            return original(plan, platform)

        monkeypatch.setattr(profiler_module, "simulate", counting)
        install(PlanCache())
        first = run_spec(SweepSpec(models=(MODEL,), batch_sizes=(1, 2), iterations=2))
        second = run_spec(SweepSpec(models=(MODEL,), batch_sizes=(2, 4), iterations=2))
        assert len(calls) == 3
        assert second.cache_info["hits"]["profile"] == 1
        assert second.cache_info["misses"]["profile"] == 1
        shared, twin = first.records[1].profile, second.records[0].profile
        assert shared is not twin
        reference = (twin.records, twin.latency_by_group(), twin.non_gemm_latency_s)
        shared.detach()
        assert twin._kernel_latency_s is not None and twin._plan is not None
        assert (twin.records, twin.latency_by_group(), twin.non_gemm_latency_s) == reference
        assert twin.top_operators(5) == shared.top_operators(5)

    def test_pooled_and_serial_runs_share_one_entry(self, tmp_path, install, monkeypatch):
        import concurrent.futures

        from repro.sweep.runner import SweepRunner

        spec = SweepSpec(models=(MODEL,), batch_sizes=(3, 5), iterations=2, seed=7)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        install(PlanCache(store=make_store(tmp_path)))
        pooled = SweepRunner(workers=2).run(spec)
        assert pooled.cache_info["misses"]["profile"] == 2
        assert make_store(tmp_path).info().entries_by_kind["profiles"] == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a stored sweep")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr("repro.sweep.runner.ProcessPoolExecutor", no_pool)
        for workers in (0, 2):
            install(PlanCache(store=make_store(tmp_path)))
            served = SweepRunner(workers=workers).run(spec)
            assert served.cache_info["misses"] == {}
            assert served.cache_info["disk_hits"]["profile"] == 1
            assert served.cache_info["hits"]["profile"] == 2
            for a, b in zip(served.records, pooled.records):
                assert a.profile.records == b.profile.records
                assert a.profile.total_latency_s == b.profile.total_latency_s

    def test_cold_paper_pass_evicts_nothing(self, tmp_path, install):
        from repro import analysis

        cache = install(PlanCache(store=make_store(tmp_path)))
        harnesses = {
            "fig1": 3, "fig5": 2, "fig6": 2, "fig7": 3, "fig8": 2, "fig9": 2,
            "table1": None, "table4": 2, "table5": 2, "ext1": 2,
        }
        for harness, iterations in harnesses.items():
            kwargs = {} if iterations is None else {"iterations": iterations}
            getattr(analysis, f"run_{harness}")(**kwargs)
        assert cache.stats.evictions == 0
        assert len(cache) <= cache.max_entries


class TestPayloads:
    def test_plan_payload_round_trips_exactly(self):
        graph = build_model("swin-t", batch_size=1)
        for flow_name in ("pytorch", "tensorrt", "onnxruntime"):
            plan = get_flow(flow_name).lower(graph, use_gpu=True)
            restored = plan_from_payload(
                pickle.loads(pickle.dumps(plan_payload(plan))), graph
            )
            assert list(restored.kernels) == plan.kernels
            assert restored.content_hash() == plan.content_hash()
            assert restored.non_gemm_fusion_rate() == plan.non_gemm_fusion_rate()
            # the restored table simulates exactly like the scalar oracle
            # walking the original plan's rows
            fast = simulate(restored, PLATFORM_A)
            slow = simulate_reference(plan, PLATFORM_A)
            assert np.array_equal(fast.latencies, [r.latency_s for r in slow.records])
            assert fast.total_latency_s == slow.total_latency_s
            assert fast.energy_j == slow.energy_j

    def test_kernel_table_rejects_flops_beyond_int64(self):
        plan = get_flow("pytorch").lower(build_model("swin-t", batch_size=1))
        row = plan.kernels[0]
        huge = row._replace(cost=row.cost._replace(flops=2**63))
        with pytest.raises(PlanError):
            KernelTable.from_rows([huge])

    def test_kernel_table_pickles_without_its_row_cache(self):
        table = get_flow("pytorch").lower(build_model("swin-t", batch_size=1)).kernels
        before = pickle.dumps(table)
        rows = list(table)
        assert pickle.dumps(table) == before
        assert list(pickle.loads(before)) == rows

    def test_sweep_result_reports_disk_hits(self, tmp_path, monkeypatch):
        from repro.sweep import cache as cache_module
        from repro.sweep.runner import SweepRunner

        spec = SweepSpec(models=(MODEL,), batch_sizes=(1,), iterations=2)
        monkeypatch.setattr(
            cache_module, "PLAN_CACHE", PlanCache(store=make_store(tmp_path))
        )
        monkeypatch.setattr(
            "repro.sweep.runner.PLAN_CACHE", cache_module.PLAN_CACHE
        )
        first = SweepRunner().run(spec)
        assert first.cache_info["misses"].get("plan") == 1
        assert "disk_hits" in first.cache_info

        fresh = PlanCache(store=make_store(tmp_path))
        monkeypatch.setattr(cache_module, "PLAN_CACHE", fresh)
        monkeypatch.setattr("repro.sweep.runner.PLAN_CACHE", fresh)
        second = SweepRunner().run(spec)
        assert second.cache_info["disk_hits"].get("plan") == 1
        assert second.cache_info["misses"].get("plan") is None
