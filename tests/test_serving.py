"""Serving simulator tests: traces, schedulers, the event loop, metrics.

The load-bearing suite is the equivalence battery: with one request, batch
size 1, and a FIFO scheduler, the serving engine's end-to-end latency must
be **bit-identical** to ``Simulation.total_latency_s`` for every registered
flow on every registered platform — the serving analogue of the
scalar-vs-vectorized simulator battery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServingError
from repro.flows import get_flow, list_flows
from repro.hardware import list_platforms
from repro.hardware.device import DeviceKind, as_device_kind
from repro.hardware.platform import get_platform, resolve_target
from repro.runtime.simulator import simulate
from repro.serving import (
    ClusterConfig,
    ClusterRouter,
    ContinuousBatchScheduler,
    Request,
    RequestTrace,
    ServingConfig,
    ServingEngine,
    get_scheduler,
    list_schedulers,
    list_traces,
    make_trace,
    nearest_rank,
    register_scheduler,
    simulate_serving,
)
from repro.serving.scheduler import SCHEDULER_REGISTRY, BatchScheduler, Dispatch
from repro.sweep.cache import PLAN_CACHE

from registrations import restored

MODEL = "vit-b"


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def single_request_trace() -> RequestTrace:
    return RequestTrace("single", (Request(0, 0.0, 1),))


# -- traces -----------------------------------------------------------------


class TestTraces:
    def test_registry_lists_builtins(self):
        assert list_traces() == ["bursty", "closed-loop", "poisson"]

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "closed-loop"])
    def test_deterministic_and_sorted(self, kind):
        a = make_trace(kind, 100.0, 32, rng(7), decode_steps=(1, 4))
        b = make_trace(kind, 100.0, 32, rng(7), decode_steps=(1, 4))
        assert a == b
        arrivals = [r.arrival_s for r in a.requests]
        assert arrivals == sorted(arrivals)
        assert all(1 <= r.decode_steps <= 4 for r in a.requests)

    def test_poisson_rate_roughly_matches(self):
        trace = make_trace("poisson", 200.0, 400, rng(1))
        assert trace.offered_rate_rps == pytest.approx(200.0, rel=0.25)
        assert trace.requests[0].arrival_s == 0.0

    def test_bursty_clusters(self):
        trace = make_trace("bursty", 100.0, 16, rng(0))
        gaps = np.diff([r.arrival_s for r in trace.requests])
        # within-burst gaps are two orders of magnitude under the burst gap
        assert np.median(gaps) < 0.1 * np.max(gaps)

    def test_round_trip_is_bit_exact(self):
        trace = make_trace("poisson", 50.0, 12, rng(3), decode_steps=(2, 5))
        replayed = RequestTrace.from_rows(trace.name, trace.to_rows())
        assert replayed == trace

    def test_validation(self):
        with pytest.raises(ServingError):
            make_trace("poisson", -1.0, 4, rng(0))
        with pytest.raises(ServingError):
            make_trace("nope", 1.0, 4, rng(0))
        with pytest.raises(ServingError):
            RequestTrace("bad", (Request(0, 1.0), Request(1, 0.5)))
        with pytest.raises(ServingError):
            RequestTrace("bad", (Request(0, 0.0, decode_steps=0),))

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "closed-loop"])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, kind, rate):
        # a NaN rate used to yield all-NaN arrivals that hung the engine.
        with pytest.raises(ServingError, match="finite"):
            make_trace(kind, rate, 20, rng(0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrivals_rejected(self, bad):
        with pytest.raises(ServingError, match="non-finite"):
            RequestTrace(
                "bad", arrival_s=np.array([0.0, bad]), decode_steps=np.array([1, 1])
            )
        with pytest.raises(ServingError, match="non-finite"):
            RequestTrace("bad", (Request(0, bad),))


# -- schedulers -------------------------------------------------------------


class TestSchedulers:
    def test_registry_lists_builtins(self):
        assert list_schedulers() == ["continuous", "dynamic", "fifo", "static"]
        with pytest.raises(ServingError):
            get_scheduler("mystery")

    @pytest.mark.parametrize(
        "knobs",
        [dict(max_batch=0), dict(max_wait_s=-1e-3), dict(max_wait_s=float("nan"))],
    )
    def test_bad_knobs_rejected(self, knobs):
        with pytest.raises(ServingError, match=next(iter(knobs))):
            get_scheduler("dynamic", **knobs)

    def test_fresh_instance_per_call(self):
        assert get_scheduler("fifo") is not get_scheduler("fifo")

    def test_fifo_serves_in_arrival_order(self):
        scheduler = get_scheduler("fifo")
        scheduler.admit(Request(0, 0.0, decode_steps=3))
        scheduler.admit(Request(1, 0.0))
        first = scheduler.next_dispatch(0.0, arrivals_pending=False)
        assert first.members == (0,) and first.iterations == 3
        second = scheduler.next_dispatch(0.0, arrivals_pending=False)
        assert second.members == (1,) and second.size == 1

    def test_static_waits_for_full_batch_then_flushes(self):
        scheduler = get_scheduler("static", max_batch=3)
        scheduler.admit(Request(0, 0.0))
        scheduler.admit(Request(1, 0.0))
        assert scheduler.next_dispatch(0.0, arrivals_pending=True) is None
        scheduler.admit(Request(2, 0.0))
        full = scheduler.next_dispatch(0.0, arrivals_pending=True)
        assert full.size == 3 and full.completes == (0, 1, 2)
        scheduler.admit(Request(3, 1.0))
        flush = scheduler.next_dispatch(1.0, arrivals_pending=False)
        assert flush.size == 1 and flush.members == (3,)

    def test_dynamic_deadline_then_partial_launch(self):
        scheduler = get_scheduler("dynamic", max_batch=4, max_wait_s=0.01)
        scheduler.admit(Request(0, 0.0))
        verdict = scheduler.next_dispatch(0.0, arrivals_pending=True)
        assert verdict == pytest.approx(0.01)
        launched = scheduler.next_dispatch(0.01, arrivals_pending=True)
        assert isinstance(launched, Dispatch) and launched.size == 1

    def test_dynamic_full_batch_launches_immediately(self):
        scheduler = get_scheduler("dynamic", max_batch=2, max_wait_s=10.0)
        scheduler.admit(Request(0, 0.0))
        scheduler.admit(Request(1, 0.0))
        launched = scheduler.next_dispatch(0.0, arrivals_pending=True)
        assert isinstance(launched, Dispatch) and launched.size == 2

    def test_continuous_iteration_membership(self):
        scheduler = get_scheduler("continuous", max_batch=2)
        scheduler.admit(Request(0, 0.0, decode_steps=2))
        scheduler.admit(Request(1, 0.0, decode_steps=1))
        scheduler.admit(Request(2, 0.0, decode_steps=1))
        first = scheduler.next_dispatch(0.0, arrivals_pending=False)
        assert first.members == (0, 1) and first.barrier
        assert first.completes == (1,)  # request 1's single step is done
        second = scheduler.next_dispatch(0.0, arrivals_pending=False)
        # request 2 takes the freed slot while request 0 keeps decoding
        assert second.members == (0, 2)
        assert set(second.completes) == {0, 2}
        assert scheduler.next_dispatch(0.0, arrivals_pending=False) is None

    def test_custom_scheduler_registration(self):
        class EveryOther(BatchScheduler):
            name = "every-other-test"
            description = "test double"

            def next_dispatch(self, now, arrivals_pending):
                return None

        with restored(SCHEDULER_REGISTRY):
            register_scheduler(EveryOther)
            assert "every-other-test" in list_schedulers()
            with pytest.raises(ServingError):
                register_scheduler(EveryOther)


# -- the equivalence battery ------------------------------------------------


def battery_cases():
    for platform in list_platforms():
        for flow_name in list_flows():
            yield platform.platform_id, flow_name


@pytest.mark.parametrize("platform_id,flow_name", sorted(battery_cases()))
def test_single_request_matches_simulation_exactly(platform_id, flow_name):
    """One request, batch 1, FIFO: engine latency == Simulation, bitwise."""
    device = "npu" if flow_name == "npu-offload" else "gpu"
    engine = ServingEngine(
        ServingConfig(
            model=MODEL,
            flow=flow_name,
            platform=platform_id,
            device=device,
            scheduler="fifo",
            max_batch=1,
        )
    )
    result = engine.run(single_request_trace())
    platform, target = resolve_target(get_platform(platform_id), as_device_kind(device))
    plan = PLAN_CACHE.plan(get_flow(flow_name), PLAN_CACHE.graph_ref(MODEL, 1), target)
    expected = simulate(plan, platform)
    assert result.records[0].latency_s == expected.total_latency_s
    assert result.makespan_s == expected.total_latency_s
    assert result.energy_j == expected.energy_j


def test_cpu_only_target_matches_simulation_exactly():
    engine = ServingEngine(
        ServingConfig(model=MODEL, platform="A", device="cpu", scheduler="fifo")
    )
    result = engine.run(single_request_trace())
    platform, target = resolve_target(get_platform("A"), DeviceKind.CPU)
    assert platform.platform_id == "A-cpu" and target is DeviceKind.CPU
    plan = PLAN_CACHE.plan(get_flow("pytorch"), PLAN_CACHE.graph_ref(MODEL, 1), target)
    assert result.records[0].latency_s == simulate(plan, platform).total_latency_s


# -- the engine under load --------------------------------------------------


class TestEngine:
    def config(self, scheduler: str = "fifo", **kwargs) -> ServingConfig:
        kwargs.setdefault("model", MODEL)
        kwargs.setdefault("platform", "A")
        return ServingConfig(scheduler=scheduler, **kwargs)

    def test_serial_fifo_back_to_back(self):
        """Simultaneous arrivals served FIFO complete in repeated-add order."""
        engine = ServingEngine(self.config())
        trace = RequestTrace("burst", tuple(Request(i, 0.0) for i in range(4)))
        result = engine.run(trace)
        unit = engine.costs.cost(1).total_s
        expected = 0.0
        for record in sorted(result.records, key=lambda r: r.request_id):
            expected += unit
            assert record.completion_s == expected

    def test_determinism(self):
        config = self.config("dynamic", max_batch=4)
        rate = 2.0 / ServingEngine(config).base_latency_s()
        trace = make_trace("poisson", rate, 20, rng(5), decode_steps=(1, 3))
        a = simulate_serving(config, trace, rate)
        b = simulate_serving(config, trace, rate)
        assert a.records == b.records
        assert a.busy_s == b.busy_s and a.energy_j == b.energy_j
        assert a.queue_depth_timeline == b.queue_depth_timeline

    def test_batching_beats_fifo_under_overload(self):
        rate = 4.0 / ServingEngine(self.config()).base_latency_s()
        trace = make_trace("poisson", rate, 24, rng(0))
        fifo = simulate_serving(self.config("fifo"), trace, rate)
        dynamic = simulate_serving(self.config("dynamic", max_batch=4), trace, rate)
        assert dynamic.throughput_rps > fifo.throughput_rps
        assert dynamic.p99_s < fifo.p99_s
        assert dynamic.mean_batch_size > 1.5
        assert fifo.max_queue_depth > 2

    def test_continuous_removes_head_of_line_blocking(self):
        config = self.config(model="gpt2")
        rate = 2.0 / ServingEngine(config).base_latency_s()
        trace = make_trace("poisson", rate, 24, rng(0), decode_steps=(1, 4))
        static = simulate_serving(self.config("static", model="gpt2", max_batch=4), trace, rate)
        continuous = simulate_serving(
            self.config("continuous", model="gpt2", max_batch=4), trace, rate
        )
        assert continuous.p99_s < static.p99_s
        assert continuous.num_iterations >= static.num_dispatches

    def test_occupancy_and_energy_accounting(self):
        engine = ServingEngine(self.config("dynamic", max_batch=4))
        rate = 1.0 / engine.base_latency_s()
        result = engine.run(make_trace("poisson", rate, 12, rng(2)), rate)
        utilization = result.utilization()
        assert set(result.busy_s) == {DeviceKind.CPU, DeviceKind.GPU}
        assert all(0.0 <= value <= 1.0 for value in utilization.values())
        assert utilization[DeviceKind.GPU] > 0.2
        assert result.energy_j[DeviceKind.GPU] > 0.0
        assert result.gemm_busy_s > 0.0 and result.non_gemm_busy_s > 0.0
        assert 0.0 < result.non_gemm_busy_share < 1.0

    def test_stalling_scheduler_raises(self):
        class Staller(BatchScheduler):
            name = "staller-test"
            description = "never dispatches"

            def next_dispatch(self, now, arrivals_pending):
                return None

        with restored(SCHEDULER_REGISTRY):
            register_scheduler(Staller)
            with pytest.raises(ServingError, match="outstanding"):
                simulate_serving(self.config("staller-test"), single_request_trace())

    def test_empty_trace(self):
        result = ServingEngine(self.config()).run(RequestTrace("empty", ()))
        assert result.records == [] and result.throughput_rps == 0.0

    def test_missing_accelerator_falls_back_to_cpu(self):
        engine = ServingEngine(self.config(device="npu"))  # A has no NPU
        assert engine.target is DeviceKind.CPU
        assert engine.platform.platform_id == "A-cpu"


# -- closed-form queueing anchors ---------------------------------------------


#: (platform, device) pairs the anchors run on: an accelerator target, a
#: CPU-only target and a second accelerator platform.
ANCHOR_TARGETS = (("A", "gpu"), ("A", "cpu"), ("B", "gpu"))


def _anchor_runners(platform: str, device: str):
    """fifo with one decode step per request is a deterministic-service
    single server: the engine, and a one-replica round-robin fleet."""
    knobs = dict(model="gpt2", device=device, scheduler="fifo")
    engine = ServingEngine(ServingConfig(platform=platform, **knobs))
    router = ClusterRouter(
        ClusterConfig(platforms=(platform,), policy="round-robin", **knobs)
    )
    return engine, router


def _anchor_results(engine, router, trace: RequestTrace):
    return engine.run(trace), router.run(trace).replicas[0]


def _waits(result) -> np.ndarray:
    return np.array([r.start_s - r.arrival_s for r in result.records])


class TestQueueingAnchors:
    """Oracle-free checks against queueing theory: every service time is
    the batch-1 latency S, M/D/1 mean waits match Pollaczek-Khinchine and
    D/D/1 waits are exact."""

    @pytest.mark.parametrize("platform,device", ANCHOR_TARGETS)
    @pytest.mark.parametrize("rho", (0.3, 0.5, 0.8))
    def test_md1_mean_wait_matches_pollaczek_khinchine(self, platform, device, rho):
        engine, router = _anchor_runners(platform, device)
        service = engine.base_latency_s()
        trace = make_trace("poisson", rho / service, 20_000, rng(0), decode_steps=1)
        expected = rho * service / (2.0 * (1.0 - rho))
        for result in _anchor_results(engine, router, trace):
            served = np.array([r.completion_s - r.start_s for r in result.records])
            assert np.abs(served - service).max() < 1e-13
            # batch means: 20 consecutive blocks of 1,000 waits, whose means
            # are close to independent at these loads.
            means = _waits(result).reshape(20, -1).mean(axis=1)
            stderr = means.std(ddof=1) / np.sqrt(means.size)
            assert abs(means.mean() - expected) < 3.0 * stderr

    @pytest.mark.parametrize("platform,device", ANCHOR_TARGETS)
    @pytest.mark.parametrize("ratio", (1.5, 0.5))
    def test_dd1_waits_are_exact(self, platform, device, ratio):
        """Arrivals every T = ratio * S: no wait when T > S, else request
        i waits i * (S - T)."""
        engine, router = _anchor_runners(platform, device)
        service = engine.base_latency_s()
        period = ratio * service
        trace = RequestTrace(
            "periodic",
            arrival_s=np.arange(100) * period,
            decode_steps=np.ones(100, dtype=np.int64),
        )
        expected = np.arange(100) * max(service - period, 0.0)
        for result in _anchor_results(engine, router, trace):
            assert np.abs(_waits(result) - expected).max() < 1e-13


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_nearest_rank_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.50) == 50.0
        assert nearest_rank(values, 0.95) == 95.0
        assert nearest_rank(values, 0.99) == 99.0
        assert nearest_rank([7.0], 0.99) == 7.0
        assert nearest_rank([], 0.5) == 0.0

    def test_continuous_scheduler_reports_pending_in_flight(self):
        # constructed directly (no reset()) — usable out of the box
        scheduler = ContinuousBatchScheduler(max_batch=2)
        scheduler.admit(Request(0, 0.0, decode_steps=2))
        scheduler.next_dispatch(0.0, arrivals_pending=False)
        assert scheduler.queue_depth == 0 and scheduler.has_pending


# -- sweep integration ------------------------------------------------------


class TestSweepServing:
    def test_load_axis_expands_points(self):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(0.5, 2.0), scheduler="continuous",
            num_requests=8, max_wait_s=5e-3, decode_steps=(1, 2),
        )
        points = spec.points()
        assert [p.load for p in points] == [0.5, 2.0]
        assert all(p.scheduler == "continuous" for p in points)
        assert all(p.max_wait_s == 5e-3 for p in points)
        assert "load0.5" in points[0].describe()

    def test_default_specs_unchanged(self):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(models=(MODEL,))
        assert spec.num_points == 1
        assert spec.points()[0].load is None

    def test_invalid_loads_rejected(self):
        from repro.errors import RegistryError
        from repro.sweep.spec import SweepSpec

        with pytest.raises(RegistryError):
            SweepSpec(models=(MODEL,), loads=(0.0,)).points()
        with pytest.raises(RegistryError):
            SweepSpec(
                models=("gpt2-xl",), loads=(1.0,), transforms=("llm-int8",)
            ).points()

    def test_run_point_attaches_serving_metrics(self):
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(1.0,), scheduler="dynamic",
            num_requests=6, max_batch=2, iterations=2, name="serving-smoke",
        )
        result = run_sweep(spec)
        assert len(result.records) == 1
        serving = result.records[0].serving
        assert serving is not None and len(serving.records) == 6
        assert serving.scheduler == "dynamic"
        # plain points keep serving empty
        plain = run_sweep(SweepSpec(models=(MODEL,), iterations=2))
        assert plain.records[0].serving is None

    def test_serving_points_survive_process_pool(self):
        import pickle

        from repro.sweep.runner import _pool_task
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(0.5,), num_requests=4, iterations=2,
        )
        record, cache_delta, _ = _pool_task(spec.points()[0])
        restored = pickle.loads(pickle.dumps(record))
        assert restored.serving.records == record.serving.records
        assert isinstance(cache_delta, dict)


# -- ext2 experiment --------------------------------------------------------


class TestExt2:
    def test_reduced_grid_is_deterministic(self):
        from repro.analysis import run_ext2

        kwargs = dict(
            platform_ids=("A",), models=("gpt2",), loads=(0.5, 2.0),
            schedulers=("fifo", "continuous"), num_requests=8, iterations=2,
        )
        a = run_ext2(**kwargs)
        b = run_ext2(**kwargs)
        assert a.rows == b.rows
        assert a.render() == b.render()
        assert len(a.rows) == 4
        # the CSV serialization itself is byte-stable
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            first = a.save(Path(tmp) / "one").read_bytes()
            second = b.save(Path(tmp) / "two").read_bytes()
        assert first == second
