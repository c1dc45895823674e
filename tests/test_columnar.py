"""Columnar fast path and streaming metrics tests.

The load-bearing suite is the fast-vs-reference bit-identity battery: for
every registered scheduler on every registered platform, the columnar
launch machines must reproduce the scalar reference event loop's result **exactly**
— full dataclass equality, covering every float accumulation, queue-depth
sample, and record — both for the single engine and for the cluster router
(including faults, retries, and hedging).  The reference side of every pair
runs through :func:`oracles.run_reference`.

Alongside it: bit-identity of the vectorized trace generators against the
historical per-request scalar loops, and accuracy bounds of the streaming
quantile estimator on adversarial samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ServingError
from repro.hardware import list_platforms
from repro.serving import (
    ClusterConfig,
    ClusterRouter,
    FIFOScheduler,
    RequestTrace,
    ServingConfig,
    ServingEngine,
    StreamingQuantile,
    cap_serving_result,
    kernel_for,
    list_schedulers,
    make_trace,
    nearest_rank,
    register_scheduler,
)
from repro.serving.scheduler import SCHEDULER_REGISTRY
from repro.sweep.cache import PLAN_CACHE
from repro.sweep.spec import SweepSpec

from custom_schedulers import CUSTOM_SCHEDULERS, InheritingFIFO, LIFOScheduler
from oracles import run_reference
from registrations import restored

MODEL = "vit-b"

#: one upper-edge grid step of the streaming quantile estimator.
GRID_STEP = 10.0 ** (1.0 / 256.0) - 1.0


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def make_engine(**kwargs) -> ServingEngine:
    return ServingEngine(ServingConfig(model=MODEL, **kwargs), cache=PLAN_CACHE)


# -- fast vs reference: the bit-identity battery ------------------------------


class TestEngineBitIdentity:
    @pytest.mark.parametrize("scheduler", list_schedulers())
    @pytest.mark.parametrize(
        "platform", [p.platform_id for p in list_platforms()]
    )
    def test_every_scheduler_every_platform(self, scheduler, platform):
        engine = make_engine(platform=platform, scheduler=scheduler, max_batch=4)
        for seed, (load, kind) in enumerate(
            [(0.4, "poisson"), (1.5, "bursty"), (0.8, "closed-loop")]
        ):
            rate = load / engine.base_latency_s()
            trace = make_trace(kind, rate, 48, rng(seed), decode_steps=(1, 4))
            assert engine.run(trace, offered_rate_rps=rate) == run_reference(
                engine, trace, rate
            )

    def test_single_request_and_empty_trace(self):
        engine = make_engine(scheduler="fifo")
        single = RequestTrace(
            "single", arrival_s=np.array([0.0]), decode_steps=np.array([1])
        )
        assert engine.run(single) == run_reference(engine, single)
        empty = RequestTrace("empty", ())
        served = engine.run(empty)
        assert served.backend_used == "columnar"
        assert served == run_reference(engine, empty)
        # an empty trace reports idle devices, like an idle fleet replica.
        router = ClusterRouter(
            ClusterConfig(
                model=MODEL, platforms=(engine.config.platform,) * 2, scheduler="fifo"
            ),
            cache=PLAN_CACHE,
        )
        idle = router.run(single).replicas[1]
        assert idle.num_dispatches == 0
        assert served.busy_s == idle.busy_s
        assert served.energy_j == idle.energy_j
        assert served.utilization() == idle.utilization() != {}

    def test_capped_results_identical(self):
        engine = make_engine(scheduler="dynamic", record_requests=16)
        rate = 0.9 / engine.base_latency_s()
        trace = make_trace("poisson", rate, 150, rng(3), decode_steps=(1, 6))
        capped_fast = engine.run(trace, offered_rate_rps=rate)
        capped_ref = run_reference(engine, trace, rate)
        assert capped_fast == capped_ref
        assert capped_fast.record_cap == 16
        assert len(capped_fast.records) == 16
        assert capped_fast.num_requests_served == 150
        assert capped_fast.queue_depth_timeline == ()

    def test_capped_equals_capping_the_full_run(self):
        engine = make_engine(scheduler="continuous", record_requests=12)
        rate = 1.1 / engine.base_latency_s()
        trace = make_trace("bursty", rate, 120, rng(9), decode_steps=(1, 5))
        streamed = engine.run(trace, offered_rate_rps=rate)
        full = run_reference(
            engine, make_trace("bursty", rate, 120, rng(9), decode_steps=(1, 5)), rate
        )
        # the reference wrapper applied the cap too; recompute from a truly
        # full run to pin the pure-function contract.
        plain = run_reference(
            make_engine(scheduler="continuous"),
            make_trace("bursty", rate, 120, rng(9), decode_steps=(1, 5)),
            rate,
        )
        assert streamed == full == cap_serving_result(plain, 12)

    def test_streaming_percentiles_close_to_exact(self):
        engine = make_engine(scheduler="dynamic", record_requests=8)
        full_engine = make_engine(scheduler="dynamic")
        rate = 1.0 / engine.base_latency_s()
        trace = make_trace("poisson", rate, 200, rng(4), decode_steps=(1, 3))
        streamed = engine.run(trace, offered_rate_rps=rate)
        exact = full_engine.run(trace, offered_rate_rps=rate)
        for q in ("p50_s", "p95_s", "p99_s"):
            assert getattr(streamed, q) == pytest.approx(
                getattr(exact, q), rel=GRID_STEP
            )
        assert streamed.mean_latency_s == pytest.approx(exact.mean_latency_s)
        assert streamed.max_queue_depth == exact.max_queue_depth
        assert streamed.mean_queue_depth == pytest.approx(exact.mean_queue_depth)


class TestClusterBitIdentity:
    SCENARIOS = {
        "plain": dict(platforms=("A", "A"), policy="round-robin"),
        "faulty-heterogeneous": dict(
            platforms=("A", "B"),
            policy="least-loaded",
            fault_profile="crash",
            timeout_s=0.5,
            hedge_after_s=0.3,
            shed_queue_s=2.0,
            deadline_s=1.0,
        ),
        "accel-loss-p2c": dict(
            platforms=("A", "A", "C"),
            policy="power-of-two-choices",
            fault_profile="accel-loss",
            timeout_s=0.4,
        ),
        "straggler": dict(
            platforms=("A", "B"), policy="round-robin", fault_profile="straggler"
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("scheduler", ["fifo", "continuous"])
    def test_fast_matches_reference(self, scenario, scheduler):
        router = ClusterRouter(
            ClusterConfig(
                model=MODEL, scheduler=scheduler, max_batch=4, **self.SCENARIOS[scenario]
            ),
            cache=PLAN_CACHE,
        )
        rate = 0.8 * router.fleet_capacity_rps()
        trace = make_trace("poisson", rate, 64, rng(11), decode_steps=(1, 4))
        assert router.run(trace, offered_rate_rps=rate) == run_reference(
            router, trace, rate
        )

    @pytest.mark.parametrize("scheduler", list_schedulers())
    def test_single_replica_no_fault_matches_engine(self, scheduler):
        cluster = ClusterRouter(
            ClusterConfig(
                model=MODEL,
                platforms=("A",),
                scheduler=scheduler,
                policy="round-robin",
            ),
            cache=PLAN_CACHE,
        )
        engine = make_engine(scheduler=scheduler)
        rate = 0.7 / engine.base_latency_s()
        trace = make_trace("poisson", rate, 40, rng(2), decode_steps=(1, 4))
        clustered = cluster.run(trace, offered_rate_rps=rate)
        single = engine.run(trace, offered_rate_rps=rate)
        assert clustered.replicas[0] == single

    def test_capped_cluster_identical(self):
        router = ClusterRouter(
            ClusterConfig(
                model=MODEL,
                platforms=("A", "A"),
                scheduler="dynamic",
                timeout_s=0.5,
                record_requests=12,
            ),
            cache=PLAN_CACHE,
        )
        rate = 0.9 * router.fleet_capacity_rps()
        trace = make_trace("bursty", rate, 120, rng(5), decode_steps=(1, 4))
        capped = router.run(trace, offered_rate_rps=rate)
        assert capped == run_reference(router, trace, rate)
        assert capped.record_cap == 12
        assert len(capped.records) == 12
        assert capped.num_requests_total == 120
        assert all(r.record_cap == 12 for r in capped.replicas)


# -- custom schedulers ride the callback machine ------------------------------


class TestCustomSchedulerFallback:
    def test_kernel_opt_in_is_declare_it_yourself(self):
        callback = kernel_for(LIFOScheduler())
        assert kernel_for(FIFOScheduler()) is not callback
        # inherited declarations are ignored: the subclass changed the
        # decision sequence the fifo kernel hard-codes.
        assert kernel_for(InheritingFIFO()) is callback

    @pytest.mark.parametrize("scheduler_cls", CUSTOM_SCHEDULERS)
    def test_tied_arrivals_keep_trace_order(self, scheduler_cls):
        """The fleet lists records by (admitted, id); the engine hands them
        back in trace order, which permuted ids on tied arrivals tell apart.
        Capped and empty runs match the oracle too."""
        trace = RequestTrace(
            "tied",
            arrival_s=np.repeat(np.arange(6) * 0.004, 4),
            decode_steps=rng(2).integers(1, 4, size=24),
            request_ids=rng(3).permutation(24),
        )
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(scheduler_cls, replace=True)
            for cap in (None, 5):
                engine = make_engine(scheduler=scheduler_cls.name, record_requests=cap)
                served = engine.run(trace)
                assert served == run_reference(engine, trace)
                if cap is None:
                    assert [r.request_id for r in served.records] == trace.id_column().tolist()
                else:
                    assert served.record_cap == cap
            empty = RequestTrace("empty", ())
            assert engine.run(empty) == run_reference(engine, empty)

    def test_engine_never_enters_the_fleet_loop(self, monkeypatch):
        """No engine run builds a fleet: the callback machine serves it."""

        def refuse(*args, **kwargs):
            raise AssertionError("the engine entered ClusterRouter.run")

        monkeypatch.setattr(ClusterRouter, "run", refuse)
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(LIFOScheduler, replace=True)
            engine = make_engine(scheduler=LIFOScheduler.name, record_requests=4)
            trace = make_trace("poisson", 100.0, 12, rng(1), decode_steps=(1, 3))
            served = engine.run(trace)
        assert served.backend_used == "columnar"
        assert served.record_cap == 4

    @pytest.mark.parametrize(
        "platform", [p.platform_id for p in list_platforms()]
    )
    @pytest.mark.parametrize("scheduler_cls", CUSTOM_SCHEDULERS)
    def test_fast_backend_still_correct_via_fallback(self, scheduler_cls, platform):
        """The callback machine serves the engine run and equals the
        engine oracle, which drives the same scheduler class."""
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(scheduler_cls, replace=True)
            engine = make_engine(platform=platform, scheduler=scheduler_cls.name)
            for seed, (load, kind) in enumerate(
                [(0.4, "poisson"), (1.5, "bursty"), (0.8, "closed-loop")]
            ):
                rate = load / engine.base_latency_s()
                trace = make_trace(kind, rate, 48, rng(seed), decode_steps=(1, 4))
                fast_result = engine.run(trace, offered_rate_rps=rate)
                assert fast_result == run_reference(engine, trace, rate)
                assert fast_result.backend_used == "columnar"
                assert not hasattr(fast_result, "fast_path_fallback_reason")


# -- trace vectorization: bit-identical to the historical scalar loops --------


def _scalar_decode_steps(decode_steps, count, generator):
    if isinstance(decode_steps, int):
        return [decode_steps] * count
    lo, hi = decode_steps
    return [int(v) for v in generator.integers(lo, hi + 1, size=count)]


class TestTraceVectorization:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_poisson_matches_scalar(self, seed):
        trace = make_trace("poisson", 120.0, 257, rng(seed), decode_steps=(1, 9))
        generator = rng(seed)
        gaps = generator.exponential(1.0 / 120.0, size=257)
        arrivals = np.cumsum(gaps) - gaps[0]
        steps = _scalar_decode_steps((1, 9), 257, generator)
        assert np.array_equal(trace.arrival_column(), arrivals)
        assert trace.decode_column().tolist() == steps

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bursty_matches_scalar(self, seed):
        trace = make_trace("bursty", 80.0, 130, rng(seed), decode_steps=(2, 5))
        generator = rng(seed)
        interval = 4 / 80.0
        arrivals = []
        for i in range(130):
            burst = i // 4
            jitter = (
                float(generator.exponential(interval / 100.0)) if i % 4 else 0.0
            )
            arrivals.append(burst * interval + jitter)
        arrivals.sort()
        steps = _scalar_decode_steps((2, 5), 130, generator)
        assert trace.arrival_column().tolist() == arrivals
        assert trace.decode_column().tolist() == steps

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_closed_loop_matches_scalar(self, seed):
        trace = make_trace("closed-loop", 64.0, 99, rng(seed), decode_steps=3)
        generator = rng(seed)
        cycle = 4 / 64.0
        arrivals = []
        for i in range(99):
            client = i % 4
            round_index = i // 4
            jitter = (
                float(generator.exponential(cycle / 20.0)) if round_index else 0.0
            )
            arrivals.append(client * cycle / 4 + round_index * cycle + jitter)
        arrivals.sort()
        assert trace.arrival_column().tolist() == arrivals
        assert trace.decode_column().tolist() == [3] * 99


# -- streaming quantile accuracy ----------------------------------------------


class TestStreamingQuantile:
    QUANTILES = (0.50, 0.95, 0.99)

    def check(self, samples: np.ndarray):
        estimator = StreamingQuantile()
        estimator.add(samples)
        exact_sorted = sorted(float(v) for v in samples)
        for q in self.QUANTILES:
            exact = nearest_rank(exact_sorted, q)
            estimate = estimator.quantile(q)
            # never undershoots, overshoots by less than one grid step.
            assert exact <= estimate <= exact * (1.0 + GRID_STEP)

    def test_bimodal(self):
        generator = rng(42)
        fast = generator.exponential(2e-3, size=5000)
        slow = 0.5 + generator.exponential(5e-2, size=300)
        self.check(np.concatenate([fast, slow]))

    def test_heavy_tail(self):
        generator = rng(43)
        self.check(1e-3 * (1.0 + generator.pareto(1.3, size=8000)))

    def test_constant_is_exact(self):
        estimator = StreamingQuantile()
        estimator.add(np.full(1000, 0.0123456789))
        for q in self.QUANTILES:
            assert estimator.quantile(q) == 0.0123456789

    def test_outside_grid_clamps_to_observed(self):
        estimator = StreamingQuantile()
        estimator.add(np.array([1e-9, 5e4, 5e4, 5e4]))
        assert estimator.quantile(0.01) == 1e-9
        assert estimator.quantile(0.99) == 5e4

    def test_incremental_batches_match_one_shot(self):
        generator = rng(44)
        samples = generator.exponential(1e-2, size=3000)
        one_shot = StreamingQuantile()
        one_shot.add(samples)
        chunked = StreamingQuantile()
        for chunk in np.array_split(samples, 17):
            chunked.add(chunk)
        for q in self.QUANTILES:
            assert chunked.quantile(q) == one_shot.quantile(q)


# -- knob validation and plumbing ---------------------------------------------


class TestKnobs:
    def test_engine_rejects_bad_knobs(self):
        with pytest.raises(ServingError, match="record_requests"):
            ServingConfig(model=MODEL, record_requests=0)
        with pytest.raises(ServingError, match="record_requests"):
            ClusterConfig(model=MODEL, record_requests=-1)

    def test_sweep_spec_carries_record_cap(self):
        spec = SweepSpec(models=(MODEL,), loads=(0.5,), record_requests=64)
        assert spec.points()[0].record_requests == 64


class TestCLI:
    def test_serve_flags_and_backend_column(self, capsys):
        assert (
            cli_main(
                ["serve", MODEL, "--num-requests", "24", "--record-requests", "8"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend" in out
        assert "columnar" in out
        assert "24" in out  # num served, not the 8 sampled records

    def test_serve_requests_alias(self, capsys):
        assert cli_main(["serve", MODEL, "--requests", "16"]) == 0
        # the backend column reports the path that actually served the run.
        assert "columnar" in capsys.readouterr().out

    def test_cluster_flags(self, capsys):
        assert (
            cli_main(
                ["cluster", MODEL, "--num-requests", "16", "--record-requests", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend" in out
        assert "columnar" in out
