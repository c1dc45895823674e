"""The columnar cluster fast paths: bit-identity, rails, and fallback.

``serving/columnar_cluster.py`` replays the reference router's event loop in
columns on two rails: ``run_fast_cluster`` (the launch machines of
``serving/columnar.py``, one per replica and shared with the single engine,
routed by the policy in one pass; no faults/retries/hedging) and
``run_fast_faulted`` (minimal event heap over fault transitions, retry and
hedge timers and hedged completions, lazy launches and lazily resolved
completions).  These tests pin six contracts:

* **equivalence** — on the no-fault rail the fast path's ``ClusterResult``
  equals the reference router's, field for field, across schedulers,
  policies, shedding, capped streaming metrics, heterogeneous fleets, and
  trace shapes, plus an edge grid over fleet shape, device, batch cap and
  shed threshold with Poisson and tied-arrival traces, and a run long
  enough to cross the machines' queue compaction;
* **the single-replica rail** — a 1-replica no-fault fast cluster stays
  bit-identical to plain ``ServingEngine.run`` for every registered
  scheduler;
* **faulted equivalence** — crash / accel-loss / straggler windows and
  timeout retries ride ``run_fast_faulted`` (the no-fault replay must not
  run) and stay bit-identical to the reference loop, including retry
  exhaustion, shed-under-fault, capped streaming metrics, and runs long
  enough to cross the machines' queue compaction;
* **hedged equivalence** — hedged dispatch rides ``run_fast_faulted`` for
  every scheduler and policy, alone and with faults, retries, shedding and
  capped metrics, bit-identically, and no per-replica record starts before
  the copy it records arrived;
* **custom policies** — a registered policy rides ``run_fast_faulted``
  even without faults, retries or hedging (the faulted core asks
  ``policy.choose`` with its machines as candidates), bit-identically;
* **fallback** — autoscaling (with or without hedging) routes to the
  reference loop (neither fast entry point may run), with the reason
  recorded on the result; a registered subclass that declares its own kind
  rides the machines on both rails, as it does in the engine, and one that
  declares none rides the callback machine.

The reference side of every equivalence pair runs through
:func:`oracles.run_reference`.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    AutoscaleConfig,
    ClusterConfig,
    ClusterRouter,
    Request,
    RequestTrace,
    ServingConfig,
    ServingEngine,
    make_trace,
)
from repro.serving import columnar_cluster
from repro.serving.cluster import (
    POLICY_REGISTRY,
    AdmissionPolicy,
    get_policy,
    register_policy,
)
from repro.serving.columnar_cluster import (
    fast_path_fallback_reason,
    needs_faulted_path,
)
from repro.serving.faults import (
    CRASH,
    FAULT_PROFILE_REGISTRY,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
    register_fault_profile,
)
from repro.serving.scheduler import (
    SCHEDULER_REGISTRY,
    ContinuousBatchScheduler,
    DynamicBatchScheduler,
    FIFOScheduler,
    register_scheduler,
)

from custom_schedulers import (
    CUSTOM_SCHEDULERS,
    OversizedScheduler,
    StallingScheduler,
    recording,
)
from oracles import run_reference
from registrations import restored

POLICIES = ("round-robin", "least-loaded", "power-of-two-choices")
SCHEDULERS = ("fifo", "static", "dynamic", "continuous")

#: fault knobs that must ride the fault-capable fast rail.
FAULT_KNOBS = {
    "crash": dict(fault_profile="crash", timeout_s=0.02, timeout_cap_s=0.32),
    "accel-loss": dict(fault_profile="accel-loss", timeout_s=0.02, timeout_cap_s=0.32),
    "straggler": dict(fault_profile="straggler"),
    "retries": dict(timeout_s=0.05, timeout_cap_s=0.4),
}

#: the default two-replica fleet with a slower hedge (the hedging cases that
#: used to pin the reference loop).
_TWO_REPLICA_HEDGE = dict(platforms=("A", "A"), hedge_after_s=0.01)

#: knobs hedging must compose with on the fault-capable fast rail, on top of
#: a three-replica fleet hedging after 5 ms.
HEDGE_KNOBS = {
    **FAULT_KNOBS,
    "crash-exhaustion": dict(
        fault_profile="crash", timeout_s=0.004, timeout_cap_s=0.004, max_retries=1
    ),
    "shed": dict(shed_queue_s=0.02),
    "capped": dict(record_requests=16),
    "two-replica": _TWO_REPLICA_HEDGE,
    "two-replica-crash": {**_TWO_REPLICA_HEDGE, **FAULT_KNOBS["crash"]},
}


def run_cluster(
    *,
    num_requests=400,
    load=1.5,
    seed=0,
    trace_kind="poisson",
    decode_steps=(1, 4),
    reference=False,
    **overrides,
):
    router = ClusterRouter(ClusterConfig(model="gpt2", **overrides))
    rate = load * router.fleet_capacity_rps()
    trace = make_trace(
        trace_kind,
        rate,
        num_requests,
        rng=np.random.default_rng(seed),
        decode_steps=decode_steps,
    )
    if reference:
        return run_reference(router, trace, rate)
    return router.run(trace, offered_rate_rps=rate)


def assert_backends_identical(expect_backend="columnar", **overrides):
    fast = run_cluster(**overrides)
    reference = run_cluster(reference=True, **overrides)
    assert fast == reference
    assert fast.backend_used == expect_backend
    assert fast.fast_path_fallback_reason is None
    assert reference.backend_used == "reference"
    return fast


class TestFastPathEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_reference(self, scheduler, policy):
        assert_backends_identical(
            scheduler=scheduler, policy=policy, platforms=("A", "A")
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shedding_matches_reference(self, policy):
        result = assert_backends_identical(
            scheduler="fifo",
            policy=policy,
            platforms=("A", "A"),
            shed_queue_s=0.02,
            load=2.0,
        )
        assert result.num_shed > 0

    def test_capped_metrics_and_deadline_match_reference(self):
        result = assert_backends_identical(
            scheduler="continuous",
            policy="least-loaded",
            platforms=("A", "A", "A"),
            record_requests=64,
            deadline_s=0.05,
        )
        assert result.record_cap == 64
        assert len(result.records) <= 64
        assert 0.0 < result.goodput <= 1.0

    def test_heterogeneous_fleet_matches_reference(self):
        assert_backends_identical(
            scheduler="dynamic", policy="least-loaded", platforms=("A", "B", "C")
        )

    @pytest.mark.parametrize("trace_kind", ("bursty", "closed-loop"))
    def test_other_trace_shapes_match_reference(self, trace_kind):
        assert_backends_identical(
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A"),
            trace_kind=trace_kind,
        )

    def test_policy_seed_respected(self):
        draws = [
            run_cluster(
                scheduler="fifo",
                policy="power-of-two-choices",
                platforms=("A",) * 4,
                policy_seed=policy_seed,
            )
            for policy_seed in (1, 2)
        ]
        assert draws[0] != draws[1]

    def test_fast_rail_actually_taken(self, monkeypatch):
        calls = []
        original = columnar_cluster.run_fast_cluster

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", spy)
        run_cluster(scheduler="fifo", policy="round-robin")
        assert len(calls) == 1


def _tied_trace(rate):
    """50 arrival instants of 4 equal-time requests each, at ``rate`` on
    average, with ids in reverse trace order (so the ``(admitted_s, id)``
    record order differs from trace order)."""
    return RequestTrace(
        "tied",
        arrival_s=np.repeat(np.arange(50) * (4 / rate), 4),
        decode_steps=np.random.default_rng(0).integers(1, 5, size=200),
        request_ids=np.arange(200)[::-1],
    )


class TestEdgeGrid:
    """The routing machines against the reference router on the full cross
    product of fleet shape, device, batch cap and shed threshold — including
    all-CPU fleets (no accelerator occupancy), single-request batches, and
    shedding that rejects nearly everything (``1e-9``)."""

    @pytest.mark.parametrize("trace_kind", ("poisson", "tied"))
    @pytest.mark.parametrize("shed_queue_s", (None, 1e-9, 0.02))
    @pytest.mark.parametrize("max_batch", (1, 8))
    @pytest.mark.parametrize("device", ("gpu", "cpu"))
    @pytest.mark.parametrize("platforms", (("A",), ("A", "A", "A"), ("A", "B", "C")))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_reference(
        self, policy, scheduler, platforms, device, max_batch, shed_queue_s, trace_kind
    ):
        router = ClusterRouter(
            ClusterConfig(
                model="gpt2",
                platforms=platforms,
                device=device,
                scheduler=scheduler,
                policy=policy,
                max_batch=max_batch,
                shed_queue_s=shed_queue_s,
            )
        )
        rate = 1.5 * router.fleet_capacity_rps()
        if trace_kind == "tied":
            trace = _tied_trace(rate)
        else:
            trace = make_trace(
                "poisson", rate, 200, rng=np.random.default_rng(0), decode_steps=(1, 4)
            )
        fast = router.run(trace, offered_rate_rps=rate)
        assert fast.backend_used == "columnar"
        assert fast == run_reference(router, trace, rate)


class TestSingleReplicaRail:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_plain_engine(self, scheduler):
        config = ClusterConfig(
            model="gpt2",
            platforms=("A",),
            scheduler=scheduler,
            policy="round-robin",
        )
        router = ClusterRouter(config)
        rate = 1.5 * router.fleet_capacity_rps()
        trace = make_trace(
            "poisson", rate, 300, rng=np.random.default_rng(0), decode_steps=(1, 4)
        )
        cluster = router.run(trace, offered_rate_rps=rate)
        solo = ServingEngine(
            ServingConfig(model="gpt2", scheduler=scheduler)
        ).run(trace, offered_rate_rps=rate)
        assert cluster.replicas[0] == solo


class TestCompactionBoundary:
    """9,000 requests on one replica: more admissions than a launch
    machine's queue holds before it compacts (8,192), so the continuous
    machine's queue-head column must count admissions globally.  Each
    scheduler's engine run and least-loaded fleet run against the oracle,
    and the faulted core, whose fault layer reads trace positions off the
    machines by global queue index: stragglers on one replica cross the
    compaction, and crashes on two move ``base`` through crash resets."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_reference(self, scheduler):
        knobs = dict(model="gpt2", scheduler=scheduler, max_batch=8, record_requests=64)
        engine = ServingEngine(ServingConfig(**knobs))
        router = ClusterRouter(
            ClusterConfig(platforms=("A",), policy="least-loaded", **knobs)
        )
        rate = 0.9 * router.fleet_capacity_rps()
        trace = make_trace(
            "poisson", rate, 9_000, rng=np.random.default_rng(0), decode_steps=(1, 4)
        )
        for runner in (engine, router):
            fast = runner.run(trace, offered_rate_rps=rate)
            assert fast.backend_used == "columnar"
            assert fast == run_reference(runner, trace, rate)

    @pytest.mark.parametrize(
        "faults",
        (
            dict(platforms=("A",), fault_profile="straggler"),
            dict(platforms=("A", "A"), **FAULT_KNOBS["crash"]),
        ),
        ids=("straggler", "crash"),
    )
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_faulted_core_matches_reference(self, scheduler, faults):
        router = ClusterRouter(
            ClusterConfig(
                model="gpt2",
                scheduler=scheduler,
                policy="least-loaded",
                max_batch=8,
                record_requests=64,
                **faults,
            )
        )
        rate = 0.9 * router.fleet_capacity_rps()
        trace = make_trace(
            "poisson", rate, 9_000, rng=np.random.default_rng(0), decode_steps=(1, 4)
        )
        fast = router.run(trace, offered_rate_rps=rate)
        assert fast.backend_used == "columnar-faulted"
        assert fast == run_reference(router, trace, rate)


class TestFaultedFastPath:
    """Crash / accel-loss / straggler windows and timeout retries ride the
    fault-capable replay — never the no-fault kernels — bit-identically."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", ("fifo", "dynamic", "continuous"))
    @pytest.mark.parametrize("knob", ("crash", "accel-loss", "straggler"))
    def test_fault_windows_match_reference(
        self, knob, scheduler, policy, monkeypatch
    ):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler=scheduler,
            policy=policy,
            platforms=("A", "A", "A"),
            **FAULT_KNOBS[knob],
        )
        assert result.num_failed + result.num_shed < len(result.records)

    @pytest.mark.parametrize("scheduler", ("fifo", "dynamic", "continuous"))
    def test_crashes_and_withdrawals_sample_queue_depth(self, scheduler):
        # a crash empties a replica's queue and a timeout retry withdraws a
        # queued copy: both take a depth sample, so every replica's timeline
        # ends at zero on both rails (without them, 11 of these 54 replicas
        # ended above zero, e.g. fifo seed 5 at [20, 15, 9, 8, 6]).
        for seed in range(6):
            knobs = dict(scheduler=scheduler, policy="round-robin", seed=seed)
            fast = run_cluster(platforms=("A", "A", "A"), **knobs, **FAULT_KNOBS["crash"])
            reference = run_cluster(
                platforms=("A", "A", "A"), reference=True, **knobs, **FAULT_KNOBS["crash"]
            )
            assert fast == reference
            assert [r.queue_depth_timeline[-1][1] for r in fast.replicas] == [0, 0, 0]

    def test_timeout_retries_match_reference(self, monkeypatch):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A"),
            **FAULT_KNOBS["retries"],
        )

    def test_retry_exhaustion_matches_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.004,
            timeout_cap_s=0.004,
            max_retries=1,
        )
        assert result.num_failed > 0

    def test_shed_under_fault_matches_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="least-loaded",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
            shed_queue_s=0.05,
            load=2.0,
        )
        assert result.num_shed > 0
        assert result.num_retries > 0

    def test_capped_streaming_metrics_match_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="power-of-two-choices",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
            record_requests=64,
            deadline_s=0.1,
        )
        assert result.record_cap == 64
        assert len(result.records) <= 64

    def test_heterogeneous_accel_loss_matches_reference(self):
        assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="least-loaded",
            platforms=("A", "B", "C"),
            fault_profile="accel-loss",
            timeout_s=0.02,
            timeout_cap_s=0.32,
        )

    @pytest.mark.parametrize("scheduler", ("fifo", "dynamic"))
    def test_crash_at_a_launch_end_cancels_it(self, scheduler):
        """A crash at the exact end time of a running launch cancels it (the
        reference pops the fault before the completion at the same time),
        so the requests it served are retried elsewhere."""
        config = dict(
            platforms=("A", "A"), scheduler=scheduler, policy="round-robin", timeout_s=0.05
        )
        with restored(FAULT_PROFILE_REGISTRY):
            # a crash past the horizon perturbs nothing: the launch log
            # before any later crash time is this run's.
            register_fault_profile("test-crash-late", _crash_window(10.0, 11.0))
            calm = run_cluster(num_requests=200, load=0.8, fault_profile="test-crash-late", **config)
            ends = sorted({record.completion_s for record in calm.replicas[0].records})
            end = ends[len(ends) // 2]
            served = [r for r in calm.replicas[0].records if r.completion_s == end]

            def at_end(num_replicas, horizon_s, rng):
                return FaultSchedule(windows=(FaultWindow(0, CRASH, end, end + 0.05),))

            register_fault_profile("test-crash-at-end", at_end)
            fast = assert_backends_identical(
                expect_backend="columnar-faulted",
                num_requests=200,
                load=0.8,
                fault_profile="test-crash-at-end",
                **config,
            )
        assert served
        assert not any(record.completion_s == end for record in fast.replicas[0].records)

    def test_faulted_rail_actually_taken(self, monkeypatch):
        calls = []
        original = columnar_cluster.run_fast_faulted

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar_cluster, "run_fast_faulted", spy)
        result = run_cluster(
            scheduler="dynamic",
            policy="round-robin",
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
        )
        assert len(calls) == 1
        assert result.backend_used == "columnar-faulted"


class TestHedgedFastPath:
    """Hedged dispatch rides the fault-capable replay — alone and with
    faults, retries, shedding and capped metrics — bit-identically."""

    @pytest.mark.parametrize("trace_kind", ("poisson", "tied"))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_reference(self, scheduler, policy, trace_kind, monkeypatch):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        router = ClusterRouter(
            ClusterConfig(
                model="gpt2",
                platforms=("A", "A", "A"),
                scheduler=scheduler,
                policy=policy,
                hedge_after_s=0.005,
            )
        )
        rate = 1.5 * router.fleet_capacity_rps()
        if trace_kind == "tied":
            trace = _tied_trace(rate)
        else:
            trace = make_trace(
                "poisson", rate, 300, rng=np.random.default_rng(0), decode_steps=(1, 4)
            )
        fast = router.run(trace, offered_rate_rps=rate)
        assert fast.backend_used == "columnar-faulted"
        assert fast.num_hedges > 0
        assert fast == run_reference(router, trace, rate)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("knob", sorted(HEDGE_KNOBS))
    def test_hedging_with_knobs_matches_reference(self, knob, scheduler):
        knobs = dict(platforms=("A", "A", "A"), hedge_after_s=0.005)
        knobs.update(HEDGE_KNOBS[knob])
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler=scheduler,
            policy="least-loaded",
            **knobs,
        )
        assert result.num_hedges > 0

    def test_record_arrival_is_the_first_copy(self):
        """A replica that admits a request twice (a timed-out primary, then
        its hedge) records the first copy's arrival, like its start: the
        second admission (35.01 ms) came after the first start (31.73 ms)."""
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            num_requests=20,
            load=1.2,
            scheduler="fifo",
            policy="round-robin",
            platforms=("A", "A"),
            fault_profile="straggler",
            timeout_s=0.004,
            max_retries=3,
            hedge_after_s=0.003,
            max_batch=4,
        )
        (record,) = [r for r in result.replicas[0].records if r.request_id == 4]
        assert record.start_s == pytest.approx(0.0317255, abs=1e-7)
        for replica in result.replicas:
            for record in replica.records:
                assert record.arrival_s <= record.start_s < record.completion_s

    def test_retry_onto_a_replica_serving_the_hedge(self):
        """A primary that times out is retried onto the replica whose hedge
        copy is in service with a full continuous batch, so the queued
        primary cannot join.  The next launch there serves the request: its
        next timer must find the copy started, not withdraw it."""
        router = ClusterRouter(
            ClusterConfig(
                model="gpt2",
                platforms=("A", "A"),
                scheduler="continuous",
                policy="round-robin",
                max_batch=2,
                timeout_s=0.001,
                max_retries=4,
                hedge_after_s=0.001,
            )
        )
        burst = RequestTrace(
            "burst", arrival_s=np.zeros(9), decode_steps=np.array([1, 1, 1, 1, 1, 1, 2, 1, 1])
        )
        fast = router.run(burst)
        assert fast.backend_used == "columnar-faulted"
        assert fast.num_hedges > 0 and fast.num_retries > 0
        assert fast == run_reference(router, burst)

    def test_single_replica_never_hedges(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="round-robin",
            platforms=("A",),
            hedge_after_s=0.005,
        )
        assert result.num_hedges == 0
        assert not any(record.hedged for record in result.records)


def _crash_window(start, end):
    """A fault profile that crashes replica 0 from ``start`` to ``end``, as
    fractions of the run's fault horizon."""

    def profile(num_replicas, horizon_s, rng):
        return FaultSchedule(
            windows=(FaultWindow(0, CRASH, start * horizon_s, end * horizon_s),)
        )

    return profile


def _refuse_fast_path(*args, **kwargs):
    raise AssertionError("the fast path must not run for unsupported knobs")


def _refuse_both_fast_paths(monkeypatch):
    """Autoscaled / custom runs must enter neither fast entry point."""
    monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
    monkeypatch.setattr(columnar_cluster, "run_fast_faulted", _refuse_fast_path)


#: a whole-fleet autoscaler on the default two-replica fleet.
_AUTOSCALE = AutoscaleConfig(controller="step", min_replicas=2, max_replicas=2)

#: every unsupported-knob combination that must take the reference rail.
FALLBACK_KNOBS = {
    "autoscale": dict(autoscale=_AUTOSCALE),
    "autoscale-with-hedging": dict(autoscale=_AUTOSCALE, hedge_after_s=0.01),
}


class TestFallback:
    @pytest.mark.parametrize("knob", sorted(FALLBACK_KNOBS))
    def test_unsupported_knob_runs_reference_loop(self, knob, monkeypatch):
        _refuse_both_fast_paths(monkeypatch)
        knobs = FALLBACK_KNOBS[knob]
        result = run_cluster(scheduler="continuous", policy="least-loaded", **knobs)
        assert result.backend_used == "reference"
        assert "autoscale" in result.fast_path_fallback_reason
        assert (result.num_hedges > 0) == ("hedge_after_s" in knobs)

    def test_subclassed_scheduler_falls_back(self):
        class SubclassedFIFOScheduler(FIFOScheduler):
            name = "test-fifo-subclass"
            description = "fifo subclass without its own columnar kernel"

        # the subclass decides exactly like fifo, so the callback machine it
        # rides must reproduce the columnar fifo rail, names aside.
        columnar = run_cluster(scheduler="fifo", policy="round-robin")
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(SubclassedFIFOScheduler, replace=True)
            fallback = run_cluster(
                scheduler="test-fifo-subclass", policy="round-robin"
            )
        assert fallback.backend_used == "columnar"
        assert fallback.fast_path_fallback_reason is None
        name = SubclassedFIFOScheduler.name
        assert fallback == replace(
            columnar,
            scheduler=name,
            replicas=[replace(r, scheduler=name) for r in columnar.replicas],
        )


class _MyFifo(FIFOScheduler):
    name = "my-fifo"
    description = "fifo subclass declaring its kind (test-only)"
    columnar_kernel = "fifo"


class _MyDyn(DynamicBatchScheduler):
    name = "my-dyn"
    description = "dynamic subclass declaring its kind (test-only)"
    columnar_kernel = "dynamic"


class _MyCont(ContinuousBatchScheduler):
    name = "my-cont"
    description = "continuous subclass declaring its kind (test-only)"
    columnar_kernel = "continuous"


#: (expected backend, knobs) of each config a declared subclass must ride.
DECLARED_CONFIGS = {
    "least-loaded": ("columnar", dict(policy="least-loaded")),
    "p2c-crash": (
        "columnar-faulted",
        dict(policy="power-of-two-choices", **FAULT_KNOBS["crash"]),
    ),
    "round-robin-straggler": (
        "columnar-faulted",
        dict(policy="round-robin", fault_profile="straggler"),
    ),
    "hedged": ("columnar-faulted", dict(policy="least-loaded", hedge_after_s=0.005)),
}


class TestDeclaredSubclasses:
    """A registered subclass that declares its own ``columnar_kernel`` opts
    into the launch machines on every rail, as the scheduler contract says,
    and equals the reference loop."""

    @pytest.mark.parametrize("scheduler_cls", (_MyFifo, _MyDyn, _MyCont))
    def test_rides_the_machines(self, scheduler_cls):
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(scheduler_cls, replace=True)
            for backend, knobs in DECLARED_CONFIGS.values():
                assert_backends_identical(
                    expect_backend=backend,
                    num_requests=3_000,
                    scheduler=scheduler_cls.name,
                    platforms=("A", "A", "A"),
                    **knobs,
                )
            # the engine and a one-replica fleet take the same machine
            name = scheduler_cls.name
            engine = ServingEngine(ServingConfig(model="gpt2", scheduler=name))
            router = ClusterRouter(
                ClusterConfig(model="gpt2", scheduler=name, platforms=("A",))
            )
            trace = make_trace("poisson", 100.0, 100, rng=np.random.default_rng(0))
            assert engine.run(trace).backend_used == "columnar"
            assert router.run(trace).backend_used == "columnar"


#: (expected backend, knobs) of each fleet rail a custom scheduler rides.
CALLBACK_RAILS = {
    "fault-free": ("columnar", dict(policy="least-loaded")),
    "crash": (
        "columnar-faulted",
        dict(policy="power-of-two-choices", **FAULT_KNOBS["crash"]),
    ),
    "straggler": ("columnar-faulted", dict(policy="round-robin", fault_profile="straggler")),
    "hedged": ("columnar-faulted", dict(policy="least-loaded", hedge_after_s=0.005)),
}


def _serve_custom(scheduler_cls, rail, reference=False, num_requests=200, **knobs):
    """Serve a registered custom scheduler on the engine (``rail`` is
    ``"engine"``) or on one of :data:`CALLBACK_RAILS`."""
    knobs["scheduler"] = scheduler_cls.name
    if rail != "engine":
        return run_cluster(
            num_requests=num_requests,
            reference=reference,
            platforms=("A", "A", "A"),
            **CALLBACK_RAILS[rail][1],
            **knobs,
        )
    engine = ServingEngine(ServingConfig(model="gpt2", **knobs))
    rate = 1.5 / engine.base_latency_s()
    trace = make_trace(
        "poisson", rate, num_requests, rng=np.random.default_rng(0), decode_steps=(1, 4)
    )
    if reference:
        return run_reference(engine, trace, rate)
    return engine.run(trace, offered_rate_rps=rate)


class TestCallbackMachine:
    """A scheduler that declares no kind rides the callback machine on the
    engine and on both fleet rails, faults and hedging included."""

    @pytest.mark.parametrize("rail", ["engine", *sorted(CALLBACK_RAILS)])
    @pytest.mark.parametrize("scheduler_cls", CUSTOM_SCHEDULERS)
    def test_dispatch_calls_match_the_loop(self, scheduler_cls, rail):
        """Asking only at a replica's own decision times launches what the
        loop's asking at every event launches: the calls that return a
        dispatch, ``(now, arrivals_pending, members)``, match per replica."""
        recorder = recording(scheduler_cls)
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(recorder, replace=True)
            fast = _serve_custom(recorder, rail)
            # one scheduler object per replica, each of them asked
            assert len(recorder.logs) == (1 if rail == "engine" else 3)
            fast_logs = [log for log in recorder.logs if log]
            recorder.logs.clear()
            reference = _serve_custom(recorder, rail, reference=True)
            reference_logs = [log for log in recorder.logs if log]
        assert fast == reference
        expected = "columnar" if rail == "engine" else CALLBACK_RAILS[rail][0]
        assert fast.backend_used == expected
        assert fast_logs == reference_logs
        assert sum(map(len, fast_logs)) >= 40  # not vacuous

    @pytest.mark.parametrize("rail", ["engine", *sorted(CALLBACK_RAILS)])
    def test_stalling_scheduler_raises(self, rail):
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(StallingScheduler, replace=True)
            with pytest.raises(ServingError, match="outstanding"):
                _serve_custom(StallingScheduler, rail, num_requests=20)

    @pytest.mark.parametrize("rail", ["engine", *sorted(CALLBACK_RAILS), "autoscaled"])
    def test_oversized_dispatch_raises(self, rail):
        """A dispatch above ``max_batch`` ends in a typed error on every
        path, the autoscaled fleet's event loop included."""
        with restored(SCHEDULER_REGISTRY):
            register_scheduler(OversizedScheduler, replace=True)
            with pytest.raises(ServingError, match="max_batch"):
                if rail != "autoscaled":
                    _serve_custom(OversizedScheduler, rail, num_requests=40, max_batch=2)
                else:
                    config = ClusterConfig(
                        model="gpt2", scheduler=OversizedScheduler.name, max_batch=2,
                        platforms=("A", "A"),
                        autoscale=AutoscaleConfig(controller="step", max_replicas=2),
                    )
                    burst = RequestTrace("burst", tuple(Request(i, 0.0) for i in range(12)))
                    ClusterRouter(config).run(burst)


class _SlowestFirstPolicy(AdmissionPolicy):
    """Probes load: the largest estimated delay, ties to the highest index."""

    name = "test-slowest-first"
    description = "largest estimated queue delay (test-only)"

    def choose(self, now, candidates, rng):
        return max(candidates, key=lambda r: (r.est_delay_s(now), r.index))


class _HighestIndexPolicy(AdmissionPolicy):
    """Picks by index alone."""

    name = "test-highest-index"
    description = "always the highest alive index (test-only)"
    probes_load = False

    def choose(self, now, candidates, rng):
        return candidates[-1]


class _CoinFlipPolicy(AdmissionPolicy):
    """Draws from the router's seeded generator."""

    name = "test-coin-flip"
    description = "a uniform draw over the candidates (test-only)"
    probes_load = False

    def choose(self, now, candidates, rng):
        return candidates[int(rng.integers(len(candidates)))]


#: fault, shed, hedge and cap knobs a custom policy meets on the faulted core.
CUSTOM_POLICY_KNOBS = {
    "plain": {},
    "shed": dict(shed_queue_s=0.02),
    "crash": FAULT_KNOBS["crash"],
    "straggler-hedge": dict(fault_profile="straggler", hedge_after_s=0.005),
    "accel-loss-capped": {**FAULT_KNOBS["accel-loss"], "record_requests": 16},
}


class TestCustomPolicies:
    """A registered policy rides the faulted core even without faults,
    retries or hedging, and equals the reference loop."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize(
        "policy_cls", (_SlowestFirstPolicy, _HighestIndexPolicy, _CoinFlipPolicy)
    )
    def test_matches_reference(self, policy_cls, scheduler, monkeypatch):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        with restored(POLICY_REGISTRY):
            register_policy(policy_cls, replace=True)
            for knobs in CUSTOM_POLICY_KNOBS.values():
                assert_backends_identical(
                    expect_backend="columnar-faulted",
                    num_requests=120,
                    scheduler=scheduler,
                    policy=policy_cls.name,
                    platforms=("A", "A", "A"),
                    **knobs,
                )


class TestSupportsFastPath:
    def _config(
        self,
        *,
        profile="none",
        scheduler="fifo",
        policy="round-robin",
        **config_overrides,
    ):
        return ClusterConfig(
            model="gpt2",
            platforms=("A", "A"),
            scheduler=scheduler,
            policy=policy,
            fault_profile=profile,
            **config_overrides,
        )

    def _reason(self, **kwargs):
        config = self._config(**kwargs)
        return fast_path_fallback_reason(config)

    def test_rail_conditions_hold(self):
        for scheduler in SCHEDULERS:
            for policy in POLICIES:
                assert self._reason(scheduler=scheduler, policy=policy) is None
        # shedding, capping, and deadlines stay on the rail
        assert self._reason(shed_queue_s=0.01, record_requests=32, deadline_s=0.1) is None
        # faults and timeout retries ride the fault-capable rail
        assert self._reason(profile="crash", timeout_s=0.02) is None
        assert self._reason(profile="accel-loss", timeout_s=0.02) is None
        assert self._reason(profile="straggler") is None
        assert self._reason(timeout_s=0.02) is None
        # hedging rides it too, with or without faults
        assert self._reason(hedge_after_s=0.01) is None
        assert self._reason(hedge_after_s=0.01, profile="crash", timeout_s=0.02) is None

    def test_unsupported_knobs_fall_off(self):
        autoscale = AutoscaleConfig(controller="step", max_replicas=2)
        assert "autoscale" in self._reason(autoscale=autoscale)
        assert "autoscale" in self._reason(autoscale=autoscale, hedge_after_s=0.01)

    def test_faulted_rail_selection(self):
        def needs(**kwargs):
            config = self._config(**kwargs)
            injector = FaultInjector(config.fault_profile, 2, 100.0, seed=0)
            return needs_faulted_path(config, injector, get_policy(config.policy))

        # the drawn schedule (not the profile name) decides the rail
        assert not needs()
        assert needs(profile="crash", timeout_s=0.02)
        assert needs(profile="accel-loss")
        assert needs(profile="straggler")
        assert needs(timeout_s=0.02)
        assert needs(hedge_after_s=0.01)
        # a custom policy is asked through policy.choose on the faulted core
        with restored(POLICY_REGISTRY):
            register_policy(_HighestIndexPolicy, replace=True)
            assert needs(policy=_HighestIndexPolicy.name)
            assert self._reason(policy=_HighestIndexPolicy.name) is None
