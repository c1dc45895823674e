"""Cluster simulator tests: policies, fault injection, the router, sweeps.

The load-bearing suite is the equivalence battery: a single-replica cluster
with the ``none`` fault profile and no robustness knobs must reproduce the
plain :class:`~repro.serving.engine.ServingEngine` **bit-identically** —
same records, same float accumulations — for every registered batching
scheduler.  Everything the cluster layer adds (retries, hedging, shedding,
fault windows) is opt-in on top of that rail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RegistryError, ServingError
from repro.serving import (
    ACCEL_LOSS,
    CRASH,
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    AdmissionPolicy,
    AutoscaleConfig,
    ClusterConfig,
    ClusterRouter,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
    Request,
    RequestTrace,
    ServingConfig,
    ServingEngine,
    fault_profile_entries,
    get_policy,
    list_fault_profiles,
    list_policies,
    list_schedulers,
    make_trace,
    policy_entries,
    register_fault_profile,
    register_policy,
    simulate_cluster,
)
from repro.serving.cluster import POLICY_REGISTRY
from repro.serving.faults import FAULT_PROFILE_REGISTRY
from repro.serving.scheduler import SCHEDULER_REGISTRY, FIFOScheduler, register_scheduler
from repro.sweep.cache import PLAN_CACHE

from oracles import run_reference
from registrations import restored

MODEL = "gpt2"


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class _FirstCandidatePolicy(AdmissionPolicy):
    name = "test-first-candidate"
    description = "always the lowest alive index (test-only)"
    probes_load = False

    def choose(self, now, candidates, rng):
        return candidates[0]


class _FIFOSubclass(FIFOScheduler):
    """Inherits fifo's declaration, which does not count: no launch machine."""

    name = "test-fifo-subclass"
    description = "fifo subclass (test-only)"


def cluster_config(**kwargs) -> ClusterConfig:
    kwargs.setdefault("model", MODEL)
    return ClusterConfig(**kwargs)


def fleet_trace(
    config: ClusterConfig, load: float = 1.0, n: int = 24, seed: int = 0
) -> tuple[RequestTrace, float]:
    router = ClusterRouter(config)
    rate = load * router.fleet_capacity_rps()
    trace = make_trace("poisson", rate, n, rng(seed), decode_steps=(1, 4))
    return trace, rate


# -- fault profiles ----------------------------------------------------------


class TestFaultProfiles:
    def test_registry_lists_builtins(self):
        assert list_fault_profiles() == ["accel-loss", "crash", "none", "straggler"]
        assert all(desc for _, desc in fault_profile_entries())
        with pytest.raises(ServingError):
            FaultInjector("mystery", 2, 1.0)

    def test_custom_profile_registration(self):
        def always_down(num_replicas, horizon_s, generator):
            return FaultSchedule(
                windows=(FaultWindow(0, CRASH, 0.0, horizon_s),)
            )

        with restored(FAULT_PROFILE_REGISTRY):
            register_fault_profile("always-down-test", always_down)
            assert "always-down-test" in list_fault_profiles()
            with pytest.raises(ServingError):
                register_fault_profile("always-down-test", always_down)
            injector = FaultInjector("always-down-test", 2, 5.0)
            assert injector.is_crashed(0, 0.0) and not injector.is_crashed(1, 0.0)

    def test_injector_is_deterministic(self):
        a = FaultInjector("crash", 3, 2.0, seed=7)
        b = FaultInjector("crash", 3, 2.0, seed=7)
        assert a.schedule == b.schedule
        assert a.transitions() == b.transitions()
        # a different seed moves the outage window
        assert FaultInjector("crash", 3, 2.0, seed=8).schedule != a.schedule

    def test_straggler_streams_are_per_replica(self):
        a = FaultInjector("straggler", 2, 1.0, seed=1)
        b = FaultInjector("straggler", 2, 1.0, seed=1)
        # replica 1's stream is independent of how often replica 0 draws
        [a.dispatch_multiplier(0) for _ in range(10)]
        stream_a = [a.dispatch_multiplier(1) for _ in range(16)]
        stream_b = [b.dispatch_multiplier(1) for _ in range(16)]
        assert stream_a == stream_b
        assert all(m >= 1.0 for m in stream_a)
        assert any(m > 1.0 for m in stream_a)

    def test_no_fault_profile_never_touches_rng(self):
        injector = FaultInjector("none", 2, 1.0, seed=0)
        assert injector.schedule == FaultSchedule()
        assert not injector.has_stragglers
        assert [injector.dispatch_multiplier(0) for _ in range(4)] == [1.0] * 4

    def test_validation(self):
        with pytest.raises(ServingError):
            FaultWindow(0, "meteor", 0.0, 1.0)
        with pytest.raises(ServingError):
            FaultWindow(0, CRASH, 1.0, 1.0)
        with pytest.raises(ServingError):
            FaultWindow(-1, ACCEL_LOSS, 0.0, 1.0)
        with pytest.raises(ServingError):
            FaultSchedule(straggler_prob=1.5)
        with pytest.raises(ServingError):
            FaultSchedule(straggler_range=(0.5, 2.0))
        with pytest.raises(ServingError):
            FaultInjector("none", 0, 1.0)
        with pytest.raises(ServingError):
            FaultInjector("none", 2, 0.0)


# -- admission policies ------------------------------------------------------


class _StubReplica:
    def __init__(self, index: int, delay: float):
        self.index = index
        self._delay = delay

    def est_delay_s(self, now: float) -> float:
        return self._delay


class TestPolicies:
    def test_registry_lists_builtins(self):
        assert list_policies() == [
            "least-loaded",
            "power-of-two-choices",
            "round-robin",
        ]
        assert all(desc for _, desc in policy_entries())
        with pytest.raises(ServingError):
            get_policy("mystery")

    def test_fresh_instance_per_call(self):
        assert get_policy("round-robin") is not get_policy("round-robin")

    def test_round_robin_rotates_and_skips_dead(self):
        policy = get_policy("round-robin")
        policy.reset(3)
        replicas = [_StubReplica(i, 0.0) for i in range(3)]
        picks = [policy.choose(0.0, replicas, rng()).index for _ in range(4)]
        assert picks == [0, 1, 2, 0]
        # replica 1 dead: the rotation continues over the survivors
        alive = [replicas[0], replicas[2]]
        assert policy.choose(0.0, alive, rng()).index == 2
        assert policy.choose(0.0, alive, rng()).index == 0

    def test_least_loaded_picks_smallest_delay(self):
        policy = get_policy("least-loaded")
        replicas = [_StubReplica(0, 3.0), _StubReplica(1, 1.0), _StubReplica(2, 1.0)]
        # ties break to the lowest index
        assert policy.choose(0.0, replicas, rng()).index == 1

    def test_power_of_two_is_seeded_and_load_aware(self):
        policy = get_policy("power-of-two-choices")
        replicas = [_StubReplica(i, float(i)) for i in range(4)]
        picks_a = [policy.choose(0.0, replicas, rng(3)).index for _ in range(8)]
        picks_b = [policy.choose(0.0, replicas, rng(3)).index for _ in range(8)]
        assert picks_a == picks_b
        # of the two sampled candidates it always admits the less loaded
        for _ in range(8):
            generator = rng(11)
            chosen = policy.choose(0.0, replicas, generator)
            i, j = sorted(int(x) for x in rng(11).choice(4, size=2, replace=False))
            assert chosen.index == i  # delay == index here
        assert policy.choose(0.0, replicas[:1], rng()).index == 0

    def test_custom_policy_registration(self):
        class AlwaysFirst(AdmissionPolicy):
            name = "always-first-test"
            description = "test double"

            def choose(self, now, candidates, generator):
                return candidates[0]

        with restored(POLICY_REGISTRY):
            register_policy(AlwaysFirst)
            assert "always-first-test" in list_policies()
            with pytest.raises(ServingError):
                register_policy(AlwaysFirst)
            result = simulate_cluster(
                cluster_config(policy="always-first-test", scheduler="fifo"),
                RequestTrace("pair", (Request(0, 0.0), Request(1, 0.0))),
            )
            assert all(r.replica == 0 for r in result.records)


# -- configuration -----------------------------------------------------------


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ServingError):
            cluster_config(platforms=())
        with pytest.raises(ServingError):
            cluster_config(max_retries=-1)
        for knob in (
            "timeout_s", "timeout_cap_s", "hedge_after_s", "shed_queue_s",
            "deadline_s",
        ):
            for bad in (0.0, float("nan")):
                with pytest.raises(ServingError, match=knob):
                    cluster_config(**{knob: bad})
        # a timer must fire: an infinite timeout or hedge delay is refused
        # (shedding and deadlines read inf as "never")
        for knob in ("timeout_s", "timeout_cap_s", "hedge_after_s"):
            with pytest.raises(ServingError, match=f"{knob} must be positive and finite"):
                cluster_config(**{knob: float("inf")})
        for knob in ("shed_queue_s", "deadline_s"):
            cluster_config(**{knob: float("inf")})

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(ServingError):
            ClusterRouter(cluster_config(policy="mystery"))

    def test_crash_profile_requires_timeout(self):
        config = cluster_config(fault_profile="crash")
        trace, rate = fleet_trace(config, n=8)
        with pytest.raises(ServingError, match="timeout"):
            simulate_cluster(config, trace, rate)


# -- the equivalence battery -------------------------------------------------


@pytest.mark.parametrize("scheduler", sorted(list_schedulers()))
@pytest.mark.parametrize("platform_id", ["A", "B"])
def test_single_replica_matches_engine_exactly(platform_id, scheduler):
    """One replica, no faults, no knobs: the cluster IS the engine, bitwise."""
    engine = ServingEngine(
        ServingConfig(
            model=MODEL, platform=platform_id, scheduler=scheduler, max_batch=4
        )
    )
    rate = 2.0 / engine.base_latency_s()
    trace = make_trace("poisson", rate, 20, rng(5), decode_steps=(1, 4))
    single = engine.run(trace, rate)
    result = simulate_cluster(
        cluster_config(platforms=(platform_id,), scheduler=scheduler, max_batch=4),
        trace,
        rate,
    )
    assert result.replicas[0] == single
    assert result.makespan_s == single.makespan_s
    completions = {r.request_id: r.completion_s for r in single.records}
    for record in result.records:
        assert record.status == REQUEST_OK
        assert record.attempts == 1 and record.replica == 0
        assert not record.hedged and not record.hedge_won
        assert record.completion_s == completions[record.request_id]


# -- the router under faults -------------------------------------------------


class TestClusterRouter:
    def test_determinism_including_cache_disabled(self):
        config = cluster_config(
            platforms=("A", "A", "B"),
            scheduler="continuous",
            policy="power-of-two-choices",
            fault_profile="crash",
            timeout_s=0.02,
            deadline_s=0.1,
        )
        trace, rate = fleet_trace(config)
        a = simulate_cluster(config, trace, rate)
        b = simulate_cluster(config, trace, rate)
        with PLAN_CACHE.disabled():
            c = simulate_cluster(config, trace, rate)
        for other in (b, c):
            assert a.records == other.records
            assert a.replicas == other.replicas
            assert a.makespan_s == other.makespan_s
            assert a.time_to_recovery_s == other.time_to_recovery_s

    def test_crash_lost_work_is_retried_elsewhere(self):
        config = cluster_config(
            platforms=("A", "A"),
            scheduler="fifo",
            policy="least-loaded",
            fault_profile="crash",
            fault_seed=3,
            timeout_s=0.01,
        )
        trace, rate = fleet_trace(config)
        result = simulate_cluster(config, trace, rate)
        assert result.num_retries > 0
        assert result.time_to_recovery_s > 0.0
        retried = [r for r in result.records if r.attempts > 1]
        assert retried
        # re-routed work completes elsewhere (a saturated fifo fleet may
        # still exhaust some budgets — those end failed, never limbo).
        assert any(r.status == REQUEST_OK for r in retried)
        assert all(r.status in (REQUEST_OK, REQUEST_FAILED) for r in result.records)
        # every record the fleet completed carries the completing replica
        assert all(
            r.replica in (0, 1)
            for r in result.records
            if r.status == REQUEST_OK
        )

    def test_retry_budget_exhaustion_fails_requests(self):
        def long_outage(num_replicas, horizon_s, generator):
            return FaultSchedule(
                windows=(FaultWindow(0, CRASH, 0.0, 0.9 * horizon_s),)
            )

        with restored(FAULT_PROFILE_REGISTRY):
            register_fault_profile("long-outage-test", long_outage)
            config = cluster_config(
                platforms=("A", "A"),
                scheduler="fifo",
                fault_profile="long-outage-test",
                timeout_s=1e-4,
                max_retries=0,
            )
            trace, rate = fleet_trace(config, load=2.0)
            result = simulate_cluster(config, trace, rate)
        assert result.num_failed > 0
        failed = [r for r in result.records if r.status == REQUEST_FAILED]
        assert failed and all(r.completion_s is None for r in failed)
        assert result.goodput < 1.0

    def test_shedding_rejects_queued_arrivals(self):
        config = cluster_config(
            platforms=("A", "A"),
            scheduler="fifo",
            shed_queue_s=1e-3,
            deadline_s=0.1,
        )
        trace, rate = fleet_trace(config, load=3.0)
        result = simulate_cluster(config, trace, rate)
        assert result.num_shed > 0
        shed = [r for r in result.records if r.status == REQUEST_SHED]
        assert len(shed) == result.num_shed
        assert all(r.completion_s is None and r.replica == -1 for r in shed)
        # shed requests count against goodput but not the admitted tail
        assert result.goodput < 1.0
        assert len(result.latencies_s()) == len(result.records) - result.num_shed

    def test_hedging_duplicates_and_first_completion_wins(self):
        config = cluster_config(
            platforms=("A", "A", "A"),
            scheduler="continuous",
            fault_profile="straggler",
            fault_seed=1,
            hedge_after_s=0.005,
        )
        trace, rate = fleet_trace(config, load=0.5)
        result = simulate_cluster(config, trace, rate)
        assert result.num_hedges > 0
        assert 0 < result.num_hedge_wins <= result.num_hedges
        hedged = [r for r in result.records if r.hedged]
        assert len(hedged) == result.num_hedges
        winners = [r for r in hedged if r.hedge_won]
        assert len(winners) == result.num_hedge_wins
        assert all(r.status == REQUEST_OK for r in hedged)

    def test_accel_loss_degrades_but_keeps_serving(self):
        config = cluster_config(
            platforms=("A", "A"),
            scheduler="dynamic",
            fault_profile="accel-loss",
            fault_seed=0,
        )
        trace, rate = fleet_trace(config, load=0.8)
        healthy = simulate_cluster(
            cluster_config(platforms=("A", "A"), scheduler="dynamic"), trace, rate
        )
        result = simulate_cluster(config, trace, rate)
        # no outage: every request completes without retries or failures...
        assert all(r.status == REQUEST_OK for r in result.records)
        assert result.num_retries == 0 and result.num_failed == 0
        # ... but host-priced dispatches slow the victim: the run stretches
        # and the fleet burns more CPU time than the healthy one.  (The tail
        # can actually *improve* — slower dispatches accumulate bigger, more
        # amortized batches — so the makespan is the honest signal.)
        assert result.makespan_s > healthy.makespan_s
        from repro.hardware.device import DeviceKind

        degraded_cpu = sum(r.busy_s[DeviceKind.CPU] for r in result.replicas)
        healthy_cpu = sum(r.busy_s[DeviceKind.CPU] for r in healthy.replicas)
        assert degraded_cpu > healthy_cpu

    def test_straggler_inflates_tail_deterministically(self):
        base = cluster_config(platforms=("A", "A"), scheduler="continuous")
        config = cluster_config(
            platforms=("A", "A"), scheduler="continuous",
            fault_profile="straggler", fault_seed=2,
        )
        trace, rate = fleet_trace(config, load=0.5)
        healthy = simulate_cluster(base, trace, rate)
        slow_a = simulate_cluster(config, trace, rate)
        slow_b = simulate_cluster(config, trace, rate)
        assert slow_a.records == slow_b.records
        assert slow_a.p99_s > healthy.p99_s

    def test_no_faults_recovery_is_zero(self):
        config = cluster_config(platforms=("A", "A"))
        trace, rate = fleet_trace(config, n=8)
        result = simulate_cluster(config, trace, rate)
        assert result.time_to_recovery_s == 0.0
        assert result.num_shed == result.num_failed == result.num_retries == 0

    def test_empty_trace(self):
        result = simulate_cluster(
            cluster_config(), RequestTrace("empty", ())
        )
        assert result.records == []
        assert [r.num_dispatches for r in result.replicas] == [0, 0]
        assert result.throughput_rps == 0.0 and result.goodput == 0.0
        # a capped fleet reports the capped form even with nothing to serve,
        # like the single engine does.
        capped = simulate_cluster(
            cluster_config(platforms=("A", "A"), record_requests=16),
            RequestTrace("empty", ()),
        )
        assert capped.records == []
        assert [r.record_cap for r in capped.replicas] == [16, 16]
        assert capped.record_cap == 16
        assert capped.stats is not None and capped.stats.num_requests == 0
        assert capped.num_requests_total == 0
        assert capped.num_completed == 0 and capped.num_good == 0
        assert capped.throughput_rps == 0.0 and capped.goodput == 0.0

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(policy="least-loaded"),
            dict(policy="test-first-candidate"),
            dict(scheduler="test-fifo-subclass"),
            dict(autoscale=AutoscaleConfig(controller="step", max_replicas=2)),
        ],
        ids=["built-in", "custom-policy", "custom-scheduler", "autoscale"],
    )
    def test_empty_trace_reports_idle_replicas_on_every_path(self, knobs):
        """Every path reports one idle replica per replica for an empty
        trace, with per-device zeros like an idle engine, and agrees with
        the reference loop."""
        empty = RequestTrace("empty", ())
        with restored(POLICY_REGISTRY), restored(SCHEDULER_REGISTRY):
            register_policy(_FirstCandidatePolicy)
            register_scheduler(_FIFOSubclass)
            router = ClusterRouter(cluster_config(platforms=("A", "B"), **knobs))
            result = router.run(empty)
            assert result == run_reference(router, empty)
        idle = ServingEngine(ServingConfig(model=MODEL, platform="B")).run(empty)
        assert len(result.replicas) == 2
        assert result.replicas[1].busy_s == idle.busy_s != {}
        assert result.replicas[1].energy_j == idle.energy_j
        for replica in result.replicas:
            assert replica.records == [] and replica.num_dispatches == 0
            assert set(replica.busy_s.values()) == {0.0}

    def test_heterogeneous_fleet_and_describe(self):
        config = cluster_config(platforms=("A", "B"), policy="least-loaded")
        trace, rate = fleet_trace(config, n=12)
        result = simulate_cluster(config, trace, rate)
        assert result.platform_ids == ("A", "B")
        assert len(result.replicas) == 2
        assert {r.platform_id for r in result.replicas} == {"A", "B"}
        described = result.describe()
        assert "A/B" in described and "least-loaded" in described
        assert len(result.utilization()) == 2
        assert result.total_energy_j > 0.0


# -- sweep integration -------------------------------------------------------


class TestSweepCluster:
    def test_policy_axis_expands_points(self):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(1.0,),
            policies=("round-robin", "least-loaded"),
            fault_profiles=("none", "crash"),
            num_replicas=3, timeout_s=0.02,
        )
        points = spec.points()
        assert len(points) == 4
        assert {(p.policy, p.fault_profile) for p in points} == {
            ("round-robin", "none"), ("round-robin", "crash"),
            ("least-loaded", "none"), ("least-loaded", "crash"),
        }
        assert all(p.num_replicas == 3 and p.timeout_s == 0.02 for p in points)
        assert "3x round-robin" in points[0].describe()
        assert "faults=crash" in points[1].describe()

    def test_policy_requires_load_and_fault_requires_policy(self):
        from repro.sweep.spec import SweepSpec

        with pytest.raises(RegistryError):
            SweepSpec(models=(MODEL,), policies=("round-robin",)).points()
        with pytest.raises(RegistryError):
            SweepSpec(
                models=(MODEL,), loads=(1.0,), fault_profiles=("crash",)
            ).points()
        with pytest.raises(RegistryError):
            SweepSpec(models=(MODEL,), loads=(1.0,), num_replicas=0).points()

    def test_run_point_attaches_cluster_result(self):
        from repro.serving.metrics import ClusterResult
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(1.0,), policies=("least-loaded",),
            scheduler="continuous", num_requests=8, num_replicas=2,
            iterations=2, name="cluster-smoke",
        )
        result = run_sweep(spec)
        assert len(result.records) == 1
        serving = result.records[0].serving
        assert isinstance(serving, ClusterResult)
        assert len(serving.records) == 8 and serving.num_replicas == 2
        # load alone (no policy) still routes to the single engine
        single = run_sweep(spec.subset(policies=(None,), name="single-smoke"))
        assert not isinstance(single.records[0].serving, ClusterResult)

    def test_cluster_points_survive_process_pool(self):
        import pickle

        from repro.sweep.runner import _pool_task
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            models=(MODEL,), loads=(0.5,), policies=("round-robin",),
            num_requests=4, iterations=2,
        )
        record, cache_delta, _ = _pool_task(spec.points()[0])
        restored = pickle.loads(pickle.dumps(record))
        assert restored.serving.records == record.serving.records
        assert restored.serving.replicas == record.serving.replicas
        # the worker ships its per-point cache delta back alongside the record
        assert isinstance(cache_delta, dict)


# -- ext3 experiment ---------------------------------------------------------


class TestExt3:
    def test_reduced_grid_is_deterministic(self):
        from repro.analysis import run_ext3

        kwargs = dict(
            platform_ids=("A",), schedulers=("continuous",),
            fault_profiles=("none", "crash"), policies=("least-loaded",),
            num_requests=12, iterations=2,
        )
        a = run_ext3(**kwargs)
        b = run_ext3(**kwargs)
        assert a.rows == b.rows
        assert a.render() == b.render()
        # 1 platform x 1 scheduler x 1 policy x 2 faults, + 2x2 study rows
        assert len(a.rows) == 2 + 4
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            first = a.save(Path(tmp) / "one").read_bytes()
            second = b.save(Path(tmp) / "two").read_bytes()
        assert first == second
