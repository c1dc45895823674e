"""Autoscaling tests: controllers, elastic lifecycle, and the static rails.

The load-bearing contract is the **pinned-fleet rail**: an autoscaled
cluster whose controller can never act (``min_replicas == max_replicas``)
must reproduce the plain static :class:`~repro.serving.cluster.ClusterRouter`
**bit-identically** for every registered scheduler and admission policy —
scale evaluations ride the event heap at a priority that never perturbs
launch arithmetic.  On top of that rail: autoscaled configs always fall
back from the columnar kernels to the reference loop, elastic lifecycle
accounting (timeline, audit log, replica-seconds, active spans) is
deterministic across process pools, and draining composes with crash
windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    AutoscaleConfig,
    AutoscaleObservation,
    Autoscaler,
    ClusterConfig,
    ClusterRouter,
    autoscaler_entries,
    get_autoscaler,
    list_autoscalers,
    make_trace,
    register_autoscaler,
    trace_entries,
)
from repro.serving import columnar_cluster
from repro.serving.autoscale import AUTOSCALER_REGISTRY
from repro.serving.columnar_cluster import fast_path_fallback_reason

from oracles import reference_paths
from registrations import restored

POLICIES = ("round-robin", "least-loaded", "power-of-two-choices")
SCHEDULERS = ("fifo", "static", "dynamic", "continuous")
CONTROLLERS = ("target-utilization", "goodput", "step")

MODEL = "gpt2"


def run_cluster(
    *,
    num_requests=400,
    load=1.5,
    seed=0,
    trace_kind="poisson",
    decode_steps=(1, 4),
    **overrides,
):
    config = ClusterConfig(model=MODEL, **overrides)
    router = ClusterRouter(config)
    rate = load * router.fleet_capacity_rps()
    trace = make_trace(
        trace_kind,
        rate,
        num_requests,
        rng=np.random.default_rng(seed),
        decode_steps=decode_steps,
    )
    return router.run(trace, offered_rate_rps=rate)


def elastic_auto(**overrides) -> AutoscaleConfig:
    overrides.setdefault("controller", "goodput")
    overrides.setdefault("min_replicas", 1)
    overrides.setdefault("max_replicas", 4)
    overrides.setdefault("interval_s", 0.05)
    overrides.setdefault("provision_delay_s", 0.05)
    overrides.setdefault("slo_s", 0.08)
    return AutoscaleConfig(**overrides)


def observation(**overrides) -> AutoscaleObservation:
    base = dict(
        start_s=0.0,
        end_s=0.1,
        active_replicas=2,
        arrivals=10,
        arrival_steps=20,
        completions=10,
        latencies_s=(0.01, 0.02, 0.03),
        busy_s=0.12,
        queue_depth=0,
        unit_latency_s=0.01,
    )
    base.update(overrides)
    return AutoscaleObservation(**base)


# -- registry and config validation -----------------------------------------


class TestRegistry:
    def test_builtins_listed(self):
        assert list_autoscalers() == ["goodput", "step", "target-utilization"]
        assert all(desc for _, desc in autoscaler_entries())

    def test_get_returns_fresh_instances(self):
        a, b = get_autoscaler("step"), get_autoscaler("step")
        assert a is not b

    def test_unknown_controller_rejected(self):
        with pytest.raises(ServingError, match="unknown autoscaler"):
            get_autoscaler("mystery")
        with pytest.raises(ServingError, match="unknown autoscaler"):
            ClusterRouter(
                ClusterConfig(
                    model=MODEL,
                    platforms=("A", "A"),
                    policy="round-robin",
                    autoscale=AutoscaleConfig(controller="mystery", max_replicas=2),
                )
            )

    def test_custom_controller_registration(self):
        class PinnedAutoscaler(Autoscaler):
            name = "pinned-test"
            description = "always wants three replicas"

            def desired_replicas(self, obs):
                return 3

        with restored(AUTOSCALER_REGISTRY):
            register_autoscaler(PinnedAutoscaler)
            assert "pinned-test" in list_autoscalers()
            with pytest.raises(ServingError, match="already registered"):
                register_autoscaler(PinnedAutoscaler)
            register_autoscaler(PinnedAutoscaler, replace=True)

    def test_nameless_controller_rejected(self):
        class Nameless(Autoscaler):
            pass

        with pytest.raises(ServingError, match="declares no name"):
            register_autoscaler(Nameless)

    def test_trace_entries_mirror_fault_entries(self):
        rows = trace_entries()
        assert [name for name, _ in rows] == ["bursty", "closed-loop", "poisson"]
        assert all(desc for _, desc in rows)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(min_replicas=0),
            dict(min_replicas=4, max_replicas=2),
            dict(initial_replicas=9),
            dict(interval_s=0.0),
            dict(provision_delay_s=-1.0),
            dict(cooldown_s=-0.1),
            dict(target_utilization=0.0),
            dict(target_utilization=1.5),
            dict(deadband=-0.1),
            dict(up_threshold=0.2, down_threshold=0.4),
            dict(slo_s=0.0),
            dict(slo_margin=0.0),
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ServingError):
            AutoscaleConfig(controller="step", **overrides)

    def test_start_replicas(self):
        assert AutoscaleConfig(controller="step", min_replicas=2).start_replicas == 2
        assert (
            AutoscaleConfig(
                controller="step", min_replicas=2, max_replicas=8, initial_replicas=5
            ).start_replicas
            == 5
        )

    def test_ceiling_must_match_fleet(self):
        with pytest.raises(ServingError, match="max_replicas"):
            ClusterConfig(
                model=MODEL,
                platforms=("A", "A"),
                policy="round-robin",
                autoscale=AutoscaleConfig(controller="step", max_replicas=4),
            )

    def test_goodput_needs_slo(self):
        auto = AutoscaleConfig(controller="goodput", max_replicas=2)
        with pytest.raises(ServingError, match="SLO"):
            run_cluster(platforms=("A", "A"), policy="round-robin", autoscale=auto)


# -- controller decision laws ------------------------------------------------


class TestControllerLaws:
    def controller(self, name, **overrides):
        scaler = get_autoscaler(name)
        scaler.reset(AutoscaleConfig(controller=name, slo_s=0.1, **overrides))
        return scaler

    def test_target_utilization_proportional(self):
        scaler = self.controller("target-utilization", target_utilization=0.5)
        # busy 0.12s over 0.1s x 2 replicas = 60% — inside the deadband.
        assert scaler.desired_replicas(observation()) == 2
        # 90% busy at set-point 50% wants ceil(2 * 0.9 / 0.5) = 4.
        assert scaler.desired_replicas(observation(busy_s=0.18)) == 4
        # idle window wants zero; the router clamps to the floor.
        assert scaler.desired_replicas(observation(busy_s=0.0)) == 0

    def test_step_hysteresis(self):
        scaler = self.controller("step")
        assert scaler.desired_replicas(observation(busy_s=0.19)) == 3
        assert scaler.desired_replicas(observation(busy_s=0.01)) == 1
        assert scaler.desired_replicas(observation(busy_s=0.12)) == 2

    def test_goodput_tracks_slo(self):
        scaler = self.controller("goodput")
        # p99 30 ms under margin 50 ms with shallow queue: give one back.
        assert scaler.desired_replicas(observation()) == 1
        # p99 over the SLO: step up proportionally to the overshoot
        # (50% over -> ceil(2 * 0.5) = 1 extra; 2x over caps at doubling).
        assert scaler.desired_replicas(observation(latencies_s=(0.15,))) == 3
        assert scaler.desired_replicas(observation(latencies_s=(0.25,))) == 4
        # inside the hysteresis band: hold.
        assert scaler.desired_replicas(observation(latencies_s=(0.07,))) == 2
        # nothing completed but work queued: saturated cold start, step up.
        assert (
            scaler.desired_replicas(
                observation(completions=0, latencies_s=(), queue_depth=5)
            )
            == 3
        )
        # nothing completed, nothing queued: hold.
        assert (
            scaler.desired_replicas(
                observation(completions=0, latencies_s=(), queue_depth=0)
            )
            == 2
        )


# -- the pinned-fleet rail ---------------------------------------------------


class TestPinnedFleetRail:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_pinned_controller_matches_static_router(self, scheduler, policy):
        """min == max: evaluations run, actions never fire, results match
        the plain router bit-for-bit (dataclass equality, every field)."""
        common = dict(scheduler=scheduler, policy=policy, platforms=("A", "A"))
        with reference_paths():
            static = run_cluster(**common)
        for controller in CONTROLLERS:
            auto = AutoscaleConfig(
                controller=controller,
                min_replicas=2,
                max_replicas=2,
                slo_s=0.1,
            )
            pinned = run_cluster(autoscale=auto, **common)
            assert pinned == static, (scheduler, policy, controller)

    def test_pinned_fast_config_matches_reference(self):
        """The pinned event-loop run also matches the static columnar rail."""
        auto = AutoscaleConfig(
            controller="step", min_replicas=2, max_replicas=2
        )
        pinned = run_cluster(
            autoscale=auto, platforms=("A", "A"), policy="least-loaded"
        )
        static = run_cluster(platforms=("A", "A"), policy="least-loaded")
        assert pinned == static
        assert static.backend_used == "columnar"
        # the fallback is explicit: elastic lifecycle needs the event loop.
        assert pinned.backend_used == "reference"
        assert "autoscale" in pinned.fast_path_fallback_reason


class TestColumnarFallback:
    def test_fallback_reason_set(self):
        config = ClusterConfig(
            model=MODEL,
            platforms=("A", "A"),
            policy="round-robin",
            autoscale=AutoscaleConfig(controller="step", max_replicas=2),
        )
        reason = fast_path_fallback_reason(config)
        assert "autoscale" in reason

    def test_columnar_kernels_never_run(self, monkeypatch):
        """An autoscaled config must not enter either fast entry point."""

        def raiser(*args, **kwargs):
            raise AssertionError("columnar kernel entered for autoscaled config")

        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", raiser)
        monkeypatch.setattr(columnar_cluster, "run_fast_faulted", raiser)
        result = run_cluster(
            platforms=("A", "A"),
            policy="round-robin",
            autoscale=elastic_auto(max_replicas=2),
        )
        assert result.backend_used == "reference"


# -- elastic lifecycle -------------------------------------------------------


class TestElasticLifecycle:
    def elastic_run(self, **overrides):
        overrides.setdefault("platforms", ("A",) * 4)
        overrides.setdefault("policy", "least-loaded")
        overrides.setdefault("scheduler", "continuous")
        overrides.setdefault("load", 3.0)
        overrides.setdefault("num_requests", 600)
        overrides.setdefault("autoscale", elastic_auto())
        return run_cluster(**overrides)

    def test_scales_up_under_overload(self):
        result = self.elastic_run()
        ups = [e for e in result.scale_events if e.action == "up"]
        onlines = [e for e in result.scale_events if e.action == "online"]
        assert ups and onlines
        # every provision decision comes online exactly provision_delay later.
        for up in ups:
            online = next(e for e in onlines if e.replica == up.replica)
            assert online.time_s == pytest.approx(up.time_s + 0.05)
        # the timeline starts at the floor and reaches beyond it.
        assert result.replica_timeline[0] == (0.0, 1)
        assert max(count for _, count in result.replica_timeline) > 1
        # the bill sits strictly between the floor and the ceiling.
        assert (
            result.makespan_s
            < result.replica_seconds
            < 4 * result.makespan_s
        )
        assert 1.0 < result.mean_replicas < 4.0

    def test_all_work_completes(self):
        result = self.elastic_run()
        assert len(result.completed()) == 600
        assert result.num_failed == result.num_shed == 0

    def test_drain_finishes_inflight_work(self):
        """Scale-downs drain: requests admitted before the decision finish,
        and the drained replica admits nothing afterwards."""
        result = self.elastic_run(
            num_requests=900,
            record_requests=None,
            load=1.0,
            trace_kind="bursty",
            autoscale=elastic_auto(
                interval_s=0.1, provision_delay_s=0.1, slo_s=0.1
            ),
        )
        downs = [e for e in result.scale_events if e.action == "down"]
        drains = [e for e in result.scale_events if e.action == "drained"]
        assert downs and drains
        assert len(result.completed()) == 900
        for down in downs:
            drained = min(
                e.time_s for e in drains
                if e.replica == down.replica and e.time_s >= down.time_s
            )
            for record in result.records:
                if record.replica == down.replica:
                    assert (
                        record.arrival_s <= down.time_s
                        or record.end_s <= down.time_s
                        or record.end_s > drained
                    )

    def test_active_spans_bound_busy_time(self):
        result = self.elastic_run()
        assert len(result.replica_active_s) == 4
        for replica, active in zip(result.replicas, result.replica_active_s):
            busy = max(replica.busy_s.values(), default=0.0)
            assert busy <= active + 1e-9
        for util in result.active_utilization():
            for share in util.values():
                assert 0.0 <= share <= 1.0 + 1e-9

    def test_drain_composes_with_crash_windows(self):
        result = self.elastic_run(
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
            num_requests=800,
        )
        assert result.scale_events
        assert (
            len(result.completed()) + result.num_failed + result.num_shed == 800
        )
        # lifecycle accounting stays coherent under faults.
        assert result.replica_seconds > 0.0
        assert result.mean_replicas <= 4.0

    def test_initial_replicas_override(self):
        result = self.elastic_run(
            autoscale=elastic_auto(initial_replicas=3), load=0.5
        )
        assert result.replica_timeline[0] == (0.0, 3)

    def test_partial_fleet_without_actions_bills_the_floor(self):
        """A controller that never acts on a partial fleet pays for the
        replicas it held online, not the provisioned ceiling."""
        result = self.elastic_run(load=0.3, num_requests=200)
        if not result.scale_events:
            assert result.mean_replicas == pytest.approx(1.0)

    def test_deadline_feeds_goodput_slo(self):
        # no explicit slo_s: the cluster deadline is the SLO.
        result = self.elastic_run(
            autoscale=elastic_auto(slo_s=None), deadline_s=0.08
        )
        assert len(result.completed()) == 600


# -- determinism across process pools ---------------------------------------


class TestPoolDeterminism:
    def test_parallel_matches_serial(self):
        from repro.sweep.runner import SweepRunner
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            name="autoscale-pool",
            models=(MODEL,),
            loads=(0.375, 0.5),
            policies=("least-loaded",),
            autoscalers=("goodput",),
            scheduler="continuous",
            num_requests=400,
            decode_steps=(1, 4),
            num_replicas=4,
            deadline_s=0.1,
            interval_s=0.05,
            provision_delay_s=0.05,
            record_requests=256,
        )
        serial = SweepRunner(workers=0).run(spec)
        parallel = SweepRunner(workers=2).run(spec)
        assert len(serial.records) == 2
        for a, b in zip(serial.records, parallel.records):
            assert a.point == b.point
            assert a.serving == b.serving
            assert a.serving.scale_events == b.serving.scale_events
