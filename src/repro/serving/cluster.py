"""Fault-tolerant multi-replica serving: a router over N engine replicas.

A :class:`ClusterRouter` places N :class:`~repro.serving.engine.ServingEngine`
replicas — possibly on different registered platforms — behind a pluggable
admission policy, and serves a request trace through them under injected
faults (see :mod:`repro.serving.faults`).  All replicas share one
``PlanCache``/:class:`~repro.serving.cost.BatchCostModel` resolver, so a
homogeneous fleet lowers each batch size exactly once.

Robustness mechanisms, all deterministic:

* **timeout retries** — every primary copy arms a per-request timeout; when
  it fires and the copy is lost (replica crashed) or still queued, the
  request is re-admitted on a different alive replica with a capped
  exponentially backed-off timeout, up to ``max_retries`` re-admissions.
  Copies already in service on a live replica are left to finish (the timer
  re-arms so a *later* crash is still detected).
* **hedged dispatch** — optionally, a duplicate copy is admitted to a second
  replica once the primary has been outstanding for ``hedge_after_s``.  The
  first completion wins; the loser is withdrawn at the next batch boundary
  via :meth:`~repro.serving.scheduler.BatchScheduler.cancel` (a loser
  already inside a running dispatch finishes and is ignored).
* **graceful degradation** — with ``shed_queue_s`` set, an arrival whose
  chosen replica's estimated queue delay exceeds the threshold is rejected
  up front (status ``shed``) instead of blowing the tail for everyone.

The equivalence safety rail: a single-replica cluster with the ``none``
fault profile and no timeout/hedge/shed knobs reproduces the plain
:class:`~repro.serving.engine.ServingEngine` **bit-identically** (same
records, same float accumulations) for every registered scheduler — the
event loop mirrors the engine's launch arithmetic operation for operation,
and per-dispatch accounting folds at completion in launch order.

:meth:`ClusterRouter.run` serves every fixed fleet on the columnar rails of
:mod:`repro.serving.columnar_cluster`, whatever its scheduler; its own event
loop, which asks a scheduler object at every decision time, serves only
autoscaled fleets.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ServingError
from repro.hardware.device import DeviceKind
from repro.knobs import FleetKnobs, knob, pick
from repro.registry import Registry
from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleObservation,
    get_autoscaler,
)
from repro.serving.engine import EngineKnobs, ServingConfig, ServingEngine
from repro.serving.faults import CRASH, FaultInjector
from repro.serving.metrics import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    ClusterRequestRecord,
    ClusterResult,
    RequestRecord,
    ScaleEvent,
    ServingResult,
    apply_static_lifecycle,
    cap_cluster_result,
)
from repro.serving.scheduler import (
    BatchScheduler,
    Dispatch,
    get_scheduler,
)
from repro.serving.trace import Request, RequestTrace, seeded_trace
from repro.sweep.cache import PlanCache

_PENDING = "pending"

#: event-heap priorities: canonical processing order at equal times.
_PRIO_FAULT = 0
_PRIO_COMPLETE = 1
_PRIO_ARRIVE = 2
_PRIO_RETRY = 3
_PRIO_HEDGE = 4
#: controller evaluations run after every same-instant arrival/completion
#: so the observation window includes its own boundary.  Replica-online
#: transitions ride _PRIO_FAULT like the fault windows they compose with.
_PRIO_SCALE = 5


# -- admission policies -------------------------------------------------------


class AdmissionPolicy:
    """Base class: pick which alive replica admits the next request.

    ``choose`` receives the alive candidates in replica-index order and the
    router's seeded generator (used only by randomized policies, so
    deterministic policies never perturb the stream), and returns one of
    the candidates.  Policies are stateful (round-robin holds a cursor), so
    — like schedulers — :func:`get_policy` returns a fresh instance per
    call.

    The candidate contract: a candidate is any object with ``index`` (its
    replica index) and ``est_delay_s(now)`` (the estimated queueing delay of
    a request admitted at ``now``).  Nothing else may be read: the event
    loop passes its replicas, the faulted core (which serves every
    registered policy outside the three built-ins) passes the fault layers
    around its launch machines, and the two agree on exactly these two
    members.
    """

    #: registry name; subclasses must override.
    name = ""
    description = ""

    #: does ``choose`` read ``est_delay_s`` from its candidates?  The
    #: faulted core advances every candidate machine to ``now`` before a
    #: probing policy chooses, so load estimates reflect every launch
    #: decided so far.  ``False`` promises that ``choose`` picks by
    #: ``index``, its own state or the generator alone and never calls
    #: ``est_delay_s``; the core then skips that work (the chosen machine
    #: still advances when it admits).  Conservative default: True.
    probes_load = True

    def reset(self, num_replicas: int) -> None:
        """Drop instance state before a fresh run."""

    def choose(
        self,
        now: float,
        candidates: "list[_Replica]",
        rng: np.random.Generator,
    ) -> "_Replica":
        raise NotImplementedError


class RoundRobinPolicy(AdmissionPolicy):
    """Rotate through replicas in index order, skipping dead ones."""

    name = "round-robin"
    description = "rotate through alive replicas in index order"
    probes_load = False

    def reset(self, num_replicas: int) -> None:
        self._cursor = 0

    def choose(self, now, candidates, rng):
        chosen = None
        for replica in candidates:
            if replica.index >= self._cursor:
                chosen = replica
                break
        if chosen is None:
            chosen = candidates[0]
        self._cursor = chosen.index + 1
        return chosen


class LeastLoadedPolicy(AdmissionPolicy):
    """Admit to the replica with the smallest estimated queue delay.

    The estimate is in *seconds* (device-busy horizon plus queued decode
    steps at the replica's current batch-1 latency), so heterogeneous
    fleets route by actual speed, not just queue length.
    """

    name = "least-loaded"
    description = "smallest estimated queue delay (seconds; ties to lowest index)"

    def choose(self, now, candidates, rng):
        return min(candidates, key=lambda r: (r.est_delay_s(now), r.index))


class PowerOfTwoPolicy(AdmissionPolicy):
    """Sample two distinct alive replicas, admit to the less loaded one.

    The classic load-balancing result: two random choices get most of the
    benefit of full load knowledge at a fraction of the probe cost.  Draws
    come from the router's seeded generator, so runs replay exactly.
    """

    name = "power-of-two-choices"
    description = "pick 2 random alive replicas, admit to the less loaded"

    def choose(self, now, candidates, rng):
        if len(candidates) == 1:
            return candidates[0]
        i, j = sorted(
            int(x) for x in rng.choice(len(candidates), size=2, replace=False)
        )
        first, second = candidates[i], candidates[j]
        if second.est_delay_s(now) < first.est_delay_s(now):
            return second
        return first


POLICY_REGISTRY: Registry[type[AdmissionPolicy]] = Registry("policy", ServingError)


def register_policy(
    policy_cls: type[AdmissionPolicy], replace: bool = False
) -> type[AdmissionPolicy]:
    """Register an admission policy class under its ``name``.

    Usable as a decorator on custom policies, exactly like
    :func:`repro.serving.scheduler.register_scheduler`; registered policies
    are immediately available to ``nongemm-bench cluster`` and the sweep
    ``policy`` axis.
    """
    return POLICY_REGISTRY.register(policy_cls.name, policy_cls, replace)


for _cls in (RoundRobinPolicy, LeastLoadedPolicy, PowerOfTwoPolicy):
    register_policy(_cls)


def get_policy(name: str) -> AdmissionPolicy:
    """Instantiate a policy by name — a fresh instance per call."""
    return POLICY_REGISTRY.get(name)()


list_policies = POLICY_REGISTRY.names
policy_entries = POLICY_REGISTRY.entries


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig(EngineKnobs, FleetKnobs):
    """One cluster scenario: fleet shape, policy, faults, robustness knobs.

    ``record_requests`` caps cluster-level and per-replica records alike.
    """

    #: one platform id per replica (repeat an id for a homogeneous fleet).
    platforms: tuple[str, ...] = ("A", "A")
    policy: str = knob(
        "round-robin", "--policy",
        help="admission policy routing requests to replicas",
    )
    fault_profile: str = knob(
        "none", "--fault",
        help="fault profile injected into the fleet (see --list-faults)",
    )
    #: seeds the router generator randomized policies draw from.
    policy_seed: int = 0
    #: elastic fleet control (see :mod:`repro.serving.autoscale`); ``None``
    #: keeps every provisioned replica online for the whole run.  The
    #: controller's ``max_replicas`` must equal ``len(platforms)`` — the
    #: platforms tuple is the hardware ceiling the controller scales within.
    autoscale: AutoscaleConfig | None = None

    def __post_init__(self) -> None:
        if not self.platforms:
            raise ServingError("cluster needs at least one replica platform")
        if self.autoscale is not None:
            if self.autoscale.max_replicas != len(self.platforms):
                raise ServingError(
                    f"autoscale max_replicas ({self.autoscale.max_replicas})"
                    f" must equal the provisioned fleet size"
                    f" ({len(self.platforms)} platforms)"
                )
        super().__post_init__()


# -- internal state -----------------------------------------------------------


class _Copy:
    """One admission of a request onto one replica."""

    __slots__ = ("replica", "admitted_s", "started", "lost")

    def __init__(self, replica: int, admitted_s: float):
        self.replica = replica
        self.admitted_s = admitted_s
        #: has this copy appeared in a launched dispatch's members?
        self.started = False
        #: did the holding replica crash while this copy was incomplete?
        self.lost = False


class _Tracked:
    """Router-side lifecycle of one trace request."""

    __slots__ = (
        "request",
        "status",
        "attempts",
        "timeout_s",
        "completion_s",
        "winner_replica",
        "hedged",
        "hedge_won",
        "primary",
        "hedge",
    )

    def __init__(self, request: Request, timeout_s: float | None):
        self.request = request
        self.status = _PENDING
        self.attempts = 0
        self.timeout_s = timeout_s
        self.completion_s: float | None = None
        self.winner_replica = -1
        self.hedged = False
        self.hedge_won = False
        self.primary: _Copy | None = None
        self.hedge: _Copy | None = None


class _InFlight:
    """One launched dispatch whose accounting folds at completion."""

    __slots__ = (
        "end_s",
        "members",
        "completes",
        "size",
        "iterations",
        "busy",
        "energy",
        "gemm",
        "non_gemm",
        "weighted",
        "cancelled",
    )

    def __init__(self, end_s, members, completes, size, iterations, busy, energy, gemm, non_gemm):
        self.end_s = end_s
        self.members = members
        self.completes = completes
        self.size = size
        self.iterations = iterations
        self.busy = busy
        self.energy = energy
        self.gemm = gemm
        self.non_gemm = non_gemm
        self.weighted = size * iterations
        self.cancelled = False


class _Replica:
    """Mutable per-run state of one replica, wrapping its engine."""

    __slots__ = (
        "index",
        "engine",
        "scheduler",
        "costs",
        "down",
        "accel_down",
        "online",
        "draining",
        "provisioning",
        "cost_spans",
        "active_spans",
        "host_free",
        "accel_free",
        "ready_s",
        "wake_s",
        "starts",
        "completions",
        "admitted",
        "busy",
        "energy",
        "gemm_busy",
        "non_gemm_busy",
        "depth_samples",
        "dispatches",
        "iterations_run",
        "weighted_size",
        "inflight",
        "completion_ends",
    )

    def __init__(self, index: int, engine: ServingEngine, scheduler: BatchScheduler):
        self.index = index
        self.engine = engine
        self.scheduler = scheduler
        self.costs = engine.costs
        self.down = False
        self.accel_down = False
        #: elastic lifecycle (autoscaled runs flip these; fixed fleets
        #: keep every replica online and never draining).
        self.online = True
        self.draining = False
        self.provisioning = False
        #: paid spans [decision, offline) and active spans [online,
        #: offline), closed at drain completion or end of run.
        self.cost_spans: list[list[float]] = []
        self.active_spans: list[list[float]] = []
        self.host_free = 0.0
        self.accel_free: dict[DeviceKind, float] = {}
        self.ready_s = 0.0
        self.wake_s: float | None = None
        self.starts: dict[int, float] = {}
        self.completions: dict[int, tuple[float, int]] = {}
        #: request id -> (arrival of the first copy this replica admitted,
        #: steps): a record's arrival, like its start, is its first copy's.
        self.admitted: dict[int, tuple[float, int]] = {}
        self.busy = {spec.kind: 0.0 for spec in engine.platform.devices}
        self.energy = {spec.kind: 0.0 for spec in engine.platform.devices}
        self.gemm_busy = 0.0
        self.non_gemm_busy = 0.0
        self.depth_samples: list[tuple[float, int]] = []
        self.dispatches = 0
        self.iterations_run = 0
        self.weighted_size = 0
        self.inflight: list[_InFlight] = []
        #: dispatch end times in fold order — the recovery metric's clock.
        self.completion_ends: list[float] = []

    def unit_latency_s(self) -> float:
        """Batch-1 latency under the replica's *current* cost model."""
        return self.costs.cost(1).total_s

    def est_delay_s(self, now: float) -> float:
        """Estimated queueing delay for a request admitted at ``now``:
        device-busy horizon plus queued decode steps at batch-1 latency."""
        horizon = self.host_free
        for t in self.accel_free.values():
            if t > horizon:
                horizon = t
        backlog = self.scheduler.pending_work_steps * self.unit_latency_s()
        delay = horizon - now
        if delay < 0.0:
            delay = 0.0
        return delay + backlog

    @property
    def serving(self) -> bool:
        """Provisioned to admit work: online and not draining.  Crash
        state is tracked separately in ``down`` — a crashed serving
        replica rejoins admission when its fault window clears."""
        return self.online and not self.draining


def _clipped_span_sum(
    spans: "list[list[float]]", start: float, end: float
) -> float:
    """Sum of span widths intersected with ``[start, end]``, accumulated
    in span order (deterministic float fold)."""
    total = 0.0
    for lo, hi in spans:
        width = min(hi, end) - max(lo, start)
        if width > 0.0:
            total += width
    return total


# -- the router ---------------------------------------------------------------


class ClusterRouter:
    """Deterministic discrete-event simulation of a replicated fleet."""

    def __init__(self, config: ClusterConfig, cache: PlanCache | None = None):
        self.config = config
        self.cache = cache
        get_policy(config.policy)  # fail fast on unknown names
        if config.autoscale is not None:
            get_autoscaler(config.autoscale.controller)
        self.engines = [
            ServingEngine(
                ServingConfig(**pick(ServingConfig, config, platform=platform_id)),
                cache=cache,
            )
            for platform_id in config.platforms
        ]

    def fleet_capacity_rps(self) -> float:
        """Aggregate single-stream capacity: sum of 1 / batch-1 latency."""
        return sum(1.0 / engine.base_latency_s() for engine in self.engines)

    def run(
        self, trace: RequestTrace, offered_rate_rps: float | None = None
    ) -> ClusterResult:
        """Serve ``trace`` through the fleet under the configured faults."""
        config = self.config
        result = ClusterResult(
            model=config.model,
            flow=self.engines[0].flow.name,
            device=config.device,
            scheduler=config.scheduler,
            policy=config.policy,
            trace=trace.name,
            fault_profile=config.fault_profile,
            platform_ids=config.platforms,
            offered_rate_rps=(
                trace.offered_rate_rps if offered_rate_rps is None else offered_rate_rps
            ),
            deadline_s=config.deadline_s,
        )
        arrival_times = trace.arrival_column().tolist()
        request_ids = trace.id_column().tolist()
        decode_counts = trace.decode_column().tolist()

        def new_scheduler() -> BatchScheduler:
            return get_scheduler(
                config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
            )

        # replica 0's scheduler: the rails' launch machines drive it, and
        # build a fresh one of its class for every other replica.
        scheduler = new_scheduler()
        # an empty trace serves on every path: its run starts and ends at 0.
        first_arrival_s = arrival_times[0] if arrival_times else 0.0
        last_arrival_s = arrival_times[-1] if arrival_times else 0.0
        horizon_s = last_arrival_s + 4.0 * self.engines[0].base_latency_s()
        injector = FaultInjector(
            config.fault_profile,
            len(self.engines),
            horizon_s,
            seed=config.fault_seed,
        )
        if config.timeout_s is None and any(
            w.kind == CRASH for w in injector.schedule.windows
        ):
            raise ServingError(
                f"fault profile {config.fault_profile!r} produces crash windows;"
                " set timeout_s so lost requests can be re-routed"
            )
        policy = get_policy(config.policy)
        policy.reset(len(self.engines))
        policy_rng = np.random.default_rng(config.policy_seed)

        from repro.serving.columnar_cluster import (
            fast_path_fallback_reason,
            needs_faulted_path,
            run_fast_cluster,
            run_fast_faulted,
        )

        fallback_reason = fast_path_fallback_reason(config)
        if fallback_reason is None:
            if needs_faulted_path(config, injector, policy):
                return run_fast_faulted(
                    self, trace, result, scheduler, policy, policy_rng, injector
                )
            return run_fast_cluster(self, trace, result, scheduler, policy, policy_rng)

        replicas = [
            _Replica(index, engine, new_scheduler() if index else scheduler)
            for index, engine in enumerate(self.engines)
        ]
        auto = config.autoscale
        autoscaler = None
        if auto is not None:
            if auto.slo_s is None and config.deadline_s is not None:
                auto = replace(auto, slo_s=config.deadline_s)
            autoscaler = get_autoscaler(auto.controller)
            autoscaler.reset(auto)
            for replica in replicas[auto.start_replicas :]:
                replica.online = False
            for replica in replicas[: auto.start_replicas]:
                replica.cost_spans.append([0.0, math.inf])
                replica.active_spans.append([0.0, math.inf])

        total = trace.num_requests
        tracked: dict[int, _Tracked] = {}
        assignment: dict[tuple[int, int], _Copy] = {}
        heap: list[tuple[float, int, int, str, object]] = []
        seq = itertools.count()

        def push(time_s: float, prio: int, kind: str, payload: object) -> None:
            heapq.heappush(heap, (time_s, prio, next(seq), kind, payload))

        # arrivals stay in their trace columns: the drain loop merges a
        # cursor over them against the heap head.
        arrive_index = 0
        for t in injector.transitions():
            push(t, _PRIO_FAULT, "fault", None)

        # -- autoscale run state (inert when no controller is configured) -----

        #: one observation window of telemetry, reset at each evaluation.
        window_start_s = first_arrival_s
        window_arrivals = 0
        window_steps = 0
        window_busy = 0.0
        window_latencies: list[float] = []
        last_action_s = -math.inf
        scale_log: list[ScaleEvent] = []
        timeline: list[tuple[float, int]] = []
        if autoscaler is not None:
            timeline.append((0.0, auto.start_replicas))
            push(first_arrival_s + auto.interval_s, _PRIO_SCALE, "scale-eval", None)

        arrivals_left = total
        counters = {
            "terminal": 0,
            "shed": 0,
            "failed": 0,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
        }

        # -- inner helpers (close over run state) -----------------------------

        def arrivals_pending() -> bool:
            return arrivals_left > 0

        def stall(detail: str) -> ServingError:
            depths = [r.scheduler.queue_depth for r in replicas]
            return ServingError(
                f"cluster made no progress at t={now:.6f}s ({detail}):"
                f" scheduler {config.scheduler!r}, policy {config.policy!r},"
                f" queue depths {depths},"
                f" {total - counters['terminal']}/{total} requests outstanding"
            )

        def finish(entry_tracked: _Tracked, status: str) -> None:
            entry_tracked.status = status
            counters["terminal"] += 1

        def shed(entry_tracked: _Tracked) -> None:
            finish(entry_tracked, REQUEST_SHED)
            counters["shed"] += 1

        def cancel_copy(copy: _Copy | None) -> None:
            if copy is None or copy.lost:
                return
            holder = replicas[copy.replica]
            if not holder.down:
                if holder.scheduler.cancel(copy_request_ids[id(copy)]):
                    holder.depth_samples.append((now, holder.scheduler.queue_depth))
                maybe_finish_drain(holder, now)

        # cancel_copy needs the request id of a copy; keep a side table to
        # avoid widening _Copy for one consumer.
        copy_request_ids: dict[int, int] = {}

        def admit_copy(
            entry_tracked: _Tracked, replica: _Replica, when: float, is_hedge: bool
        ) -> None:
            request = entry_tracked.request
            copy = _Copy(replica.index, when)
            copy_request_ids[id(copy)] = request.request_id
            replica.scheduler.admit(
                Request(
                    request_id=request.request_id,
                    arrival_s=when,
                    decode_steps=request.decode_steps,
                )
            )
            replica.admitted.setdefault(
                request.request_id, (when, request.decode_steps)
            )
            replica.depth_samples.append((when, replica.scheduler.queue_depth))
            assignment[(replica.index, request.request_id)] = copy
            if is_hedge:
                entry_tracked.hedge = copy
                entry_tracked.hedged = True
                counters["hedges"] += 1
            else:
                entry_tracked.primary = copy
                entry_tracked.attempts += 1
                if entry_tracked.timeout_s is not None:
                    push(
                        when + entry_tracked.timeout_s,
                        _PRIO_RETRY,
                        "retry",
                        request.request_id,
                    )
                if (
                    config.hedge_after_s is not None
                    and not entry_tracked.hedged
                    and entry_tracked.attempts == 1
                ):
                    push(
                        when + config.hedge_after_s,
                        _PRIO_HEDGE,
                        "hedge",
                        request.request_id,
                    )

        def route_primary(entry_tracked: _Tracked, when: float) -> None:
            """(Re-)admit the primary copy, or fail/defer when impossible."""
            if entry_tracked.attempts >= 1 + config.max_retries:
                # retry budget exhausted: 1 first admission + max_retries.
                finish(entry_tracked, REQUEST_FAILED)
                counters["failed"] += 1
                cancel_copy(entry_tracked.hedge)
                return
            alive = [r for r in replicas if not r.down and r.serving]
            previous = (
                entry_tracked.primary.replica
                if entry_tracked.primary is not None
                else None
            )
            candidates = [r for r in alive if r.index != previous] or alive
            if not candidates:
                if entry_tracked.timeout_s is None:
                    raise stall("no alive replica and no timeout to wait on")
                push(
                    when + entry_tracked.timeout_s,
                    _PRIO_RETRY,
                    "retry",
                    entry_tracked.request.request_id,
                )
                return
            if entry_tracked.attempts >= 1:
                counters["retries"] += 1
                backoff = entry_tracked.timeout_s * 2.0
                if config.timeout_cap_s is not None:
                    backoff = min(backoff, config.timeout_cap_s)
                entry_tracked.timeout_s = backoff
            chosen = policy.choose(when, candidates, policy_rng)
            admit_copy(entry_tracked, chosen, when, is_hedge=False)

        def on_arrival(request: Request, when: float) -> None:
            nonlocal window_arrivals, window_steps
            entry_tracked = _Tracked(request, config.timeout_s)
            tracked[request.request_id] = entry_tracked
            if autoscaler is not None:
                window_arrivals += 1
                window_steps += request.decode_steps
            alive = [r for r in replicas if not r.down and r.serving]
            if not alive:
                if config.shed_queue_s is not None:
                    shed(entry_tracked)
                    return
                route_primary(entry_tracked, when)  # defers on the timeout
                return
            chosen = policy.choose(when, alive, policy_rng)
            if (
                config.shed_queue_s is not None
                and chosen.est_delay_s(when) > config.shed_queue_s
            ):
                shed(entry_tracked)
                return
            admit_copy(entry_tracked, chosen, when, is_hedge=False)

        def on_complete(replica: _Replica, entry: _InFlight) -> None:
            nonlocal window_busy
            replica.inflight.remove(entry)
            if autoscaler is not None:
                window_busy += max(entry.busy.values(), default=0.0)
            for kind, delta in entry.busy.items():
                replica.busy[kind] += delta
            for kind, delta in entry.energy.items():
                replica.energy[kind] += delta
            replica.gemm_busy += entry.gemm
            replica.non_gemm_busy += entry.non_gemm
            replica.dispatches += 1
            replica.iterations_run += entry.iterations
            replica.weighted_size += entry.weighted
            replica.completion_ends.append(entry.end_s)
            for request_id in entry.completes:
                replica.completions[request_id] = (entry.end_s, entry.size)
                entry_tracked = tracked[request_id]
                if entry_tracked.status != _PENDING:
                    continue  # a hedge loser or stale copy finishing
                copy = assignment.get((replica.index, request_id))
                finish(entry_tracked, REQUEST_OK)
                entry_tracked.completion_s = entry.end_s
                entry_tracked.winner_replica = replica.index
                if autoscaler is not None:
                    window_latencies.append(
                        entry.end_s - entry_tracked.request.arrival_s
                    )
                won_by_hedge = (
                    entry_tracked.hedge is not None and copy is entry_tracked.hedge
                )
                if won_by_hedge:
                    entry_tracked.hedge_won = True
                    counters["hedge_wins"] += 1
                    cancel_copy(entry_tracked.primary)
                else:
                    cancel_copy(entry_tracked.hedge)
            maybe_finish_drain(replica, entry.end_s)

        def on_retry(request_id: int, when: float) -> None:
            entry_tracked = tracked[request_id]
            if entry_tracked.status != _PENDING:
                return
            copy = entry_tracked.primary
            if copy is None:
                route_primary(entry_tracked, when)
                return
            holder = replicas[copy.replica]
            if copy.lost or holder.down:
                route_primary(entry_tracked, when)
                return
            if not copy.started and holder.scheduler.cancel(request_id):
                holder.depth_samples.append((when, holder.scheduler.queue_depth))
                maybe_finish_drain(holder, when)
                route_primary(entry_tracked, when)
                return
            # in service on a live replica: let it finish, but keep watching
            # so a later crash of that replica is still detected.
            if entry_tracked.timeout_s is not None:
                push(when + entry_tracked.timeout_s, _PRIO_RETRY, "retry", request_id)

        def on_hedge(request_id: int, when: float) -> None:
            entry_tracked = tracked[request_id]
            if entry_tracked.status != _PENDING or entry_tracked.hedged:
                return
            primary = entry_tracked.primary
            exclude = primary.replica if primary is not None else None
            candidates = [
                r for r in replicas
                if not r.down and r.serving and r.index != exclude
            ]
            if not candidates:
                return
            chosen = policy.choose(when, candidates, policy_rng)
            admit_copy(entry_tracked, chosen, when, is_hedge=True)

        def crash(replica: _Replica, when: float) -> None:
            replica.down = True
            replica.wake_s = None
            for entry in replica.inflight:
                entry.cancelled = True
            replica.inflight.clear()
            for (holder_index, request_id), copy in assignment.items():
                if holder_index != replica.index:
                    continue
                entry_tracked = tracked[request_id]
                if entry_tracked.status == _PENDING and (
                    copy is entry_tracked.primary or copy is entry_tracked.hedge
                ):
                    copy.lost = True
            if replica.scheduler.queue_depth:
                # the dropped queue is a depth transition
                replica.depth_samples.append((when, 0))
            replica.scheduler.reset()
            replica.host_free = 0.0
            replica.accel_free.clear()
            replica.ready_s = when
            if replica.draining:
                # the crash wiped the backlog the drain was waiting on.
                finish_drain(replica, when)

        def on_fault(when: float) -> None:
            for replica in replicas:
                crashed = injector.is_crashed(replica.index, when)
                if crashed and not replica.down:
                    crash(replica, when)
                elif not crashed and replica.down:
                    replica.down = False
                lost = injector.accel_lost(replica.index, when)
                if lost != replica.accel_down:
                    replica.accel_down = lost
                    replica.costs = (
                        replica.engine.fallback_costs() if lost else replica.engine.costs
                    )

        # -- elastic lifecycle (autoscaled runs only) -------------------------

        def serving_count() -> int:
            return sum(1 for r in replicas if r.serving)

        def finish_drain(replica: _Replica, when: float) -> None:
            """Backlog done: take the replica offline and close its spans."""
            replica.draining = False
            replica.online = False
            for spans in (replica.cost_spans, replica.active_spans):
                if spans and spans[-1][1] == math.inf:
                    spans[-1][1] = when
            scale_log.append(
                ScaleEvent(when, "drained", replica.index, serving_count(), "backlog finished")
            )
            replica.scheduler.reset()
            replica.host_free = 0.0
            replica.accel_free.clear()
            replica.ready_s = when
            replica.wake_s = None

        def maybe_finish_drain(replica: _Replica, when: float) -> None:
            if (
                replica.draining
                and not replica.inflight
                and not replica.scheduler.has_pending
            ):
                finish_drain(replica, when)

        def begin_drain(replica: _Replica, when: float, reason: str) -> None:
            """Stop admitting; the replica finishes its backlog, then leaves."""
            replica.draining = True
            scale_log.append(
                ScaleEvent(when, "down", replica.index, serving_count(), reason)
            )
            timeline.append((when, serving_count()))
            maybe_finish_drain(replica, when)

        def on_scale_online(replica: _Replica, when: float) -> None:
            """Provision delay elapsed: the replica admits work, cold."""
            replica.provisioning = False
            replica.online = True
            replica.active_spans.append([when, math.inf])
            # cold start: empty queue, fresh clocks (the reset a crash uses).
            replica.scheduler.reset()
            replica.host_free = 0.0
            replica.accel_free.clear()
            replica.ready_s = when
            replica.wake_s = None
            scale_log.append(
                ScaleEvent(
                    when,
                    "online",
                    replica.index,
                    serving_count(),
                    f"provisioned after {auto.provision_delay_s:g}s",
                )
            )
            timeline.append((when, serving_count()))

        def on_scale_eval(when: float) -> None:
            nonlocal window_start_s, window_arrivals, window_steps
            nonlocal window_busy, last_action_s
            active = [r for r in replicas if r.serving]
            observation = AutoscaleObservation(
                start_s=window_start_s,
                end_s=when,
                active_replicas=len(active),
                arrivals=window_arrivals,
                arrival_steps=window_steps,
                completions=len(window_latencies),
                latencies_s=tuple(window_latencies),
                busy_s=window_busy,
                queue_depth=sum(r.scheduler.queue_depth for r in active),
                unit_latency_s=replicas[0].unit_latency_s(),
            )
            desired = autoscaler.desired_replicas(observation)
            desired = min(max(desired, auto.min_replicas), auto.max_replicas)
            window_start_s = when
            window_arrivals = 0
            window_steps = 0
            window_busy = 0.0
            window_latencies.clear()
            # self-limiting: exactly one future evaluation per evaluation.
            # a stale event left in the heap when the run completes is
            # never popped (the loop breaks on terminal count, not heap).
            push(when + auto.interval_s, _PRIO_SCALE, "scale-eval", None)
            if auto.cooldown_s > 0.0 and when - last_action_s < auto.cooldown_s:
                return
            reason = f"{autoscaler.name}: desired {desired}"
            #: capacity already committed: serving plus still-provisioning.
            committed = len(active) + sum(1 for r in replicas if r.provisioning)
            if desired > committed:
                pool = [r for r in replicas if not r.online and not r.provisioning]
                chosen = pool[: desired - committed]
                for replica in chosen:
                    replica.provisioning = True
                    replica.cost_spans.append([when, math.inf])
                    push(
                        when + auto.provision_delay_s,
                        _PRIO_FAULT,
                        "scale-online",
                        replica,
                    )
                    scale_log.append(
                        ScaleEvent(when, "up", replica.index, serving_count(), reason)
                    )
                if chosen:
                    last_action_s = when
            elif desired < len(active):
                # drain the highest-index serving replicas first, so a
                # rebound re-provisions the replicas that left most recently.
                for replica in reversed(active[desired:]):
                    begin_drain(replica, when, reason)
                last_action_s = when

        def launch(replica: _Replica, verdict: Dispatch, when: float) -> None:
            if not 1 <= verdict.size <= config.max_batch:
                raise ServingError(
                    f"scheduler {config.scheduler!r} on replica {replica.index}"
                    f" dispatched a batch of {verdict.size}, outside"
                    f" 1..max_batch ({config.max_batch})"
                )
            cost = replica.costs.cost(verdict.size)
            multiplier = injector.dispatch_multiplier(replica.index)
            # multiplying by 1.0 is bit-exact, so the no-straggler path stays
            # identical to the single-engine arithmetic.
            host_s = cost.host_s * multiplier
            accel_s = cost.accel_s * multiplier
            total_s = cost.total_s * multiplier
            start = max(when, replica.host_free)
            cursor = start
            for _ in range(verdict.iterations):
                host_end = cursor + host_s
                if cost.has_accel:
                    accel_start = max(
                        host_end, replica.accel_free.get(cost.target, 0.0)
                    )
                    if accel_start == host_end:
                        end = cursor + total_s
                    else:
                        end = accel_start + accel_s
                    replica.accel_free[cost.target] = end
                else:
                    end = cursor + total_s
                    host_end = end
                replica.host_free = host_end
                cursor = end
            entry = _InFlight(
                end_s=cursor,
                members=verdict.members,
                completes=verdict.completes,
                size=verdict.size,
                iterations=verdict.iterations,
                busy={
                    kind: seconds * multiplier * verdict.iterations
                    for kind, seconds in cost.busy_s.items()
                },
                energy={
                    kind: joules * multiplier * verdict.iterations
                    for kind, joules in cost.energy_j.items()
                },
                gemm=cost.gemm_s * multiplier * verdict.iterations,
                non_gemm=cost.non_gemm_s * multiplier * verdict.iterations,
            )
            replica.inflight.append(entry)
            push(cursor, _PRIO_COMPLETE, "complete", (replica, entry))
            for request_id in verdict.members:
                replica.starts.setdefault(request_id, start)
                copy = assignment.get((replica.index, request_id))
                if copy is not None:
                    copy.started = True
            replica.depth_samples.append((start, replica.scheduler.queue_depth))
            replica.ready_s = (
                cursor if verdict.barrier else max(when, replica.host_free)
            )

        # -- the event loop ---------------------------------------------------

        # the clock starts below any event time so the first arrival (possibly
        # at t=0) strictly advances it.
        now = float("-inf")
        # generous: every turn launches work, folds a completion, or strictly
        # advances the clock; retries and hedges multiply the request count.
        max_turns = 64 + 32 * (2 + config.max_retries) * (
            total + trace.total_decode_steps()
        ) + 8 * len(injector.transitions())
        turns = 0

        def decide(replica: _Replica) -> None:
            nonlocal turns
            if replica.down or not replica.online:
                return
            while replica.ready_s <= now:
                turns += 1
                if turns > max_turns:
                    raise stall(f"no progress after {max_turns} decision turns")
                verdict = replica.scheduler.next_dispatch(now, arrivals_pending())
                if isinstance(verdict, Dispatch):
                    replica.wake_s = None
                    launch(replica, verdict, now)
                    continue
                if verdict is None:
                    replica.wake_s = None
                    return
                wake = float(verdict)
                if wake <= now:
                    raise ServingError(
                        f"scheduler {config.scheduler!r} on replica"
                        f" {replica.index} requested a wake-up at {wake} that"
                        f" does not advance the clock ({now}) with queue depth"
                        f" {replica.scheduler.queue_depth}"
                    )
                replica.wake_s = wake
                return

        while True:
            for replica in replicas:
                decide(replica)
            if counters["terminal"] == total and not any(
                replica.inflight for replica in replicas
            ):
                break
            candidates: list[float] = []
            if heap:
                candidates.append(heap[0][0])
            if arrive_index < total:
                candidates.append(arrival_times[arrive_index])
            for replica in replicas:
                if replica.down or not replica.online:
                    continue
                if replica.wake_s is not None:
                    candidates.append(replica.wake_s)
                if replica.ready_s > now and replica.scheduler.has_pending:
                    candidates.append(replica.ready_s)
            if not candidates:
                raise stall("no scheduled work, wake-ups, or pending events")
            advance_to = min(candidates)
            if advance_to <= now:
                raise stall(f"next event at {advance_to} does not advance the clock")
            now = advance_to
            while True:
                # merge the arrival cursor against the heap head: comparing
                # (time, prio) orders arrivals exactly as if they were heap
                # events (equal-time arrivals fire in trace order).
                if arrive_index < total:
                    arrival_s = arrival_times[arrive_index]
                    if arrival_s <= now and (
                        not heap
                        or (arrival_s, _PRIO_ARRIVE) < (heap[0][0], heap[0][1])
                    ):
                        turns += 1
                        if turns > max_turns:
                            raise stall(
                                f"no progress after {max_turns} event turns"
                            )
                        request = Request(
                            request_id=request_ids[arrive_index],
                            arrival_s=arrival_s,
                            decode_steps=decode_counts[arrive_index],
                        )
                        arrive_index += 1
                        arrivals_left -= 1
                        on_arrival(request, now)
                        continue
                if not heap or heap[0][0] > now:
                    break
                _, _, _, kind, payload = heapq.heappop(heap)
                if kind == "scale-eval":
                    # controller turns strictly advance time (one future
                    # evaluation per evaluation), so they stay outside the
                    # stall budget — an overloaded run's evaluation count
                    # is unbounded by the request count.
                    on_scale_eval(now)
                    continue
                if kind == "scale-online":
                    on_scale_online(payload, now)
                    continue
                turns += 1
                if turns > max_turns:
                    raise stall(f"no progress after {max_turns} event turns")
                if kind == "fault":
                    on_fault(now)
                elif kind == "complete":
                    replica, entry = payload
                    if not entry.cancelled:
                        on_complete(replica, entry)
                elif kind == "retry":
                    on_retry(payload, now)
                else:  # hedge
                    on_hedge(payload, now)
            for replica in replicas:
                if replica.wake_s is not None and replica.wake_s <= now:
                    replica.wake_s = None

        # -- aggregate --------------------------------------------------------

        for replica in replicas:
            records = []
            for request_id in sorted(
                replica.completions,
                key=lambda rid: (replica.admitted[rid][0], rid),
            ):
                admitted_s, decode_steps = replica.admitted[request_id]
                end_s, size = replica.completions[request_id]
                records.append(
                    RequestRecord(
                        request_id=request_id,
                        arrival_s=admitted_s,
                        start_s=replica.starts[request_id],
                        completion_s=end_s,
                        decode_steps=decode_steps,
                        batch_size=size,
                    )
                )
            makespan = 0.0
            if records:
                makespan = max(r.completion_s for r in records) - min(
                    r.arrival_s for r in records
                )
            result.replicas.append(
                ServingResult(
                    model=config.model,
                    flow=replica.engine.flow.name,
                    platform_id=config.platforms[replica.index],
                    device=replica.engine.target.value,
                    scheduler=replica.scheduler.name,
                    trace=trace.name,
                    offered_rate_rps=result.offered_rate_rps,
                    records=records,
                    makespan_s=makespan,
                    num_dispatches=replica.dispatches,
                    num_iterations=replica.iterations_run,
                    mean_batch_size=(
                        replica.weighted_size / replica.iterations_run
                        if replica.iterations_run
                        else 0.0
                    ),
                    busy_s=replica.busy,
                    energy_j=replica.energy,
                    gemm_busy_s=replica.gemm_busy,
                    non_gemm_busy_s=replica.non_gemm_busy,
                    queue_depth_timeline=tuple(replica.depth_samples),
                )
            )

        result.records = [
            ClusterRequestRecord(
                request_id=request_id,
                arrival_s=arrival_s,
                completion_s=tracked[request_id].completion_s,
                status=tracked[request_id].status,
                replica=tracked[request_id].winner_replica,
                attempts=tracked[request_id].attempts,
                hedged=tracked[request_id].hedged,
                hedge_won=tracked[request_id].hedge_won,
            )
            for request_id, arrival_s in zip(request_ids, arrival_times)
        ]
        completions = [r.completion_s for r in result.records if r.completion_s is not None]
        if completions:
            result.makespan_s = max(completions) - arrival_times[0]
        result.num_shed = counters["shed"]
        result.num_failed = counters["failed"]
        result.num_retries = counters["retries"]
        result.num_hedges = counters["hedges"]
        result.num_hedge_wins = counters["hedge_wins"]
        recovery = 0.0
        for window in injector.schedule.windows:
            ends = sorted(replicas[window.replica].completion_ends)
            after = next((e for e in ends if e >= window.end_s), None)
            if after is not None:
                recovery = max(recovery, after - window.end_s)
        result.time_to_recovery_s = recovery
        if autoscaler is None or (
            not scale_log and auto.start_replicas == len(replicas)
        ):
            # a whole-fleet controller that never acted (min == max)
            # reports the same lifecycle arithmetic as a fixed fleet, so
            # its result stays bit-identical to the plain router's.  A
            # controller that held a *partial* fleet still accounts below.
            apply_static_lifecycle(result)
        else:
            run_start = first_arrival_s
            run_end = run_start + result.makespan_s
            for replica in replicas:
                for spans in (replica.cost_spans, replica.active_spans):
                    if spans and spans[-1][1] == math.inf:
                        spans[-1][1] = run_end
            result.replica_seconds = math.fsum(
                _clipped_span_sum(r.cost_spans, run_start, run_end)
                for r in replicas
            )
            result.replica_active_s = tuple(
                _clipped_span_sum(r.active_spans, run_start, run_end)
                for r in replicas
            )
            result.replica_timeline = tuple(timeline)
            result.scale_events = tuple(scale_log)
        if config.record_requests is not None:
            result = cap_cluster_result(result, config.record_requests)
        result.backend_used = "reference"
        result.fast_path_fallback_reason = fallback_reason
        return result


def simulate_cluster(
    config: ClusterConfig,
    trace: RequestTrace,
    offered_rate_rps: float | None = None,
    cache: PlanCache | None = None,
) -> ClusterResult:
    """Convenience wrapper: build a router for ``config`` and serve ``trace``."""
    return ClusterRouter(config, cache=cache).run(trace, offered_rate_rps)


def serve_cluster_point(point) -> ClusterResult:
    """Serve one cluster sweep point (``load`` × ``policy`` × ``fault_profile``).

    The ``load`` axis generalizes from the single engine: it is a fraction
    of *fleet* capacity (the sum of every replica's single-stream rate), so
    ``load=1.0`` saturates the whole homogeneous fleet just like it
    saturates one serial engine in :func:`~repro.serving.engine.serve_point`.
    """
    if point.load is None or point.load <= 0.0:
        raise ServingError(f"cluster sweep point has no positive load: {point.load!r}")
    if point.policy is None:
        raise ServingError("cluster sweep point has no admission policy")
    autoscale = None
    if point.controller is not None:
        autoscale = AutoscaleConfig(
            **pick(AutoscaleConfig, point, max_replicas=point.num_replicas)
        )
    config = ClusterConfig(
        **pick(
            ClusterConfig,
            point,
            platforms=(point.platform,) * point.num_replicas,
            fault_profile=point.fault_profile or "none",
            autoscale=autoscale,
        )
    )
    router = ClusterRouter(config)
    rate_rps = point.load * router.fleet_capacity_rps()
    return router.run(seeded_trace(point, rate_rps), offered_rate_rps=rate_rps)
