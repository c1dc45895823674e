"""Columnar fast path for the multi-replica cluster router.

The reference router (:meth:`~repro.serving.cluster.ClusterRouter.run`)
already advances arrivals with a cursor over the trace columns; this module
removes the per-event Python heap entirely on the **no-fault / no-retry /
no-hedge rail**:

1. **Serving pass** — one launch replay, shared with the single engine:
   each replica is a launch machine of :mod:`repro.serving.columnar` (the
   module that owns every built-in scheduler's launch rules), obtained
   through :func:`~repro.serving.columnar.kernel_for`.  The admission
   policy routes each arrival in trace order.  Round-robin without shedding
   is closed form (``i mod R``: the cursor advances once per arrival, shed
   or not), so no probe reads a machine.  Least-loaded, power-of-two, and
   any shedding configuration replay the scalar router's
   :meth:`~repro.serving.cluster._Replica.est_delay_s` against the machines'
   registers: ``next_t``, the machine's next launch time (``inf`` when
   idle), lets a probe skip a machine with no launch due; ``horizon``, the
   busy horizon ``max(host_free, accel_free)``, replaces the reference's
   walk over a per-device dict.  Every launch a machine executes, while
   routing or in the final drain, lands in its column buffers; static and
   dynamic batching flush partial batches from the trace's last arrival on
   (the reference's *global* ``arrivals_pending`` flag turning false).
2. **Assembly** — each replica's launch columns become its per-request
   columns, permuted into the reference router's record order
   (``(admitted_s, id)``) with dispatches in launch order, and go through
   :func:`~repro.serving.metrics.assemble_replica`; the trace-order request
   columns go through :func:`~repro.serving.metrics.assemble_fleet_records`.
   The result is **bit-identical** to the reference event loop: same
   ``ClusterResult``, same float accumulations, same capped/streaming
   blocks.

Two rails share the module.  The replay above serves the
**no-fault / no-retry / no-hedge** case under the three built-in policies;
fault schedules that actually perturb the run (crash / accel-loss /
straggler windows), timeout retries, hedged dispatch and custom registered
policies ride the **fault-capable replay** (:func:`run_fast_faulted`): a
minimal event heap holding only fault transitions, out-of-order timers and
hedged completions, per-replica :class:`_SimReplica` machines that launch
lazily, and lazily-resolved completions, with all accounting folded
vectorized at assembly.  It asks any policy through ``policy.choose`` with
the machines as candidates (see
:class:`~repro.serving.cluster.AdmissionPolicy`).
:func:`fast_path_fallback_reason` names the only remaining fallback
conditions — autoscaling and custom registered schedulers — and
:meth:`~repro.serving.cluster.ClusterRouter.run` falls back to its event
loop automatically (silently, with the reason recorded on the result).  A
custom scheduler keeps that loop in ``src/``: its object must be asked at
every decision time, and the loop also serves a custom-scheduler
:class:`~repro.serving.engine.ServingEngine` as a one-replica fleet.

Why launch times are a recurrence: the reference loop runs one decision
pass per distinct event time, *after* draining that time's arrivals, and a
replica launches at most one dispatch per pass (every dispatch pushes its
``ready_s`` strictly past the clock).  So a replica's next launch time is a
pure function of its queue and occupancy registers — ``max(ready, head
admit)`` for fifo/continuous, ``max(host_free, cap-th admit)`` for a full
batch, ``max(host_free, head admit + max_wait)`` for a dynamic flush — and
admissions at time T strictly precede launches at T (the machines advance
with a strict ``< T`` bound before every delay probe, and every admission
follows a probe at its arrival time).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import deque

import numpy as np

from repro.errors import ServingError
from repro.serving.cluster import (
    _PRIO_ARRIVE,
    _PRIO_COMPLETE,
    _PRIO_FAULT,
    _PRIO_HEDGE,
    _PRIO_RETRY,
    LeastLoadedPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
)
from repro.serving.columnar import _INF, declared_kind, kernel_for, result_header
from repro.serving.metrics import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    ClusterResult,
    apply_static_lifecycle,
    assemble_fleet_records,
    assemble_replica,
)
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    DynamicBatchScheduler,
    FIFOScheduler,
    StaticBatchScheduler,
)
from repro.serving.trace import RequestTrace

_BUILTIN_SCHEDULERS = (
    FIFOScheduler,
    StaticBatchScheduler,
    DynamicBatchScheduler,
    ContinuousBatchScheduler,
)

#: the policies :func:`_route` replays inline on the no-fault rail.
_ROUTED_POLICIES = (RoundRobinPolicy, LeastLoadedPolicy, PowerOfTwoPolicy)


def fast_path_fallback_reason(config, policy, scheduler) -> "str | None":
    """Why this cluster run must take the reference event loop, or ``None``.

    Everything here mirrors a documented fallback condition: the README's
    "rail conditions" list and the fallback test battery enumerate exactly
    these knobs.  Fault windows, stragglers, timeout retries, hedging and
    custom registered policies are *not* fallback conditions — they ride the
    fault-capable replay (:func:`run_fast_faulted`); only autoscaling (hedged
    or not) and custom registered schedulers still route to the event loop.
    A custom scheduler pins it: its object must be asked at every decision
    time the loop visits, which no launch machine replays.  The
    returned string is surfaced as ``ClusterResult.fast_path_fallback_reason``
    so a silent fallback is diagnosable from the CLI.
    """
    if config.autoscale is not None:
        return "autoscale set (elastic lifecycle runs in the event loop)"
    if type(scheduler) not in _BUILTIN_SCHEDULERS:
        return f"custom scheduler {type(scheduler).__name__} ({scheduler.name!r})"
    return None


def needs_faulted_path(config, injector, policy) -> bool:
    """Does this run need the event-replaying faulted rail (vs the closed
    forms)?  True when the drawn schedule perturbs anything, timeouts can
    re-route work, hedging is on, or the policy is not one of the three
    :func:`_route` inlines (the faulted core asks ``policy.choose``).  The
    fault check is semantic, so a fault profile that yields no windows and
    no stragglers still takes the cheaper no-fault rail.
    """
    return (
        config.timeout_s is not None
        or config.hedge_after_s is not None
        or injector.schedule.perturbs
        or type(policy) not in _ROUTED_POLICIES
    )


# -- routing pass -------------------------------------------------------------


def _route(config, policy, rng, machines: list, arrivals: list, steps: list) -> np.ndarray:
    """Admit every arrival to the replica machine the policy picks; returns
    the replica index of every arrival (``-1``: shed).

    Inlines the three built-in policies only; any other policy takes the
    faulted core (:func:`needs_faulted_path`).  Sequential in trace order —
    exactly the drain order of the reference loop — with the policy's own
    state transitions: the round-robin cursor
    advances even on shed arrivals (``choose`` runs before the shed check),
    and power-of-two draws from the seeded generator once per arrival.
    Every probe first advances its machine to the arrival (admissions at
    time T strictly precede launches at T), skipping machines with no
    launch due.
    """
    n = len(arrivals)
    num_replicas = len(machines)
    shed_s = config.shed_queue_s
    assigned = [-1] * n
    if type(policy) is RoundRobinPolicy:
        for i in range(n):
            when = arrivals[i]
            chosen = machines[i % num_replicas]
            if chosen.next_t < when:
                chosen.advance(when)
            if chosen.est_delay_s(when) > shed_s:
                continue
            chosen.admit(when, steps[i])
            assigned[i] = chosen.index
    elif type(policy) is LeastLoadedPolicy:
        for i in range(n):
            when = arrivals[i]
            chosen = None
            chosen_delay = _INF
            # min(key=(delay, index)) in index order: strict < keeps the
            # lowest-index replica on ties, like the reference min().
            for machine in machines:
                if machine.next_t < when:
                    machine.advance(when)
                # est_delay_s, inlined
                delay = machine.horizon - when
                if delay < 0.0:
                    delay = 0.0
                delay = delay + machine.pending_steps * machine.unit_total_s
                if delay < chosen_delay:
                    chosen = machine
                    chosen_delay = delay
            if shed_s is not None and chosen_delay > shed_s:
                continue
            chosen.admit(when, steps[i])
            assigned[i] = chosen.index
    else:  # power-of-two-choices
        for i in range(n):
            when = arrivals[i]
            if num_replicas == 1:
                chosen = machines[0]
                if chosen.next_t < when:
                    chosen.advance(when)
            else:
                first_i, second_i = sorted(
                    int(x) for x in rng.choice(num_replicas, size=2, replace=False)
                )
                first = machines[first_i]
                second = machines[second_i]
                if first.next_t < when:
                    first.advance(when)
                if second.next_t < when:
                    second.advance(when)
                if second.est_delay_s(when) < first.est_delay_s(when):
                    chosen = second
                else:
                    chosen = first
            if shed_s is not None and chosen.est_delay_s(when) > shed_s:
                continue
            chosen.admit(when, steps[i])
            assigned[i] = chosen.index
    return np.array(assigned, dtype=np.int64)


# -- entry point --------------------------------------------------------------


def run_fast_cluster(
    router, trace: RequestTrace, result: ClusterResult, scheduler, policy, policy_rng
) -> ClusterResult:
    """Serve ``trace`` through the fleet on the columnar rail.

    ``result`` is the pre-populated :class:`ClusterResult` shell from
    :meth:`ClusterRouter.run`, and ``scheduler`` one of its replicas'
    schedulers; the caller has already verified that
    :func:`fast_path_fallback_reason` is ``None``.  Bit-identical to the
    reference event loop.
    """
    config = router.config
    n = trace.num_requests
    ids = trace.id_column()
    arrivals = trace.arrival_column()
    steps = trace.decode_column()
    result.backend_used = "columnar"

    route = None  # round-robin without shedding: the closed form i mod R
    if type(policy) is not RoundRobinPolicy or config.shed_queue_s is not None:
        route = functools.partial(_route, config, policy, policy_rng)
    machines, assigned = kernel_for(scheduler)(router.engines, scheduler, trace, route)
    completion = np.full(n, np.nan)
    for machine in machines:
        indices = np.flatnonzero(assigned == machine.index)
        replica_ids = ids[indices]
        replica_arrivals = arrivals[indices]
        replica_result, completions = machine.result(
            result_header(
                router.engines[machine.index],
                scheduler.name,
                trace.name,
                result.offered_rate_rps,
            ),
            replica_ids,
            replica_arrivals,
            steps[indices],
            config.record_requests,
            # the reference router lists a replica's records by
            # (admitted_s, id) — admission order except when equal-time
            # arrivals carry out-of-order ids.
            order=np.lexsort((replica_ids, replica_arrivals)),
        )
        result.replicas.append(replica_result)
        completion[indices] = completions

    ok = assigned >= 0
    # int8 status and attempt columns: at 10^5 requests the fleet assembly
    # is the fault-free run's memory high-water mark.
    assemble_fleet_records(
        result,
        ids,
        arrivals,
        completion,
        np.where(ok, np.int8(STATUS_OK), np.int8(STATUS_SHED)),
        assigned,
        ok.astype(np.int8),
        config.record_requests,
    )
    # the columnar rails only serve fixed fleets (autoscale falls back),
    # so the lifecycle fields are the static single-step form.
    return apply_static_lifecycle(result)


# -- fault-capable replay (Route B) -------------------------------------------
#
# Crash / accelerator-loss / straggler windows, timeout retries and hedged
# dispatch re-route or duplicate work at event times the replay above
# cannot see, so this rail keeps a tiny event heap — but only for the *rare*
# events (fault transitions, retry and hedge timers, the arrival cursor).
# Completions are resolved lazily (heap events only while a hedge races),
# dispatches launch lazily inside the per-replica machines, and all
# accounting folds vectorized at assembly in the reference's completion-pop
# order.  Every float is produced by the same IEEE operations in the same
# order as the reference loop, so results stay bit-identical.  Events
# carry the reference heap's priorities (``cluster._PRIO_*``).

#: ``_SimReplica.copy_gen`` of a hedge copy (primaries hold their attempt
#: number, which starts at 1).
_HEDGE_COPY = 0

#: a request's status before it resolves; resolved requests hold their
#: metrics ``STATUS_*`` code.
_PENDING = -1


class _SimReplica:
    """Virtual replica for the faulted rail: the launch recurrences of the
    launch machines (:class:`repro.serving.columnar._Machine`) extended
    with everything faults, retries and hedging touch — straggler
    multipliers, the accel-loss cost-table swap, crash resets, copy
    cancellation, and per-request bookkeeping (admit times, first starts,
    depth samples, dispatch log).  Crash resets move ``host_free`` back to zero, so
    the delay probe here walks the occupancy registers instead of keeping a
    running ``horizon``.

    The dispatch log is columnar (parallel ``log_*`` lists, one entry per
    launch) holding only the fold *inputs* — end time, size, iterations,
    straggler multiplier, which cost table priced it, and which trace
    positions complete; the per-device second/joule deltas are
    reconstructed in columns at assembly, in completion order.

    ``started``, ``live_end``, ``status``, ``completion``, and ``winner``
    are arrays shared with the router closures, describing each request's
    *primary* copy.  Without hedging that is its only live copy, so launch
    state and completion live in per-request slots rather than per-copy
    objects.  Machines the schedule never crashes resolve their completions
    at materialization time (a launched dispatch there is final); machines
    with crash windows, and every machine of a hedged run (a hedge copy can
    still win the race), leave resolution to the router.

    A hedged run (``attempts`` given) also keeps ``copy_gen``, the copy of
    each request this replica admitted last — the attempt number of a
    primary, or :data:`_HEDGE_COPY` — which is what the reference's
    ``assignment`` table tells it: whether a launch starts the current
    primary, whether a completion is a hedge win, which copies a crash
    loses.  ``hot`` holds the hedged, unresolved requests this replica may
    hold a copy of; while it is non-empty the router advances the replica
    launch by launch, in global time order (see :func:`run_fast_faulted`).
    """

    __slots__ = (
        "index",
        "kind",
        "max_batch",
        "max_wait_s",
        "engine",
        "injector",
        "table",
        "fallback_table",
        "active",
        "_unit_s",
        "down",
        "accel_down",
        "has_crash",
        "resolve_at_launch",
        "host_free",
        "ready_s",
        "accel_free",
        "pending_steps",
        "q_admit",
        "q_steps",
        "q_pos",
        "head",
        "flight_pos",
        "flight_rem",
        "flush_at",
        "starts",
        "admitted",
        "depth_time",
        "depth_value",
        "log_end",
        "log_size",
        "log_iter",
        "log_mult",
        "log_fb",
        "log_completes",
        "log_cancelled",
        "open",
        "started",
        "live_end",
        "status",
        "completion",
        "winner",
        "attempts",
        "live_key",
        "copy_gen",
        "hot",
    )

    def __init__(
        self, index, engine, kind, max_batch, max_wait_s, injector,
        has_crash, started, live_end, status, completion, winner,
        attempts=None, live_key=None,
    ):
        self.index = index
        self.kind = kind
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.engine = engine
        self.injector = injector
        self.table = engine.costs.cost_table(max_batch)
        self.fallback_table = None
        self.active = self.table
        self._unit_s: "float | None" = None
        self.down = False
        self.accel_down = False
        #: does the schedule ever crash this replica?  Gates the open-record
        #: list so fault-free replicas pay nothing for crash bookkeeping.
        self.has_crash = has_crash
        self.resolve_at_launch = not has_crash and attempts is None
        self.host_free = 0.0
        self.ready_s = 0.0
        self.accel_free: dict = {}
        self.pending_steps = 0
        self.q_admit: list[float] = []
        self.q_steps: list[int] = []
        self.q_pos: list[int] = []
        self.head = 0
        self.flight_pos: list[int] = []
        self.flight_rem: list[int] = []
        #: set to the last arrival time once the trace drains: static/dynamic
        #: partial batches flush from then on (the reference's
        #: ``arrivals_pending`` turning false).
        self.flush_at: "float | None" = None
        self.starts: dict[int, float] = {}
        self.admitted: dict[int, float] = {}
        #: queue-depth samples (time, depth), one per admission, launch and
        #: withdrawal, and one when a crash drops a non-empty queue.
        self.depth_time: list[float] = []
        self.depth_value: list[int] = []
        #: columnar dispatch log, one entry per launch.
        self.log_end: list[float] = []
        self.log_size: list[int] = []
        self.log_iter: list[int] = []
        self.log_mult: list[float] = []
        self.log_fb: list[bool] = []
        self.log_completes: list = []
        #: per-launch cancellation flags (crash machines only; empty means
        #: every logged dispatch is live).
        self.log_cancelled: list[bool] = []
        #: log indices a future crash could still cancel.
        self.open: list[int] = []
        self.started = started
        self.live_end = live_end
        self.status = status
        self.completion = completion
        self.winner = winner
        #: hedged runs only (``None`` otherwise): the shared attempt counts,
        #: each primary's dispatch key ``(launch time, replica, log index)``,
        #: and the copy bookkeeping described above.
        self.attempts = attempts
        self.live_key = live_key
        self.copy_gen: "dict[int, int] | None" = None if attempts is None else {}
        self.hot: set[int] = set()

    # -- probes (verbatim _Replica arithmetic) ----------------------------

    def est_delay_s(self, now: float) -> float:
        horizon = self.host_free
        for t in self.accel_free.values():
            if t > horizon:
                horizon = t
        # row(1) on the *active* table: lazily priced exactly when the
        # reference's unit_latency_s() would first price it, then cached
        # until the active table swaps (probing policies call this for
        # every candidate on every arrival).
        unit = self._unit_s
        if unit is None:
            unit = self._unit_s = self.active.row(1).total_s
        backlog = self.pending_steps * unit
        delay = horizon - now
        if delay < 0.0:
            delay = 0.0
        return delay + backlog

    # -- admission / cancellation -----------------------------------------

    def admit(self, when: float, steps: int, pos: int) -> None:
        self.advance(when)
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.q_pos.append(pos)
        self.pending_steps += steps
        # the record's arrival is its first copy's, like its start.
        self.admitted.setdefault(pos, when)
        self.depth_time.append(when)
        self.depth_value.append(len(self.q_admit) - self.head)

    def cancel(self, pos: int, when: float) -> bool:
        """The reference ``scheduler.cancel``: withdraw an in-flight
        continuous member (it leaves at the next iteration boundary), else
        the first queued copy of ``pos``.  False when there is neither — a
        copy inside a running batch dispatch runs to completion.  A
        withdrawal takes a queue-depth sample at ``when``."""
        flight = self.flight_pos
        if pos in flight:
            k = flight.index(pos)
            self.pending_steps -= self.flight_rem[k]
            del flight[k]
            del self.flight_rem[k]
        else:
            try:
                i = self.q_pos.index(pos, self.head)
            except ValueError:
                return False
            self.pending_steps -= self.q_steps[i]
            del self.q_admit[i]
            del self.q_steps[i]
            del self.q_pos[i]
        self.depth_time.append(when)
        self.depth_value.append(len(self.q_admit) - self.head)
        return True

    # -- fault transitions -------------------------------------------------

    def set_accel_down(self, flag: bool) -> None:
        self.accel_down = flag
        self._unit_s = None
        if not flag:
            self.active = self.table
            return
        if self.fallback_table is None:
            self.fallback_table = self.engine.fallback_costs().cost_table(self.max_batch)
        self.active = self.fallback_table

    def crash(self, when: float) -> list[int]:
        """Drop all queued and running work; returns the positions whose
        live copy may now be lost (the router applies the liveness check)."""
        self.down = True
        cancelled_members: list[int] = []
        if self.open:
            log_end = self.log_end
            log_cancelled = self.log_cancelled
            for i in self.open:
                if log_end[i] >= when:
                    log_cancelled[i] = True
                    cancelled_members.extend(self.log_completes[i])
            self.open.clear()
        lost_now = self.q_pos[self.head :] + self.flight_pos + cancelled_members
        if self.head < len(self.q_admit):
            # the dropped queue is a depth transition
            self.depth_time.append(when)
            self.depth_value.append(0)
        self.q_admit.clear()
        self.q_steps.clear()
        self.q_pos.clear()
        self.head = 0
        self.flight_pos = []
        self.flight_rem = []
        self.pending_steps = 0
        self.host_free = 0.0
        self.accel_free.clear()
        self.ready_s = when
        return lost_now

    # -- the launch recurrence ---------------------------------------------

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        if self.head == len(self.q_admit) and not self.flight_pos:
            return  # nothing queued or in flight: no launch can be pending
        while True:
            t = self._next_launch()
            if t is None or t >= until:
                return
            self._launch(t)

    def _next_launch(self) -> "float | None":
        kind = self.kind
        if kind == "continuous":
            if self.flight_pos:
                return self.ready_s
            if self.head < len(self.q_admit):
                a = self.q_admit[self.head]
                return a if a > self.ready_s else self.ready_s
            return None
        qlen = len(self.q_admit) - self.head
        if qlen == 0:
            return None
        if kind == "fifo":
            a = self.q_admit[self.head]
            return a if a > self.ready_s else self.ready_s
        if qlen >= self.max_batch:
            a = self.q_admit[self.head + self.max_batch - 1]
            return a if a > self.host_free else self.host_free
        flush_at = self.flush_at
        if flush_at is not None:
            # arrivals drained: partial batches dispatch at the first decide
            # pass, for static and dynamic alike (the deadline rule is gone).
            t = self.q_admit[self.head]
            if flush_at > t:
                t = flush_at
            return t if t > self.host_free else self.host_free
        if kind == "dynamic":
            d = self.q_admit[self.head] + self.max_wait_s
            return d if d > self.host_free else self.host_free
        return None

    def _launch(self, t: float) -> None:
        kind = self.kind
        multiplier = self.injector.dispatch_multiplier(self.index)
        start = t if t > self.host_free else self.host_free
        if kind == "continuous":
            free = self.max_batch - len(self.flight_pos)
            if free > 0:
                qlen = len(self.q_admit) - self.head
                take = free if free < qlen else qlen
                if take:
                    stop = self.head + take
                    self._join(self.head, stop)
                    self.head = stop
            members = self.flight_pos
            size = len(members)
            iterations = 1
            end = self._iterate(self.active.row(size), start, 1, multiplier)
            completes: list[int] = []
            keep_pos: list[int] = []
            keep_rem: list[int] = []
            for pos, rem in zip(members, self.flight_rem):
                if rem == 1:
                    completes.append(pos)
                else:
                    keep_pos.append(pos)
                    keep_rem.append(rem - 1)
            self.flight_pos = keep_pos
            self.flight_rem = keep_rem
            self.pending_steps -= size
            self.ready_s = end  # barrier
        elif kind == "fifo":
            pos = self.q_pos[self.head]
            iterations = self.q_steps[self.head]
            self.head += 1
            size = 1
            members = completes = (pos,)
            end = self._iterate(self.active.row(1), start, iterations, multiplier)
            self.pending_steps -= iterations
            self.ready_s = end  # barrier
        else:  # static / dynamic
            qlen = len(self.q_admit) - self.head
            size = qlen if qlen < self.max_batch else self.max_batch
            stop = self.head + size
            members = completes = self.q_pos[self.head : stop]
            steps = self.q_steps[self.head : stop]
            self.head = stop
            iterations = max(steps)
            end = self._iterate(self.active.row(size), start, iterations, multiplier)
            self.pending_steps -= sum(steps)
            self.ready_s = t if t > self.host_free else self.host_free
        self.log_end.append(end)
        self.log_size.append(size)
        self.log_iter.append(iterations)
        self.log_mult.append(multiplier)
        self.log_fb.append(self.accel_down)
        self.log_completes.append(completes)
        starts = self.starts
        started = self.started
        copy_gen = self.copy_gen
        if copy_gen is None:
            for pos in members:
                if pos not in starts:
                    starts[pos] = start
                started[pos] = True
        else:
            # the reference marks the copy this replica admitted last, which
            # is the primary's ``started`` only while that copy is current.
            attempts = self.attempts
            for pos in members:
                if pos not in starts:
                    starts[pos] = start
                if copy_gen[pos] == attempts[pos]:
                    started[pos] = True
        if self.has_crash:
            self.open.append(len(self.log_cancelled))
            self.log_cancelled.append(False)
        if self.resolve_at_launch:
            # this machine never crashes and no hedge copy can race it, so a
            # materialized dispatch is final: resolve its completions now.
            # The outcome is the same one the lazy path (or the reference's
            # completion pop) would produce; later retry timers for these
            # requests exit at the status check.
            status = self.status
            completion = self.completion
            winner = self.winner
            index = self.index
            for pos in completes:
                status[pos] = STATUS_OK
                completion[pos] = end
                winner[pos] = index
        else:
            live_end = self.live_end
            for pos in completes:
                live_end[pos] = end
            if copy_gen is not None:
                key = (t, self.index, len(self.log_end) - 1)
                live_key = self.live_key
                for pos in completes:
                    live_key[pos] = key
        self.depth_time.append(start)
        self.depth_value.append(len(self.q_admit) - self.head)
        if self.head >= 8192:  # amortized queue compaction
            del self.q_admit[: self.head]
            del self.q_steps[: self.head]
            del self.q_pos[: self.head]
            self.head = 0

    def _join(self, head: int, stop: int) -> None:
        """Move queued copies into the continuous in-flight set the way the
        reference's ``{request id: remaining steps}`` dict does: a request
        already in flight (its other copy) keeps its slot and restarts its
        step count, dropping the old remainder from the backlog."""
        flight_pos = self.flight_pos
        flight_rem = self.flight_rem
        for pos, steps in zip(self.q_pos[head:stop], self.q_steps[head:stop]):
            if pos in flight_pos:
                k = flight_pos.index(pos)
                self.pending_steps -= flight_rem[k]
                flight_rem[k] = steps
            else:
                flight_pos.append(pos)
                flight_rem.append(steps)

    def _iterate(self, cost, start: float, iterations: int, multiplier: float) -> float:
        """The reference ``launch()`` occupancy arithmetic, verbatim,
        straggler multiplier included (1.0 stays bit-exact)."""
        host_s = cost.host_s * multiplier
        accel_s = cost.accel_s * multiplier
        total_s = cost.total_s * multiplier
        cursor = start
        if cost.has_accel:
            target = cost.target
            # one dict read/write per dispatch, not per iteration: only this
            # target's free time and the host cursor evolve inside the loop.
            accel_start = self.accel_free.get(target, 0.0)
            host_end = cursor
            for _ in range(iterations):
                host_end = cursor + host_s
                if accel_start < host_end:
                    accel_start = host_end
                if accel_start == host_end:
                    end = cursor + total_s
                else:
                    end = accel_start + accel_s
                accel_start = end
                cursor = end
            self.accel_free[target] = accel_start
            self.host_free = host_end
        else:
            for _ in range(iterations):
                cursor = cursor + total_s
            self.host_free = cursor
        return cursor


def run_fast_faulted(
    router, trace: RequestTrace, result: ClusterResult, scheduler, policy, policy_rng,
    injector,
) -> ClusterResult:
    """Serve ``trace`` through the fleet with faults, retries or hedging on
    the columnar rail.

    ``result`` is the pre-populated shell from :meth:`ClusterRouter.run`,
    ``scheduler`` one of its replicas' schedulers and ``injector`` the run's
    already-built fault injector.  The event heap holds only fault
    transitions, timers that fire out of order, and hedged completions; arrivals stay a cursor over the trace columns,
    monotone timers stay in deques, launches replay inside
    :class:`_SimReplica` machines, and completions are resolved lazily — a
    request's fate is decided by its live dispatch record the first time an
    event (or the final sweep) looks at it, exactly as the reference's
    completion events would have decided it.

    Hedging couples replicas: the first copy of a request to complete
    withdraws the other one at that instant, before any launch at that
    time.  So while a request is hedged and unresolved, the replicas that
    may hold its copies are *hot*: they launch one dispatch at a time in
    global time order (after every event at the launch time, like the
    reference's decide pass), and a dispatch completing a hedged request
    becomes a heap event at the reference's completion priority.  Un-hedged
    completions stay lazy, and a run without ``hedge_after_s`` does none of
    this.  Bit-identical to the reference event loop.
    """
    config = router.config
    n = trace.num_requests
    arrival_times = trace.arrival_column().tolist()
    decode_counts = trace.decode_column().tolist()
    kind = declared_kind(scheduler)

    started = [False] * n
    live_end: list = [None] * n
    status = [_PENDING] * n
    attempts = [0] * n
    timeouts: list = [config.timeout_s] * n
    live_replica: list = [None] * n
    lost = [False] * n
    completion: list = [None] * n
    winner = [-1] * n
    hedge_after_s = config.hedge_after_s
    hedging = hedge_after_s is not None
    if hedging:
        hedged = [False] * n
        hedge_won = [False] * n
        hedge_replica = [-1] * n
        hedge_lost = [False] * n
        live_key: "list | None" = [None] * n
    else:
        live_key = None
    crash_replicas = injector.schedule.crash_replicas()
    machines = [
        _SimReplica(
            index, engine, kind, config.max_batch, config.max_wait_s,
            injector, index in crash_replicas, started, live_end,
            status, completion, winner,
            attempts if hedging else None, live_key,
        )
        for index, engine in enumerate(router.engines)
    ]
    retries = 0
    hedges = 0
    hedge_wins = 0

    heap: list = []
    #: retry timers whose fire times arrive in nondecreasing order (the
    #: common case: every first admission arms ``arrival + timeout_s``).
    #: Kept out of the heap — the event loop merges deques, heap, and the
    #: arrival cursor by the same (time, prio, seq) tuples a single heap
    #: would order, so processing order is unchanged.
    timer_q: deque = deque()
    #: hedge timers, likewise (``first admission + hedge_after_s``).
    hedge_q: deque = deque()
    seq = itertools.count()

    def push(time_s: float, prio: int, pos: int) -> None:
        heapq.heappush(heap, (time_s, prio, next(seq), pos))

    for t in injector.transitions():
        push(t, _PRIO_FAULT, -1)

    # generous, mirroring the reference loop's stall guard: every event
    # admits, re-routes, resolves, or toggles a fault window.
    max_events = 64 + 32 * (2 + config.max_retries) * (
        n + trace.total_decode_steps()
    ) + 8 * len(injector.transitions())
    events = 0

    def stall(when: float, detail: str) -> ServingError:
        unresolved = sum(1 for s in status if s == _PENDING)
        return ServingError(
            f"cluster made no progress at t={when:.6f}s ({detail}):"
            f" scheduler {config.scheduler!r}, policy {config.policy!r},"
            f" {unresolved}/{n} requests unresolved"
        )

    def resolve(pos: int, when: float) -> bool:
        """Materialize completion if the live copy's dispatch has ended —
        the reference's completion event would have popped by ``when``.
        A cancelled dispatch always marked its live copy lost (it ended at
        or after the crash instant), so ``lost`` doubles as the
        cancellation check.  Un-hedged requests only: a hedged request
        resolves at its completion events."""
        end = live_end[pos]
        if end is not None and end <= when and not lost[pos]:
            status[pos] = STATUS_OK
            completion[pos] = end
            winner[pos] = live_replica[pos]
            return True
        return False

    def admit_copy(pos: int, machine: _SimReplica, when: float) -> None:
        live_replica[pos] = machine.index
        started[pos] = False
        lost[pos] = False
        live_end[pos] = None
        machine.admit(when, decode_counts[pos], pos)
        attempts[pos] += 1
        if timeouts[pos] is not None:
            t = when + timeouts[pos]
            if not timer_q or t >= timer_q[-1][0]:
                timer_q.append((t, _PRIO_RETRY, next(seq), pos))
            else:
                push(t, _PRIO_RETRY, pos)
        if hedging:
            machine.copy_gen[pos] = attempts[pos]
            if hedged[pos]:
                machine.hot.add(pos)
            elif attempts[pos] == 1:
                t = when + hedge_after_s
                if not hedge_q or t >= hedge_q[-1][0]:
                    hedge_q.append((t, _PRIO_HEDGE, next(seq), pos))
                else:
                    push(t, _PRIO_HEDGE, pos)

    # advancing a machine is observable only through est_delay_s probes
    # (launch outcomes are pure functions of machine state), so policies
    # that never probe skip the pre-choose advancement entirely — the
    # chosen machine still advances inside admit().
    probes_load = getattr(type(policy), "probes_load", True)
    #: replicas not currently crashed; rebuilt only on fault transitions.
    alive = list(machines)

    def route_primary(pos: int, when: float) -> None:
        nonlocal retries
        if attempts[pos] >= 1 + config.max_retries:
            status[pos] = STATUS_FAILED
            if hedging and hedged[pos]:
                settle(pos)
                withdraw(pos, hedge_replica[pos], hedge_lost[pos], when)
            return
        previous = live_replica[pos]
        candidates = [m for m in alive if m.index != previous] or alive
        if not candidates:
            if timeouts[pos] is None:
                raise stall(when, "no alive replica and no timeout to wait on")
            push(when + timeouts[pos], _PRIO_RETRY, pos)
            return
        if attempts[pos] >= 1:
            retries += 1
            backoff = timeouts[pos] * 2.0
            if config.timeout_cap_s is not None:
                backoff = min(backoff, config.timeout_cap_s)
            timeouts[pos] = backoff
        if probes_load:
            for machine in candidates:
                machine.advance(when)
        chosen = policy.choose(when, candidates, policy_rng)
        admit_copy(pos, chosen, when)

    def on_arrival(pos: int, when: float) -> None:
        if not alive:
            if config.shed_queue_s is not None:
                status[pos] = STATUS_SHED
                return
            route_primary(pos, when)  # defers on the timeout
            return
        if probes_load:
            for machine in alive:
                machine.advance(when)
        chosen = policy.choose(when, alive, policy_rng)
        if config.shed_queue_s is not None:
            chosen.advance(when)  # the shed check probes est_delay_s
            if chosen.est_delay_s(when) > config.shed_queue_s:
                status[pos] = STATUS_SHED
                return
        admit_copy(pos, chosen, when)

    def on_retry(pos: int, when: float) -> None:
        if status[pos] != _PENDING:
            return
        holder_index = live_replica[pos]
        holder = machines[holder_index] if holder_index is not None else None
        if holder is not None and not holder.down:
            # launches decided strictly before the timer may have started or
            # completed this copy; materialize them before judging it.
            holder.advance(when)
        if not (hedging and hedged[pos]) and resolve(pos, when):
            return
        if holder is None or lost[pos] or holder.down:
            route_primary(pos, when)
            return
        if not started[pos] and holder.cancel(pos, when):
            route_primary(pos, when)
            return
        # in service on a live replica: let it finish, but keep watching so
        # a later crash of that replica is still detected.  A replica the
        # schedule never crashes cannot lose started work, so the watch
        # chain (pure re-arms in the reference, never a re-route) is
        # dropped and the copy resolves lazily.
        if timeouts[pos] is not None and holder.has_crash:
            push(when + timeouts[pos], _PRIO_RETRY, pos)

    def on_fault(when: float) -> None:
        nonlocal alive
        for machine in machines:
            crashed = injector.is_crashed(machine.index, when)
            if crashed and not machine.down:
                machine.advance(when)
                for pos in machine.crash(when):
                    if status[pos] != _PENDING:
                        continue
                    if hedging and hedged[pos]:
                        # the reference loses the copy this replica admitted
                        # last, when it is the primary or the hedge.
                        gen = machine.copy_gen[pos]
                        if gen == attempts[pos]:
                            lost[pos] = True
                        elif gen == _HEDGE_COPY:
                            hedge_lost[pos] = True
                        continue
                    if live_replica[pos] != machine.index:
                        continue
                    end = live_end[pos]
                    if end is not None and end < when:
                        # resolved before the crash, just lazily.  end == when
                        # means the dispatch was cancelled by this crash
                        # (crash() cancels end_s >= when), so it is lost.
                        continue
                    lost[pos] = True
            elif not crashed and machine.down:
                machine.down = False
            accel = injector.accel_lost(machine.index, when)
            if accel != machine.accel_down:
                machine.advance(when)
                machine.set_accel_down(accel)
        alive = [m for m in machines if not m.down]

    # -- hedged dispatch (hedge_after_s set) -------------------------------

    def settle(pos: int) -> None:
        """A hedged request resolved: its copies no longer couple replicas."""
        for machine in machines:
            machine.hot.discard(pos)

    def withdraw(pos: int, holder_index: int, copy_lost: bool, when: float) -> None:
        """The reference ``cancel_copy``: a lost copy or one on a crashed
        replica has nothing left to withdraw."""
        if not copy_lost:
            holder = machines[holder_index]
            if not holder.down:
                holder.cancel(pos, when)

    def on_hedge(pos: int, when: float) -> None:
        nonlocal hedges
        if status[pos] != _PENDING:
            return
        primary = live_replica[pos]
        holder = machines[primary]
        if not holder.down:
            holder.advance(when)
        if resolve(pos, when):
            return
        candidates = [m for m in alive if m.index != primary]
        if not candidates:
            return
        if probes_load:
            for machine in candidates:
                machine.advance(when)
        chosen = policy.choose(when, candidates, policy_rng)
        hedged[pos] = True
        hedges += 1
        hedge_replica[pos] = chosen.index
        chosen.admit(when, decode_counts[pos], pos)
        chosen.copy_gen[pos] = _HEDGE_COPY
        # both holders are advanced to ``when``: from here on they launch
        # in global time order until the race is decided.
        holder.hot.add(pos)
        chosen.hot.add(pos)
        if live_end[pos] is not None and not lost[pos]:
            # the primary's dispatch is already running: its completion
            # can now cancel the hedge, so it becomes an event.
            key = live_key[pos]
            heapq.heappush(heap, (live_end[pos], _PRIO_COMPLETE, key, key[1]))

    def on_complete(key: tuple, when: float) -> None:
        nonlocal hedge_wins
        _, index, i = key
        machine = machines[index]
        if machine.log_cancelled and machine.log_cancelled[i]:
            return  # the replica crashed before the dispatch ended
        for pos in machine.log_completes[i]:
            if status[pos] != _PENDING:
                continue  # a hedge loser or stale copy finishing
            status[pos] = STATUS_OK
            completion[pos] = when
            winner[pos] = index
            if hedged[pos]:
                settle(pos)
                if machine.copy_gen[pos] == _HEDGE_COPY:
                    hedge_won[pos] = True
                    hedge_wins += 1
                    withdraw(pos, live_replica[pos], lost[pos], when)
                else:
                    withdraw(pos, hedge_replica[pos], hedge_lost[pos], when)

    def launch_hot(until: float) -> bool:
        """Execute the earliest launch strictly before ``until`` among hot
        replicas (the lowest index on ties), pushing its completion event
        when it completes a hedged, unresolved request.  False when no hot
        replica has a launch due."""
        first = None
        first_t = until
        for machine in machines:
            if machine.hot:
                t = machine._next_launch()
                if t is not None and t < first_t:
                    first = machine
                    first_t = t
        if first is None:
            return False
        first._launch(first_t)
        i = len(first.log_end) - 1
        for pos in first.log_completes[i]:
            if hedged[pos] and status[pos] == _PENDING:
                key = (first_t, first.index, i)
                heapq.heappush(heap, (first.log_end[i], _PRIO_COMPLETE, key, first.index))
                break
        return True

    # -- the event loop ----------------------------------------------------

    arrive_index = 0
    while True:
        # the next non-arrival event: smallest (time, prio, seq) across the
        # monotone timer deques and the heap.
        head = timer_q[0] if timer_q else None
        source = timer_q
        if hedge_q and (head is None or hedge_q[0] < head):
            head = hedge_q[0]
            source = hedge_q
        if heap and (head is None or heap[0] < head):
            head = heap[0]
            source = heap
        # merge the arrival cursor against the event head: comparing
        # (time, prio) reproduces the reference heap's processing order.
        arriving = arrive_index < n and (
            head is None
            or (arrival_times[arrive_index], _PRIO_ARRIVE) < (head[0], head[1])
        )
        if hedging:
            # hot replicas launch before the next event when strictly
            # earlier: the reference decides after every event at a time.
            if arriving:
                until = arrival_times[arrive_index]
            else:
                until = _INF if head is None else head[0]
            if launch_hot(until):
                continue
        if arriving:
            arrival_s = arrival_times[arrive_index]
            events += 1
            if events > max_events:
                raise stall(arrival_s, f"no progress after {max_events} events")
            pos = arrive_index
            arrive_index += 1
            on_arrival(pos, arrival_s)
            if arrive_index == n:
                # arrivals drained: partial batches flush from now on.
                # Materialize every launch decided under the pre-drain
                # rules first — flush_at changes what _next_launch
                # returns, so advancing lazily across the transition
                # would re-decide those launches under the wrong rule.
                for machine in machines:
                    machine.advance(arrival_s)
                    machine.flush_at = arrival_s
            continue
        if head is None:
            break
        if source is heap:
            when, prio, key, pos = heapq.heappop(heap)
        else:
            when, prio, key, pos = source.popleft()
        events += 1
        if events > max_events:
            raise stall(when, f"no progress after {max_events} events")
        if prio == _PRIO_FAULT:
            on_fault(when)
        elif prio == _PRIO_RETRY:
            on_retry(pos, when)
        elif prio == _PRIO_HEDGE:
            on_hedge(pos, when)
        else:
            on_complete(key, when)

    for machine in machines:
        machine.advance(float("inf"))
    for pos in range(n):
        if status[pos] != _PENDING:
            continue
        end = live_end[pos]
        if end is None or lost[pos] or (hedging and hedged[pos]):
            raise stall(
                float("inf"), f"request at trace position {pos} never completed"
            )
        status[pos] = STATUS_OK
        completion[pos] = end
        winner[pos] = live_replica[pos]

    # -- assembly (the reference aggregate's orders) ----------------------

    ids = trace.id_column()
    ids_list = ids.tolist()
    decode_column = trace.decode_column()
    cap = config.record_requests
    for machine in machines:
        ends = np.asarray(machine.log_end, dtype=np.float64)
        live = np.arange(ends.size)
        if machine.log_cancelled:
            # only crash-capable machines maintain the cancellation column;
            # everywhere else the whole log is live.
            live = np.flatnonzero(~np.asarray(machine.log_cancelled, dtype=bool))
        # accounting folds at the reference's completion-pop order: a stable
        # sort by end time over the launch-ordered live log.
        fold_order = live[np.argsort(ends[live], kind="stable")]
        sizes = np.asarray(machine.log_size, dtype=np.int64)
        fallback = None
        fallback_table = machine.fallback_table
        if fallback_table is not None and fallback_table is not machine.table:
            mask = np.asarray(machine.log_fb, dtype=bool)[fold_order]
            if mask.any():
                fallback = (fallback_table, mask)

        completions: dict[int, tuple[float, int]] = {}
        ends_list = ends.tolist()
        sizes_list = sizes.tolist()
        for i in fold_order.tolist():
            entry = (ends_list[i], sizes_list[i])
            for pos in machine.log_completes[i]:
                completions[pos] = entry
        admitted = machine.admitted
        # the reference router lists a replica's records by (admitted, id).
        positions = sorted(completions, key=lambda p: (admitted[p], ids_list[p]))
        requests = (
            ids[positions],
            np.array([admitted[p] for p in positions], dtype=np.float64),
            np.array([machine.starts[p] for p in positions], dtype=np.float64),
            np.array([completions[p][0] for p in positions], dtype=np.float64),
            decode_column[positions],
            np.array([completions[p][1] for p in positions], dtype=np.int64),
        )
        result.replicas.append(
            assemble_replica(
                result_header(
                    machine.engine, scheduler.name, trace.name, result.offered_rate_rps
                ),
                requests,
                sizes[fold_order],
                np.asarray(machine.log_iter, dtype=np.int64)[fold_order],
                machine.table,
                (machine.depth_time, machine.depth_value, None),
                cap,
                multipliers=np.asarray(machine.log_mult, dtype=np.float64)[fold_order],
                fallback=fallback,
            )
        )

    assemble_fleet_records(
        result,
        ids,
        trace.arrival_column(),
        np.array(completion, dtype=np.float64),
        np.array(status, dtype=np.int8),
        np.array(winner, dtype=np.int64),
        np.array(attempts, dtype=np.int64),
        cap,
        hedged=np.array(hedged, dtype=bool) if hedging else None,
        hedge_won=np.array(hedge_won, dtype=bool) if hedging else None,
    )
    result.num_retries = retries
    result.num_hedges = hedges
    result.num_hedge_wins = hedge_wins
    recovery = 0.0
    for window in injector.schedule.windows:
        victim = machines[window.replica]
        if victim.log_cancelled:
            ends = sorted(
                e
                for e, cancelled in zip(victim.log_end, victim.log_cancelled)
                if not cancelled
            )
        else:
            ends = sorted(victim.log_end)
        after = next((e for e in ends if e >= window.end_s), None)
        if after is not None:
            recovery = max(recovery, after - window.end_s)
    result.time_to_recovery_s = recovery
    result.backend_used = "columnar-faulted"
    return apply_static_lifecycle(result)
