"""Columnar fleet rails: the multi-replica router without its event loop.

Both rails drive the launch machines of :mod:`repro.serving.columnar` (the
one statement of the built-in schedulers' launch rules), one per replica,
and both are **bit-identical** to the reference event loop
(:meth:`~repro.serving.cluster.ClusterRouter.run`): the same
``ClusterResult``, float accumulations and capped/streaming blocks.

**The fault-free rail** (:func:`run_fast_cluster`: no perturbing fault, no
timeout, no hedging, a built-in policy) routes each arrival in trace order.
Round-robin without shedding is closed form (``i mod R``: the cursor
advances once per arrival, shed or not), so no probe reads a machine.
Least-loaded, power-of-two and any shedding configuration replay the scalar
router's :meth:`~repro.serving.cluster._Replica.est_delay_s` against the
machines' registers (:func:`_route`): ``next_t`` lets a probe skip a machine
with no launch due, and ``horizon`` replaces the reference's walk over a
per-device dict.  Each replica's launch columns then become its per-request
columns, permuted into the reference router's record order (``(admitted_s,
id)``), and go through :func:`~repro.serving.metrics.assemble_replica`; the
trace-order request columns go through
:func:`~repro.serving.metrics.assemble_fleet_records`.

**The faulted rail** (:func:`run_fast_faulted`) serves fault schedules that
perturb the run (crash / accel-loss / straggler windows), timeout retries,
hedged dispatch and custom registered policies.  A minimal event heap holds
only fault transitions, out-of-order timers and hedged completions; each
replica's machine sits in a fault layer (:class:`_SimReplica`), completions
resolve lazily off the machines' log readers, and all accounting folds
vectorized at assembly.  It asks any policy through ``policy.choose`` with
the layers as candidates (see :class:`~repro.serving.cluster.AdmissionPolicy`).

:func:`fast_path_fallback_reason` names the only remaining fallback
condition — autoscaling — and :meth:`~repro.serving.cluster.ClusterRouter.run`
falls back to its event loop automatically (silently, with the reason
recorded on the result).  Both rails pick a replica's machine by the
declared kind, as the engine does: a scheduler that declares none rides the
callback machine, which asks the scheduler object itself, so no rail is
chosen by scheduler class.
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
from repro.serving.columnar import (
    _INF,
    MACHINES,
    declared_kind,
    kernel_for,
    result_header,
)
from repro.serving.metrics import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    ClusterResult,
    ServingResult,
    apply_static_lifecycle,
    assemble_fleet_records,
    assemble_replica,
)
from repro.serving.trace import RequestTrace

#: the policies :func:`_route` replays inline on the no-fault rail.
_ROUTED_POLICIES = (RoundRobinPolicy, LeastLoadedPolicy, PowerOfTwoPolicy)


def fast_path_fallback_reason(config) -> "str | None":
    """Why this cluster run must take the reference event loop, or ``None``.

    The README's "rail conditions" list and the fallback test battery
    enumerate exactly this knob: faults, timeout retries, hedging, custom
    registered policies and custom schedulers ride the columnar rails, and
    only autoscaling (hedged or not) routes to the event loop.  The string
    is surfaced as ``ClusterResult.fast_path_fallback_reason`` so a silent
    fallback is diagnosable from the CLI.
    """
    if config.autoscale is not None:
        return "autoscale set (elastic lifecycle runs in the event loop)"
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
            chosen.admit(when, steps[i], i)
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
            chosen.admit(when, steps[i], i)
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
            chosen.admit(when, steps[i], i)
            assigned[i] = chosen.index
    return np.array(assigned, dtype=np.int64)


# -- entry point --------------------------------------------------------------


def run_fast_cluster(
    router, trace: RequestTrace, result: ClusterResult, scheduler, policy, policy_rng
) -> ClusterResult:
    """Serve ``trace`` through the fleet on the columnar rail.

    ``result`` is the pre-populated :class:`ClusterResult` shell from
    :meth:`ClusterRouter.run`, and ``scheduler`` replica 0's scheduler;
    the caller has already verified that
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


# -- fault-capable replay ----------------------------------------------------
#
# Faults, timeout retries and hedged dispatch re-route or duplicate work at
# event times the routing pass cannot see, so this rail keeps an event heap
# for the rare events only.  Events carry the reference heap's priorities
# (``cluster._PRIO_*``); every float comes from the same IEEE operations in
# the same order as the reference loop.

#: ``_SimReplica.copy_gen`` of a hedge copy (primaries hold their attempt
#: number, which starts at 1).
_HEDGE_COPY = 0

#: a request's status before it resolves; resolved requests hold their
#: metrics ``STATUS_*`` code.
_PENDING = -1

#: the primary copy's launch while no launch has taken it.
_UNTAKEN = -2


class _SimReplica:
    """One replica of the faulted rail: the fault layer around its launch
    machine (``machine``), which owns the launch rules, the registers and
    the launch log.

    The layer holds what faults, retries and hedging add: the crash reset,
    which also cancels the open dispatches ending at or after the crash;
    copy withdrawal; the accel-loss cost-table swap; the per-launch
    straggler draw; and ``events``, one row per admission, withdrawal and
    dropped queue, from which assembly interleaves the queue-depth samples
    with the launches'.  It books nothing per launch: the core asks the
    machine's log reader only where it needs an answer — a timer about the
    one copy it touches, a crash about the launches it cancels, a hot hedged
    step about its one launch, and assembly about every launch once.  As a
    policy candidate it offers ``index`` and the machine's ``est_delay_s``.
    ``taken`` holds, per trace position, the last queue entry a launch
    took here, filed as reads reach it (:meth:`last_taken`).

    A hedged run also keeps ``copy_gen``, the copy of each request this
    replica admitted last — the attempt number of a primary, or
    :data:`_HEDGE_COPY` — which is what the reference's ``assignment`` table
    tells it: whether a completion is a hedge win, which copies a crash
    loses.  ``hot`` holds the hedged, unresolved requests this replica may
    hold a copy of; while it is non-empty the router advances the replica
    launch by launch, in global time order (see :func:`run_fast_faulted`).
    """

    __slots__ = (
        "index", "engine", "machine", "est_delay_s", "table", "fallback_table",
        "down", "accel_down", "has_crash", "events", "cancelled", "open_from",
        "fallback_marks", "draw", "multipliers", "copy_gen", "hot", "taken", "filed",
    )

    def __init__(self, machine, engine, injector, has_crash, hedging, num_requests):
        self.index = machine.index
        self.engine = engine
        self.machine = machine
        self.est_delay_s = machine.est_delay_s
        self.table = engine.costs.cost_table(machine.max_batch)
        self.fallback_table = None
        #: per launch, its straggler multiplier (runs with stragglers only).
        self.multipliers: list[float] = []
        if injector.has_stragglers:
            self.draw = injector.dispatch_multiplier
            machine.straggle = self._straggle
        self.down = False
        self.accel_down = False
        #: does the schedule ever crash this replica?
        self.has_crash = has_crash
        #: ``(time, trace position or -1, queue entries, launches)`` after
        #: each admission (the position), withdrawal and dropped queue.
        self.events: list[tuple] = []
        #: launches a crash cancelled; launches from ``open_from`` on are
        #: ones a future crash could still cancel.
        self.cancelled: set[int] = set()
        self.open_from = 0
        #: launch indices where the accel-loss fallback table starts or
        #: stops pricing.
        self.fallback_marks: list[int] = []
        self.copy_gen: "dict[int, int] | None" = {} if hedging else None
        self.hot: set[int] = set()
        self.taken = [-1] * num_requests
        self.filed = 0

    def _straggle(self, host_s: float, accel_s: float, total_s: float) -> tuple:
        """A launch's seconds under its straggler multiplier, drawn once per
        launch in launch order like the reference's (multiplying by 1.0 is
        bit-exact)."""
        multiplier = self.draw(self.index)
        self.multipliers.append(multiplier)
        return host_s * multiplier, accel_s * multiplier, total_s * multiplier

    def _event(self, when: float, pos: int = -1) -> None:
        machine = self.machine
        self.events.append((when, pos, len(machine.q_pos), len(machine.log_end)))

    # -- admission / withdrawal ---------------------------------------------

    def admit(self, when: float, steps: int, pos: int) -> None:
        self.machine.advance(when)
        self.machine.admit(when, steps, pos)
        self._event(when, pos)

    def last_taken(self, pos: int) -> int:
        """The last queue entry of ``pos`` a launch took here (-1: none)."""
        machine, last = self.machine, self.taken
        taken = machine.base + machine.head
        for j in range(self.filed, taken):
            last[machine.q_pos[j]] = j
        self.filed = taken
        return last[pos]

    def cancel(self, pos: int, when: float) -> bool:
        """The reference ``scheduler.cancel``: withdraw an in-flight
        continuous member, else the first queued copy of ``pos``.  False
        when there is neither — a copy inside a running batch dispatch runs
        to completion.  A withdrawal takes a queue-depth sample at ``when``."""
        if not self.machine.withdraw(pos, when):
            return False
        self._event(when)
        return True

    # -- fault transitions -------------------------------------------------

    def set_accel_down(self, flag: bool, when: float) -> None:
        """Swap cost tables at ``when``, after the launches decided before it."""
        self.machine.advance(when)
        self.accel_down = flag
        self.fallback_marks.append(len(self.machine.log_end))
        if flag and self.fallback_table is None:
            self.fallback_table = self.engine.fallback_costs().cost_table(self.machine.max_batch)
        self.machine.reprice(self.fallback_table if flag else self.table)

    def crash(self, when: float) -> list[int]:
        """Drop all queued and running work; returns the positions whose
        live copy may now be lost (the router applies the liveness check)."""
        machine = self.machine
        machine.advance(when)
        self.down = True
        queued = machine.q_pos[machine.base + machine.head :].tolist()
        lost_now = queued + machine.holding()
        ends = np.frombuffer(machine.log_end, dtype=np.float64)[self.open_from :]
        cancelled = (self.open_from + np.flatnonzero(ends >= when)).tolist()
        del ends  # releases the log's buffer before it grows again
        for k in cancelled:
            lost_now.extend(machine.completed(k))
        self.cancelled.update(cancelled)
        self.open_from = len(machine.log_end)
        machine.reset(when)
        if queued:  # the dropped queue is a depth transition
            self._event(when)
        return lost_now

    # -- assembly ----------------------------------------------------------

    def result(self, header: dict, ids, decode_column, cap) -> "tuple[ServingResult, np.ndarray]":
        """This replica's :class:`ServingResult`, read off the machine's log
        in the reference aggregate's orders; also returns the end times of
        the launches no crash cancelled."""
        machine = self.machine
        starts = np.array(machine.log_start, dtype=np.float64)
        ends = np.array(machine.log_end, dtype=np.float64)
        launches = ends.size
        live = np.ones(launches, dtype=bool)
        live[list(self.cancelled)] = False
        # accounting folds at the reference's completion-pop order: a stable
        # sort by end time over the launch-ordered live log.
        fold_order = np.flatnonzero(live)[np.argsort(ends[live], kind="stable")]
        join, finish = machine.entries()
        taken = np.array(machine.q_pos[: join.size], dtype=np.int64)
        sizes, iterations = machine._dispatches(decode_column[taken])
        fallback = None
        if self.fallback_table is not None and self.fallback_table is not self.table:
            mask = np.searchsorted(self.fallback_marks, fold_order, side="right") % 2 == 1
            if mask.any():
                fallback = (self.fallback_table, mask)
        multipliers = 1.0
        if self.multipliers:
            multipliers = np.array(self.multipliers, dtype=np.float64)[fold_order]

        # a request's record: its first admission and first take here, and
        # the completing launch that folds last (rank -1: cancelled, or no
        # launch completed the entry).
        rank = np.full(launches + 1, -1)
        rank[fold_order] = np.arange(fold_order.size)
        completed = np.flatnonzero(rank[finish] >= 0)
        completed = completed[np.argsort(rank[finish[completed]], kind="stable")][::-1]
        positions, last = np.unique(taken[completed], return_index=True)
        took, first_take = np.unique(taken, return_index=True)
        events = np.array(self.events, dtype=np.float64).reshape(-1, 4)
        event_time = events[:, 0]
        event_pos, entries, event_launches = events[:, 1:].T.astype(np.int64)
        admitted, first_admission = np.unique(event_pos[event_pos >= 0], return_index=True)
        arrival = event_time[event_pos >= 0][first_admission[np.searchsorted(admitted, positions)]]
        # the reference router lists a replica's records by (admitted, id).
        order = np.lexsort((ids[positions], arrival))
        positions = positions[order]
        final = finish[completed[last[order]]]
        requests = (
            ids[positions],
            arrival[order],
            starts[join[first_take[np.searchsorted(took, positions)]]],
            ends[final],
            decode_column[positions],
            sizes[final],
        )

        # queue-depth samples: each event's, and each launch's after it —
        # the queue entries as of the last event before the launch, minus
        # those taken by then; an event with ``L`` launches before it sorts
        # between launch ``L - 1``'s sample and launch ``L``'s.
        taken_before = np.concatenate(([0], machine.heads()))
        last_event = np.searchsorted(event_launches, np.arange(launches), side="right") - 1
        depth = (
            np.concatenate([event_time, starts]),
            np.concatenate(
                [entries - taken_before[event_launches], entries[last_event] - taken_before[1:]]
            ),
            np.concatenate([2 * event_launches, 2 * np.arange(launches) + 1]),
        )
        result = assemble_replica(
            header,
            requests,
            sizes[fold_order],
            iterations[fold_order],
            self.table,
            depth,
            cap,
            multipliers=multipliers,
            fallback=fallback,
        )
        return result, ends[live]


def run_fast_faulted(
    router, trace: RequestTrace, result: ClusterResult, scheduler, policy, policy_rng,
    injector,
) -> ClusterResult:
    """Serve ``trace`` through the fleet with faults, retries or hedging on
    the columnar rail.

    ``result`` is the pre-populated shell from :meth:`ClusterRouter.run`,
    ``scheduler`` replica 0's scheduler and ``injector`` the run's
    already-built fault injector.  Arrivals stay a cursor over the trace
    columns and monotone timers stay in deques; launches replay inside each
    replica's machine; completions resolve lazily — a request's fate is
    decided by its live dispatch the first time an event (or the final
    sweep) looks at it, as the reference's completion events would have.

    Hedging couples replicas: the first copy of a request to complete
    withdraws the other one at that instant, before any launch at that
    time.  So while a request is hedged and unresolved, the replicas that
    may hold its copies are *hot*: they launch one dispatch at a time in
    global time order (after every event at the launch time, like the
    reference's decide pass), and a dispatch completing a hedged request
    becomes a heap event at the reference's completion priority.
    Bit-identical to the reference event loop.
    """
    config = router.config
    n = trace.num_requests
    arrival_times = trace.arrival_column().tolist()
    decode_counts = trace.decode_column().tolist()

    status = [_PENDING] * n
    attempts = [0] * n
    timeouts: list = [config.timeout_s] * n
    live_replica: list = [None] * n
    #: the live replica's taken entries when the primary copy was admitted.
    copy_lo = [0] * n
    lost = [False] * n
    completion: list = [None] * n
    winner = [-1] * n
    hedging = config.hedge_after_s is not None
    if hedging:
        hedged = [False] * n
        hedge_won = [False] * n
        hedge_replica = [-1] * n
        hedge_lost = [False] * n
        #: primaries admitted to a replica that held another copy in service:
        #: position -> the replica's launch count then.
        held_since: dict[int, int] = {}
    crash_replicas = injector.schedule.crash_replicas()
    machine_cls = MACHINES[declared_kind(scheduler)]
    machines = [
        _SimReplica(
            machine_cls(index, engine, scheduler, trace), engine, injector,
            index in crash_replicas, hedging, n,
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

    def push(time_s: float, prio: int, pos: int, queue: "deque | None" = None) -> None:
        """Push an event, onto ``queue`` when it keeps that deque in order."""
        if queue is not None and (not queue or time_s >= queue[-1][0]):
            queue.append((time_s, prio, next(seq), pos))
        else:
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

    def primary_launch(pos: int) -> int:
        """The launch that completed ``pos``'s primary copy, read off its
        live replica's log: -1 while it is in service, :data:`_UNTAKEN`
        while it is queued, or once it is lost or a crash dropped it.  Only
        a hedged request can have two copies taken there since the
        admission, and for it only whether one was taken matters."""
        holder = live_replica[pos]
        entry = -1 if lost[pos] or holder is None else machines[holder].last_taken(pos)
        if entry < copy_lo[pos]:  # no launch took a copy since the admission
            return _UNTAKEN
        return machines[holder].machine.finish(entry)

    def resolve(pos: int, launch: int, when: float) -> bool:
        """Materialize completion if the primary copy's dispatch (``launch``,
        from :func:`primary_launch`) has ended — the reference's completion
        event would have popped by ``when``.  A cancelled dispatch always
        marked its live copy lost (it ended at or after the crash instant),
        so ``lost`` doubles as the cancellation check.  Un-hedged requests
        only: a hedged request resolves at its completion events."""
        if launch < 0:
            return False
        end = machines[live_replica[pos]].machine.log_end[launch]
        if end <= when:
            status[pos] = STATUS_OK
            completion[pos] = end
            winner[pos] = live_replica[pos]
            return True
        return False

    def admit_copy(pos: int, machine: _SimReplica, when: float) -> None:
        live_replica[pos] = machine.index
        lost[pos] = False
        machine.admit(when, decode_counts[pos], pos)
        copy_lo[pos] = machine.machine.base + machine.machine.head
        attempts[pos] += 1
        if timeouts[pos] is not None:
            push(when + timeouts[pos], _PRIO_RETRY, pos, timer_q)
        if hedging:
            machine.copy_gen[pos] = attempts[pos]
            held_since.pop(pos, None)
            if hedged[pos]:
                machine.hot.add(pos)
                if pos in machine.machine.holding():
                    held_since[pos] = len(machine.machine.log_end)
            elif attempts[pos] == 1:
                push(when + config.hedge_after_s, _PRIO_HEDGE, pos, hedge_q)

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
                machine.machine.advance(when)
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
                machine.machine.advance(when)
        chosen = policy.choose(when, alive, policy_rng)
        if config.shed_queue_s is not None:
            chosen.machine.advance(when)  # the shed check probes est_delay_s
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
            holder.machine.advance(when)
        launch = primary_launch(pos)
        if not (hedging and hedged[pos]) and resolve(pos, launch, when):
            return
        if holder is None or lost[pos] or holder.down:
            route_primary(pos, when)
            return
        # no launch on the holder has served the copy since its admission:
        # none took it, nor ran while a copy it already held was in service.
        unserved = launch == _UNTAKEN and not (
            hedging and held_since.get(pos, _INF) < len(holder.machine.log_end)
        )
        if unserved and holder.cancel(pos, when):
            route_primary(pos, when)
            return
        # in service on a live replica: let it finish, but keep watching so
        # a later crash of that replica is still detected.  A replica the
        # schedule never crashes cannot lose started work, so the watch
        # chain (pure re-arms in the reference, never a re-route) is
        # dropped, and a copy no hedge can race resolves now if its
        # completing launch is logged (its end may still lie ahead).
        if holder.has_crash:
            push(when + timeouts[pos], _PRIO_RETRY, pos)
        elif not hedging:
            resolve(pos, launch, _INF)

    def on_fault(when: float) -> None:
        nonlocal alive
        for machine in machines:
            crashed = injector.is_crashed(machine.index, when)
            if crashed and not machine.down:
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
                    k = primary_launch(pos)
                    if k >= 0 and machine.machine.log_end[k] < when:
                        # resolved before the crash, just lazily.  An end at
                        # ``when`` means this crash cancelled the dispatch
                        # (crash() cancels end_s >= when), so it is lost.
                        continue
                    lost[pos] = True
            elif not crashed and machine.down:
                machine.down = False
            accel = injector.accel_lost(machine.index, when)
            if accel != machine.accel_down:
                machine.set_accel_down(accel, when)
        alive = [m for m in machines if not m.down]

    # -- hedged dispatch (hedge_after_s set) -------------------------------

    def settle(pos: int) -> None:
        """A hedged request resolved: its copies no longer couple replicas."""
        for machine in machines:
            machine.hot.discard(pos)

    def withdraw(pos: int, holder_index: int, copy_lost: bool, when: float) -> None:
        """The reference ``cancel_copy``: a lost copy or one on a crashed
        replica has nothing left to withdraw."""
        if not (copy_lost or machines[holder_index].down):
            machines[holder_index].cancel(pos, when)

    def on_hedge(pos: int, when: float) -> None:
        nonlocal hedges
        if status[pos] != _PENDING:
            return
        primary = live_replica[pos]
        holder = machines[primary]
        if not holder.down:
            holder.machine.advance(when)
        launch = primary_launch(pos)
        if resolve(pos, launch, when):
            return
        candidates = [m for m in alive if m.index != primary]
        if not candidates:
            return
        if probes_load:
            for machine in candidates:
                machine.machine.advance(when)
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
        if launch >= 0:
            # the primary's dispatch is already running: its completion
            # can now cancel the hedge, so it becomes an event.
            key = (holder.machine.log_start[launch], primary, launch)
            heapq.heappush(heap, (holder.machine.log_end[launch], _PRIO_COMPLETE, key, primary))

    def on_complete(key: tuple, when: float) -> None:
        nonlocal hedge_wins
        _, index, i = key
        machine = machines[index]
        if i in machine.cancelled:
            return  # the replica crashed before the dispatch ended
        for pos in machine.machine.completed(i):
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
                t = machine.machine.next_t
                if t < first_t:
                    first = machine
                    first_t = t
        if first is None:
            return False
        log_end = first.machine.log_end
        launched = len(log_end)
        first.machine.step()
        for i in range(launched, len(log_end)):
            for pos in first.machine.completed(i):
                if hedged[pos] and status[pos] == _PENDING:
                    key = (first_t, first.index, i)
                    heapq.heappush(heap, (log_end[i], _PRIO_COMPLETE, key, first.index))
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
        now = arrival_times[arrive_index] if arriving else _INF if head is None else head[0]
        # hot replicas launch before the next event when strictly earlier:
        # the reference decides after every event at a time.
        if hedging and launch_hot(now):
            continue
        if not arriving and head is None:
            break
        events += 1
        if events > max_events:
            raise stall(now, f"no progress after {max_events} events")
        if arriving:
            pos = arrive_index
            arrive_index += 1
            on_arrival(pos, now)
            if arrive_index == n:
                # arrivals drained: partial batches flush from now on, after
                # every launch decided under the pre-drain rules.
                for machine in machines:
                    machine.machine.flush(now)
            continue
        if source is heap:
            when, prio, key, pos = heapq.heappop(heap)
        else:
            when, prio, key, pos = source.popleft()
        if prio == _PRIO_FAULT:
            on_fault(when)
        elif prio == _PRIO_RETRY:
            on_retry(pos, when)
        elif prio == _PRIO_HEDGE:
            on_hedge(pos, when)
        else:
            on_complete(key, when)

    for machine in machines:
        machine.machine.advance(_INF)
    for pos in range(n):
        if status[pos] == _PENDING and (
            (hedging and hedged[pos]) or not resolve(pos, primary_launch(pos), _INF)
        ):
            raise stall(_INF, f"request at trace position {pos} never completed")

    ids = trace.id_column()
    decode_column = trace.decode_column()
    cap = config.record_requests
    live_ends = []
    for machine in machines:
        header = result_header(machine.engine, scheduler.name, trace.name, result.offered_rate_rps)
        replica_result, ends = machine.result(header, ids, decode_column, cap)
        result.replicas.append(replica_result)
        live_ends.append(ends)

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
        after = live_ends[window.replica]
        after = after[after >= window.end_s]
        if after.size:
            recovery = max(recovery, float(after.min()) - window.end_s)
    result.time_to_recovery_s = recovery
    result.backend_used = "columnar-faulted"
    return apply_static_lifecycle(result)
