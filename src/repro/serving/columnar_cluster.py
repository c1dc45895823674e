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
resolve lazily, and all accounting folds vectorized at assembly.  It asks
any policy through ``policy.choose`` with the layers as candidates (see
:class:`~repro.serving.cluster.AdmissionPolicy`).

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


class _SimReplica:
    """One replica of the faulted rail: the fault layer around its launch
    machine (``machine``), which owns the launch rules and the registers.

    The layer holds what faults, retries and hedging add: the crash reset,
    which also cancels the open dispatches ending at or after the crash;
    copy withdrawal; the accel-loss cost-table swap; the per-launch
    straggler draw; and the per-request bookkeeping — admit times, first
    starts, depth samples and each launch's completed trace positions —
    read off the machine's launch log after every advance (:meth:`_sync`).
    As a policy candidate it offers ``index`` and the machine's
    ``est_delay_s``.

    ``started`` and ``live_end`` are arrays shared with the router
    closures, describing each request's *primary* copy (without hedging its
    only live copy); the router resolves completions from them lazily.

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
        "index", "engine", "machine", "est_delay_s", "table", "fallback_table", "down",
        "accel_down", "has_crash", "taken", "starts", "admitted", "depth_time",
        "depth_value", "completes", "cancelled", "open_from", "fallback_marks", "draw",
        "multipliers", "started", "live_end", "attempts", "live_key", "copy_gen", "hot",
    )

    def __init__(
        self, machine, engine, injector, has_crash, started, live_end,
        attempts=None, live_key=None,
    ):
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
        #: the queue entries the synced launches took.
        self.taken = 0
        self.starts: dict[int, float] = {}
        self.admitted: dict[int, float] = {}
        #: queue-depth samples (time, depth), one per admission, launch and
        #: withdrawal, and one when a crash drops a non-empty queue.
        self.depth_time: list[float] = []
        self.depth_value: list[int] = []
        #: per launch, the trace positions it completes.
        self.completes: list = []
        #: launches a crash cancelled; launches from ``open_from`` on are
        #: ones a future crash could still cancel.
        self.cancelled: set[int] = set()
        self.open_from = 0
        #: launch indices where the accel-loss fallback table starts or
        #: stops pricing.
        self.fallback_marks: list[int] = []
        self.started = started
        self.live_end = live_end
        #: hedged runs only (``None`` otherwise): the shared attempt counts,
        #: each primary's dispatch key ``(launch time, replica, log index)``,
        #: and the copy bookkeeping described above.
        self.attempts = attempts
        self.live_key = live_key
        self.copy_gen: "dict[int, int] | None" = None if attempts is None else {}
        self.hot: set[int] = set()

    # -- driving the machine -----------------------------------------------

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        if self.machine.next_t < until:
            self.machine.advance(until)
            self._sync()

    def _sync(self) -> None:
        """Book every launch the machine logged since the last sync."""
        machine = self.machine
        first = len(self.completes)
        if first == len(machine.log_end):
            return
        log_start = machine.log_start
        log_end = machine.log_end
        # entries neither withdrawn nor dropped: the queue depth after a
        # launch is this minus the entries taken by then.
        entries = len(machine.q_pos)
        taken = self.taken
        starts = self.starts
        started = self.started
        live_end = self.live_end
        live_key = self.live_key
        copy_gen = self.copy_gen
        attempts = self.attempts
        for k, (joined, completes) in enumerate(machine.launched(first, taken), first):
            start = log_start[k]
            end = log_end[k]
            taken += len(joined)
            self.completes.append(completes)
            for pos in joined:
                starts.setdefault(pos, start)
            for pos in completes:
                live_end[pos] = end
            if copy_gen is None:
                for pos in joined:
                    started[pos] = True
            else:
                # the reference marks the copy this replica admitted last,
                # which is the primary's ``started`` only while that copy is
                # current; a launch's members are its takers, its completers
                # and (below) whatever stays in flight.
                for pos in itertools.chain(joined, completes):
                    if copy_gen[pos] == attempts[pos]:
                        started[pos] = True
                key = (start, self.index, k)
                for pos in completes:
                    live_key[pos] = key
            self.depth_time.append(start)
            self.depth_value.append(entries - taken)
        self.taken = taken
        if copy_gen is not None:
            for pos in machine.holding():
                if copy_gen[pos] == attempts[pos]:
                    started[pos] = True

    def _straggle(self, host_s: float, accel_s: float, total_s: float) -> tuple:
        """A launch's seconds under its straggler multiplier, drawn once per
        launch in launch order like the reference's (multiplying by 1.0 is
        bit-exact)."""
        multiplier = self.draw(self.index)
        self.multipliers.append(multiplier)
        return host_s * multiplier, accel_s * multiplier, total_s * multiplier

    # -- admission / withdrawal ---------------------------------------------

    def admit(self, when: float, steps: int, pos: int) -> None:
        self.advance(when)
        self.machine.admit(when, steps, pos)
        # the record's arrival is its first copy's, like its start.
        self.admitted.setdefault(pos, when)
        self.depth_time.append(when)
        self.depth_value.append(len(self.machine.q_pos) - self.taken)

    def cancel(self, pos: int, when: float) -> bool:
        """The reference ``scheduler.cancel``: withdraw an in-flight
        continuous member, else the first queued copy of ``pos``.  False
        when there is neither — a copy inside a running batch dispatch runs
        to completion.  A withdrawal takes a queue-depth sample at ``when``."""
        if not self.machine.withdraw(pos, when):
            return False
        self.depth_time.append(when)
        self.depth_value.append(len(self.machine.q_pos) - self.taken)
        return True

    # -- fault transitions -------------------------------------------------

    def set_accel_down(self, flag: bool, when: float) -> None:
        """Swap cost tables at ``when``, after the launches decided before it."""
        self.advance(when)
        self.accel_down = flag
        self.fallback_marks.append(len(self.completes))
        if flag and self.fallback_table is None:
            self.fallback_table = self.engine.fallback_costs().cost_table(self.machine.max_batch)
        self.machine.reprice(self.fallback_table if flag else self.table)

    def crash(self, when: float) -> list[int]:
        """Drop all queued and running work; returns the positions whose
        live copy may now be lost (the router applies the liveness check)."""
        self.advance(when)
        self.down = True
        queued = self.machine.q_pos[self.taken :].tolist()
        lost_now = queued + self.machine.holding()
        log_end = self.machine.log_end
        for i in range(self.open_from, len(log_end)):
            if log_end[i] >= when:
                self.cancelled.add(i)
                lost_now.extend(self.completes[i])
        self.open_from = len(log_end)
        self.machine.reset(when)
        if queued:  # the dropped queue is a depth transition
            self.depth_time.append(when)
            self.depth_value.append(0)
        return lost_now



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
    machine_cls = MACHINES[declared_kind(scheduler)]
    machines = [
        _SimReplica(
            machine_cls(index, engine, scheduler, trace), engine, injector,
            index in crash_replicas, started, live_end, attempts if hedging else None, live_key,
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
        if i in machine.cancelled:
            return  # the replica crashed before the dispatch ended
        for pos in machine.completes[i]:
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
        launched = len(first.completes)
        first.machine.step()
        first._sync()
        log_end = first.machine.log_end
        for i in range(launched, len(log_end)):
            for pos in first.completes[i]:
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
                # arrivals drained: partial batches flush from now on, after
                # every launch decided under the pre-drain rules.
                for machine in machines:
                    machine.machine.flush(arrival_s)
                    machine._sync()
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
    live_ends = []
    for machine in machines:
        log = machine.machine
        ends = np.array(log.log_end, dtype=np.float64)
        live = np.setdiff1d(np.arange(ends.size), list(machine.cancelled))
        live_ends.append(ends[live])
        # accounting folds at the reference's completion-pop order: a stable
        # sort by end time over the launch-ordered live log.
        fold_order = live[np.argsort(ends[live], kind="stable")]
        sizes, iterations = log._dispatches(decode_column[np.asarray(log.q_pos)])
        fallback = None
        fallback_table = machine.fallback_table
        if fallback_table is not None and fallback_table is not machine.table:
            mask = np.searchsorted(machine.fallback_marks, fold_order, side="right") % 2 == 1
            if mask.any():
                fallback = (fallback_table, mask)
        multipliers = 1.0
        if machine.multipliers:
            multipliers = np.array(machine.multipliers, dtype=np.float64)[fold_order]

        completions: dict[int, tuple[float, int]] = {}
        ends_list = ends.tolist()
        sizes_list = sizes.tolist()
        for i in fold_order.tolist():
            entry = (ends_list[i], sizes_list[i])
            for pos in machine.completes[i]:
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
                iterations[fold_order],
                machine.table,
                (machine.depth_time, machine.depth_value, None),
                cap,
                multipliers=multipliers,
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
        after = live_ends[window.replica]
        after = after[after >= window.end_s]
        if after.size:
            recovery = max(recovery, float(after.min()) - window.end_s)
    result.time_to_recovery_s = recovery
    result.backend_used = "columnar-faulted"
    return apply_static_lifecycle(result)
