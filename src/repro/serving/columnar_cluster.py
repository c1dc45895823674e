"""Columnar fast path for the multi-replica cluster router.

The reference router (:meth:`~repro.serving.cluster.ClusterRouter.run`)
already advances arrivals with a cursor over the trace columns; this module
removes the per-event Python heap entirely on the **no-fault / no-retry /
no-hedge rail**:

1. **Routing pass** — admission decisions are computed in columns.
   Round-robin without shedding is closed form (``i mod R``: the cursor
   advances once per arrival, shed or not).  Least-loaded, power-of-two, and
   any shedding configuration replay the scalar router's
   :meth:`~repro.serving.cluster._Replica.est_delay_s` against per-replica
   *virtual clock machines*: tiny recurrences over (host_free, accel_free,
   pending decode steps) that replay each scheduler's launch times without
   scheduler objects, ``Request`` objects, or heap events.  Two registers
   keep the per-arrival probes cheap: ``next_t``, the machine's next launch
   time (``inf`` when idle), lets a probe skip a machine with no launch
   due; ``horizon``, the busy horizon ``max(host_free, accel_free)``,
   replaces the reference's walk over a per-device dict.  One launch loop
   per scheduler kind (fifo, continuous, static/dynamic) keeps the
   registers in locals while it runs.
2. **Serving pass** — each replica's admitted sub-stream is a column slice
   of the trace, fed through the existing per-scheduler columnar kernels of
   :mod:`repro.serving.columnar`.  The only cluster-specific wrinkle is the
   *global* ``arrivals_pending`` flag: static/dynamic batching hold a
   partial final batch until the whole trace's last arrival has been
   drained, which the kernels model with their ``more_until`` horizon.
3. **Assembly** — per-replica results and cluster records are rebuilt in
   the reference router's exact orders (records by ``(admitted_s, id)``,
   accounting folded in launch order), so the result is **bit-identical**
   to the reference event loop: same ``ClusterResult``, same float
   accumulations, same capped/streaming blocks.

Two rails share the module.  The closed forms above serve the
**no-fault / no-retry** case; fault schedules that actually perturb the run
(crash / accel-loss / straggler windows) and timeout retries ride the
**fault-capable replay** (:func:`run_fast_faulted`): a minimal event heap
holding only fault transitions and retry timers, per-replica
:class:`_SimReplica` machines that launch lazily, and lazily-resolved
completions, with all accounting folded vectorized at assembly.
:func:`fast_path_fallback_reason` names the only remaining fallback
conditions — autoscaling, hedged dispatch, and custom registered
policies/schedulers — and :meth:`~repro.serving.cluster.ClusterRouter.run`
falls back to the reference event loop automatically (silently, with the
reason recorded on the result).

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
During routing the global arrival stream is never exhausted, so static
batching never flushes a partial batch inside the machines.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.errors import ServingError
from repro.hardware.device import DeviceKind
from repro.hardware.platform import get_platform
from repro.serving.columnar import _Run, _running_total, kernel_for
from repro.serving.cost import BatchCostModel
from repro.serving.engine import resolve_serving_target
from repro.serving.metrics import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    ClusterRequestRecord,
    ClusterResult,
    RequestRecord,
    ServingResult,
    apply_static_lifecycle,
    sample_record_indices,
    streaming_stats,
)
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    DynamicBatchScheduler,
    FIFOScheduler,
    StaticBatchScheduler,
    get_scheduler,
)
from repro.serving.trace import RequestTrace

_BUILTIN_SCHEDULERS = (
    FIFOScheduler,
    StaticBatchScheduler,
    DynamicBatchScheduler,
    ContinuousBatchScheduler,
)


def fast_path_fallback_reason(config, policy, scheduler) -> "str | None":
    """Why this cluster run must take the reference event loop, or ``None``.

    Everything here mirrors a documented fallback condition: the README's
    "rail conditions" list and the fallback test battery enumerate exactly
    these knobs.  Fault windows, stragglers, and timeout retries are *not*
    fallback conditions anymore — they ride the fault-capable replay
    (:func:`run_fast_faulted`); only autoscaling, hedging, and custom
    registered policies/schedulers still route to the reference loop.  The
    returned string is surfaced as ``ClusterResult.fast_path_fallback_reason``
    so a silent fallback is diagnosable from the CLI.
    """
    from repro.serving.cluster import (
        LeastLoadedPolicy,
        PowerOfTwoPolicy,
        RoundRobinPolicy,
    )

    if config.autoscale is not None:
        return "autoscale set (elastic lifecycle runs in the event loop)"
    if config.hedge_after_s is not None:
        return "hedge_after_s set (hedged dispatch is not replayed in columns)"
    if type(policy) not in (RoundRobinPolicy, LeastLoadedPolicy, PowerOfTwoPolicy):
        return f"custom policy {type(policy).__name__} ({policy.name!r})"
    if type(scheduler) not in _BUILTIN_SCHEDULERS:
        return f"custom scheduler {type(scheduler).__name__} ({scheduler.name!r})"
    if kernel_for(scheduler) is None:
        return f"scheduler {scheduler.name!r} declares no columnar kernel"
    return None


def needs_faulted_path(config, injector) -> bool:
    """Does this run need the event-replaying faulted rail (vs the closed
    forms)?  True when the drawn schedule perturbs anything or timeouts can
    re-route work; the check is semantic, so a fault profile that yields no
    windows and no stragglers still takes the cheaper no-fault rail.
    """
    return config.timeout_s is not None or injector.schedule.perturbs


# -- routing pass -------------------------------------------------------------

#: a machine's ``next_t`` when nothing can launch.
_INF = float("inf")


class _Machine:
    """Virtual clock of one replica: replays launch times and queue-delay
    estimates without a scheduler object or heap events.

    State is what :meth:`_Replica.est_delay_s` reads — the busy ``horizon``
    and the scheduler's pending decode steps — plus the occupancy registers
    the reference ``launch()`` arithmetic moves (``host_free`` and one
    ``accel_free`` float: a replica serves one engine, so its accelerator
    work always queues on that engine's target) and the admitted queue
    (admit time, steps).  ``next_t`` holds the next launch time (``inf`` when
    nothing can launch), recomputed only on :meth:`admit` and after a
    launch, so ``advance(T)`` is a no-op unless a launch is due strictly
    before ``T`` and callers skip idle probes with ``if m.next_t < T``.  A
    delay probe at an arrival time then sees the same registers as the
    scalar router's policy does.

    One subclass per scheduler kind supplies :meth:`admit` (re-arming
    ``next_t``) and :meth:`advance` (the launch loop over locals).
    """

    __slots__ = (
        "index",
        "max_batch",
        "target",
        "_table",
        "_rows",
        "unit_total_s",
        "next_t",
        "host_free",
        "accel_free",
        "horizon",
        "ready_s",
        "pending_steps",
        "q_admit",
        "q_steps",
        "head",
    )

    def __init__(self, index: int, engine, max_batch: int):
        self.index = index
        self.max_batch = max_batch
        self.target = engine.costs.target
        self._table = engine.costs.cost_table(max_batch)
        self._rows: list = [None] * (max_batch + 1)
        self.unit_total_s = self._row(1)[2]
        self.next_t = _INF
        self.host_free = 0.0
        self.accel_free = 0.0
        #: ``max(host_free, accel_free)``, refreshed after every launch loop.
        #: Both registers only grow on this rail (no crash resets them), so
        #: this is also the running max of every write — the reference's
        #: ``accel_free`` dict walk, without the walk.
        self.horizon = 0.0
        #: end of the last barrier launch (fifo and continuous batching).
        self.ready_s = 0.0
        self.pending_steps = 0
        self.q_admit: list[float] = []
        self.q_steps: list[int] = []
        self.head = 0

    def _row(self, size: int) -> tuple:
        """``(host_s, accel_s, total_s, has_accel)`` of a ``size`` batch,
        read from the shared cost table once and cached per machine."""
        row = self._rows[size]
        if row is None:
            cost = self._table.row(size)
            # the single accel_free float stands for the reference's dict,
            # which holds one key only while every row queues on one target.
            assert cost.target == self.target, (cost.target, self.target)
            row = self._rows[size] = (cost.host_s, cost.accel_s, cost.total_s, cost.has_accel)
        return row

    def est_delay_s(self, now: float) -> float:
        """Verbatim :meth:`_Replica.est_delay_s` over the machine registers."""
        delay = self.horizon - now
        if delay < 0.0:
            delay = 0.0
        return delay + self.pending_steps * self.unit_total_s

    def _settle(self, host_free: float, accel_free: float, head: int) -> None:
        """Store a launch loop's occupancy and queue registers."""
        self.host_free = host_free
        self.accel_free = accel_free
        self.horizon = accel_free if accel_free > host_free else host_free
        if head >= 8192:  # amortized queue compaction
            del self.q_admit[:head]
            del self.q_steps[:head]
            head = 0
        self.head = head


def _occupy(row: tuple, cursor: float, iterations: int, host_free: float, accel_free: float):
    """The reference ``launch()`` occupancy arithmetic, verbatim (straggler
    multiplier omitted: it is exactly 1.0 on this rail).  Returns the
    dispatch end and the new ``(host_free, accel_free)``."""
    host_s, accel_s, total_s, has_accel = row
    if has_accel:
        for _ in range(iterations):
            host_free = cursor + host_s
            # max(host_end, accel_free) == host_end: the accelerator is
            # idle by the time the host part ends.
            if accel_free <= host_free:
                cursor = cursor + total_s
            else:
                cursor = accel_free + accel_s
            accel_free = cursor
        return cursor, host_free, accel_free
    for _ in range(iterations):
        cursor = cursor + total_s
    return cursor, cursor, accel_free


class _FifoMachine(_Machine):
    """One request per dispatch, all its decode steps; barrier launches."""

    __slots__ = ()

    def admit(self, when: float, steps: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        if self.head == len(self.q_admit):
            ready = self.ready_s
            self.next_t = when if when > ready else ready
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.pending_steps += steps

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        t = self.next_t
        if not t < until:
            return
        q_admit = self.q_admit
        q_steps = self.q_steps
        head = self.head
        tail = len(q_admit)
        host_s, accel_s, total_s, has_accel = self._rows[1]  # priced in __init__
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        while t < until:
            steps = q_steps[head]
            head += 1
            pending -= steps
            # _occupy, inlined
            cursor = t if t > host_free else host_free
            if has_accel:
                for _ in range(steps):
                    host_free = cursor + host_s
                    if accel_free <= host_free:
                        cursor = cursor + total_s
                    else:
                        cursor = accel_free + accel_s
                    accel_free = cursor
            else:
                for _ in range(steps):
                    cursor = cursor + total_s
                host_free = cursor
            # barrier: the next request launches once this one has ended.
            if head < tail:
                t = q_admit[head]
                if cursor > t:
                    t = cursor
            else:
                t = _INF
        self.ready_s = cursor
        self.next_t = t
        self.pending_steps = pending
        self._settle(host_free, accel_free, head)


class _ContinuousMachine(_Machine):
    """Iteration-level batching: every launch is one decode iteration over
    the in-flight set, topped up from the queue; barrier launches.

    In-flight requests are counts keyed by the iteration they finish on, so
    a launch touches only the requests joining or leaving the batch.
    """

    __slots__ = ("in_flight", "iteration", "done_at")

    def __init__(self, index: int, engine, max_batch: int):
        super().__init__(index, engine, max_batch)
        self.in_flight = 0
        self.iteration = 0
        self.done_at: dict[int, int] = {}

    def admit(self, when: float, steps: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        if not self.in_flight and self.head == len(self.q_admit):
            ready = self.ready_s
            self.next_t = when if when > ready else ready
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.pending_steps += steps

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        t = self.next_t
        if not t < until:
            return
        q_admit = self.q_admit
        q_steps = self.q_steps
        head = self.head
        tail = len(q_admit)
        max_batch = self.max_batch
        rows = self._rows
        done_at = self.done_at
        in_flight = self.in_flight
        iteration = self.iteration
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        while t < until:
            take = max_batch - in_flight
            if take > tail - head:
                take = tail - head
            if take > 0:
                # a request joining at this iteration runs its last step
                # ``steps - 1`` iterations later.
                last = iteration - 1
                for steps in q_steps[head : head + take]:
                    finish = last + steps
                    done_at[finish] = done_at.get(finish, 0) + 1
                head += take
                in_flight += take
            row = rows[in_flight] or self._row(in_flight)
            pending -= in_flight
            # _occupy for one iteration, inlined
            cursor = t if t > host_free else host_free
            host_s, accel_s, total_s, has_accel = row
            if has_accel:
                host_free = cursor + host_s
                if accel_free <= host_free:
                    cursor = cursor + total_s
                else:
                    cursor = accel_free + accel_s
                accel_free = cursor
            else:
                cursor = cursor + total_s
                host_free = cursor
            in_flight -= done_at.pop(iteration, 0)
            iteration += 1
            # barrier: the next iteration starts once this one has ended.
            if in_flight:
                t = cursor
            elif head < tail:
                t = q_admit[head]
                if cursor > t:
                    t = cursor
            else:
                t = _INF
        self.ready_s = cursor
        self.next_t = t
        self.in_flight = in_flight
        self.iteration = iteration
        self.pending_steps = pending
        self._settle(host_free, accel_free, head)


class _BatchMachine(_Machine):
    """Static and dynamic batching: a full batch launches once its last
    member is admitted and the host is free; dynamic batching also flushes
    a partial batch ``max_wait_s`` after its head arrived.  Static batching
    (``max_wait_s`` is ``None``) flushes a partial batch only once the whole
    trace has arrived, which never happens during routing."""

    __slots__ = ("max_wait_s",)

    def __init__(self, index: int, engine, max_batch: int, max_wait_s: "float | None"):
        super().__init__(index, engine, max_batch)
        self.max_wait_s = max_wait_s

    def admit(self, when: float, steps: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.pending_steps += steps
        queued = len(self.q_admit) - self.head
        if queued == self.max_batch:
            t = when  # the batch just filled
        elif queued == 1 and self.max_wait_s is not None:
            t = when + self.max_wait_s
        else:
            return  # the head, and so the next launch, is unchanged
        host_free = self.host_free
        self.next_t = t if t > host_free else host_free

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        t = self.next_t
        if not t < until:
            return
        q_admit = self.q_admit
        q_steps = self.q_steps
        head = self.head
        tail = len(q_admit)
        max_batch = self.max_batch
        max_wait_s = self.max_wait_s
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        while t < until:
            size = tail - head
            if size > max_batch:
                size = max_batch
            members = q_steps[head : head + size]
            head += size
            pending -= sum(members)
            cursor = t if t > host_free else host_free
            _, host_free, accel_free = _occupy(
                self._row(size), cursor, max(members), host_free, accel_free
            )
            # non-barrier: the next batch may launch as soon as the host is
            # free, while this one still runs on the accelerator.
            queued = tail - head
            if queued >= max_batch:
                t = q_admit[head + max_batch - 1]
            elif queued and max_wait_s is not None:
                t = q_admit[head] + max_wait_s
            else:
                t = _INF
            if host_free > t:
                t = host_free
        self.next_t = t
        self.pending_steps = pending
        self._settle(host_free, accel_free, head)


def _machines(config, engines) -> list:
    """One routing machine per replica, of the scheduler's kind."""
    kind = type(get_scheduler(config.scheduler)).__dict__["columnar_kernel"]
    max_batch = config.max_batch
    if kind in ("static", "dynamic"):
        max_wait_s = config.max_wait_s if kind == "dynamic" else None
        return [
            _BatchMachine(index, engine, max_batch, max_wait_s)
            for index, engine in enumerate(engines)
        ]
    machine = _FifoMachine if kind == "fifo" else _ContinuousMachine
    return [machine(index, engine, max_batch) for index, engine in enumerate(engines)]


def _route(config, engines, trace: RequestTrace, policy, rng) -> np.ndarray:
    """Assign every arrival to a replica index (``-1``: shed).

    Sequential in trace order — exactly the drain order of the reference
    loop — with the policy's own state transitions: the round-robin cursor
    advances even on shed arrivals (``choose`` runs before the shed check),
    and power-of-two draws from the seeded generator once per arrival.
    Every probe first advances its machine to the arrival (admissions at
    time T strictly precede launches at T), skipping machines with no
    launch due.
    """
    from repro.serving.cluster import LeastLoadedPolicy, RoundRobinPolicy

    n = trace.num_requests
    num_replicas = len(engines)
    shed_s = config.shed_queue_s
    round_robin = type(policy) is RoundRobinPolicy
    if round_robin and shed_s is None:
        return np.arange(n, dtype=np.int64) % num_replicas

    machines = _machines(config, engines)
    arrivals = trace.arrival_column().tolist()
    steps = trace.decode_column().tolist()
    assigned = [-1] * n
    if round_robin:
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


# -- serving pass -------------------------------------------------------------


def _empty_replica_result(
    engine, scheduler_name: str, config, platform_id: str, trace_name: str, rate: float
) -> ServingResult:
    """A replica that admitted nothing, in the reference's exact shape."""
    result = ServingResult(
        model=config.model,
        flow=engine.flow.name,
        platform_id=platform_id,
        device=engine.target.value,
        scheduler=scheduler_name,
        trace=trace_name,
        offered_rate_rps=rate,
        busy_s={spec.kind: 0.0 for spec in engine.platform.devices},
        energy_j={spec.kind: 0.0 for spec in engine.platform.devices},
    )
    if config.record_requests is not None:
        empty = np.zeros(0, dtype=np.float64)
        result.stats = streaming_stats(empty, empty)
        result.num_served = 0
        result.record_cap = config.record_requests
    return result


def _serve_replica(
    engine, config, trace: RequestTrace, indices: np.ndarray, more_until: float, rate: float
) -> "tuple[ServingResult, np.ndarray]":
    """Run one replica's admitted sub-stream through its columnar kernel.

    Returns the per-replica :class:`ServingResult` (in the reference
    router's record order and capping shape) and the completion column in
    sub-stream (trace) order for cluster-level scatter.
    """
    sub = RequestTrace(
        trace.name,
        arrival_s=trace.arrival_column()[indices],
        decode_steps=trace.decode_column()[indices],
        request_ids=trace.id_column()[indices],
    )
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    run = _Run(engine, sub, scheduler)
    run.cap = config.record_requests
    run.full = run.cap is None
    kernel_for(scheduler)(run, more_until=more_until)

    # the reference router lists a replica's records by (admitted_s, id) —
    # identical to sub-stream order except when equal-time arrivals carry
    # out-of-order ids, so order stats and records through the permutation.
    perm = np.lexsort((sub.id_column(), run.arrival))
    result = ServingResult(
        model=config.model,
        flow=engine.flow.name,
        platform_id=engine.config.platform,
        device=engine.target.value,
        scheduler=scheduler.name,
        trace=trace.name,
        offered_rate_rps=rate,
    )
    result.makespan_s = float(run.completion.max()) - float(run.arrival[0])
    result.num_dispatches = run.dispatches
    result.num_iterations = run.iterations
    result.mean_batch_size = run.weighted / run.iterations if run.iterations else 0.0
    result.busy_s = run.busy
    result.energy_j = run.energy
    result.gemm_busy_s = run.gemm
    result.non_gemm_busy_s = run.non_gemm
    if run.full:
        result.records = run._records(perm)
        result.queue_depth_timeline = tuple(run.timeline)
    else:
        # metrics.cap_serving_result's arithmetic, fed from columns in the
        # reference's record order.
        result.stats = streaming_stats(
            run.completion[perm] - run.arrival[perm],
            run.start[perm] - run.arrival[perm],
            depth_samples=run.depth_count,
            depth_sum=run.depth_sum,
            depth_max=run.depth_max,
        )
        result.num_served = run.n
        result.record_cap = run.cap
        result.records = run._records(perm[sample_record_indices(run.n, run.cap)])
    return result, run.completion


# -- entry point --------------------------------------------------------------


def run_fast_cluster(
    router, trace: RequestTrace, result: ClusterResult, policy, policy_rng
) -> ClusterResult:
    """Serve ``trace`` through the fleet on the columnar rail.

    ``result`` is the pre-populated :class:`ClusterResult` shell from
    :meth:`ClusterRouter.run`; the caller has already verified that
    :func:`fast_path_fallback_reason` is ``None``.  Bit-identical to the
    reference event loop.
    """
    config = router.config
    engines = router.engines
    n = trace.num_requests
    arrivals = trace.arrival_column()
    rate = result.offered_rate_rps
    result.backend_used = "columnar"

    assigned = _route(config, engines, trace, policy, policy_rng)
    more_until = float(arrivals[-1])

    scheduler_name = get_scheduler(config.scheduler).name
    completion_all = np.empty(n, dtype=np.float64)
    for index, engine in enumerate(engines):
        indices = np.nonzero(assigned == index)[0]
        if indices.size == 0:
            result.replicas.append(
                _empty_replica_result(
                    engine, scheduler_name, config, config.platforms[index],
                    trace.name, rate,
                )
            )
            continue
        replica_result, completions = _serve_replica(
            engine, config, trace, indices, more_until, rate
        )
        result.replicas.append(replica_result)
        completion_all[indices] = completions

    ok_mask = assigned >= 0
    num_ok = int(ok_mask.sum())
    result.num_shed = n - num_ok
    if num_ok:
        result.makespan_s = float(completion_all[ok_mask].max()) - float(arrivals[0])

    cap = config.record_requests
    if cap is None:
        keep = np.arange(n, dtype=np.int64)
    else:
        # metrics.cap_cluster_result's counters and streaming block, fed
        # from columns (trace order, completed requests only) — the full
        # record list is never materialized.
        latencies = completion_all[ok_mask] - arrivals[ok_mask]
        result.stats = streaming_stats(latencies)
        result.num_requests_total = n
        result.num_completed = num_ok
        if config.deadline_s is None:
            result.num_good = num_ok
        else:
            result.num_good = int((latencies <= config.deadline_s).sum())
        result.record_cap = cap
        keep = sample_record_indices(n, cap)

    ids_kept = trace.id_column()[keep].tolist()
    arrivals_kept = arrivals[keep].tolist()
    replicas_kept = assigned[keep].tolist()
    completions_kept = completion_all[keep].tolist()
    records = []
    for request_id, arrival_s, replica, completion_s in zip(
        ids_kept, arrivals_kept, replicas_kept, completions_kept
    ):
        if replica < 0:
            records.append(
                ClusterRequestRecord(
                    request_id, arrival_s, None, REQUEST_SHED, -1, 0, False, False
                )
            )
        else:
            records.append(
                ClusterRequestRecord(
                    request_id, arrival_s, completion_s, REQUEST_OK, replica,
                    1, False, False,
                )
            )
    result.records = records
    # the columnar rails only serve fixed fleets (autoscale falls back),
    # so the lifecycle fields are the static single-step form.
    return apply_static_lifecycle(result)


# -- fault-capable replay (Route B) -------------------------------------------
#
# Crash / accelerator-loss / straggler windows and timeout retries re-route
# work at event times the closed forms above cannot see, so this rail keeps a
# tiny event heap — but only for the *rare* events (fault transitions, retry
# timers, the arrival cursor).  Completions are resolved lazily (no heap
# events), dispatches launch lazily inside the per-replica machines, and all
# accounting folds vectorized at assembly in the reference's completion-pop
# order.  Every float is produced by the same IEEE operations in the same
# order as the reference loop, so results stay bit-identical.

#: event priorities, mirroring the reference heap's canonical order at equal
#: times (completions, priority 1, are resolved lazily and never enqueued).
_PRIO_FAULT = 0
_PRIO_ARRIVE = 2
_PRIO_RETRY = 3

_PENDING = 0
_ST_OK = 1
_ST_SHED = 2
_ST_FAILED = 3
_STATUS_NAMES = {_ST_OK: REQUEST_OK, _ST_SHED: REQUEST_SHED, _ST_FAILED: REQUEST_FAILED}


class _SimReplica:
    """Virtual replica for the faulted rail: the launch recurrences of the
    routing machines (:class:`_Machine`) extended with everything faults and
    retries touch — straggler multipliers, the accel-loss cost-table swap,
    crash resets, queued-copy cancellation, the post-drain flush rule, and
    per-request bookkeeping (admit times, first starts, depth samples,
    dispatch log).  Crash resets move ``host_free`` back to zero, so the
    delay probe here walks the occupancy registers instead of keeping a
    running ``horizon``.

    The dispatch log is columnar (parallel ``log_*`` lists, one entry per
    launch) holding only the fold *inputs* — end time, size, iterations,
    straggler multiplier, which cost table priced it, and which trace
    positions complete; the per-device second/joule deltas are
    reconstructed in columns at assembly, in completion order.

    ``started``, ``live_end``, ``status``, ``completion``, and ``winner``
    are arrays shared with the router closures: one live copy exists per
    request (no hedging on this rail), so a request's launch state and
    completion live in per-request slots rather than per-copy objects.
    Machines the schedule never crashes resolve their completions at
    materialization time (a launched dispatch there is final); machines
    with crash windows leave resolution to the router's lazy checks, since
    a later crash can still cancel an apparently-complete dispatch.
    """

    __slots__ = (
        "index",
        "kind",
        "max_batch",
        "max_wait_s",
        "engine",
        "cache",
        "injector",
        "table",
        "fallback_table",
        "active",
        "_unit_s",
        "down",
        "accel_down",
        "has_crash",
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
        "depth_samples",
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
    )

    def __init__(
        self, index, engine, kind, max_batch, max_wait_s, injector, cache,
        has_crash, started, live_end, status, completion, winner,
    ):
        self.index = index
        self.kind = kind
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.engine = engine
        self.cache = cache
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
        self.depth_samples: list[tuple[float, int]] = []
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
        self.admitted[pos] = when
        self.depth_samples.append((when, len(self.q_admit) - self.head))

    def cancel_queued(self, pos: int) -> None:
        """Withdraw an un-started copy (the reference's scheduler.cancel,
        which always succeeds for queued work)."""
        i = self.q_pos.index(pos, self.head)
        self.pending_steps -= self.q_steps[i]
        del self.q_admit[i]
        del self.q_steps[i]
        del self.q_pos[i]

    # -- fault transitions -------------------------------------------------

    def set_accel_down(self, flag: bool) -> None:
        self.accel_down = flag
        self._unit_s = None
        if not flag:
            self.active = self.table
            return
        if self.fallback_table is None:
            engine = self.engine
            if engine.target is DeviceKind.CPU:
                self.fallback_table = self.table
            else:
                platform, target = resolve_serving_target(
                    get_platform(engine.config.platform), DeviceKind.CPU
                )
                self.fallback_table = BatchCostModel(
                    model=engine.config.model,
                    flow=engine.flow,
                    platform=platform,
                    target=target,
                    seq_len=engine.config.seq_len,
                    cache=self.cache,
                ).cost_table(self.max_batch)
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
                    self.flight_pos.extend(self.q_pos[self.head : stop])
                    self.flight_rem.extend(self.q_steps[self.head : stop])
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
        for pos in members:
            if pos not in starts:
                starts[pos] = start
            started[pos] = True
        if self.has_crash:
            self.open.append(len(self.log_cancelled))
            self.log_cancelled.append(False)
            live_end = self.live_end
            for pos in completes:
                live_end[pos] = end
        else:
            # this machine never crashes, so a materialized dispatch is
            # final: resolve its completions now.  The outcome is the same
            # one the lazy path (or the reference's completion pop) would
            # produce; later retry timers for these requests exit at the
            # status check.
            status = self.status
            completion = self.completion
            winner = self.winner
            index = self.index
            for pos in completes:
                status[pos] = _ST_OK
                completion[pos] = end
                winner[pos] = index
        self.depth_samples.append((start, len(self.q_admit) - self.head))
        if self.head >= 8192:  # amortized queue compaction
            del self.q_admit[: self.head]
            del self.q_steps[: self.head]
            del self.q_pos[: self.head]
            self.head = 0

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
    router, trace: RequestTrace, result: ClusterResult, policy, policy_rng, injector
) -> ClusterResult:
    """Serve ``trace`` through the fleet with faults/retries on the columnar
    rail.

    ``result`` is the pre-populated shell from :meth:`ClusterRouter.run` and
    ``injector`` the run's already-built fault injector.  The event heap
    holds only fault transitions and retry timers; arrivals stay a cursor
    over the trace columns, launches replay inside :class:`_SimReplica`
    machines, and completions are resolved lazily — a request's fate is
    decided by its live dispatch record the first time an event (or the
    final sweep) looks at it, exactly as the reference's completion events
    would have decided it.  Bit-identical to the reference event loop.
    """
    config = router.config
    n = trace.num_requests
    arrival_times = trace.arrival_column().tolist()
    decode_counts = trace.decode_column().tolist()
    kind = type(get_scheduler(config.scheduler)).__dict__["columnar_kernel"]

    started = [False] * n
    live_end: list = [None] * n
    status = [_PENDING] * n
    attempts = [0] * n
    timeouts: list = [config.timeout_s] * n
    live_replica: list = [None] * n
    lost = [False] * n
    completion: list = [None] * n
    winner = [-1] * n
    crash_replicas = injector.schedule.crash_replicas()
    machines = [
        _SimReplica(
            index, engine, kind, config.max_batch, config.max_wait_s,
            injector, router.cache, index in crash_replicas, started, live_end,
            status, completion, winner,
        )
        for index, engine in enumerate(router.engines)
    ]
    counters = {"shed": 0, "failed": 0, "retries": 0}

    heap: list = []
    #: retry timers whose fire times arrive in nondecreasing order (the
    #: common case: every first admission arms ``arrival + timeout_s``).
    #: Kept out of the heap — the event loop merges deque, heap, and the
    #: arrival cursor by the same (time, prio, seq) tuples a single heap
    #: would order, so processing order is unchanged.
    timer_q: deque = deque()
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
        cancellation check."""
        end = live_end[pos]
        if end is not None and end <= when and not lost[pos]:
            status[pos] = _ST_OK
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

    # advancing a machine is observable only through est_delay_s probes
    # (launch outcomes are pure functions of machine state), so policies
    # that never probe skip the pre-choose advancement entirely — the
    # chosen machine still advances inside admit().
    probes_load = getattr(type(policy), "probes_load", True)
    #: replicas not currently crashed; rebuilt only on fault transitions.
    alive = list(machines)

    def route_primary(pos: int, when: float) -> None:
        if attempts[pos] >= 1 + config.max_retries:
            status[pos] = _ST_FAILED
            counters["failed"] += 1
            return
        previous = live_replica[pos]
        candidates = [m for m in alive if m.index != previous] or alive
        if not candidates:
            if timeouts[pos] is None:
                raise stall(when, "no alive replica and no timeout to wait on")
            push(when + timeouts[pos], _PRIO_RETRY, pos)
            return
        if attempts[pos] >= 1:
            counters["retries"] += 1
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
                status[pos] = _ST_SHED
                counters["shed"] += 1
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
                status[pos] = _ST_SHED
                counters["shed"] += 1
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
        if resolve(pos, when):
            return
        if holder is None or lost[pos] or holder.down:
            route_primary(pos, when)
            return
        if not started[pos]:
            holder.cancel_queued(pos)
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
                    if live_replica[pos] != machine.index or status[pos] != _PENDING:
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

    # -- the event loop ----------------------------------------------------

    arrive_index = 0
    while True:
        # the next non-arrival event: smallest (time, prio, seq) across the
        # monotone timer deque and the heap.
        head = timer_q[0] if timer_q else None
        from_heap = head is None or (heap and heap[0] < head)
        if from_heap:
            head = heap[0] if heap else None
        if arrive_index < n:
            arrival_s = arrival_times[arrive_index]
            # merge the arrival cursor against the event head: comparing
            # (time, prio) reproduces the reference heap's processing order.
            if head is None or (arrival_s, _PRIO_ARRIVE) < (head[0], head[1]):
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
        if from_heap:
            when, prio, _, pos = heapq.heappop(heap)
        else:
            when, prio, _, pos = timer_q.popleft()
        events += 1
        if events > max_events:
            raise stall(when, f"no progress after {max_events} events")
        if prio == _PRIO_FAULT:
            on_fault(when)
        else:
            on_retry(pos, when)

    for machine in machines:
        machine.advance(float("inf"))
    for pos in range(n):
        if status[pos] != _PENDING:
            continue
        end = live_end[pos]
        if end is None or lost[pos]:
            raise stall(
                float("inf"), f"request at trace position {pos} never completed"
            )
        status[pos] = _ST_OK
        completion[pos] = end
        winner[pos] = live_replica[pos]

    # -- assembly (reference aggregate orders, vectorized folds) -----------

    ids_list = trace.id_column().tolist()
    cap = config.record_requests
    for machine in machines:
        ends = np.asarray(machine.log_end, dtype=np.float64)
        sizes = np.asarray(machine.log_size, dtype=np.int64)
        iters = np.asarray(machine.log_iter, dtype=np.int64)
        mults = np.asarray(machine.log_mult, dtype=np.float64)
        log_completes = machine.log_completes
        if machine.log_cancelled:
            # only crash-capable machines maintain the cancellation column;
            # everywhere else the whole log is live.
            keep = ~np.asarray(machine.log_cancelled, dtype=bool)
            ends = ends[keep]
            sizes = sizes[keep]
            iters = iters[keep]
            mults = mults[keep]
            log_completes = [
                c for c, k in zip(log_completes, keep.tolist()) if k
            ]
        # per-replica accounting folds at completion-pop order: stable sort
        # by end time over the launch-ordered log.
        order = np.argsort(ends, kind="stable")
        fallback_table = machine.fallback_table
        use_fb = fallback_table is not None and fallback_table is not machine.table
        if use_fb:
            fb = np.asarray(machine.log_fb, dtype=bool)
            if machine.log_cancelled:
                fb = fb[keep]
            use_fb = bool(fb.any())

        def fold(base_col, fb_col) -> float:
            vals = base_col[sizes]
            if use_fb:
                # device kinds the cpu-only fallback platform lacks
                # contribute exact 0.0 terms — bit-neutral in the fold.
                alt = np.zeros(sizes.size) if fb_col is None else fb_col[sizes]
                vals = np.where(fb, alt, vals)
            return _running_total(((vals * mults) * iters)[order])

        table = machine.table
        busy = {
            dev_kind: fold(
                col, fallback_table.busy_s.get(dev_kind) if use_fb else None
            )
            for dev_kind, col in table.busy_s.items()
        }
        energy = {
            dev_kind: fold(
                col, fallback_table.energy_j.get(dev_kind) if use_fb else None
            )
            for dev_kind, col in table.energy_j.items()
        }
        gemm = fold(table.gemm_s, fallback_table.gemm_s if use_fb else None)
        non_gemm = fold(table.non_gemm_s, fallback_table.non_gemm_s if use_fb else None)

        completions: dict[int, tuple[float, int]] = {}
        ends_list = ends.tolist()
        sizes_list = sizes.tolist()
        for i in order.tolist():
            entry = (ends_list[i], sizes_list[i])
            for pos in log_completes[i]:
                completions[pos] = entry
        admitted = machine.admitted
        # the reference router lists a replica's records by (admitted, id).
        order_pos = sorted(completions, key=lambda p: (admitted[p], ids_list[p]))

        def record_for(pos: int) -> RequestRecord:
            return RequestRecord(
                request_id=ids_list[pos],
                arrival_s=admitted[pos],
                start_s=machine.starts[pos],
                completion_s=completions[pos][0],
                decode_steps=decode_counts[pos],
                batch_size=completions[pos][1],
            )

        makespan = 0.0
        if order_pos:
            makespan = max(completions[p][0] for p in order_pos) - min(
                admitted[p] for p in order_pos
            )
        engine = machine.engine
        replica_result = ServingResult(
            model=config.model,
            flow=engine.flow.name,
            platform_id=config.platforms[machine.index],
            device=engine.target.value,
            scheduler=get_scheduler(config.scheduler).name,
            trace=trace.name,
            offered_rate_rps=result.offered_rate_rps,
            makespan_s=makespan,
            num_dispatches=int(ends.size),
            num_iterations=int(iters.sum()),
            mean_batch_size=(
                int((sizes * iters).sum()) / int(iters.sum())
                if ends.size
                else 0.0
            ),
            busy_s=busy,
            energy_j=energy,
            gemm_busy_s=gemm,
            non_gemm_busy_s=non_gemm,
        )
        if cap is None:
            replica_result.records = [record_for(pos) for pos in order_pos]
            replica_result.queue_depth_timeline = tuple(machine.depth_samples)
        else:
            # metrics.cap_serving_result's arithmetic fed from columns in
            # record order — the full record list is never materialized.
            arr_col = np.array(
                [admitted[p] for p in order_pos], dtype=np.float64
            )
            comp_col = np.array(
                [completions[p][0] for p in order_pos], dtype=np.float64
            )
            start_col = np.array(
                [machine.starts[p] for p in order_pos], dtype=np.float64
            )
            depths = [depth for _, depth in machine.depth_samples]
            replica_result.stats = streaming_stats(
                comp_col - arr_col,
                start_col - arr_col,
                depth_samples=len(depths),
                depth_sum=sum(depths),
                depth_max=max(depths) if depths else 0,
            )
            replica_result.num_served = len(order_pos)
            replica_result.record_cap = cap
            sampled = sample_record_indices(len(order_pos), cap)
            replica_result.records = [
                record_for(order_pos[i]) for i in sampled.tolist()
            ]
        result.replicas.append(replica_result)

    def cluster_record(pos: int) -> ClusterRequestRecord:
        return ClusterRequestRecord(
            request_id=ids_list[pos],
            arrival_s=arrival_times[pos],
            completion_s=completion[pos],
            status=_STATUS_NAMES[status[pos]],
            replica=winner[pos],
            attempts=attempts[pos],
            hedged=False,
            hedge_won=False,
        )

    if cap is None:
        result.records = [cluster_record(pos) for pos in range(n)]
    else:
        # metrics.cap_cluster_result's counters and streaming block, fed
        # from columns (trace order, completed requests only).
        latencies = np.array(
            [
                completion[pos] - arrival_times[pos]
                for pos in range(n)
                if status[pos] == _ST_OK
            ],
            dtype=np.float64,
        )
        result.stats = streaming_stats(latencies)
        result.num_requests_total = n
        result.num_completed = int(latencies.size)
        if config.deadline_s is None:
            result.num_good = int(latencies.size)
        else:
            result.num_good = int((latencies <= config.deadline_s).sum())
        result.record_cap = cap
        result.records = [
            cluster_record(pos)
            for pos in sample_record_indices(n, cap).tolist()
        ]
    completed = [c for c in completion if c is not None]
    if completed:
        result.makespan_s = max(completed) - arrival_times[0]
    result.num_shed = counters["shed"]
    result.num_failed = counters["failed"]
    result.num_retries = counters["retries"]
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
