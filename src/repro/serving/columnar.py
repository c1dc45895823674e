"""Columnar fast path: one launch machine per scheduler kind.

Each built-in scheduler's launch rules are stated once, by a *launch
machine* (:class:`_FifoMachine`, :class:`_BatchMachine`,
:class:`_ContinuousMachine`): a recurrence over occupancy registers
(``host_free``, one ``accel_free`` float) and a queue of (admit time, decode
steps, trace position), with no scheduler objects, ``Request`` objects or
heap events.  The machines serve every rail: :meth:`ServingEngine.run
<repro.serving.engine.ServingEngine.run>` (one machine, no probes), the
fault-free fleet (:func:`~repro.serving.columnar_cluster.run_fast_cluster`:
one machine per replica, probed by the admission policy) and the faulted
fleet (:func:`~repro.serving.columnar_cluster.run_fast_faulted`: one machine
per replica inside its fault layer).

Why launch times are a recurrence: the reference loop runs one decision
pass per distinct event time, after draining that time's arrivals, and a
replica launches at most one dispatch per pass.  So a machine's next launch
time is a pure function of its queue and registers — ``max(ready, head
admit)`` for fifo/continuous, ``max(host_free, cap-th admit)`` for a full
batch, ``max(host_free, head admit + max_wait)`` for a dynamic flush.

**Serving pass.**  :func:`replay` admits the trace's arrivals one by one in
arrival order, each after its machine has executed every launch decided
strictly before it (admissions at time T precede launches at T).  After the
last arrival every machine flushes — static and dynamic batching launch
partial batches from then on (the reference's ``arrivals_pending`` turning
false) — and drains.  Every launch appends one row to the machine's column
buffers.

**The log reader.**  Every machine maps each queue entry a launch took (by
``base +`` queue index, in take order) to two launches: the one that took it
and the one that completed it (none while it is in flight, or once it is
voided).  :meth:`_Machine.entries` reads every entry at once, ``finish`` one
entry, ``completed`` one launch and ``heads`` the entries taken by the end of
each launch, all from the logs the machines keep anyway: the batch sizes, or
the queue head after each launch and each entry's finishing launch.  Every
rail reads its launches there.

**Assembly.**  :meth:`_Machine.result` rebuilds the per-request columns from
the reader — each request starts at the launch that took it and completes
at the one that completed it — and the queue-depth samples by
``searchsorted`` of arrivals against launch starts (every admission precedes
the first launch starting at or after it), then hands everything to
:func:`~repro.serving.metrics.assemble_replica`, which folds the accounting
as a sequential ``np.cumsum`` (bit-identical to the reference loop's repeated
``+=``; pairwise ``np.sum`` would not be).

Bit-identity is the contract, not an aspiration: every float in a fast
result — starts, completions, busy/energy accumulators, the queue-depth
timeline — is produced by the same IEEE operations in the same order as the
reference loop, and the fast-vs-reference batteries assert full dataclass
equality over every scheduler × platform × load.

A scheduler opts into a machine by *declaring*
:attr:`~repro.serving.scheduler.BatchScheduler.columnar_kernel` in its own
class body; :func:`kernel_for` returns that kind's replay.  Any other
scheduler (a subclass that doesn't redeclare it included) rides
:class:`_CallbackMachine`, which drives the scheduler object itself at the
replica's own decision times, on every rail the built-ins ride.  With a cap
the assembler skips the timeline and the full record list: queue-depth
samples fold into count/sum/max accumulators, latencies into the streaming
quantile estimator, and only the seeded reservoir sample of records is
materialized.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array

import numpy as np

from repro.errors import ServingError
from repro.serving.metrics import ServingResult, assemble_replica
from repro.serving.scheduler import Dispatch, get_scheduler
from repro.serving.trace import Request, RequestTrace

#: a machine's ``next_t`` when nothing can launch.
_INF = float("inf")


class _Machine:
    """Virtual clock of one engine: replays its launches and queue-delay
    estimates without a scheduler object or heap events.

    State is what :meth:`_Replica.est_delay_s
    <repro.serving.cluster._Replica.est_delay_s>` reads — the busy
    ``horizon`` and the pending decode steps — plus the occupancy registers
    the reference ``launch()`` arithmetic moves and the queue.  One
    ``accel_free`` float stands for the reference's per-device dict: an
    engine's accelerator work queues on its one target, and an accel-loss
    fallback table runs on the host alone.  ``next_t`` holds the next launch
    time (``inf`` when nothing can launch), re-armed whenever the queue or
    the registers change, so ``advance(T)`` is a no-op unless a launch is
    due strictly before ``T`` and callers skip idle machines with ``if
    m.next_t < T``.

    One subclass per scheduler kind supplies :meth:`admit`, :meth:`advance`
    (the launch loop over locals, inlining the reference ``launch()``
    occupancy arithmetic and appending every launch to the column buffers)
    and ``_arm``; the log reader (:meth:`heads`, :meth:`entries`,
    :meth:`finish`, :meth:`completed`) is shared by the kinds that log
    alike.  They branch only on what a run observes: a run with stragglers
    sets ``straggle``, and every launch then scales its seconds by a drawn
    multiplier.  The faulted rail's fault layer
    (:class:`repro.serving.columnar_cluster._SimReplica`) reaches the rest:
    :meth:`withdraw`, :meth:`reset` after a crash (so ``horizon`` is the
    registers' current max, not a running one), :meth:`reprice` on an
    accelerator loss and :meth:`step` for hot hedged replicas.
    """

    __slots__ = (
        "index", "max_batch", "target", "_table", "_rows", "unit_total_s", "next_t",
        "host_free", "accel_free", "horizon", "ready_s", "pending_steps",
        "q_admit", "q_steps", "q_pos", "head", "base", "straggle", "log_start", "log_end",
    )

    def __init__(self, index: int, engine, scheduler, trace: RequestTrace):
        self.index = index
        self.max_batch = scheduler.max_batch
        self.target = engine.costs.target
        self.reprice(engine.costs.cost_table(self.max_batch))
        self.next_t = _INF
        self.host_free = 0.0
        self.accel_free = 0.0
        #: ``max(host_free, accel_free)``, refreshed after every launch loop
        #: and reset.
        self.horizon = 0.0
        #: end of the last barrier launch (fifo and continuous batching).
        self.ready_s = 0.0
        self.pending_steps = 0
        self.q_admit: list[float] = []
        self.q_steps: list[int] = []
        self.head = 0
        #: queue entries compacted away: ``base + head`` counts the entries
        #: launches have taken.
        self.base = 0
        #: the trace position of every entry taken or queued, by ``base +``
        #: queue index; never compacted, so entry ``j``'s is ``q_pos[j]``.
        self.q_pos = array("q")
        #: ``None``, or the seconds ``(host, accel, total)`` of a launch
        #: priced at them, scaled by the launch's straggler multiplier.
        self.straggle = None
        #: one entry per launch, in launch order; typed arrays hold a
        #: million-launch log in 8 bytes per entry.
        self.log_start = array("d")
        self.log_end = array("d")

    def reprice(self, table) -> None:
        """Price every later launch from ``table``."""
        self._table = table
        self._rows: list = [None] * (self.max_batch + 1)
        self.unit_total_s = self._row(1)[2]

    def _row(self, size: int) -> tuple:
        """``(host_s, accel_s, total_s, has_accel)`` of a ``size`` batch,
        read from the cost table once and cached per machine."""
        row = self._rows[size]
        if row is None:
            cost = self._table.row(size)
            # the single accel_free float stands for the reference's dict,
            # which holds one key only while every row queues on one target.
            assert not cost.has_accel or cost.target == self.target, (cost.target, self.target)
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
            self.base += head
            head = 0
        self.head = head

    def step(self) -> None:
        """Execute the launches decided at the next launch time."""
        self.advance(math.nextafter(self.next_t, _INF))

    def flush(self, last_arrival: float) -> None:
        """Execute every launch decided before the trace's last arrival
        (at ``last_arrival``); later launches follow the post-drain rules."""
        self.advance(last_arrival)

    def _arm(self) -> None:
        """Re-arm ``next_t`` from the registers: here the barrier rule, the
        queue head once the last launch has ended."""
        if self.head < len(self.q_admit):
            t = self.q_admit[self.head]
            ready = self.ready_s
            self.next_t = t if t > ready else ready
        else:
            self.next_t = _INF

    def withdraw(self, pos: int, when: float) -> bool:
        """Withdraw the first queued copy of trace position ``pos`` at
        ``when``; False when none is queued."""
        try:
            i = self.q_pos.index(pos, self.base + self.head)
        except ValueError:
            return False
        del self.q_pos[i]
        i -= self.base
        self.pending_steps -= self.q_steps[i]
        del self.q_admit[i]
        del self.q_steps[i]
        self._arm()
        return True

    def holding(self) -> "list[int]":
        """Trace positions in service across launches (none here)."""
        return []

    def reset(self, when: float) -> None:
        """A crash: drop the queue, zero the occupancy registers, and let a
        barrier launch start no earlier than ``when``."""
        self.base += self.head
        self.head = 0
        del self.q_pos[self.base :]
        self.q_admit.clear()
        self.q_steps.clear()
        self.pending_steps = 0
        self.host_free = self.accel_free = self.horizon = 0.0
        self.ready_s = when
        self.next_t = _INF

    # -- assembly ----------------------------------------------------------

    def result(
        self,
        header: dict,
        ids: np.ndarray,
        arrival: np.ndarray,
        steps: np.ndarray,
        cap: "int | None",
        order: "np.ndarray | None" = None,
    ) -> "tuple[ServingResult, np.ndarray]":
        """This machine's :class:`ServingResult` from its launch columns.

        ``ids``, ``arrival`` and ``steps`` are the columns of the requests
        it admitted, in admission order; records follow ``order`` (a
        permutation of admission positions; ``None`` keeps admission order).
        Also returns the completion column in admission order.  A machine
        that admitted nothing yields an idle engine's result.
        """
        starts = np.frombuffer(self.log_start, dtype=np.float64)
        ends = np.frombuffer(self.log_end, dtype=np.float64)
        sizes, iterations = self._dispatches(steps)
        taken_after = self.heads()
        taken_before = np.concatenate(([0], taken_after))
        join, finish = self.entries()
        # back to admission order: only the callback machine takes out of it
        by_admission = np.argsort(np.frombuffer(self.q_pos, dtype=np.int64), kind="stable")
        join, finish = join[by_admission], finish[by_admission]
        start, completion, batch = starts[join], ends[finish], sizes[finish]
        del join, finish  # freed before the fold, where a fleet run peaks in memory
        # queue-depth samples: request j is admitted right before launch
        # d(j), the first one starting at or after its arrival (launch starts
        # are decision times and never decrease, and admissions at time T
        # precede launches at T); the sample after launch d counts the
        # arrivals admitted by its start minus the requests taken so far.
        admit_key = np.searchsorted(starts, arrival, side="left")
        admit_depth = (
            np.arange(1, arrival.size + 1, dtype=np.int64) - taken_before[admit_key]
        )
        sample_depth = np.searchsorted(arrival, starts, side="right") - taken_after
        depths = np.concatenate([admit_depth, sample_depth])
        if cap is None:
            # the interleave key (2*d(j) vs 2*d + 1) sorts the admissions
            # before a launch ahead of its sample; a stable sort keeps equal
            # keys in arrival order — the reference's exact append order.
            depth = (
                np.concatenate([arrival, starts]),
                depths,
                np.concatenate(
                    [2 * admit_key, 2 * np.arange(starts.size, dtype=np.int64) + 1]
                ),
            )
        else:
            depth = (None, depths, None)
        requests = (ids, arrival, start, completion, steps, batch)
        if order is not None:
            requests = tuple(column[order] for column in requests)
        result = assemble_replica(
            header, requests, sizes, iterations, self._table, depth, cap
        )
        return result, completion

    # -- the log reader, for the kinds whose launch completes the run of the
    # queue it takes: ``_bounds()`` counts the entries taken before each
    # launch, then in all.

    def heads(self) -> np.ndarray:
        """The entries taken by the end of each launch."""
        return np.asarray(self._bounds(), dtype=np.int64)[1:]

    def entries(self) -> "tuple[np.ndarray, np.ndarray]":
        """For every taken entry, the launch that took it and the launch
        that completed it (-1: in flight or voided)."""
        heads = self.heads()
        join = np.repeat(np.arange(heads.size), np.diff(heads, prepend=0))
        return join, join

    def finish(self, j: int) -> int:
        """The launch that completed taken entry ``j`` (-1: in flight or
        voided)."""
        return bisect.bisect_right(self._bounds(), j) - 1

    def completed(self, k: int) -> "list[int]":
        """The trace positions launch ``k`` completed."""
        bounds = self._bounds()
        return self.q_pos[bounds[k] : bounds[k + 1]].tolist()


class _FifoMachine(_Machine):
    """One request per dispatch, all its decode steps; barrier launches."""

    __slots__ = ()

    def admit(self, when: float, steps: int, pos: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        if self.head == len(self.q_admit):
            ready = self.ready_s
            self.next_t = when if when > ready else ready
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.q_pos.append(pos)
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
        row = self._rows[1]  # priced in reprice()
        host_s, accel_s, total_s, has_accel = row
        straggle = self.straggle
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        log_start = self.log_start
        log_end = self.log_end
        while t < until:
            steps = q_steps[head]
            head += 1
            pending -= steps
            # the reference launch() occupancy arithmetic, inlined
            cursor = t if t > host_free else host_free
            log_start.append(cursor)
            if straggle is not None:
                host_s, accel_s, total_s = straggle(*row[:3])
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
            log_end.append(cursor)
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

    def _bounds(self) -> range:
        """Launch ``d`` takes entry ``d``."""
        return range(len(self.log_end) + 1)

    def heads(self) -> np.ndarray:
        return np.arange(1, len(self.log_end) + 1)

    def _dispatches(self, steps: np.ndarray) -> tuple:
        """Launch ``d`` serves the ``d``-th request taken for all its decode
        steps (``steps`` in the order launches took them)."""
        return np.ones(steps.size, dtype=np.int64), steps


class _InFlightMachine(_Machine):
    """The log reader of the kinds whose taken entries stay in service
    across launches: each launch logs ``base + head`` after it
    (``log_head``) and each taken entry the launch it completes on
    (``log_finish``: -1 once voided, a later launch while in flight).
    :meth:`completed` files the entries as reads reach them: ``filed`` maps
    each launch below ``filed_to`` to the positions it completed, and
    ``unfiled`` lists the entries below ``scanned`` still in flight then."""

    __slots__ = ("log_head", "log_finish", "filed", "filed_to", "scanned", "unfiled")

    def __init__(self, index: int, engine, scheduler, trace: RequestTrace):
        super().__init__(index, engine, scheduler, trace)
        self.log_head = array("q")
        self.log_finish = array("q")
        self.filed: dict[int, list[int]] = {}
        self.filed_to = self.scanned = 0
        self.unfiled: list[int] = []

    def heads(self) -> np.ndarray:
        return np.frombuffer(self.log_head, dtype=np.int64)

    def entries(self) -> "tuple[np.ndarray, np.ndarray]":
        heads = self.heads()
        join = np.searchsorted(heads, np.arange(len(self.log_finish)), side="right")
        finish = np.frombuffer(self.log_finish, dtype=np.int64)
        if finish.size and finish.max() >= heads.size:  # entries still in flight
            finish = np.where(finish < heads.size, finish, -1)
        return join, finish

    def finish(self, j: int) -> int:
        k = self.log_finish[j]
        return k if k < len(self.log_end) else -1

    def completed(self, k: int) -> "list[int]":
        launches = len(self.log_end)
        if k >= self.filed_to:  # file the entries finished since the last read
            log_finish = self.log_finish
            unfiled = []
            for j in itertools.chain(self.unfiled, range(self.scanned, len(log_finish))):
                finish = log_finish[j]
                if finish >= launches:
                    unfiled.append(j)
                elif finish >= 0:
                    self.filed.setdefault(finish, []).append(self.q_pos[j])
            self.unfiled, self.scanned, self.filed_to = unfiled, len(log_finish), launches
        return self.filed.get(k, [])


class _ContinuousMachine(_InFlightMachine):
    """Iteration-level batching: every launch is one decode iteration over
    the in-flight set, topped up from the queue; barrier launches.

    In-flight requests are counts keyed by the iteration they finish on (a
    launch's log index), so a launch touches only the requests joining or
    leaving the batch.  Each launch logs its batch size, and each taken
    entry its finishing iteration.  A copy of a request whose other copy is
    in flight keeps that slot and restarts its step count, like the
    reference's ``{request id: remaining steps}`` dict; only an admission at
    a position no higher than an earlier one can be such a copy (a
    ``suspect``), and the copy it replaces is voided.
    """

    __slots__ = ("in_flight", "iteration", "done_at", "top", "suspect", "log_size")

    def __init__(self, index: int, engine, scheduler, trace: RequestTrace):
        super().__init__(index, engine, scheduler, trace)
        self.in_flight = 0
        self.iteration = 0
        self.done_at: dict[int, int] = {}
        self.top = -1
        self.suspect: set[int] = set()
        self.log_size = array("q")

    def admit(self, when: float, steps: int, pos: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        if not self.in_flight and self.head == len(self.q_admit):
            ready = self.ready_s
            self.next_t = when if when > ready else ready
        if pos > self.top:
            self.top = pos
        else:
            self.suspect.add(pos)
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.q_pos.append(pos)
        self.pending_steps += steps

    def _arm(self) -> None:
        if self.in_flight:
            self.next_t = self.ready_s
        else:
            super()._arm()

    def _held(self, before: int, count: int, iteration: int):
        """The ``count`` entries taken below ``before`` and still in flight
        at ``iteration``, newest first."""
        j = before
        while count:
            j -= 1
            if self.log_finish[j] >= iteration:
                count -= 1
                yield j

    def _void(self, pos: int, before: int, count: int, iteration: int) -> int:
        """Void the copy of ``pos`` among the ``count`` entries held below
        ``before`` at ``iteration``; returns its remaining steps (0: none)."""
        for j in self._held(before, count, iteration):
            if self.q_pos[j] == pos:
                finish = self.log_finish[j]
                self.done_at[finish] -= 1
                self.log_finish[j] = -1
                return finish - iteration + 1
        return 0

    def withdraw(self, pos: int, when: float) -> bool:
        """Withdraw ``pos`` from the in-flight set (it leaves at the next
        iteration boundary), else its first queued copy."""
        remaining = self._void(pos, self.base + self.head, self.in_flight, self.iteration)
        if not remaining:
            return super().withdraw(pos, when)
        self.pending_steps -= remaining
        self.in_flight -= 1
        self._arm()
        return True

    def holding(self) -> "list[int]":
        taken = self.base + self.head
        return [self.q_pos[j] for j in self._held(taken, self.in_flight, self.iteration)]

    def reset(self, when: float) -> None:
        for j in list(self._held(self.base + self.head, self.in_flight, self.iteration)):
            self.log_finish[j] = -1
        super().reset(when)
        self.in_flight = 0
        self.done_at.clear()

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        t = self.next_t
        if not t < until:
            return
        q_admit = self.q_admit
        q_steps = self.q_steps
        head = self.head
        tail = len(q_admit)
        base = self.base
        max_batch = self.max_batch
        rows = self._rows
        straggle = self.straggle
        suspect = self.suspect
        done_at = self.done_at
        in_flight = self.in_flight
        iteration = self.iteration
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        log_start = self.log_start
        log_end = self.log_end
        log_head = self.log_head
        log_size = self.log_size
        log_finish = self.log_finish
        while t < until:
            take = max_batch - in_flight
            if take > tail - head:
                take = tail - head
            if take > 0:
                # a request joining at this iteration runs its last step
                # ``steps - 1`` iterations later.
                last = iteration - 1
                stop = head + take
                for steps in q_steps[head:stop]:
                    finish = last + steps
                    log_finish.append(finish)
                    done_at[finish] = done_at.get(finish, 0) + 1
                if suspect:  # a copy joining while another is in flight
                    q_pos = self.q_pos
                    live = in_flight
                    for j in range(base + head, base + stop):
                        pos = q_pos[j]
                        remaining = self._void(pos, j, live, iteration) if pos in suspect else 0
                        if remaining:  # takes over the other copy's slot
                            take -= 1
                            pending -= remaining
                        else:
                            live += 1
                head = stop
                in_flight += take
            pending -= in_flight
            # the reference launch() occupancy arithmetic for one
            # iteration, inlined
            cursor = t if t > host_free else host_free
            log_start.append(cursor)
            log_size.append(in_flight)
            log_head.append(base + head)
            host_s, accel_s, total_s, has_accel = rows[in_flight] or self._row(in_flight)
            if straggle is not None:
                host_s, accel_s, total_s = straggle(host_s, accel_s, total_s)
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
            log_end.append(cursor)
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

    def _dispatches(self, steps: np.ndarray) -> tuple:
        sizes = np.frombuffer(self.log_size, dtype=np.int64)
        return sizes, np.ones(sizes.size, dtype=np.int64)


class _BatchMachine(_Machine):
    """Static and dynamic batching: a full batch launches once its last
    member is admitted and the host is free; dynamic batching also launches
    a partial batch ``max_wait_s`` after its head arrived (static: never).
    Once the trace's last arrival is admitted (:meth:`flush`), a partial
    batch launches from then on, once its head is admitted.  Each launch
    logs its batch size and iteration count."""

    __slots__ = ("wait_s", "flush_at", "log_size", "log_iter", "bounds")

    def __init__(self, index: int, engine, scheduler, trace: RequestTrace):
        super().__init__(index, engine, scheduler, trace)
        self.wait_s = scheduler.max_wait_s if declared_kind(scheduler) == "dynamic" else _INF
        self.flush_at = -_INF
        self.log_size = array("q")
        self.log_iter = array("q")
        self.bounds = array("q", [0])

    def admit(self, when: float, steps: int, pos: int) -> None:
        """Queue an arrival (the caller has advanced the machine to ``when``)."""
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.q_pos.append(pos)
        self.pending_steps += steps
        queued = len(self.q_admit) - self.head
        if queued == self.max_batch:
            self._arm()  # the batch just filled
        elif queued == 1:  # a new head; otherwise the next launch stands
            t = when + self.wait_s
            if t < self.flush_at:
                t = self.flush_at
            host_free = self.host_free
            self.next_t = t if t > host_free else host_free

    def _arm(self) -> None:
        queued = len(self.q_admit) - self.head
        if queued >= self.max_batch:
            t = self.q_admit[self.head + self.max_batch - 1]
        elif queued:
            t = self.q_admit[self.head] + self.wait_s
            if t < self.flush_at:
                t = self.flush_at
        else:
            t = _INF
        host_free = self.host_free
        self.next_t = t if t > host_free else host_free

    def _bounds(self) -> array:
        """The running sum of ``log_size``, extended when read."""
        bounds = self.bounds
        if len(bounds) <= len(self.log_size):
            bounds.extend(itertools.accumulate(self.log_size[len(bounds) - 1 :], initial=bounds.pop()))
        return bounds

    def flush(self, last_arrival: float) -> None:
        """Execute the launches decided before the last arrival under the
        pre-drain rules, then flush: a queued batch, full or partial,
        launches once its head is admitted and the host is free."""
        self.advance(last_arrival)
        self.flush_at = last_arrival
        self.wait_s = 0.0
        self._arm()

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
        straggle = self.straggle
        wait_s = self.wait_s
        flush_at = self.flush_at
        host_free = self.host_free
        accel_free = self.accel_free
        pending = self.pending_steps
        log_start = self.log_start
        log_end = self.log_end
        log_size = self.log_size
        log_iter = self.log_iter
        while t < until:
            size = tail - head
            if size > max_batch:
                size = max_batch
            members = q_steps[head : head + size]
            head += size
            pending -= sum(members)
            iterations = max(members)
            cursor = t if t > host_free else host_free
            log_start.append(cursor)
            log_size.append(size)
            log_iter.append(iterations)
            # the reference launch() occupancy arithmetic, inlined
            host_s, accel_s, total_s, has_accel = rows[size] or self._row(size)
            if straggle is not None:
                host_s, accel_s, total_s = straggle(host_s, accel_s, total_s)
            if has_accel:
                for _ in range(iterations):
                    host_free = cursor + host_s
                    # max(host_end, accel_free) == host_end: the accelerator
                    # is idle by the time the host part ends.
                    if accel_free <= host_free:
                        cursor = cursor + total_s
                    else:
                        cursor = accel_free + accel_s
                    accel_free = cursor
            else:
                for _ in range(iterations):
                    cursor = cursor + total_s
                host_free = cursor
            log_end.append(cursor)
            # non-barrier: the next batch may launch as soon as the host is
            # free, while this one still runs on the accelerator.
            queued = tail - head
            if queued >= max_batch:
                t = q_admit[head + max_batch - 1]
            elif queued:
                t = q_admit[head] + wait_s
                if t < flush_at:
                    t = flush_at
            else:
                t = _INF
            if host_free > t:
                t = host_free
        self.next_t = t
        self.pending_steps = pending
        self._settle(host_free, accel_free, head)

    def _dispatches(self, steps: np.ndarray) -> tuple:
        return (
            np.frombuffer(self.log_size, dtype=np.int64),
            np.frombuffer(self.log_iter, dtype=np.int64),
        )


class _CallbackMachine(_InFlightMachine):
    """The machine of a scheduler that declares no kind: it drives a
    scheduler object (replica 0 the one it is handed, every other replica a
    fresh one of its class), admitting :class:`Request` objects with the
    trace's ids, at the replica's own decision times only (see
    :meth:`~repro.serving.scheduler.BatchScheduler.next_dispatch`), and
    prices its dispatches with the reference ``launch()`` arithmetic.
    ``q_pos`` stays in take order: a member's first launch swaps its entry
    to the head of the queue region.  ``held`` lists each position's taken
    entries that no launch has completed, oldest first.
    """

    __slots__ = (
        "scheduler", "ids", "pos_of", "held", "in_service", "arrivals_pending", "turns",
        "log_size", "log_iter",
    )

    def __init__(self, index: int, engine, scheduler, trace: RequestTrace):
        super().__init__(index, engine, scheduler, trace)
        if index:
            scheduler = type(scheduler)(
                max_batch=scheduler.max_batch, max_wait_s=scheduler.max_wait_s
            )
        self.scheduler = scheduler
        self.scheduler.reset()
        self.ids = trace.id_column().tolist()
        self.pos_of: dict[int, int] = {}
        self.held: dict[int, list[int]] = {}
        self.in_service = 0
        self.arrivals_pending = True
        #: ``next_dispatch`` calls left before a stall; admissions add more.
        self.turns = 64
        self.log_size = array("q")
        self.log_iter = array("q")

    def _error(self, detail: str) -> ServingError:
        return ServingError(
            f"scheduler {self.scheduler.name!r} on replica {self.index} {detail}: queue"
            f" depth {self.scheduler.queue_depth}, {self._outstanding()} requests outstanding"
        )

    @property
    def pending_steps(self) -> int:
        """Read from the scheduler when a probe asks, as the reference does."""
        return self.scheduler.pending_work_steps

    @pending_steps.setter
    def pending_steps(self, steps: int) -> None:
        """The scheduler keeps the count: the base class's zeroing is moot."""

    def _outstanding(self) -> int:
        return len(self.q_pos) - self.base - self.head + self.in_service

    def _rearm(self, when: float) -> None:
        """Ask at ``when`` (decided up to it) or at the end of the last launch."""
        self.next_t = max(when, self.ready_s) if self._outstanding() else _INF

    def admit(self, when: float, steps: int, pos: int) -> None:
        request_id = self.ids[pos]
        self.pos_of[request_id] = pos
        self.scheduler.admit(Request(request_id=request_id, arrival_s=when, decode_steps=steps))
        self.q_pos.append(pos)
        self.turns += 32 * (1 + steps)
        self._rearm(when)

    def withdraw(self, pos: int, when: float) -> bool:
        """The scheduler's ``cancel``, of a queued copy or one in service."""
        queued = self.scheduler.queue_depth
        if not self.scheduler.cancel(self.ids[pos]):
            return False
        if self.scheduler.queue_depth < queued:
            del self.q_pos[self.q_pos.index(pos, self.base + self.head)]
        else:
            self._release(pos, self.ids[pos], -1)
        self._rearm(when)
        return True

    def _take(self, pos: "int | None") -> int:
        """Take the first queued copy of ``pos``; returns its entry (-1:
        none is queued)."""
        taken = self.base + self.head
        try:
            i = self.q_pos.index(pos, taken)
        except (TypeError, ValueError):
            return -1
        self.q_pos[i] = self.q_pos[taken]
        self.q_pos[taken] = pos
        self.head += 1
        self.log_finish.append(1 << 62)  # in service: a launch not yet logged
        return taken

    def _release(self, pos: "int | None", request_id: int, finish: int) -> None:
        """Take ``pos``'s oldest entry out of service, finishing it at
        launch ``finish`` (-1: voided)."""
        if not self.held.get(pos):
            raise self._error(f"released request {request_id}, which is not in service")
        self.in_service -= 1
        self.log_finish[self.held[pos].pop(0)] = finish

    def holding(self) -> "list[int]":
        return [pos for pos, entries in self.held.items() for _ in entries]

    def reset(self, when: float) -> None:
        for entry in itertools.chain.from_iterable(self.held.values()):
            self.log_finish[entry] = -1
        super().reset(when)
        self.scheduler.reset()
        self.held.clear()
        self.in_service = 0

    def flush(self, last_arrival: float) -> None:
        self.advance(last_arrival)
        self.arrivals_pending = False
        self._rearm(last_arrival)

    def advance(self, until: float) -> None:
        """The reference ``decide`` at every decision due before ``until``."""
        scheduler = self.scheduler
        while self.next_t < until:
            now = self.next_t
            self.turns -= 1
            if self.turns < 0:
                raise self._error(f"made no progress in its decision turns at t={now:.6f}s")
            verdict = scheduler.next_dispatch(now, self.arrivals_pending)
            if isinstance(verdict, Dispatch):
                self._launch(verdict, now)
                ready = self.ready_s
                self.next_t = now if ready <= now else ready if self._outstanding() else _INF
            elif verdict is None:
                if not self.arrivals_pending and self._outstanding():
                    raise self._error(f"returned no work at t={now:.6f}s, the trace exhausted")
                self.next_t = _INF
            elif float(verdict) > now:
                self.next_t = float(verdict)
            else:
                raise self._error(f"requested a wake-up at {verdict} that does not advance t={now}")

    def _launch(self, verdict: Dispatch, now: float) -> None:
        size = verdict.size
        if not 1 <= size <= self.max_batch:
            raise self._error(
                f"dispatched a batch of {size}, outside 1..max_batch ({self.max_batch})"
            )
        #: position -> (copies in service before this launch, appearances)
        seen: dict = {}
        for request_id in verdict.members:
            pos = self.pos_of.get(request_id)
            before, appearances = seen.get(pos) or (len(self.held.get(pos, ())), 0)
            seen[pos] = (before, appearances + 1)
            if appearances >= before:  # not in service since an earlier launch
                entry = self._take(pos)
                if entry < 0:
                    raise self._error(f"dispatched request {request_id}, which is not queued")
                self.held.setdefault(pos, []).append(entry)
                self.in_service += 1
        # a further queued copy of a member that left the scheduler's queue
        # took over the member's slot (a restart, as in continuous batching).
        surplus = len(self.q_pos) - self.base - self.head - self.scheduler.queue_depth
        for pos in seen:
            while surplus > 0 and self._take(pos) >= 0:
                surplus -= 1
        for request_id in verdict.completes:
            self._release(self.pos_of.get(request_id), request_id, len(self.log_end))
        # the reference launch() occupancy arithmetic
        host_s, accel_s, total_s, has_accel = self._rows[size] or self._row(size)
        if self.straggle is not None:
            host_s, accel_s, total_s = self.straggle(host_s, accel_s, total_s)
        host_free = self.host_free
        accel_free = self.accel_free
        cursor = max(now, host_free)
        self.log_start.append(cursor)
        for _ in range(verdict.iterations):
            if has_accel:
                host_free = cursor + host_s
                cursor = cursor + total_s if accel_free <= host_free else accel_free + accel_s
                accel_free = cursor
            else:
                cursor = host_free = cursor + total_s
        self.log_end.append(cursor)
        self.log_size.append(size)
        self.log_iter.append(verdict.iterations)
        self.log_head.append(self.base + self.head)
        self.ready_s = cursor if verdict.barrier else max(now, host_free)
        self._settle(host_free, accel_free, self.head)

    _dispatches = _BatchMachine._dispatches


def replay(machine_cls, engines, scheduler, trace: RequestTrace, route=None) -> tuple:
    """Replay every launch of ``trace`` served by one ``machine_cls`` per
    engine; returns ``(machines, assignment)``.

    Arrivals are admitted one at a time in trace order, each after its
    machine has executed every launch decided strictly before it.
    ``route(machines, arrivals, steps)`` admits them and returns the
    assignment column (the machine index of every arrival, ``-1``: shed).
    Without one, arrival ``i`` goes to machine ``i mod R`` — one engine, or
    round-robin without shedding — and no probe reads a machine.  Once the
    last arrival is admitted, every machine flushes and drains.
    """
    machines = [
        machine_cls(index, engine, scheduler, trace) for index, engine in enumerate(engines)
    ]
    arrivals = trace.arrival_column().tolist()
    steps = trace.decode_column().tolist()
    if route is None:
        count = len(machines)
        for i, when in enumerate(arrivals):
            machine = machines[i % count]
            if machine.next_t < when:
                machine.advance(when)
            machine.admit(when, steps[i], i)
        assigned = np.arange(len(arrivals), dtype=np.int64) % count
    else:
        assigned = route(machines, arrivals, steps)
    if arrivals:
        for machine in machines:
            machine.flush(arrivals[-1])
            machine.advance(_INF)
    return machines, assigned


#: the launch machine of each declarable kind; ``None``, a scheduler that
#: declares none, gets the callback machine.
MACHINES = {
    "fifo": _FifoMachine,
    "static": _BatchMachine,
    "dynamic": _BatchMachine,
    "continuous": _ContinuousMachine,
    None: _CallbackMachine,
}

#: the replay of each machine, bound once: callers reach it through
#: :func:`kernel_for`.
_REPLAYS = {kind: functools.partial(replay, cls) for kind, cls in MACHINES.items()}


def declared_kind(scheduler) -> "str | None":
    """The ``columnar_kernel`` a scheduler instance's own class declares.

    Inherited declarations are ignored (see the scheduler docstring): a
    subclass may change the decision sequence the machines hard-code.
    """
    return type(scheduler).__dict__.get("columnar_kernel")


def kernel_for(scheduler):
    """The launch replay of the kind a scheduler instance *declared*; the
    callback machine's when it declares none."""
    return _REPLAYS[declared_kind(scheduler)]


def result_header(engine, scheduler_name: str, trace_name: str, rate: float) -> dict:
    """The identity fields of a :class:`ServingResult` served by ``engine``."""
    return {
        "model": engine.config.model,
        "flow": engine.flow.name,
        "platform_id": engine.config.platform,
        "device": engine.target.value,
        "scheduler": scheduler_name,
        "trace": trace_name,
        "offered_rate_rps": rate,
    }


def run_fast(
    engine, trace: RequestTrace, offered_rate_rps: "float | None" = None
) -> ServingResult:
    """Serve ``trace`` on one launch machine, no probes, applying the
    engine's ``record_requests`` cap."""
    config = engine.config
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    rate = trace.offered_rate_rps if offered_rate_rps is None else offered_rate_rps
    (machine,), _ = kernel_for(scheduler)([engine], scheduler, trace)
    result, _ = machine.result(
        result_header(engine, scheduler.name, trace.name, rate),
        trace.id_column(),
        trace.arrival_column(),
        trace.decode_column(),
        config.record_requests,
    )
    result.backend_used = "columnar"
    return result
