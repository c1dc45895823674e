"""Pluggable batching schedulers behind a :class:`~repro.registry.Registry`.

A scheduler owns the waiting queue and decides, at each engine decision
point, what to launch next.  :meth:`BatchScheduler.next_dispatch` returns one
of three verdicts:

* a :class:`Dispatch` — launch these requests now as one batch;
* a ``float`` deadline — nothing launches yet, but re-ask at that time even
  if no new request arrives (dynamic batching's max-wait timer);
* ``None`` — nothing to do until the next arrival.

Four policies ship built in:

* ``fifo``       — no batching: one request per dispatch, strictly in
  arrival order (the paper's per-inference pipeline under load).
* ``static``     — wait until exactly ``max_batch`` requests queue, then
  launch them together (flushing a partial batch only once the trace ends).
* ``dynamic``    — launch when the batch fills *or* the oldest request has
  waited ``max_wait_s``, whichever comes first.
* ``continuous`` — iteration-level batching for autoregressive decode: each
  dispatch is one model iteration over the current in-flight set; requests
  join at iteration boundaries and leave the moment their last decode step
  completes (the Orca/vLLM scheduling discipline).

Batch-level schedulers (everything but ``continuous``) serve a batch until
its *slowest* member finishes: a dispatch runs ``max(decode_steps)``
iterations at full batch cost, which is exactly the head-of-line inefficiency
continuous batching exists to remove.

Schedulers are stateful (they own a queue), so — unlike ``get_flow`` —
:func:`get_scheduler` returns a **fresh instance** per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.knobs import DEFAULT_MAX_BATCH, DEFAULT_MAX_WAIT_S
from repro.registry import Registry
from repro.serving.trace import Request


@dataclass(frozen=True)
class Dispatch:
    """One batch launch decision.

    ``size`` is the graph batch dimension the engine prices (one lowered
    plan per distinct size); ``iterations`` is how many sequential model
    iterations the dispatch runs at that size; ``completes`` names the
    member requests that finish when the dispatch ends.  ``barrier`` makes
    the engine advance its scheduling clock to the dispatch's completion
    before asking again — iteration-level schedulers use it so the next
    iteration's membership sees arrivals up to the iteration boundary.
    """

    members: tuple[int, ...]
    size: int
    iterations: int = 1
    completes: tuple[int, ...] = ()
    barrier: bool = False


@dataclass
class BatchScheduler:
    """Base class: queue ownership plus the registry-facing surface."""

    max_batch: int = DEFAULT_MAX_BATCH
    max_wait_s: float = DEFAULT_MAX_WAIT_S
    _queue: list[Request] = field(default_factory=list, repr=False)

    #: registry name; subclasses must override.
    name = ""
    description = ""
    #: the kind of launch machine in :mod:`repro.serving.columnar` that
    #: replays this scheduler's decision sequence without driving the
    #: scheduler object itself.  A scheduler opts in by **declaring** this in
    #: its own class body; subclasses that inherit a kind but do not
    #: redeclare it ride the callback machine, which asks the scheduler
    #: object (their overrides could change the decision sequence the
    #: machine hard-codes).  Deliberately a plain
    #: class attribute, not a dataclass field — it describes the class's
    #: decision algorithm, not per-instance state.
    #:
    #: Declaring a kind is a **behavioral contract**: the
    #: :mod:`repro.serving.columnar` launch machines, which serve the single
    #: engine, the fault-free fleet and the faulted fleet, hard-code this
    #: class's launch rules — in particular the post-drain flush (once the
    #: trace is exhausted, partial batches launch at ``max(host_free,
    #: arrival, drain_time)`` with no ``max_wait_s`` deadline) and the
    #: pre-drain rules (full batches immediately; dynamic partials at
    #: ``oldest arrival + max_wait_s``; static partials never).  Changing a
    #: launch rule here requires updating the machines, and the bit-identity
    #: crosscheck batteries in ``tests/test_columnar*.py`` will catch any
    #: divergence.
    columnar_kernel = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if not self.max_wait_s >= 0.0:  # also rejects NaN
            raise ServingError(f"max_wait_s must be >= 0, got {self.max_wait_s}")

    def reset(self) -> None:
        """Drop all queue (and subclass) state before a fresh run."""
        self._queue.clear()

    def admit(self, request: Request) -> None:
        self._queue.append(request)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def has_pending(self) -> bool:
        """Anything queued or in flight that still needs dispatches."""
        return bool(self._queue)

    @property
    def pending_work_steps(self) -> int:
        """Total decode steps queued (plus in flight, for iteration-level
        schedulers) — the cluster router's backlog estimate."""
        return sum(request.decode_steps for request in self._queue)

    def next_dispatch(self, now: float, arrivals_pending: bool) -> "Dispatch | float | None":
        """The verdict at decision time ``now`` (see the module docstring);
        ``arrivals_pending`` is False once the trace has no arrivals left.

        A verdict stands until the queue or ``arrivals_pending`` changes:
        ``None`` until the replica's next admission, a float until that
        time.  So the launch machines ask only at the replica's own decision
        times (admissions, withdrawals, wake times, the end of the last
        launch while work is outstanding, and the drain at the last arrival),
        while the event loop may ask at every event it visits, several times
        at one instant; both give the same launches.  A launch's members
        leave the queue the first time they launch."""
        raise NotImplementedError

    def cancel(self, request_id: int) -> bool:
        """Withdraw a request that has not started service (hedge losers,
        timeout retries).  Returns False when the request is unknown or
        already inside a running dispatch — such copies run to completion;
        iteration-level schedulers override this to also drop in-flight
        members at the next batch boundary."""
        for index, request in enumerate(self._queue):
            if request.request_id == request_id:
                del self._queue[index]
                return True
        return False

    def _take(self, count: int) -> tuple[Request, ...]:
        taken = tuple(self._queue[:count])
        del self._queue[:count]
        return taken


class FIFOScheduler(BatchScheduler):
    """No batching: serve one request at a time, in arrival order.

    Dispatches are barriers — the next request starts only when the current
    one completes — so this is the strictly serial per-inference pipeline
    under load: waiting requests pile up in the scheduler queue instead of
    an accelerator-side dispatch queue.
    """

    name = "fifo"
    description = "one request per dispatch, arrival order, no batching"
    columnar_kernel = "fifo"

    def next_dispatch(self, now: float, arrivals_pending: bool) -> "Dispatch | None":
        if not self._queue:
            return None
        (request,) = self._take(1)
        return Dispatch(
            members=(request.request_id,),
            size=1,
            iterations=request.decode_steps,
            completes=(request.request_id,),
            barrier=True,
        )


class StaticBatchScheduler(BatchScheduler):
    """Fixed-size batching: launch only full ``max_batch`` batches.

    A partial batch launches only once the trace is exhausted (there is
    nothing left to wait for); until then the queue simply accumulates.
    """

    name = "static"
    description = "launch only full max_batch batches (flush at end of trace)"
    columnar_kernel = "static"

    def next_dispatch(self, now: float, arrivals_pending: bool) -> "Dispatch | None":
        if not self._queue:
            return None
        if len(self._queue) < self.max_batch and arrivals_pending:
            return None
        members = self._take(min(len(self._queue), self.max_batch))
        ids = tuple(r.request_id for r in members)
        return Dispatch(
            members=ids,
            size=len(members),
            iterations=max(r.decode_steps for r in members),
            completes=ids,
        )


class DynamicBatchScheduler(BatchScheduler):
    """Size-or-deadline batching: launch when full or when the oldest
    request has waited ``max_wait_s`` (the standard serving tradeoff between
    batch efficiency and queueing delay)."""

    name = "dynamic"
    description = "launch when max_batch fills or the oldest waits max_wait_s"
    columnar_kernel = "dynamic"

    def next_dispatch(self, now: float, arrivals_pending: bool) -> "Dispatch | float | None":
        if not self._queue:
            return None
        deadline = self._queue[0].arrival_s + self.max_wait_s
        if len(self._queue) < self.max_batch and now < deadline and arrivals_pending:
            return deadline
        members = self._take(min(len(self._queue), self.max_batch))
        ids = tuple(r.request_id for r in members)
        return Dispatch(
            members=ids,
            size=len(members),
            iterations=max(r.decode_steps for r in members),
            completes=ids,
        )


class ContinuousBatchScheduler(BatchScheduler):
    """Iteration-level batching for autoregressive decode.

    Every dispatch is exactly one model iteration over the in-flight set.
    Waiting requests join whenever a slot (``max_batch``) is free at an
    iteration boundary; a request leaves the moment its own decode steps are
    done, without waiting for the rest of the batch.  Dispatches carry
    ``barrier=True`` so the engine advances its clock to each iteration's
    end — membership decisions always see arrivals up to the boundary.
    """

    name = "continuous"
    description = "iteration-level batching: join/leave at decode-step boundaries"
    columnar_kernel = "continuous"

    def __post_init__(self) -> None:
        super().__post_init__()
        #: request id -> remaining decode steps, in admission order.
        self._in_flight: dict[int, int] = {}

    def reset(self) -> None:
        super().reset()
        self._in_flight.clear()

    @property
    def has_pending(self) -> bool:
        return bool(self._queue) or bool(self._in_flight)

    @property
    def pending_work_steps(self) -> int:
        return super().pending_work_steps + sum(self._in_flight.values())

    def cancel(self, request_id: int) -> bool:
        if request_id in self._in_flight:
            # leaves at the iteration boundary: simply not a member of the
            # next dispatch.
            del self._in_flight[request_id]
            return True
        return super().cancel(request_id)

    def next_dispatch(self, now: float, arrivals_pending: bool) -> "Dispatch | None":
        free_slots = self.max_batch - len(self._in_flight)
        if free_slots > 0 and self._queue:
            for request in self._take(min(free_slots, len(self._queue))):
                self._in_flight[request.request_id] = request.decode_steps
        if not self._in_flight:
            return None
        members = tuple(self._in_flight)
        completes = []
        for request_id in members:
            self._in_flight[request_id] -= 1
            if self._in_flight[request_id] == 0:
                del self._in_flight[request_id]
                completes.append(request_id)
        return Dispatch(
            members=members,
            size=len(members),
            iterations=1,
            completes=tuple(completes),
            barrier=True,
        )


SCHEDULER_REGISTRY: Registry[type[BatchScheduler]] = Registry("scheduler", ServingError)


def register_scheduler(
    scheduler_cls: type[BatchScheduler], replace: bool = False
) -> type[BatchScheduler]:
    """Register a batching scheduler class under its ``name``.

    Usable as a decorator on custom schedulers, exactly like
    :func:`repro.flows.register_flow`; registered schedulers are immediately
    available to ``nongemm-bench serve`` and the serving sweep axis.
    """
    return SCHEDULER_REGISTRY.register(scheduler_cls.name, scheduler_cls, replace)


for _cls in (
    FIFOScheduler,
    StaticBatchScheduler,
    DynamicBatchScheduler,
    ContinuousBatchScheduler,
):
    register_scheduler(_cls)


def get_scheduler(
    name: str,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_s: float = DEFAULT_MAX_WAIT_S,
) -> BatchScheduler:
    """Instantiate a scheduler by name.

    Returns a **fresh instance** per call (schedulers own mutable queue
    state), unlike the memoized :func:`repro.flows.get_flow`.
    """
    scheduler_cls = SCHEDULER_REGISTRY.get(name)
    scheduler = scheduler_cls(max_batch=max_batch, max_wait_s=max_wait_s)
    scheduler.reset()
    return scheduler


list_schedulers = SCHEDULER_REGISTRY.names
scheduler_entries = SCHEDULER_REGISTRY.entries
