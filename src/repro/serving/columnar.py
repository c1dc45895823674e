"""Columnar fast path for the discrete-event serving engine.

:meth:`repro.serving.engine.ServingEngine.run` replaces the reference loop
with *columnar kernels* whenever the scheduler declares one:
specialized replays of each built-in scheduler's decision sequence that

* advance arrivals in chunks over the trace's arrival **column** instead of
  one admission per decision turn (and never materialize ``Request``
  objects at all),
* keep per-device occupancy in scalar registers and write per-request
  starts/completions/batch sizes into preallocated numpy arrays,
* emit one row per dispatch (size, iterations) and the queue-depth samples
  as columns, which :func:`~repro.serving.metrics.assemble_replica` folds
  and assembles into the :class:`ServingResult` (the accounting as a
  ``np.cumsum`` — a sequential running fold, so bit-identical to the
  reference loop's repeated ``+=``).

Bit-identity is the contract, not an aspiration: every float in a fast
result — starts, completions, busy/energy accumulators, the queue-depth
timeline — is produced by the same IEEE operations in the same order as the
reference loop, and the fast-vs-reference battery asserts full dataclass
equality over every scheduler × platform × load.  Two facts carry most of
the weight:

* for **barrier** schedulers (fifo, continuous) the accelerator never waits:
  the clock advances to each dispatch's end, so ``accel_free <= start`` and
  every iteration completes at ``cursor + total_s`` exactly;
* ``np.cumsum``/batched elementwise products reproduce sequential scalar
  accumulation, while pairwise ``np.sum`` would not.

A scheduler opts into a kernel by *declaring*
:attr:`~repro.serving.scheduler.BatchScheduler.columnar_kernel` in its own
class body.  Custom schedulers (and subclasses that don't redeclare it) fall
back to the reference loop — still correct, just not columnar — and the
``record_requests`` capping applies either way, so streaming results look
the same regardless of which path served them.

With a ``record_requests`` cap the assembler skips the per-event timeline
and the full record list entirely: queue-depth samples fold into
count/sum/max accumulators, latencies into the fixed-grid streaming quantile
estimator, and only the seeded reservoir sample of records is materialized
— a million-request trace costs its per-request and per-dispatch columns
and nothing else.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ServingError
from repro.serving.metrics import ServingResult, assemble_replica
from repro.serving.trace import RequestTrace


class _Run:
    """One kernel invocation: the trace's input columns, and the output
    columns every kernel assigns — per-request ``start``/``completion``/
    ``batch`` in trace order, per-dispatch ``sizes``/``iters`` in dispatch
    order, and the queue-depth samples ``depth`` (see :func:`_depth`)."""

    def __init__(self, trace: RequestTrace, table, scheduler, capped: bool):
        self.scheduler = scheduler
        #: a capped result keeps only the depth samples' count/sum/max.
        self.capped = capped
        self.n = trace.num_requests
        self.arrival = trace.arrival_column()
        self.steps = trace.decode_column()
        self.max_steps = int(self.steps.max()) if self.n else 0
        #: the dense (plan, platform) cost columns shared with the reference
        #: loop and the result assembler.
        self.table = table
        # an empty trace runs no kernel: no requests, dispatches or samples.
        self.start = self.completion = np.zeros(0)
        self.batch = self.sizes = self.iters = np.zeros(0, dtype=np.int64)
        self.depth = (np.zeros(0), self.batch, None)

    def cost(self, size: int):
        return self.table.row(size)


def _depth(run: _Run, admit_key, admit_depth, sample_time, sample_depth) -> tuple:
    """Queue-depth samples from per-admission and per-dispatch columns.

    ``admit_key`` is the index of the dispatch each admission precedes; the
    returned interleave key (``2*admit_key`` vs ``2*d + 1``) sorts the
    admissions for a dispatch before its sample, and a stable sort keeps
    equal-key admissions in arrival order — the reference's exact append
    order.  Capped runs skip the times and the key: the kernel's row lists
    are still alive here, so this is the run's memory high-water mark."""
    depths = np.concatenate([admit_depth, sample_depth])
    if run.capped:
        return None, depths, None
    return (
        np.concatenate([run.arrival, sample_time]),
        depths,
        np.concatenate(
            [2 * admit_key, 2 * np.arange(sample_time.size, dtype=np.int64) + 1]
        ),
    )


# -- kernels ------------------------------------------------------------------


def _run_fifo(run: _Run, more_until: float = float("-inf")) -> None:
    """FIFO: one barrier dispatch per request, in arrival order.

    Closed form (proven against the reference loop): ``start_i =
    max(completion_{i-1}, arrival_i)`` and the completion is ``decode_steps``
    sequential ``+= total_s`` adds — a barrier dispatch's accelerator phase
    never waits, so every iteration takes the uncontended ``total_s`` path.
    The decision-time bookkeeping (admission/dispatch queue depths) is
    reconstructed vectorially from the start column afterwards.
    """
    cost = run.cost(1)
    total_s = cost.total_s
    arrivals = run.arrival.tolist()
    step_counts = run.steps.tolist()
    starts: list[float] = []
    completions: list[float] = []
    push_start = starts.append
    push_end = completions.append
    end = 0.0
    for arrival, iterations in zip(arrivals, step_counts):
        begin = end if end > arrival else arrival
        cursor = begin
        for _ in range(iterations):
            cursor += total_s
        push_start(begin)
        push_end(cursor)
        end = cursor
    run.start = np.array(starts, dtype=np.float64)
    run.completion = np.array(completions, dtype=np.float64)
    run.batch = np.ones(run.n, dtype=np.int64)
    # one dispatch per request with k_i iterations.
    run.sizes = run.batch
    run.iters = run.steps

    # queue-depth samples: request j is admitted right before dispatch
    # d(j) = first i with start_i >= arrival_j (starts strictly increase, so
    # searchsorted is exact); at that point d(j) requests have been taken.
    order_index = np.arange(run.n, dtype=np.int64)
    admit_before = np.searchsorted(run.start, run.arrival, side="left")
    admit_depth = order_index + 1 - admit_before
    admitted_at = np.searchsorted(admit_before, order_index, side="right")
    dispatch_depth = admitted_at - order_index - 1
    run.depth = _depth(run, admit_before, admit_depth, run.start, dispatch_depth)


def _run_batched(
    run: _Run, dynamic: bool, more_until: float = float("-inf")
) -> None:
    """Static/dynamic batching: chunked admissions, scalar occupancy.

    One loop turn per *dispatch* (plus deadline waits for dynamic), with the
    reference's exact iteration arithmetic — including the contended
    accelerator branch these non-barrier schedulers can hit.  The loop only
    records one row per dispatch (decision clock, start, end, size,
    iterations); per-request columns, accounting folds, and the queue-depth
    timeline are all reconstructed vectorially afterwards:

    * admissions advance in chunks via ``bisect_right`` over the arrival
      column — the reference admits every due arrival at the top of each
      turn, so only the *count* matters during the loop;
    * request ``j`` is admitted before dispatch ``d(j)``, the first dispatch
      turn whose decision clock is ``>= arrival_j`` (turn clocks are
      monotone, so one ``searchsorted`` recovers every admission's position
      and therefore its noted queue depth);
    * the post-dispatch depth sample is ``(# arrivals <= clock) - taken``,
      another ``searchsorted``.

    ``more_until`` models the cluster's *global* ``arrivals_pending`` flag:
    a replica's sub-trace may exhaust while other replicas still have
    arrivals due, and the reference scheduler keeps holding a partial batch
    until the whole trace's last arrival (exclusive) has been drained.  The
    solo engine passes the default ``-inf`` (no outside arrivals), which
    reduces to the original ``admitted < n`` predicate.
    """
    scheduler = run.scheduler
    batch_cap = scheduler.max_batch
    max_wait_s = scheduler.max_wait_s
    n = run.n
    arrivals = run.arrival.tolist()
    steps = run.steps.tolist()
    # one row per dispatch, converted to columns once at the end.
    now_l: list[float] = []
    start_l: list[float] = []
    end_l: list[float] = []
    size_l: list[int] = []
    iter_l: list[int] = []

    now = 0.0
    host_free = 0.0
    accel_free = 0.0
    admitted = 0  # arrivals admitted so far (queue tail)
    taken = 0  # requests dispatched so far (queue head)
    while taken < n:
        if admitted < n and arrivals[admitted] <= now:
            admitted = bisect_right(arrivals, now, admitted + 1)
        queued = admitted - taken
        if queued == 0:
            now = arrivals[admitted]
            continue
        if queued < batch_cap and (admitted < n or now < more_until):
            if not dynamic:
                # static: keep accumulating until the batch fills (or, in a
                # cluster, until the global arrival stream dries up).
                now = arrivals[admitted] if admitted < n else more_until
                continue
            deadline = arrivals[taken] + max_wait_s
            if now < deadline:
                next_arrival = arrivals[admitted] if admitted < n else more_until
                now = deadline if deadline < next_arrival else next_arrival
                continue
        size = batch_cap if queued > batch_cap else queued
        iterations = max(steps[taken : taken + size])
        cost = run.cost(size)
        host_s = cost.host_s
        accel_s = cost.accel_s
        total_s = cost.total_s
        has_accel = cost.has_accel
        start = now if now > host_free else host_free
        cursor = start
        for _ in range(iterations):
            host_end = cursor + host_s
            if has_accel:
                if accel_free > host_end:
                    end = accel_free + accel_s
                else:
                    end = cursor + total_s
                accel_free = end
            else:
                end = cursor + total_s
                host_end = end
            host_free = host_end
            cursor = end
        now_l.append(now)
        start_l.append(start)
        end_l.append(cursor)
        size_l.append(size)
        iter_l.append(iterations)
        taken += size
        now = now if now > host_free else host_free

    sizes = np.array(size_l, dtype=np.int64)
    iters = np.array(iter_l, dtype=np.int64)
    start_arr = np.array(start_l, dtype=np.float64)
    end_arr = np.array(end_l, dtype=np.float64)
    now_arr = np.array(now_l, dtype=np.float64)
    run.start = np.repeat(start_arr, sizes)
    run.completion = np.repeat(end_arr, sizes)
    run.batch = np.repeat(sizes, sizes)
    run.sizes = sizes
    run.iters = iters

    # queue-depth reconstruction (see docstring): taken_before[d] is the
    # queue head when dispatch d's turn starts — also the head at every wait
    # turn since the previous dispatch, so it prices each admission exactly.
    taken_before = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    admit_dispatch = np.searchsorted(now_arr, run.arrival, side="left")
    admit_depth = (
        np.arange(1, n + 1, dtype=np.int64) - taken_before[admit_dispatch]
    )
    admitted_at = np.searchsorted(run.arrival, now_arr, side="right")
    sample_depth = admitted_at - (taken_before + sizes)
    run.depth = _depth(run, admit_dispatch, admit_depth, start_arr, sample_depth)


def _run_static(run: _Run, more_until: float = float("-inf")) -> None:
    _run_batched(run, dynamic=False, more_until=more_until)


def _run_dynamic(run: _Run, more_until: float = float("-inf")) -> None:
    _run_batched(run, dynamic=True, more_until=more_until)


def _run_continuous(run: _Run, more_until: float = float("-inf")) -> None:
    """Continuous (iteration-level) batching: one turn per model iteration.

    Requests join in arrival order and each runs for exactly ``steps[j]``
    consecutive turns, so the in-flight set never needs to be materialized:
    a *leave calendar* (``leaves[t]`` = members whose last iteration is turn
    ``t - 1``, stamped once at join) drives the size recurrence, and the
    loop records one row per turn (decision clock, start, end, size, joined
    head before/after).  Per-request columns fall out afterwards:

    * ``j`` joins at the first turn with ``joined_post > j`` (one
      ``searchsorted`` over the monotone joined-head column) — its start is
      that turn's start;
    * it completes at turn ``join + steps_j - 1`` — its completion/batch
      are that turn's end/size;
    * queue depths replay exactly as in :func:`_run_batched` (turn clocks
      are strictly increasing: every dispatch is a barrier).

    Every dispatch is a barrier, so the accelerator is always uncontended
    and each iteration ends at ``start + total_s`` exactly.
    """
    scheduler = run.scheduler
    batch_cap = scheduler.max_batch
    n = run.n
    arrivals = run.arrival.tolist()
    step_counts = run.steps.tolist()
    # one row per turn, converted to columns once at the end.
    now_l: list[float] = []
    start_l: list[float] = []
    end_l: list[float] = []
    size_l: list[int] = []
    joined_pre_l: list[int] = []
    joined_post_l: list[int] = []
    # every turn retires at least one member step, so the turn count is
    # bounded by the total step count; +2 pads the final lookahead.
    leaves = [0] * (int(run.steps.sum()) + run.max_steps + 2)

    now = 0.0
    host_free = 0.0
    admitted = 0
    joined = 0  # queue head: requests moved into the in-flight set
    size = 0  # in-flight set cardinality
    completed = 0
    turn = 0
    while completed < n:
        if admitted < n and arrivals[admitted] <= now:
            admitted = bisect_right(arrivals, now, admitted + 1)
        free = batch_cap - size
        take = 0
        if free > 0 and admitted > joined:
            backlog = admitted - joined
            take = free if free < backlog else backlog
        if size == 0 and take == 0:
            if admitted < n:
                now = arrivals[admitted]
                continue
            raise ServingError(
                f"continuous kernel stalled with {n - completed} requests"
                f" outstanding at t={now:.6f}s"
            )
        joined_pre_l.append(joined)
        if take:
            for position in range(joined, joined + take):
                leaves[turn + step_counts[position]] += 1
            joined += take
            size += take
        joined_post_l.append(joined)
        cost = run.cost(size)
        start = now if now > host_free else host_free
        end = start + cost.total_s
        host_free = start + cost.host_s if cost.has_accel else end
        now_l.append(now)
        start_l.append(start)
        end_l.append(end)
        size_l.append(size)
        turn += 1
        leavers = leaves[turn]
        completed += leavers
        size -= leavers
        now = end  # barrier

    turns = len(size_l)
    sizes = np.array(size_l, dtype=np.int64)
    start_arr = np.array(start_l, dtype=np.float64)
    end_arr = np.array(end_l, dtype=np.float64)
    now_arr = np.array(now_l, dtype=np.float64)
    joined_pre = np.array(joined_pre_l, dtype=np.int64)
    joined_post = np.array(joined_post_l, dtype=np.int64)

    positions = np.arange(n, dtype=np.int64)
    join_turn = np.searchsorted(joined_post, positions, side="right")
    final_turn = join_turn + run.steps - 1
    run.start = start_arr[join_turn]
    run.completion = end_arr[final_turn]
    run.batch = sizes[final_turn]
    run.sizes = sizes
    run.iters = np.ones(turns, dtype=np.int64)

    admit_turn = np.searchsorted(now_arr, run.arrival, side="left")
    admit_depth = positions + 1 - joined_pre[admit_turn]
    admitted_at = np.searchsorted(run.arrival, now_arr, side="right")
    sample_depth = admitted_at - joined_post
    run.depth = _depth(run, admit_turn, admit_depth, start_arr, sample_depth)


_KERNELS = {
    "fifo": _run_fifo,
    "static": _run_static,
    "dynamic": _run_dynamic,
    "continuous": _run_continuous,
}


def kernel_for(scheduler) -> "object | None":
    """The columnar kernel a scheduler instance *declared*, or ``None``.

    Only a ``columnar_kernel`` set in the instance's own class body counts
    (inherited declarations are ignored — see the scheduler docstring), and
    the name must resolve to a registered kernel.
    """
    name = type(scheduler).__dict__.get("columnar_kernel")
    if name is None:
        return None
    return _KERNELS.get(name)


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


def serve(
    engine,
    trace: RequestTrace,
    scheduler,
    kernel,
    rate: float,
    more_until: float = float("-inf"),
    order: "np.ndarray | None" = None,
) -> "tuple[ServingResult, np.ndarray]":
    """Serve ``trace`` on ``kernel`` and assemble the result.

    Records follow ``order`` (a permutation of trace positions; ``None``
    keeps trace order).  Also returns the completion column in trace order,
    for the fleet's cluster-level scatter.  An empty trace runs no kernel and
    yields an idle replica's result.
    """
    cap = engine.config.record_requests
    run = _Run(
        trace, engine.costs.cost_table(scheduler.max_batch), scheduler, cap is not None
    )
    if run.n:
        kernel(run, more_until=more_until)
    requests = (
        trace.id_column(), run.arrival, run.start, run.completion, run.steps, run.batch
    )
    if order is not None:
        requests = tuple(column[order] for column in requests)
    result = assemble_replica(
        result_header(engine, scheduler.name, trace.name, rate),
        requests,
        run.sizes,
        run.iters,
        run.table,
        run.depth,
        cap,
    )
    return result, run.completion


def run_fast(
    engine, trace: RequestTrace, offered_rate_rps: "float | None" = None
) -> ServingResult:
    """Serve ``trace`` on the columnar path.

    Dispatches to the scheduler's declared kernel; schedulers without one,
    and empty traces, fall back to the engine's reference loop
    (``record_requests`` capping still applies, in
    :meth:`ServingEngine.run`).  Either way the result is bit-identical to
    :meth:`ServingEngine._run_reference`.
    """
    from repro.serving.scheduler import get_scheduler

    config = engine.config
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    kernel = kernel_for(scheduler)
    if kernel is None or trace.num_requests == 0:
        result = engine._run_reference(trace, offered_rate_rps)
        result.backend_used = "reference"
        result.fast_path_fallback_reason = (
            f"scheduler {scheduler.name!r} declares no columnar kernel"
            if kernel is None
            else "empty trace"
        )
        return result
    rate = trace.offered_rate_rps if offered_rate_rps is None else offered_rate_rps
    result, _ = serve(engine, trace, scheduler, kernel, rate)
    result.backend_used = "columnar"
    return result
