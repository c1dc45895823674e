"""Columnar fast path for the discrete-event serving engine.

:meth:`repro.serving.engine.ServingEngine.run` replaces the reference loop
with *columnar kernels* whenever the scheduler declares one:
specialized replays of each built-in scheduler's decision sequence that

* advance arrivals in chunks over the trace's arrival **column** instead of
  one admission per decision turn (and never materialize ``Request``
  objects at all),
* keep per-device occupancy in scalar registers and write per-request
  starts/completions/batch sizes into preallocated numpy arrays,
* fold per-dispatch accounting either with ``np.cumsum`` (a sequential
  running fold, so bit-identical to the reference loop's repeated ``+=``)
  or with the reference's own scalar adds in dispatch order.

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

With a ``record_requests`` cap the kernels skip the per-event timeline and
full record list entirely: queue-depth samples fold into count/sum/max
accumulators, latencies into the fixed-grid streaming quantile estimator,
and only the seeded reservoir sample of records is materialized — a
million-request trace costs the five per-request columns (~40 B/request)
and nothing else.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ServingError
from repro.serving.metrics import (
    RequestRecord,
    ServingResult,
    sample_record_indices,
    streaming_stats,
)
from repro.serving.trace import RequestTrace


def _running_total(values: np.ndarray) -> float:
    """Sequential left fold of per-dispatch contributions (see module doc)."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


class _Run:
    """Per-run columnar state shared by every kernel."""

    def __init__(self, engine, trace: RequestTrace, scheduler):
        self.engine = engine
        self.trace = trace
        self.scheduler = scheduler
        self.n = trace.num_requests
        self.arrival = trace.arrival_column()
        self.steps = trace.decode_column()
        self.max_steps = int(self.steps.max()) if self.n else 0
        #: dense (plan, platform) cost columns shared with the reference
        #: loop; the iteration planes bound k by the trace's longest decode.
        self.table = engine.costs.cost_table(scheduler.max_batch, self.max_steps)
        # per-request output columns (trace order); every kernel assigns all
        # three before finalize() reads them.
        self.start: np.ndarray = None
        self.completion: np.ndarray = None
        self.batch: np.ndarray = None
        self.cap = engine.config.record_requests
        self.full = self.cap is None
        #: (time, depth) samples in reference order — built only uncapped.
        self.timeline: list[tuple[float, int]] = []
        self.depth_count = 0
        self.depth_sum = 0
        self.depth_max = 0
        self.busy = {spec.kind: 0.0 for spec in engine.platform.devices}
        self.energy = {spec.kind: 0.0 for spec in engine.platform.devices}
        self.gemm = 0.0
        self.non_gemm = 0.0
        self.dispatches = 0
        self.iterations = 0
        self.weighted = 0

    def cost(self, size: int):
        return self.table.row(size)

    def account_columns(self, sizes: np.ndarray, iters: np.ndarray) -> None:
        """The reference loop's sequential per-dispatch accounting, folded
        with ``cumsum`` over iteration-plane lookups (bit-identical: each
        plane cell is the reference's ``seconds * iterations`` product, and
        ``cumsum`` is a running left fold)."""
        table = self.table
        for kind in self.busy:
            self.busy[kind] = _running_total(table.busy_k[kind][sizes, iters])
        for kind in self.energy:
            self.energy[kind] = _running_total(table.energy_k[kind][sizes, iters])
        self.gemm = _running_total(table.gemm_k[sizes, iters])
        self.non_gemm = _running_total(table.non_gemm_k[sizes, iters])
        self.dispatches = int(sizes.size)
        self.iterations = int(iters.sum())
        self.weighted = int((sizes * iters).sum())

    def depth_columns(
        self,
        admit_key: np.ndarray,
        admit_depth: np.ndarray,
        sample_time: np.ndarray,
        sample_depth: np.ndarray,
    ) -> None:
        """Rebuild the queue-depth timeline (or its streaming accumulators)
        from per-admission and per-dispatch columns.

        ``admit_key`` is the index of the dispatch each admission precedes;
        interleaving uses the stable-sort key trick (``2*admit_key`` vs
        ``2*d + 1``) so admissions for a dispatch precede its sample and
        equal-key admissions stay in arrival order — the reference's exact
        append order."""
        if self.full:
            times = np.concatenate([self.arrival, sample_time])
            depths = np.concatenate([admit_depth, sample_depth])
            keys = np.concatenate(
                [2 * admit_key, 2 * np.arange(sample_time.size, dtype=np.int64) + 1]
            )
            order = np.argsort(keys, kind="stable")
            self.timeline = list(zip(times[order].tolist(), depths[order].tolist()))
        else:
            self.depth_count = int(admit_depth.size + sample_depth.size)
            self.depth_sum = int(admit_depth.sum() + sample_depth.sum())
            self.depth_max = int(
                max(admit_depth.max(initial=0), sample_depth.max(initial=0))
            )

    # -- per-dispatch bookkeeping (scalar kernels) --------------------------

    def note_depth(self, time_s: float, depth: int) -> None:
        if self.full:
            self.timeline.append((time_s, depth))
        else:
            self.depth_count += 1
            self.depth_sum += depth
            if depth > self.depth_max:
                self.depth_max = depth

    def account_dispatch(self, cost, size: int, iterations: int) -> None:
        """The reference loop's per-dispatch accounting, verbatim."""
        for kind, seconds in cost.busy_s.items():
            self.busy[kind] += seconds * iterations
        for kind, joules in cost.energy_j.items():
            self.energy[kind] += joules * iterations
        self.gemm += cost.gemm_s * iterations
        self.non_gemm += cost.non_gemm_s * iterations
        self.dispatches += 1
        self.iterations += iterations
        self.weighted += size * iterations

    # -- result assembly ----------------------------------------------------

    def finalize(self, offered_rate_rps: "float | None") -> ServingResult:
        engine = self.engine
        config = engine.config
        result = ServingResult(
            model=config.model,
            flow=engine.flow.name,
            platform_id=config.platform,
            device=engine.target.value,
            scheduler=self.scheduler.name,
            trace=self.trace.name,
            offered_rate_rps=(
                self.trace.offered_rate_rps
                if offered_rate_rps is None
                else offered_rate_rps
            ),
        )
        result.makespan_s = float(self.completion.max()) - float(self.arrival[0])
        result.num_dispatches = self.dispatches
        result.num_iterations = self.iterations
        result.mean_batch_size = (
            self.weighted / self.iterations if self.iterations else 0.0
        )
        result.busy_s = self.busy
        result.energy_j = self.energy
        result.gemm_busy_s = self.gemm
        result.non_gemm_busy_s = self.non_gemm
        if self.full:
            result.records = self._records(np.arange(self.n))
            result.queue_depth_timeline = tuple(self.timeline)
        else:
            # identical arithmetic to metrics.cap_serving_result, fed from
            # columns instead of record objects — elementwise float64
            # subtraction matches the per-record python subtraction.
            result.stats = streaming_stats(
                self.completion - self.arrival,
                self.start - self.arrival,
                depth_samples=self.depth_count,
                depth_sum=self.depth_sum,
                depth_max=self.depth_max,
            )
            result.num_served = self.n
            result.record_cap = self.cap
            result.records = self._records(sample_record_indices(self.n, self.cap))
        return result

    def _records(self, indices: np.ndarray) -> list[RequestRecord]:
        ids = self.trace.id_column()[indices].tolist()
        arrivals = self.arrival[indices].tolist()
        starts = self.start[indices].tolist()
        completions = self.completion[indices].tolist()
        steps = self.steps[indices].tolist()
        batches = self.batch[indices].tolist()
        return [
            RequestRecord(rid, a, s, c, d, b)
            for rid, a, s, c, d, b in zip(
                ids, arrivals, starts, completions, steps, batches
            )
        ]


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

    # accounting: one dispatch per request with k_i iterations; cumsum of the
    # per-dispatch contributions is the reference's sequential accumulation.
    iteration_counts = run.steps
    run.dispatches = run.n
    run.iterations = int(iteration_counts.sum())
    run.weighted = run.iterations  # size 1 per dispatch
    for kind, seconds in cost.busy_s.items():
        run.busy[kind] = _running_total(seconds * iteration_counts)
    for kind, joules in cost.energy_j.items():
        run.energy[kind] = _running_total(joules * iteration_counts)
    run.gemm = _running_total(cost.gemm_s * iteration_counts)
    run.non_gemm = _running_total(cost.non_gemm_s * iteration_counts)

    # queue-depth samples: request j is admitted right before dispatch
    # d(j) = first i with start_i >= arrival_j (starts strictly increase, so
    # searchsorted is exact); at that point d(j) requests have been taken.
    order_index = np.arange(run.n, dtype=np.int64)
    admit_before = np.searchsorted(run.start, run.arrival, side="left")
    admit_depth = order_index + 1 - admit_before
    admitted_at = np.searchsorted(admit_before, order_index, side="right")
    dispatch_depth = admitted_at - order_index - 1
    if run.full:
        times = np.concatenate([run.arrival, run.start])
        depths = np.concatenate([admit_depth, dispatch_depth])
        # admissions for a dispatch precede the dispatch sample; the stable
        # sort keeps equal-key admissions in arrival order.
        keys = np.concatenate([2 * admit_before, 2 * order_index + 1])
        order = np.argsort(keys, kind="stable")
        run.timeline = list(zip(times[order].tolist(), depths[order].tolist()))
    else:
        run.depth_count = 2 * run.n
        run.depth_sum = int(admit_depth.sum() + dispatch_depth.sum())
        run.depth_max = int(
            max(admit_depth.max(initial=0), dispatch_depth.max(initial=0))
        )


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
    run.account_columns(sizes, iters)

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
    run.depth_columns(admit_dispatch, admit_depth, start_arr, sample_depth)


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
    run.account_columns(sizes, np.ones(turns, dtype=np.int64))

    admit_turn = np.searchsorted(now_arr, run.arrival, side="left")
    admit_depth = positions + 1 - joined_pre[admit_turn]
    admitted_at = np.searchsorted(run.arrival, now_arr, side="right")
    sample_depth = admitted_at - joined_post
    run.depth_columns(admit_turn, admit_depth, start_arr, sample_depth)


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
    run = _Run(engine, trace, scheduler)
    kernel(run)
    result = run.finalize(offered_rate_rps)
    result.backend_used = "columnar"
    return result
