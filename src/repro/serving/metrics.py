"""Serving metrics: tail latency, throughput, occupancy, queue depth.

:class:`ServingResult` is the engine's output: plain scalars, dicts, and
per-request :class:`RequestRecord` tuples — no plan, graph, or platform
backrefs — so results ship over process-pool IPC and pickle lean without a
``detach()`` step (the serving analogue of ``ProfileResult.detach``).

Percentiles use the deterministic nearest-rank definition (the
``ceil(q * n)``-th smallest sample), so reported tails are actual observed
latencies and byte-stable across runs and platforms.

Million-request runs don't keep every sample: with a ``record_requests``
cap on the serving config, results carry a uniform reservoir sample of the
records plus a :class:`StreamingStats` block — O(1)-memory aggregates with
percentiles from a fixed log-grid estimator (:class:`StreamingQuantile`,
relative error below one grid step ≈ 0.9%).  Capping is a deterministic
pure function of the full run (:func:`cap_serving_result`), so the fast and
reference backends produce identical capped results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.hardware.device import DeviceKind


class RequestRecord(NamedTuple):
    """Timeline of one served request."""

    request_id: int
    arrival_s: float
    #: when the request's first dispatch began (queueing ends here).
    start_s: float
    completion_s: float
    decode_steps: int
    #: graph batch size of the dispatch that completed the request.
    batch_size: int

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        return self.start_s - self.arrival_s


def nearest_rank(sorted_values: list[float], quantile: float) -> float:
    """The nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(quantile * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


# -- streaming (O(1)-memory) aggregation -------------------------------------


def _ordered_sum(values: np.ndarray) -> float:
    """Sequential left-to-right accumulation: ``np.cumsum`` is a running
    fold, so this matches repeated scalar ``+=`` bit for bit (pairwise
    ``np.sum`` does not)."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


#: bounds and resolution of the streaming quantile grid (seconds).
QUANTILE_GRID_LO = 1e-7
QUANTILE_GRID_HI = 1e4
QUANTILE_BINS_PER_DECADE = 256

_GRID_DECADES = 11  # 1e-7 .. 1e4
_GRID_EDGES = np.geomspace(
    QUANTILE_GRID_LO, QUANTILE_GRID_HI, _GRID_DECADES * QUANTILE_BINS_PER_DECADE + 1
)


class StreamingQuantile:
    """Fixed log-grid quantile estimator with O(1) memory.

    Samples are binned into :data:`QUANTILE_BINS_PER_DECADE` log-spaced
    counters per decade spanning ``[1e-7, 1e4]`` seconds (~22 KB of int64
    counts).  ``quantile(q)`` locates the bin holding the nearest-rank
    sample and reports its **upper edge**, clamped into the observed
    ``[min, max]``:

    * the estimate never undershoots the exact nearest-rank value and
      overshoots by less than one grid step (``10**(1/256) - 1`` < 0.91%
      relative) — pinned by the adversarial-sample accuracy tests;
    * constant samples are exact (the max clamp);
    * samples outside the grid clamp to its ends, where the min/max clamp
      keeps the reported value an actually-observed one.

    Unlike P²-style estimators, accuracy is unconditional — bimodal and
    heavy-tailed samples cannot push the error beyond the grid step.
    """

    __slots__ = ("_counts", "_count", "_min", "_max")

    def __init__(self) -> None:
        self._counts = np.zeros(_GRID_EDGES.size, dtype=np.int64)
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._count

    def add(self, values: np.ndarray) -> None:
        """Fold a batch of samples (seconds) into the grid."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self._count += int(values.size)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        bins = np.searchsorted(_GRID_EDGES, values, side="left")
        np.minimum(bins, _GRID_EDGES.size - 1, out=bins)
        self._counts += np.bincount(bins, minlength=_GRID_EDGES.size)

    def quantile(self, q: float) -> float:
        """The nearest-rank quantile estimate (upper grid edge, clamped to
        the observed extrema)."""
        if self._count == 0:
            return 0.0
        rank = max(math.ceil(q * self._count), 1)
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        if index == 0:
            # underflow bin: every sample here is below the grid's lowest
            # edge, so the smallest observed value is the tightest estimate.
            return self._min
        if index == _GRID_EDGES.size - 1:
            # top bin (which also absorbs overflow): the largest observed
            # value both bounds the bin's samples and covers overflow.
            return self._max
        estimate = float(_GRID_EDGES[index])
        return min(max(estimate, self._min), self._max)


@dataclass(frozen=True)
class StreamingStats:
    """O(1)-size aggregates of a capped (``record_requests``) run.

    Percentiles come from :class:`StreamingQuantile` (upper-grid-edge
    estimates, < 0.91% relative error); means are sequential-order float
    folds, so both backends produce identical blocks.
    """

    num_requests: int
    mean_latency_s: float
    max_latency_s: float
    mean_queue_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    #: queue-depth samples (one per admission and per dispatch): the
    #: streaming replacement for ``queue_depth_timeline``.
    depth_samples: int = 0
    depth_sum: int = 0
    depth_max: int = 0


def streaming_stats(
    latencies: np.ndarray,
    queue_delays: "np.ndarray | None" = None,
    depth_samples: int = 0,
    depth_sum: int = 0,
    depth_max: int = 0,
) -> StreamingStats:
    """Fold latency (and optional queueing-delay) columns into a
    :class:`StreamingStats` block.  Deterministic and order-sensitive —
    callers must pass columns in the canonical (trace/record) order so both
    backends agree bit for bit."""
    latencies = np.asarray(latencies, dtype=np.float64)
    count = int(latencies.size)
    estimator = StreamingQuantile()
    estimator.add(latencies)
    if queue_delays is None:
        queue_delays = np.zeros(0)
    else:
        queue_delays = np.asarray(queue_delays, dtype=np.float64)
    return StreamingStats(
        num_requests=count,
        mean_latency_s=_ordered_sum(latencies) / count if count else 0.0,
        max_latency_s=float(latencies.max()) if count else 0.0,
        mean_queue_s=(
            _ordered_sum(queue_delays) / int(queue_delays.size)
            if queue_delays.size
            else 0.0
        ),
        p50_s=estimator.quantile(0.50),
        p95_s=estimator.quantile(0.95),
        p99_s=estimator.quantile(0.99),
        depth_samples=depth_samples,
        depth_sum=depth_sum,
        depth_max=depth_max,
    )


def sample_record_indices(total: int, cap: int) -> np.ndarray:
    """A sorted uniform random size-``cap`` subset of ``range(total)`` — the
    reservoir-sample distribution, drawn in one vectorized call from a
    generator seeded by ``(total, cap)`` so repeat runs and both backends
    keep identical record samples."""
    if cap >= total:
        return np.arange(total, dtype=np.int64)
    rng = np.random.default_rng((total, cap))
    picks = rng.choice(total, size=cap, replace=False)
    picks.sort()
    return picks.astype(np.int64, copy=False)


@dataclass
class ServingResult:
    """Aggregate outcome of one serving simulation."""

    model: str
    flow: str
    platform_id: str
    device: str
    scheduler: str
    trace: str
    offered_rate_rps: float
    records: list[RequestRecord] = field(default_factory=list)
    #: first arrival to last completion.
    makespan_s: float = 0.0
    num_dispatches: int = 0
    #: model iterations executed (>= num_dispatches for decode workloads).
    num_iterations: int = 0
    mean_batch_size: float = 0.0
    #: per-device busy seconds / energy, summed over every iteration.
    busy_s: dict[DeviceKind, float] = field(default_factory=dict)
    energy_j: dict[DeviceKind, float] = field(default_factory=dict)
    gemm_busy_s: float = 0.0
    non_gemm_busy_s: float = 0.0
    #: queue depth sampled at every admission and dispatch (time, depth);
    #: empty in capped runs (``stats`` carries the depth accumulators).
    queue_depth_timeline: tuple[tuple[float, int], ...] = ()
    #: requests actually served when ``records`` is a capped sample;
    #: ``None`` means records are complete.
    num_served: int | None = None
    #: the ``record_requests`` cap that produced the sample (``None``: none).
    record_cap: int | None = None
    #: O(1) streaming aggregates; present exactly when records are capped.
    stats: StreamingStats | None = None
    #: which path actually served the run ("columnar" / "reference");
    #: diagnostic only, excluded from equality so fast-vs-reference
    #: crosschecks still compare every physical field.
    backend_used: str | None = field(default=None, compare=False)

    # -- latency -----------------------------------------------------------

    def latencies_s(self) -> list[float]:
        return sorted(record.latency_s for record in self.records)

    @property
    def p50_s(self) -> float:
        if self.stats is not None:
            return self.stats.p50_s
        return nearest_rank(self.latencies_s(), 0.50)

    @property
    def p95_s(self) -> float:
        if self.stats is not None:
            return self.stats.p95_s
        return nearest_rank(self.latencies_s(), 0.95)

    @property
    def p99_s(self) -> float:
        if self.stats is not None:
            return self.stats.p99_s
        return nearest_rank(self.latencies_s(), 0.99)

    @property
    def mean_latency_s(self) -> float:
        if self.stats is not None:
            return self.stats.mean_latency_s
        if not self.records:
            return 0.0
        return sum(record.latency_s for record in self.records) / len(self.records)

    @property
    def max_latency_s(self) -> float:
        if self.stats is not None:
            return self.stats.max_latency_s
        if not self.records:
            return 0.0
        return max(record.latency_s for record in self.records)

    @property
    def mean_queue_s(self) -> float:
        if self.stats is not None:
            return self.stats.mean_queue_s
        if not self.records:
            return 0.0
        return sum(record.queue_s for record in self.records) / len(self.records)

    # -- throughput & occupancy -------------------------------------------

    @property
    def num_requests_served(self) -> int:
        """Requests served, whether or not records are capped."""
        if self.num_served is not None:
            return self.num_served
        return len(self.records)

    @property
    def throughput_rps(self) -> float:
        if self.makespan_s <= 0.0:
            return 0.0
        return self.num_requests_served / self.makespan_s

    def utilization(self) -> dict[DeviceKind, float]:
        """Busy fraction of the makespan per device."""
        if self.makespan_s <= 0.0:
            return {kind: 0.0 for kind in self.busy_s}
        return {kind: busy / self.makespan_s for kind, busy in self.busy_s.items()}

    @property
    def non_gemm_busy_share(self) -> float:
        """Non-GEMM fraction of all simulated kernel time under load."""
        total = self.gemm_busy_s + self.non_gemm_busy_s
        if total <= 0.0:
            return 0.0
        return self.non_gemm_busy_s / total

    @property
    def max_queue_depth(self) -> int:
        if self.stats is not None:
            return self.stats.depth_max
        if not self.queue_depth_timeline:
            return 0
        return max(depth for _, depth in self.queue_depth_timeline)

    @property
    def mean_queue_depth(self) -> float:
        """Mean of the queue-depth samples (taken at every transition)."""
        if self.stats is not None:
            if not self.stats.depth_samples:
                return 0.0
            return self.stats.depth_sum / self.stats.depth_samples
        if not self.queue_depth_timeline:
            return 0.0
        return sum(depth for _, depth in self.queue_depth_timeline) / len(
            self.queue_depth_timeline
        )

    def describe(self) -> str:
        return (
            f"{self.model} [{self.flow}, platform {self.platform_id}, {self.device},"
            f" {self.scheduler}] {self.offered_rate_rps:.1f} rps offered:"
            f" {self.throughput_rps:.1f} rps served, p50 {self.p50_s * 1e3:.2f} ms,"
            f" p99 {self.p99_s * 1e3:.2f} ms, mean batch {self.mean_batch_size:.2f},"
            f" non-GEMM busy {self.non_gemm_busy_share:.1%}"
        )


def cap_serving_result(result: ServingResult, cap: int) -> ServingResult:
    """Convert a fully-recorded result into its capped/streaming form.

    A deterministic pure function of the full run: streaming aggregates are
    folded from the record columns in record order, the kept records are the
    seeded uniform sample of :func:`sample_record_indices`, and the
    queue-depth timeline collapses into count/sum/max accumulators.  The
    columnar fast backend produces this same form directly (without ever
    building the full lists); applying this to a reference run must —
    and the equivalence battery checks it does — yield identical bytes.
    """
    records = result.records
    latencies = np.array(
        [record.completion_s - record.arrival_s for record in records], dtype=np.float64
    )
    queue_delays = np.array(
        [record.start_s - record.arrival_s for record in records], dtype=np.float64
    )
    depths = [depth for _, depth in result.queue_depth_timeline]
    result.stats = streaming_stats(
        latencies,
        queue_delays,
        depth_samples=len(depths),
        depth_sum=sum(depths),
        depth_max=max(depths) if depths else 0,
    )
    result.num_served = len(records)
    result.record_cap = cap
    keep = sample_record_indices(len(records), cap)
    result.records = [records[index] for index in keep.tolist()]
    result.queue_depth_timeline = ()
    return result


# -- column-to-result assembly (the columnar paths) ----------------------------
#
# The columnar engine and fleet rails hand their outputs over as columns, and
# the two assemblers below are the only production code that turns columns
# into results.  The reference loops build full results in their own loops
# and cap them with cap_serving_result / cap_cluster_result, so the
# equivalence batteries compare two independent assemblies.


def assemble_replica(
    header: dict,
    requests: "tuple[np.ndarray, ...]",
    sizes: np.ndarray,
    iterations: np.ndarray,
    table,
    depth: "tuple[np.ndarray, np.ndarray, np.ndarray | None]",
    cap: int | None,
    multipliers: "np.ndarray | float" = 1.0,
    fallback: "tuple[object, np.ndarray] | None" = None,
) -> ServingResult:
    """One engine's (or fleet replica's) :class:`ServingResult` from columns.

    * ``header`` — the identity fields (model, flow, platform_id, device,
      scheduler, trace, offered_rate_rps);
    * ``requests`` — per-request columns in :class:`RequestRecord` field
      order (ids, arrival/admit times, starts, completions, decode steps,
      batch sizes), each in record order;
    * ``sizes`` / ``iterations`` — per-dispatch columns in fold order.  Every
      accounting column folds as ``(column[sizes] * multipliers) *
      iterations`` in a sequential ``cumsum`` — the reference's ``seconds *
      multiplier * iterations`` accumulated with ``+=`` (without stragglers
      the multiplier is 1.0, and ``x * 1.0 == x``);
    * ``table`` — the :class:`~repro.serving.cost.BatchCostTable` that priced
      the dispatches; ``fallback`` is ``(table, mask)`` when the dispatches
      under ``mask`` were priced by an accelerator-loss fallback table (the
      device kinds that table lacks contribute exact 0.0 terms);
    * ``depth`` — queue-depth samples ``(times, depths, key)``: the timeline
      is the samples stably sorted by ``key`` (``None``: already in order);
      a capped result reads only ``depths``;
    * ``cap`` — ``None`` keeps every record and the timeline; otherwise the
      result takes :func:`cap_serving_result`'s capped form.

    Zero requests and zero dispatches give an idle replica's result.
    """
    ids, arrival, start, completion = requests[:4]

    def fold(column_of) -> float:
        """The sequential fold of the column ``column_of(table)`` picks."""
        values = column_of(table)[sizes]
        if fallback is not None:
            fallback_table, mask = fallback
            alt = column_of(fallback_table)
            alt = np.zeros(sizes.size) if alt is None else alt[sizes]
            values = np.where(mask, alt, values)
        return _ordered_sum((values * multipliers) * iterations)

    num_iterations = int(iterations.sum())
    result = ServingResult(
        **header,
        makespan_s=(
            float(completion.max()) - float(arrival.min()) if ids.size else 0.0
        ),
        num_dispatches=int(sizes.size),
        num_iterations=num_iterations,
        mean_batch_size=(
            int((sizes * iterations).sum()) / num_iterations if num_iterations else 0.0
        ),
        busy_s={kind: fold(lambda t: t.busy_s.get(kind)) for kind in table.busy_s},
        energy_j={kind: fold(lambda t: t.energy_j.get(kind)) for kind in table.energy_j},
        gemm_busy_s=fold(lambda t: t.gemm_s),
        non_gemm_busy_s=fold(lambda t: t.non_gemm_s),
    )
    times, depths, key = depth
    depths = np.asarray(depths, dtype=np.int64)
    if cap is None:
        times = np.asarray(times, dtype=np.float64)
        if key is not None:
            order = np.argsort(key, kind="stable")
            times = times[order]
            depths = depths[order]
        result.queue_depth_timeline = tuple(zip(times.tolist(), depths.tolist()))
        keep = None
    else:
        result.stats = streaming_stats(
            completion - arrival,
            start - arrival,
            depth_samples=int(depths.size),
            depth_sum=int(depths.sum()),
            depth_max=int(depths.max(initial=0)),
        )
        result.num_served = int(ids.size)
        result.record_cap = cap
        keep = sample_record_indices(int(ids.size), cap)
    result.records = [
        RequestRecord(*row)
        for row in zip(
            *(
                (column if keep is None else column[keep]).tolist()
                for column in requests
            )
        )
    ]
    return result


# -- cluster-level aggregation ----------------------------------------------

#: terminal states of a cluster request.
REQUEST_OK = "ok"
REQUEST_SHED = "shed"
REQUEST_FAILED = "failed"
#: the states by their code in an :func:`assemble_fleet_records` status column.
REQUEST_STATUSES = (REQUEST_OK, REQUEST_SHED, REQUEST_FAILED)
STATUS_OK, STATUS_SHED, STATUS_FAILED = range(len(REQUEST_STATUSES))


class ClusterRequestRecord(NamedTuple):
    """Outcome of one request routed through a :class:`ClusterRouter`.

    ``completion_s`` is ``None`` for shed and failed requests.  ``replica``
    is the replica whose dispatch completed the request (the hedge winner
    when hedged), or ``-1`` if it never completed.  ``attempts`` counts
    admissions: 1 for a first-try completion, +1 per timeout retry.
    """

    request_id: int
    arrival_s: float
    completion_s: float | None
    status: str
    replica: int
    attempts: int
    hedged: bool
    hedge_won: bool

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s


class ScaleEvent(NamedTuple):
    """One entry of the autoscaling audit log.

    ``action`` is ``"up"`` (provisioning decided), ``"online"`` (the
    provision delay elapsed, the replica admits work), ``"down"`` (drain
    decided, the replica stops admitting), or ``"drained"`` (backlog
    finished, the replica went offline).  ``serving`` is the number of
    replicas online-and-not-draining once the event takes effect.
    """

    time_s: float
    action: str
    replica: int
    serving: int
    reason: str


@dataclass
class ClusterResult:
    """Aggregate outcome of one multi-replica cluster simulation.

    Per-replica detail lives in ``replicas`` — one plan-free
    :class:`ServingResult` each (the single-replica no-fault cluster's
    ``replicas[0]`` is bit-identical to a plain engine run; the equivalence
    battery pins this).  Cluster-level records track what each *request*
    experienced across retries, hedges, and shedding.
    """

    model: str
    flow: str
    device: str
    scheduler: str
    policy: str
    trace: str
    fault_profile: str
    platform_ids: tuple[str, ...]
    offered_rate_rps: float
    #: goodput deadline; ``None`` counts every completion as good.
    deadline_s: float | None = None
    records: list[ClusterRequestRecord] = field(default_factory=list)
    replicas: list[ServingResult] = field(default_factory=list)
    #: first arrival to last completion.
    makespan_s: float = 0.0
    num_shed: int = 0
    num_failed: int = 0
    #: timeout-driven re-admissions (not counting each request's first).
    num_retries: int = 0
    #: hedge copies launched / hedge copies that finished first.
    num_hedges: int = 0
    num_hedge_wins: int = 0
    #: worst time from a fault window clearing to the afflicted replica's
    #: first dispatch completion afterwards (0 when no fault or no work).
    time_to_recovery_s: float = 0.0
    #: serving-replica count over time: ``(time_s, count)`` steps, starting
    #: at t=0.  A fixed fleet (or an autoscaled run whose controller never
    #: acted) has the single entry ``(0.0, num_replicas)``.
    replica_timeline: tuple[tuple[float, int], ...] = ()
    #: autoscaling audit log (empty for fixed fleets).
    scale_events: tuple[ScaleEvent, ...] = ()
    #: provisioned capacity paid for, in replica-seconds: each replica's
    #: held span (scale-up decision through drain completion, provisioning
    #: delay included) clipped to the run's [first arrival, last
    #: completion] window.  ``num_replicas * makespan_s`` for fixed fleets.
    replica_seconds: float = 0.0
    #: per-replica *active window* (online span within the run window, in
    #: seconds) — the denominator :meth:`active_utilization` normalizes
    #: by.  Every entry equals ``makespan_s`` for fixed fleets.
    replica_active_s: tuple[float, ...] = ()
    #: trace size / completions / within-deadline completions when
    #: ``records`` is a capped sample; ``None`` means records are complete.
    num_requests_total: int | None = None
    num_completed: int | None = None
    num_good: int | None = None
    #: the ``record_requests`` cap that produced the sample (``None``: none).
    record_cap: int | None = None
    #: streaming aggregates over admitted-completed latencies; present
    #: exactly when records are capped.
    stats: StreamingStats | None = None
    #: which path actually served the run ("columnar" for the no-fault
    #: launch machines, "columnar-faulted" for the fault-capable replay,
    #: "reference" for the event loop); diagnostic only, excluded from
    #: equality so fast-vs-reference crosschecks compare physical fields.
    backend_used: str | None = field(default=None, compare=False)
    #: why the run fell back to the reference event loop (``None`` when a
    #: columnar path ran).
    fast_path_fallback_reason: str | None = field(default=None, compare=False)

    @property
    def num_replicas(self) -> int:
        return len(self.platform_ids)

    def completed(self) -> list[ClusterRequestRecord]:
        return [r for r in self.records if r.status == REQUEST_OK]

    def latencies_s(self) -> list[float]:
        """Ascending latencies of *admitted, completed* requests."""
        return sorted(r.latency_s for r in self.completed())

    @property
    def p50_s(self) -> float:
        if self.stats is not None:
            return self.stats.p50_s
        return nearest_rank(self.latencies_s(), 0.50)

    @property
    def p95_s(self) -> float:
        if self.stats is not None:
            return self.stats.p95_s
        return nearest_rank(self.latencies_s(), 0.95)

    @property
    def p99_s(self) -> float:
        if self.stats is not None:
            return self.stats.p99_s
        return nearest_rank(self.latencies_s(), 0.99)

    @property
    def mean_latency_s(self) -> float:
        if self.stats is not None:
            return self.stats.mean_latency_s
        latencies = self.latencies_s()
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    @property
    def goodput(self) -> float:
        """Completed-within-deadline fraction of *all* trace requests.

        Shed and failed requests count against goodput — degrading
        gracefully means the good fraction stays high even though some
        requests are turned away.
        """
        if self.num_good is not None:
            if not self.num_requests_total:
                return 0.0
            return self.num_good / self.num_requests_total
        if not self.records:
            return 0.0
        good = sum(
            1
            for r in self.completed()
            if self.deadline_s is None or r.latency_s <= self.deadline_s
        )
        return good / len(self.records)

    @property
    def throughput_rps(self) -> float:
        if self.makespan_s <= 0.0:
            return 0.0
        completed = (
            self.num_completed if self.num_completed is not None else len(self.completed())
        )
        return completed / self.makespan_s

    def utilization(self) -> list[dict[DeviceKind, float]]:
        """Per-replica busy fraction of the *cluster* makespan."""
        if self.makespan_s <= 0.0:
            return [{kind: 0.0 for kind in r.busy_s} for r in self.replicas]
        return [
            {kind: busy / self.makespan_s for kind, busy in r.busy_s.items()}
            for r in self.replicas
        ]

    def active_utilization(self) -> list[dict[DeviceKind, float]]:
        """Per-replica busy fraction of that replica's *active window*.

        Normalizing by the cluster makespan understates replicas that
        joined late or drained early; this divides each replica's busy
        time by its own online span (``replica_active_s``), so an
        autoscaled replica that served hard for a short life reads as
        busy, not idle.  Falls back to the makespan when lifecycle fields
        are absent (a result predating them), matching :meth:`utilization`.
        """
        out = []
        for index, replica in enumerate(self.replicas):
            window = (
                self.replica_active_s[index]
                if index < len(self.replica_active_s)
                else self.makespan_s
            )
            if window <= 0.0:
                out.append({kind: 0.0 for kind in replica.busy_s})
            else:
                out.append(
                    {kind: busy / window for kind, busy in replica.busy_s.items()}
                )
        return out

    @property
    def mean_replicas(self) -> float:
        """Time-averaged paid fleet size (replica-seconds over makespan)."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.replica_seconds / self.makespan_s

    @property
    def total_energy_j(self) -> float:
        return sum(sum(r.energy_j.values()) for r in self.replicas)

    @property
    def non_gemm_busy_share(self) -> float:
        gemm = sum(r.gemm_busy_s for r in self.replicas)
        non_gemm = sum(r.non_gemm_busy_s for r in self.replicas)
        total = gemm + non_gemm
        if total <= 0.0:
            return 0.0
        return non_gemm / total

    def describe(self) -> str:
        return (
            f"{self.model} [{self.flow}, {self.num_replicas}x"
            f" {'/'.join(self.platform_ids)}, {self.scheduler}, {self.policy},"
            f" faults={self.fault_profile}] {self.offered_rate_rps:.1f} rps offered:"
            f" {self.throughput_rps:.1f} rps served, goodput {self.goodput:.1%},"
            f" p99 {self.p99_s * 1e3:.2f} ms, shed {self.num_shed},"
            f" retries {self.num_retries}, hedge wins {self.num_hedge_wins}"
        )


def apply_static_lifecycle(result: ClusterResult) -> ClusterResult:
    """Fill the lifecycle fields of a fixed-fleet run.

    Every replica is online for the whole run, so the timeline is one
    step, the paid cost is ``replicas * makespan`` (a single multiply —
    the arithmetic an autoscaled run with zero scale events must also
    use, so a pinned ``min == max`` controller stays bit-identical to the
    plain router on every rail).
    """
    count = result.num_replicas
    span = result.makespan_s
    result.replica_timeline = ((0.0, count),)
    result.scale_events = ()
    result.replica_seconds = count * span
    result.replica_active_s = (span,) * count
    return result


def cap_cluster_result(result: ClusterResult, cap: int) -> ClusterResult:
    """Convert a fully-recorded cluster result into its capped form.

    Goodput/throughput counters and streaming latency aggregates are folded
    from the full record list (in trace order, completed requests only for
    latencies), then cluster records are reservoir-sampled and each replica
    result is capped via :func:`cap_serving_result`.  Deterministic, so both
    router backends produce identical capped results.
    """
    completed = [r for r in result.records if r.status == REQUEST_OK]
    latencies = np.array(
        [r.completion_s - r.arrival_s for r in completed], dtype=np.float64
    )
    result.stats = streaming_stats(latencies)
    result.num_requests_total = len(result.records)
    result.num_completed = len(completed)
    result.num_good = sum(
        1
        for r in completed
        if result.deadline_s is None
        or (r.completion_s - r.arrival_s) <= result.deadline_s
    )
    result.record_cap = cap
    keep = sample_record_indices(len(result.records), cap)
    result.records = [result.records[index] for index in keep.tolist()]
    result.replicas = [
        replica if replica.record_cap is not None else cap_serving_result(replica, cap)
        for replica in result.replicas
    ]
    return result


def assemble_fleet_records(
    result: ClusterResult,
    ids: np.ndarray,
    arrival: np.ndarray,
    completion: np.ndarray,
    status: np.ndarray,
    replica: np.ndarray,
    attempts: np.ndarray,
    cap: int | None,
    hedged: np.ndarray | None = None,
    hedge_won: np.ndarray | None = None,
) -> ClusterResult:
    """Fill a columnar fleet run's request-level fields from trace-order
    columns: ``records``, ``makespan_s``, ``num_shed``/``num_failed`` and,
    under a ``cap``, :func:`cap_cluster_result`'s counters and streaming
    block (latencies of completed requests, deadline from
    ``result.deadline_s``).

    ``status`` holds codes into :data:`REQUEST_STATUSES`; ``completion`` is
    read only where the request completed, and ``replica`` is the winning
    replica there and -1 elsewhere.  ``hedged``/``hedge_won`` are boolean
    columns of a hedged run; ``None`` (a run without hedging) marks no
    record hedged.
    """
    total = int(status.size)
    ok = status == STATUS_OK
    if ok.any():
        result.makespan_s = float(completion[ok].max()) - float(arrival[0])
    result.num_shed = int((status == STATUS_SHED).sum())
    result.num_failed = int((status == STATUS_FAILED).sum())
    if hedged is None:
        hedged = hedge_won = np.zeros(total, dtype=bool)
    columns = (ids, arrival, completion, status, replica, attempts, hedged, hedge_won)
    if cap is not None:
        latencies = completion[ok] - arrival[ok]
        result.stats = streaming_stats(latencies)
        result.num_requests_total = total
        result.num_completed = int(latencies.size)
        result.num_good = (
            int(latencies.size)
            if result.deadline_s is None
            else int((latencies <= result.deadline_s).sum())
        )
        result.record_cap = cap
        keep = sample_record_indices(total, cap)
        columns = tuple(column[keep] for column in columns)
    result.records = [
        ClusterRequestRecord(
            request_id,
            arrival_s,
            completion_s if code == STATUS_OK else None,
            REQUEST_STATUSES[code],
            winner,
            tries,
            was_hedged,
            won,
        )
        for request_id, arrival_s, completion_s, code, winner, tries, was_hedged, won in zip(
            *(column.tolist() for column in columns)
        )
    ]
    return result
