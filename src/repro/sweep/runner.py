"""The sweep runner: execute a :class:`SweepSpec` grid point by point.

One code path serves every figure/table harness and the CLI ``sweep``
subcommand.  Each point flows through the memoizing :mod:`~repro.sweep.cache`
(graph build, plan lowering, transforms, memory profiling and whole profile
measurements are all shared across points) and the vectorized simulator, so
large cross-products cost a small multiple of their unique work rather than
of their point count.  A plain profile sweep (no ``load`` axis) stores its
measurements as one store entry, so a warm store serves the whole run
without simulating a point.

For grids whose unique work dominates (many distinct models or sequence
lengths), ``SweepRunner(workers=N)`` fans points out over a process pool;
results come back in grid order regardless of completion order, so outputs
are identical to a serial run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.flows import get_flow
from repro.hardware import get_platform
from repro.profiler.profiler import profile_graph
from repro.profiler.records import ProfileResult
from repro.sweep.cache import PLAN_CACHE, cached_transform
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import ArtifactStore


@dataclass
class SweepRecord:
    """The outcome of one sweep point."""

    point: SweepPoint
    profile: ProfileResult
    #: accounting object returned by the point's graph transform, if any
    #: (e.g. :class:`~repro.quant.llm_int8.QuantizationStats`).
    transform_stats: object | None = None
    #: serving metrics for ``load`` points: a
    #: :class:`~repro.serving.metrics.ServingResult`, or a
    #: :class:`~repro.serving.metrics.ClusterResult` when the point also
    #: names an admission ``policy``; None for plain per-inference points.
    #: Already plan-free — pool workers ship it without a detach step.
    serving: object | None = None


@dataclass
class SweepResult:
    """All records of one sweep run, in grid order.

    ``cache_info`` is the :class:`~repro.sweep.cache.CacheStats` delta this
    run produced: per-stage ``hits`` (in-memory LRU), ``disk_hits``
    (persistent artifact store), and ``misses`` (computed from scratch).
    Serial runs measure the process-global cache directly; worker-pool runs
    (``workers > 1``) sum the per-point deltas each worker ships back with
    its records, so the counters cover every worker's per-process cache.
    """

    spec: SweepSpec
    records: list[SweepRecord] = field(default_factory=list)
    wall_s: float = 0.0
    cache_info: dict[str, object] = field(default_factory=dict)

    @property
    def profiles(self) -> list[ProfileResult]:
        return [record.profile for record in self.records]

    def __len__(self) -> int:
        return len(self.records)


def run_point(point: SweepPoint) -> SweepRecord:
    """Profile one sweep point through the memoizing pipeline."""
    overrides = {} if point.seq_len is None else {"seq_len": point.seq_len}
    transform_stats = None
    model_name = point.model
    # a lazy handle: the build key alone names the graph's content hash, so
    # when the plan and memory caches (either tier) are warm the model is
    # never actually constructed.  A bad override raises a typed
    # RegistryError here, before anything is keyed.
    graph = PLAN_CACHE.graph_ref(point.model, point.batch_size, **overrides)
    if point.transform:
        transformed = cached_transform(point.transform, graph)
        graph = transformed.graph
        transform_stats = getattr(transformed, "stats", None)
        model_name = f"{point.model}-{point.transform}"
    profile = profile_graph(
        graph,
        get_flow(point.flow),
        get_platform(point.platform),
        point.target,
        batch_size=point.batch_size,
        iterations=point.iterations,
        seed=point.seed,
        model_name=model_name,
    )
    serving = None
    if point.load is not None and point.policy is not None:
        # cluster points serve the load through a multi-replica router
        # (``record.serving`` holds a ClusterResult); the replicas' per-batch
        # plans come from the same cache the profile warmed.
        from repro.serving.cluster import serve_cluster_point

        serving = serve_cluster_point(point)
    elif point.load is not None:
        # load points additionally run the discrete-event serving engine;
        # its per-batch plans come from the same cache the profile warmed.
        from repro.serving.engine import serve_point

        serving = serve_point(point)
    return SweepRecord(
        point=point, profile=profile, transform_stats=transform_stats, serving=serving
    )


def _pool_task(point: SweepPoint) -> tuple[SweepRecord, dict[str, object], dict]:
    """The pool's worker entry point: one point's record, the delta of the
    worker's :data:`PLAN_CACHE` counters, and the point's profile
    measurements.

    A ProfileResult lazily references its ExecutionPlan (and through it the
    whole Graph); shipping one independent copy per record back over IPC
    would grow linearly with the grid.  ``detach`` materializes the
    per-kernel records (still needed by reports) and drops every lazy
    backref — including any added after this function was written.  The
    counter delta lets the parent aggregate pool-wide cache activity that
    would otherwise be invisible to it; the parent keeps the measurements
    for the sweep's store entry.
    """
    before = PLAN_CACHE.stats.snapshot()
    with PLAN_CACHE.sweep_entry(None) as entry:
        record = run_point(point)
    record.profile.detach()
    return record, PLAN_CACHE.stats.delta_since(before), entry.kept


def _pool_init(store_directory: str | None) -> None:
    """Process-pool initializer: attach the parent's store.

    Workers pick up an environment-configured store on import; when the
    parent was pointed at a store programmatically instead,
    ``store_directory`` re-attaches the same directory here.  Each worker
    then reads the shared store through the cache's one lookup the first
    time one of its points needs an entry.
    """
    if store_directory is not None and PLAN_CACHE.store is None:
        PLAN_CACHE.store = ArtifactStore(store_directory)


def _merge_cache_deltas(deltas) -> dict[str, object]:
    """Sum per-worker per-point cache deltas into one pool-wide delta."""
    merged: dict[str, object] = {"hits": {}, "misses": {}, "disk_hits": {}, "evictions": 0}
    for delta in deltas:
        for kind in ("hits", "misses", "disk_hits"):
            bucket: dict[str, int] = merged[kind]  # type: ignore[assignment]
            for stage, count in delta.get(kind, {}).items():
                bucket[stage] = bucket.get(stage, 0) + count
        merged["evictions"] = int(merged["evictions"]) + int(delta.get("evictions", 0))  # type: ignore[arg-type]
    return merged


class SweepRunner:
    """Executes sweep specs serially or across a process pool.

    ``workers <= 1`` runs in-process (the default, and the fastest choice
    whenever the memoization cache covers most of the grid, since workers
    cannot share a cache across processes).
    """

    def __init__(self, workers: int = 0):
        self.workers = workers

    def run(self, spec: SweepSpec) -> SweepResult:
        points = spec.points()
        started = time.perf_counter()
        stats_before = PLAN_CACHE.stats.snapshot()
        # a plain profile sweep keeps its points' measurements in one store
        # entry; serving sweeps (a load axis) store only what they lower.
        plain = all(point.load is None for point in points)
        with PLAN_CACHE.sweep_entry(tuple(points) if plain else None) as entry:
            # a stored entry means this grid ran before, so no pool is
            # started.  Points whose keys went stale since (a re-registered
            # platform, an edited out-of-tree flow) then recompute serially;
            # any in-tree source edit already changes the store fingerprint,
            # so the entry is not found at all and a full pool runs.
            if self.workers and self.workers > 1 and len(points) > 1 and not entry.stored:
                workers = min(self.workers, len(points), os.cpu_count() or 1)
                chunksize = max(1, len(points) // (workers * 4))
                store = PLAN_CACHE.store
                store_directory = None if store is None else os.fspath(store.directory)
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_pool_init,
                    initargs=(store_directory,),
                ) as pool:
                    outcomes = list(pool.map(_pool_task, points, chunksize=chunksize))
                records = [record for record, _, _ in outcomes]
                for _, _, measured in outcomes:
                    PLAN_CACHE.keep_profiles(measured)
                # workers run against per-process caches; each point's delta
                # comes back with its record and sums into one pool-wide view.
                cache_info = _merge_cache_deltas(delta for _, delta, _ in outcomes)
            else:
                records = [run_point(point) for point in points]
                # cache activity attributable to this run on the in-process cache.
                cache_info = PLAN_CACHE.stats.delta_since(stats_before)
        return SweepResult(
            spec=spec,
            records=records,
            wall_s=time.perf_counter() - started,
            cache_info=cache_info,
        )


def run_sweep(spec: SweepSpec, workers: int = 0) -> SweepResult:
    """Convenience wrapper: build a runner and execute ``spec``."""
    return SweepRunner(workers=workers).run(spec)
