"""Memoization layer for the sweep engine: graphs, plans, memory, transforms,
serving costs, profiles and Table I's taxonomy rows.

The figure/table harnesses sweep large cross-products in which most of the
per-point work is identical: the same model graph is rebuilt for every
platform, the same plan re-lowered for every device combination, and the same
liveness walk repeated per profile.  :class:`PlanCache` memoizes the
expensive, structurally-pure stages behind a **two-tier cache**:

* an in-memory, size-bounded LRU (always on) over

  - ``build_model``       keyed by ``(model, batch_size, overrides)``
  - ``DeploymentFlow.lower`` keyed by
    ``(flow.pipeline_signature(), graph.content_hash(), device_mode)``
  - ``profile_memory``    keyed by ``graph.content_hash()``
  - graph transforms (e.g. LLM.int8()) keyed by ``(name, graph.content_hash())``
  - serving batch costs  keyed by the plan key plus the platform's id and
    content signature (see :meth:`PlanCache.serving_cost`)
  - Table I taxonomy rows keyed by ``graph.content_hash()``

* an optional persistent :class:`~repro.sweep.store.ArtifactStore` consulted
  on LRU misses for plans, memory profiles, transform outputs, serving costs
  and taxonomy rows (every stage but the graph build), so fresh processes
  (pytest runs, CLI calls, CI jobs) start warm instead of cold.

Those five persisted stages share one lookup, :meth:`PlanCache._memo`, and
each builds its key in one place.

Profiles (see :meth:`PlanCache.profile`) are kept apart from the LRU, one per
distinct point, memoized on every call, and persist one store entry per plain
sweep run rather than one per point (see :meth:`PlanCache.sweep_entry`): a
paper pass profiles a few hundred points, and a file per point would cost a
file creation each.

Correctness rests on :meth:`repro.ir.graph.Graph.content_hash`: any mutation
of a graph changes its hash, so stale plan/memory entries can never be
returned for a modified graph (they simply age out of the LRU).  Disk
entries additionally fold the store schema version and a fingerprint of the
``repro`` source tree into every key, so entries written by different code
are unreachable rather than wrong.

Because registry builds are deterministic, a build key *is* a content
identity; :class:`GraphRef` exploits that to name a graph's hash without
building it, which lets a warm store serve a whole profiling sweep without
constructing a single node.

A process-global :data:`PLAN_CACHE` serves the profiler and the sweep runner;
worker processes of a parallel sweep each get their own in-memory instance
but share the persistent store directory (writes are atomic), which each
reads through the same lookup the first time one of its points needs an
entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.hardware.calibration import dispatch_profile
from repro.hardware.device import DeviceKind
from repro.ir.graph import Graph, derived_hash
from repro.models import build_model, get_model
from repro.registry import Registry
from repro.sweep.store import (
    ArtifactStore,
    StoredTransformResult,
    external_fingerprint,
    plan_from_payload,
    plan_payload,
    transform_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.flows.base import DeploymentFlow
    from repro.flows.plan import ExecutionPlan
    from repro.runtime.memory import MemoryProfile

#: registered graph transforms usable from sweep specs (name -> callable
#: returning an object with ``.graph`` and ``.stats``, like QuantizedModel).
TRANSFORM_REGISTRY: Registry[Any] = Registry("transform")


def register_transform(name: str, fn: Any, replace: bool = False) -> None:
    """Register a graph transform for use in sweep specs (e.g. "llm-int8")."""
    TRANSFORM_REGISTRY.register(name, fn, replace)


get_transform = TRANSFORM_REGISTRY.get


def _register_builtin_transforms() -> None:
    from repro.quant import quantize_llm_int8

    register_transform("llm-int8", quantize_llm_int8, replace=True)


class GraphRef:
    """A lazy handle to a registry-built graph.

    Registry builders are deterministic, so the build key identifies the
    structure exactly: the content hash is the same derivation
    :meth:`PlanCache.graph` stamps on built graphs, computable without
    constructing a single node.  Consumers that only need the hash (plan and
    memory lookups against a warm store) never trigger the build;
    :meth:`materialize` builds — through the cache's one build path — on
    first structural access.  :class:`~repro.ir.graph.Graph` exposes the same
    ``content_hash``/``materialize``/``name`` surface, so cache consumers
    handle both uniformly.
    """

    __slots__ = ("name", "_content_hash", "_builder", "_graph")

    def __init__(self, name: str, content_hash: str, builder: Callable[[], Graph]):
        self.name = name
        self._content_hash = content_hash
        self._builder = builder
        self._graph: Graph | None = None

    def content_hash(self) -> str:
        return self._content_hash

    def materialize(self) -> Graph:
        if self._graph is None:
            self._graph = self._builder()
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "built" if self._graph is not None else "lazy"
        return f"<GraphRef {self.name} {self._content_hash[:8]} {state}>"


@dataclass
class CacheStats:
    """Hit/miss counters per memoized stage.

    ``hits`` are served from the in-memory LRU, ``disk_hits`` from the
    persistent store, ``misses`` were computed from scratch.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    disk_hits: dict[str, int] = field(default_factory=dict)
    evictions: int = 0

    def hit(self, kind: str) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1

    def miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1

    def disk_hit(self, kind: str) -> None:
        self.disk_hits[kind] = self.disk_hits.get(kind, 0) + 1

    def snapshot(self) -> dict[str, object]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "disk_hits": dict(self.disk_hits),
            "evictions": self.evictions,
        }

    def delta_since(self, before: dict[str, object]) -> dict[str, object]:
        """Activity between an earlier :meth:`snapshot` and now."""
        current = self.snapshot()

        def diff(kind: str) -> dict[str, int]:
            prior: dict[str, int] = before.get(kind, {})  # type: ignore[assignment]
            now: dict[str, int] = current[kind]  # type: ignore[assignment]
            out = {k: v - prior.get(k, 0) for k, v in now.items()}
            return {k: v for k, v in out.items() if v}

        return {
            "hits": diff("hits"),
            "misses": diff("misses"),
            "disk_hits": diff("disk_hits"),
            "evictions": current["evictions"] - int(before.get("evictions", 0)),  # type: ignore[arg-type]
        }


#: profile measurements one process keeps (a paper pass has a few hundred
#: distinct points); the oldest go first beyond it.
MAX_PROFILES = 1024


@dataclass
class SweepEntry:
    """The profiles of one open :meth:`PlanCache.sweep_entry`: those its
    store entry held on opening, and those the sweep has touched since."""

    stored: dict[tuple, Any]
    kept: dict[tuple, Any] = field(default_factory=dict)


class PlanCache:
    """Two-tier cache over the build -> lower -> profile pipeline.

    Tier 1 is a size-bounded in-memory LRU; tier 2 (``store``, optional) is
    a content-addressed on-disk :class:`~repro.sweep.store.ArtifactStore`
    consulted on LRU misses for plans, memory profiles, transform outputs,
    serving costs and taxonomy rows, all through :meth:`_memo`.  Every disk
    hit is promoted into the LRU.  Profiles are the exception: memoized on
    every call apart from the LRU, and persisted once per plain sweep (see
    :meth:`profile` and :meth:`sweep_entry`).
    """

    def __init__(self, max_entries: int = 256, store: ArtifactStore | None = None):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.store = store
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        #: profile measurements by point key, kept apart from the LRU so a
        #: paper pass's few hundred points never evict its plans.
        self._profiles: OrderedDict[tuple, Any] = OrderedDict()
        #: the open :meth:`sweep_entry`, if any.
        self._sweep: SweepEntry | None = None
        self._lock = threading.Lock()
        self._enabled = True

    # -- generic LRU plumbing ----------------------------------------------

    def _get(self, key: tuple) -> object | None:
        """LRU lookup; counts a hit when present (misses are counted by
        :meth:`_memo` and the graph build, so a disk hit is never recorded as
        a miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hit(key[0])
                return self._entries[key]
            return None

    def _peek(self, key: tuple) -> object | None:
        """Lookup without touching LRU order or hit/miss counters; nothing
        while the cache is disabled."""
        if not self._enabled:
            return None
        with self._lock:
            return self._entries.get(key)

    def _put(self, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def _memo(
        self,
        key: tuple,
        compute: Callable[[], Any],
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
    ) -> Any:
        """The two-tier lookup every persisted stage shares.

        LRU hit, else a disk hit (``decode``-d from its payload), else
        ``compute()`` — whose value is ``encode``-d into the store, when one
        is attached — and either way promoted into the LRU.  ``key[0]``
        names the stage for the hit/disk-hit/miss counters.  A disabled
        cache returns ``compute()`` and keeps nothing.
        """
        if not self._enabled:
            return compute()
        value = self._get(key)
        if value is not None:
            return value
        store = self.store
        payload = None if store is None else store.get(key)
        if payload is not None:
            self.stats.disk_hit(key[0])
            value = payload if decode is None else decode(payload)
        else:
            self.stats.miss(key[0])
            value = compute()
            if store is not None:
                store.put(key, value if encode is None else encode(value))
        self._put(key, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Reset the in-memory tier and counters (the disk store is untouched;
        use ``self.store.clear()`` for that)."""
        with self._lock:
            self._entries.clear()
            self._profiles.clear()
            self.stats = CacheStats()

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily bypass both tiers and every counter: each stage
        computes fresh (tests use this as a cache-independent reference)."""
        previous = self._enabled
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = previous

    # -- memoized stages ----------------------------------------------------

    @staticmethod
    def _build_key(model: str, batch_size: int, overrides: dict) -> tuple:
        return ("graph", model, batch_size, tuple(sorted(overrides.items())))

    @staticmethod
    def _build_identity(model: str, key: tuple) -> str:
        """The derivation string a build stamp hashes.

        Folds the fingerprint of an *out-of-tree* builder's source file, so a
        user-registered model whose builder code changes gets a new content
        hash (and thus fresh plan/memory entries in the persistent store)
        even though the build key is unchanged.  In-tree builders contribute
        nothing — the store's source-tree fingerprint already covers them.
        """
        external = external_fingerprint(get_model(model).builder)
        return f"{key}|{external}" if external else f"{key}"

    @staticmethod
    def _flow_identity(flow: "DeploymentFlow") -> str:
        """Out-of-tree code fingerprint of a flow and its passes (see above);
        "" for fully in-tree flows.  Memoized on the flow instance."""
        cached = flow.__dict__.get("_external_fingerprint")
        if cached is None:
            cached = external_fingerprint(flow, *flow.pipeline.passes)
            flow.__dict__["_external_fingerprint"] = cached
        return cached

    def _built(self, key: tuple) -> Graph | None:
        """The LRU's graph for a build key, unless a caller mutated it.

        Cached graphs are shared objects; a mutation clears the memoized
        hash, which then no longer matches the build stamp — the caller
        rebuilds fresh instead of handing out the modified structure.  Only
        a clean entry counts as a hit and moves up the LRU.
        """
        entry = self._peek(key)
        if entry is not None and entry[0].content_hash() == entry[1]:
            entry = self._get(key)  # None only if evicted meanwhile
            if entry is not None:
                return entry[0]
        return None

    def graph(self, model: str, batch_size: int = 1, **overrides) -> Graph:
        """Memoized ``build_model``; overrides must be hashable (e.g. seq_len)."""
        return self.graph_ref(model, batch_size, **overrides).materialize()

    def graph_ref(self, model: str, batch_size: int = 1, **overrides) -> Graph | GraphRef:
        """A graph handle that defers building until structure is touched.

        Returns the built graph directly when the LRU already holds it;
        otherwise a :class:`GraphRef` carrying the build key's derived
        content hash.  Sweep points resolve graphs through this, so a warm
        persistent store can serve their plans and memory profiles while the
        graph itself is never constructed.  Arguments ``build_model`` rejects
        raise before keying: ``True`` and ``1.0`` would find the batch-1 key.
        """
        get_model(model).check(batch_size, **overrides)
        if not self._enabled:
            return build_model(model, batch_size=batch_size, **overrides)
        key = self._build_key(model, batch_size, overrides)
        cached = self._built(key)
        if cached is not None:
            return cached
        identity = self._build_identity(model, key)

        def build() -> Graph:
            graph = self._built(key)  # another handle may have built it
            if graph is None:
                self.stats.miss("graph")
                graph = build_model(model, batch_size=batch_size, **overrides)
                # registry builders are deterministic: stamping the build key
                # as the content hash spares a structural walk per graph (any
                # later mutation clears it).
                self._put(key, (graph, graph.derive_content_hash("build", identity)))
            return graph

        return GraphRef(model, derived_hash("build", identity), build)

    def _plan_key(
        self, flow: "DeploymentFlow", graph: Graph | GraphRef, target: DeviceKind
    ) -> tuple:
        """``("plan", pipeline signature, graph hash, device mode)``.

        The pipeline signature covers declared knobs; the flow identity
        folded into it additionally pins the *source* of any out-of-tree
        flow or pass, so editing custom lowering code can never reuse a
        stale store entry.
        """
        pipeline_sig = flow.pipeline_signature() + self._flow_identity(flow)
        return ("plan", pipeline_sig, graph.content_hash(), target.value)

    def _simulated_key(
        self,
        stage: str,
        flow: "DeploymentFlow",
        graph: Graph | GraphRef,
        target: DeviceKind,
        platform,
    ) -> tuple:
        """The plan key extended for a value the simulator produced.

        Adds the platform's id *and* content signature, so a platform
        re-registered with different numbers misses, and the flow's current
        :data:`~repro.hardware.calibration.DISPATCH_PROFILES` entry: the
        one calibration table the simulator reads on every call (its
        efficiency tables are fixed per process), so an edit of it made at
        runtime misses too.
        """
        return (
            stage,
            *self._plan_key(flow, graph, target)[1:],
            platform.platform_id,
            platform.content_signature(),
            dispatch_profile(flow.dispatch_profile),
        )

    def plan(
        self, flow: "DeploymentFlow", graph: Graph | GraphRef, target: DeviceKind
    ) -> "ExecutionPlan":
        """Memoized ``flow.lower(graph, target)``, keyed by :meth:`_plan_key`.

        A store hit rebuilds the plan around the caller's graph handle
        without lowering; a full miss re-targets a sibling target's plan
        when the flow places uniformly, else lowers afresh.
        """
        key = self._plan_key(flow, graph, target)

        def compute() -> "ExecutionPlan":
            if flow.supports_derivation():
                # any other target's plan derives this one for uniform flows
                for other in DeviceKind:
                    if other is not target:
                        sibling = self._peek(key[:3] + (other.value,))
                        if sibling is not None:
                            return flow.derive_plan(sibling, target)
            return flow.lower(graph.materialize(), target)

        return self._memo(
            key,
            compute,
            encode=plan_payload,
            decode=lambda payload: plan_from_payload(payload, graph),
        )

    def serving_cost(
        self,
        flow: "DeploymentFlow",
        graph: "Graph | GraphRef",
        target: DeviceKind,
        platform,
        compute: Callable,
    ) -> Any:
        """Memoized per-batch serving cost (see :mod:`repro.serving.cost`).

        ``compute`` maps the lowered plan to a plain, picklable cost object
        (a :class:`~repro.serving.cost.BatchCost`).  The cost folds
        simulated latencies, so it is keyed by :meth:`_simulated_key`.  A
        warm persistent store therefore serves whole serving sweeps without
        building a graph, lowering a plan, or running the simulator.
        """
        key = self._simulated_key("serving", flow, graph, target, platform)
        return self._memo(key, lambda: compute(self.plan(flow, graph, target)))

    def profile(
        self,
        flow: "DeploymentFlow",
        graph: "Graph | GraphRef",
        target: DeviceKind,
        platform,
        batch_size: int,
        iterations: int,
        seed: int,
        model: str,
        compute: Callable[[], Any],
    ) -> Any:
        """Profile measurement of one point (see
        :func:`~repro.profiler.profiler.profile_graph`).

        Memoized on every call.  Keys are :meth:`_simulated_key` plus the
        batch size, iteration count, seed and model name, so a re-registered
        platform, an edited out-of-tree flow or builder, a runtime edit of
        the flow's dispatch profile, or another seed misses.  An open
        :meth:`sweep_entry` adds its stored entry as a second source and
        collects every measurement the sweep touches.  A point served in
        this process or from that entry counts under ``hits`` (reading the
        entry counted one ``disk_hits``).
        """
        if not self._enabled:
            return compute()
        key = self._simulated_key("profile", flow, graph, target, platform)
        key += (batch_size, iterations, seed, model)
        measured = self._profiles.get(key)
        if measured is None and self._sweep is not None:
            measured = self._sweep.stored.get(key)
        if measured is not None:
            self.stats.hit("profile")
        else:
            self.stats.miss("profile")
            measured = compute()
        self.keep_profiles({key: measured})
        return measured

    def keep_profiles(self, measured: dict[tuple, Any]) -> None:
        """Remember profile measurements, in this process and for the open
        sweep's entry (a pooled sweep's parent keeps its workers' this way)."""
        profiles = self._profiles
        with self._lock:
            for key, value in measured.items():
                profiles[key] = value
                profiles.move_to_end(key)
            while len(profiles) > MAX_PROFILES:
                profiles.popitem(last=False)
        if self._sweep is not None:
            self._sweep.kept.update(measured)

    @contextmanager
    def sweep_entry(self, points: tuple | None) -> Iterator["SweepEntry"]:
        """One store entry for the profiles of one sweep run.

        On entry, reads the measurements stored for ``points`` (the run's
        whole grid); :meth:`profile` serves the block's points from them.
        On a clean exit, writes every measurement the block kept, when that
        differs from what was stored.  ``points=None`` reads and writes
        nothing and only collects (serving sweeps use it, and a pool worker
        ships its point's measurement back to the parent this way).
        """
        store = self.store if self._enabled and points is not None else None
        stored = key = None
        if store is not None:
            # keyed by the grid's digest, so the entry need not carry the grid
            digest = hashlib.blake2b(repr(points).encode(), digest_size=16)
            key = ("profiles", digest.hexdigest())
            stored = store.get(key)
            if stored is not None:
                # one store read, like every other stage's disk hit
                self.stats.disk_hit("profile")
        entry = SweepEntry(stored=stored or {})
        outer, self._sweep = self._sweep, entry
        try:
            yield entry
        finally:
            self._sweep = outer
        if store is not None and entry.kept.keys() != entry.stored.keys():
            store.put(key, entry.kept)

    def taxonomy_rows(self, graph: Graph | GraphRef) -> list[dict]:
        """Memoized Table I rows of a graph (``NonGemmReport.taxonomy_rows``)
        keyed by its content hash, so a warm store serves them unbuilt."""
        from repro.core.reports import NonGemmReport

        def compute() -> list[dict]:
            return NonGemmReport(graph.materialize()).taxonomy_rows(unique=True)

        rows = self._memo(("taxonomy", graph.content_hash()), compute)
        # rows are mutable dicts: callers get copies, never the cached ones
        return [dict(row) for row in rows]

    def memory(self, graph: Graph | GraphRef) -> "MemoryProfile":
        """Memoized liveness analysis keyed by graph content hash."""
        from repro.runtime.memory import profile_memory

        return self._memo(
            ("memory", graph.content_hash()), lambda: profile_memory(graph.materialize())
        )

    def transform(self, name: str, graph: Graph | GraphRef) -> Any:
        """Memoized registered graph transform (returns the transform's result).

        The persistent tier stores only the transform's *stats*: the
        rewritten graph's content hash is a deterministic derivation of the
        parent's, which is everything the plan and memory caches key on, so
        a disk hit yields a :class:`~repro.sweep.store.StoredTransformResult`
        whose graph is a lazy ref that re-runs the transform only if
        something actually walks the rewritten structure.
        """
        fn = get_transform(name)
        parent_hash = graph.content_hash()

        def compute() -> Any:
            result = fn(graph.materialize())
            result_graph = getattr(result, "graph", None)
            if result_graph is not None:
                # registered transforms are deterministic, so the rewritten
                # graph's identity derives from the parent's — skip
                # re-hashing the (often much larger) transformed structure.
                result_graph.derive_content_hash(name, parent_hash)
            return result

        def decode(payload: dict) -> Any:
            if payload["full"] is not None:
                return payload["full"]
            return StoredTransformResult(
                graph=GraphRef(name, derived_hash(name, parent_hash), lambda: compute().graph),
                stats=payload["stats"],
            )

        return self._memo(
            ("transform", name, parent_hash, external_fingerprint(fn)),
            compute,
            encode=transform_payload,
            decode=decode,
        )


#: the process-global cache used by the profiler and sweep runner; its disk
#: tier follows REPRO_CACHE_DIR (set to 0/off/empty to disable).
PLAN_CACHE = PlanCache(store=ArtifactStore.from_env())


def cached_lower(
    flow: "DeploymentFlow", graph: Graph | GraphRef, target: DeviceKind
) -> "ExecutionPlan":
    return PLAN_CACHE.plan(flow, graph, target)


def cached_profile_memory(graph: Graph | GraphRef) -> "MemoryProfile":
    return PLAN_CACHE.memory(graph)


def cached_transform(name: str, graph: Graph | GraphRef) -> Any:
    return PLAN_CACHE.transform(name, graph)


def cached_profile(*args, **kwargs) -> Any:
    return PLAN_CACHE.profile(*args, **kwargs)


_register_builtin_transforms()
