"""Memoization layer for the sweep engine: graphs, plans, memory, transforms,
serving costs.

The figure/table harnesses sweep large cross-products in which most of the
per-point work is identical: the same model graph is rebuilt for every
platform, the same plan re-lowered for every device combination, and the same
liveness walk repeated per profile.  :class:`PlanCache` memoizes the five
expensive, structurally-pure stages behind a **two-tier cache**:

* an in-memory, size-bounded LRU (always on) over

  - ``build_model``       keyed by ``(model, batch_size, overrides)``
  - ``DeploymentFlow.lower`` keyed by
    ``(flow.pipeline_signature(), graph.content_hash(), device_mode)``
  - ``profile_memory``    keyed by ``graph.content_hash()``
  - graph transforms (e.g. LLM.int8()) keyed by ``(name, graph.content_hash())``
  - serving batch costs  keyed by the plan key plus the platform's id and
    content signature (see :meth:`PlanCache.serving_cost`)

* an optional persistent :class:`~repro.sweep.store.ArtifactStore` consulted
  on LRU misses for plans, memory profiles, transform outputs and serving
  costs (every stage but the graph build), so fresh processes (pytest runs,
  CLI calls, CI jobs) start warm instead of cold.

Those four persisted stages share one lookup, :meth:`PlanCache._memo`, and
each builds its key in one place.

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

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.hardware.device import DeviceKind, as_device_kind
from repro.ir.graph import Graph, derived_hash
from repro.models import build_model
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
    :meth:`materialize` builds — and memoizes via the cache — on first
    structural access.  :class:`~repro.ir.graph.Graph` exposes the same
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


class PlanCache:
    """Two-tier cache over the build -> lower -> profile pipeline.

    Tier 1 is a size-bounded in-memory LRU; tier 2 (``store``, optional) is
    a content-addressed on-disk :class:`~repro.sweep.store.ArtifactStore`
    consulted on LRU misses for plans, memory profiles, transform outputs
    and serving costs, all through :meth:`_memo`.  Every disk hit is
    promoted into the LRU.
    """

    def __init__(self, max_entries: int = 256, store: ArtifactStore | None = None):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.store = store
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._enabled = True

    # -- generic LRU plumbing ----------------------------------------------

    def _get(self, key: tuple) -> object | None:
        """LRU lookup; counts a hit when present (misses are counted by
        :meth:`_memo` and :meth:`graph`, so a disk hit is never recorded as a
        miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hit(key[0])
                return self._entries[key]
            return None

    def _peek(self, key: tuple) -> object | None:
        """Lookup without touching LRU order or hit/miss counters."""
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
        names the stage for the hit/disk-hit/miss counters.
        """
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
            self.stats = CacheStats()

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily bypass both tiers (benchmarks measure cold paths this way)."""
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
        from repro.models import get_model

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
        if not self._enabled:
            return build_model(model, batch_size=batch_size, **overrides)
        key = self._build_key(model, batch_size, overrides)
        cached = self._built(key)
        if cached is not None:
            return cached
        self.stats.miss("graph")
        cached = build_model(model, batch_size=batch_size, **overrides)
        # registry builders are deterministic, so the build key identifies
        # the structure exactly; stamping it as the content hash spares a
        # full structural walk per graph (any later mutation clears it).
        stamp = cached.derive_content_hash("build", self._build_identity(model, key))
        self._put(key, (cached, stamp))
        return cached

    def graph_ref(self, model: str, batch_size: int = 1, **overrides) -> Graph | GraphRef:
        """A graph handle that defers building until structure is touched.

        Returns the built graph directly when the LRU already holds it;
        otherwise a :class:`GraphRef` carrying the build key's derived
        content hash.  Sweep points resolve graphs through this, so a warm
        persistent store can serve their plans and memory profiles while the
        graph itself is never constructed.
        """
        if not self._enabled:
            return build_model(model, batch_size=batch_size, **overrides)
        key = self._build_key(model, batch_size, overrides)
        cached = self._built(key)
        if cached is not None:
            return cached
        return GraphRef(
            model,
            derived_hash("build", self._build_identity(model, key)),
            lambda: self.graph(model, batch_size=batch_size, **overrides),
        )

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

    def plan(
        self, flow: "DeploymentFlow", graph: Graph | GraphRef, use_gpu: "bool | str | DeviceKind"
    ) -> "ExecutionPlan":
        """Memoized ``flow.lower(graph, use_gpu)``.

        Keyed by the flow's :meth:`~repro.flows.base.DeploymentFlow.pipeline_signature`,
        the graph's content hash, and the lowering target's device-mode
        encoding (``use_gpu`` accepts the historical booleans, device-mode
        strings, and :class:`~repro.hardware.device.DeviceKind` values): the
        signature is a stable content hash over the flow's pass pipeline and
        tuning knobs, so cache entries survive pass-internal refactors but
        can never be served to a flow variant whose knobs differ (e.g. a
        subclass that keeps the name).  Misses fall through to the persistent
        store (the plan is rebuilt around the caller's graph handle without
        lowering); a full miss is served by re-targeting a sibling target's
        plan when the flow places uniformly, else by a fresh lowering — and
        the result is persisted for future processes.
        """
        target = as_device_kind(use_gpu)
        if not self._enabled:
            return flow.lower(graph.materialize(), use_gpu=target)
        key = self._plan_key(flow, graph, target)

        def compute() -> "ExecutionPlan":
            if flow.supports_derivation():
                # any other target's plan derives this one for uniform flows
                for other in DeviceKind:
                    if other is not target:
                        sibling = self._peek(key[:3] + (other.value,))
                        if sibling is not None:
                            return flow.derive_plan(sibling, target)
            return flow.lower(graph.materialize(), use_gpu=target)

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
        use_gpu: "bool | str | DeviceKind",
        platform,
        compute: Callable,
    ) -> Any:
        """Memoized per-batch serving cost (see :mod:`repro.serving.cost`).

        ``compute`` maps the lowered plan to a plain, picklable cost object
        (a :class:`~repro.serving.cost.BatchCost`).  Keys extend the plan
        key with the platform's id *and* content signature — the cost folds
        simulated latencies, so a platform re-registered with different
        numbers must miss.  A warm persistent store therefore serves whole
        serving sweeps without building a graph, lowering a plan, or running
        the simulator.
        """
        target = as_device_kind(use_gpu)
        if not self._enabled:
            return compute(self.plan(flow, graph, target))
        key = (
            "serving",
            *self._plan_key(flow, graph, target)[1:],
            platform.platform_id,
            platform.content_signature(),
        )
        return self._memo(key, lambda: compute(self.plan(flow, graph, target)))

    def memory(self, graph: Graph | GraphRef) -> "MemoryProfile":
        """Memoized liveness analysis keyed by graph content hash."""
        from repro.runtime.memory import profile_memory

        if not self._enabled:
            return profile_memory(graph.materialize())
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
        if not self._enabled:
            return fn(graph.materialize())
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


def cached_build_model(model: str, batch_size: int = 1, **overrides) -> Graph:
    return PLAN_CACHE.graph(model, batch_size=batch_size, **overrides)


def cached_lower(
    flow: "DeploymentFlow", graph: Graph | GraphRef, use_gpu: "bool | str | DeviceKind"
) -> "ExecutionPlan":
    return PLAN_CACHE.plan(flow, graph, use_gpu)


def cached_profile_memory(graph: Graph | GraphRef) -> "MemoryProfile":
    return PLAN_CACHE.memory(graph)


def cached_transform(name: str, graph: Graph | GraphRef) -> Any:
    return PLAN_CACHE.transform(name, graph)


_register_builtin_transforms()
