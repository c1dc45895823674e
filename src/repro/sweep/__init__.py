"""The sweep engine: memoized, vectorized execution of experiment grids.

Layers (see the README architecture section):

* :mod:`repro.sweep.cache`  — :class:`PlanCache`, the LRU memoization of
  model builds, plan lowerings, graph transforms, memory profiles, serving
  costs and Table I rows, plus the sweep runs' profile measurements.
* :mod:`repro.sweep.store`  — :class:`ArtifactStore`, the persistent
  content-addressed disk tier behind the PlanCache (``REPRO_CACHE_DIR``).
* :mod:`repro.sweep.spec`   — :class:`SweepSpec`/:class:`SweepPoint`,
  declarative cross-product grids with explicit nesting order.
* :mod:`repro.sweep.runner` — :class:`SweepRunner`, serial or
  process-parallel execution producing :class:`SweepRecord` lists.

``spec``/``runner`` are exposed lazily: the profiler imports
:mod:`repro.sweep.cache` while the runner imports the profiler, and the lazy
indirection keeps that dependency chain acyclic at import time.
"""

from repro.sweep.cache import (
    PLAN_CACHE,
    CacheStats,
    GraphRef,
    PlanCache,
    cached_lower,
    cached_profile_memory,
    cached_transform,
    get_transform,
    register_transform,
)
from repro.sweep.store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoreInfo,
    code_fingerprint,
    default_cache_dir,
)

_LAZY = {
    "SweepPoint": "repro.sweep.spec",
    "SweepSpec": "repro.sweep.spec",
    "DIMENSIONS": "repro.sweep.spec",
    "DEVICE_MODES": "repro.sweep.spec",
    "SweepRecord": "repro.sweep.runner",
    "SweepResult": "repro.sweep.runner",
    "SweepRunner": "repro.sweep.runner",
    "run_point": "repro.sweep.runner",
    "run_sweep": "repro.sweep.runner",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "PLAN_CACHE",
    "STORE_SCHEMA_VERSION",
    "ArtifactStore",
    "CacheStats",
    "GraphRef",
    "PlanCache",
    "StoreInfo",
    "cached_lower",
    "cached_profile_memory",
    "cached_transform",
    "code_fingerprint",
    "default_cache_dir",
    "get_transform",
    "register_transform",
    *sorted(_LAZY),
]
