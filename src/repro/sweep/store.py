"""Content-addressed persistent artifact store: the disk tier of PlanCache.

The in-memory :class:`~repro.sweep.cache.PlanCache` makes repeated work free
*within* a process; this store makes it cheap *across* processes.  Every
pytest invocation, ``nongemm-bench`` CLI call, and CI job re-derives the same
lowered plans, memory profiles, transform outputs, serving batch costs,
sweep profiles and Table I rows from scratch — pure Python-object work that
is bit-identical run to run.
The store persists those artifacts once and serves them to every later
process.

Design:

* **Content-addressed.**  Every entry is keyed by content hashes — a graph's
  :meth:`~repro.ir.graph.Graph.content_hash`, a flow's
  :meth:`~repro.flows.base.DeploymentFlow.pipeline_signature`, the device
  mode — folded with :data:`STORE_SCHEMA_VERSION` and a fingerprint of the
  ``repro`` source tree.  A stale entry can therefore never be *served*
  incorrectly: any change to the code or the keyed inputs changes the key,
  and the orphaned entry simply ages out under the size cap.
* **Corruption-tolerant.**  Loads treat any unreadable entry (truncated
  pickle, garbage bytes, vanished file, key mismatch) as a miss: the value
  is recomputed and rewritten.  A broken store can slow a run down, never
  poison it.
* **Atomic.**  Writes go to a temp file in the store directory and are
  published with :func:`os.replace`, so concurrent processes sharing one
  store directory see only complete entries.
* **Size-capped.**  When the store grows past ``max_bytes`` the
  least-recently-used entries (by mtime; hits refresh it) are deleted.

Opt-out: set ``REPRO_CACHE_DIR`` to ``0``/``off``/empty to disable, or to a
path to relocate the store (default ``$XDG_CACHE_HOME/nongemm-repro``).
Programmatically, construct a :class:`~repro.sweep.cache.PlanCache` with
``store=None`` or assign ``PLAN_CACHE.store = None``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.flows.plan import ExecutionPlan
    from repro.ir.graph import Graph

#: Bump when the on-disk entry layout or the payload schema of any artifact
#: kind changes; old entries then miss (and age out) instead of failing to
#: decode.  Semantic changes to lowering/cost code are covered automatically
#: by the source-tree fingerprint folded into every key.  When bumping, also
#: update the hardcoded ``nongemm-artifact-store-v<N>-`` cache keys in
#: ``.github/workflows/ci.yml`` so CI stops shipping the dead store around.
#: v2: N-device refactor — plan keys encode a device mode (not a CPU/GPU
#: boolean), plan payloads carry a ``target`` kind, and the pre-seeded
#: ``PlanArrays`` gained a device-index column.
#: v3: serving simulator — a new batch-indexed ``"serving"`` artifact kind
#: (pickled :class:`~repro.serving.cost.BatchCost` per plan key + platform
#: signature); the bump retires any same-named entries an older layout
#: could have left behind.
#: v4: plan payloads carry the plan's :class:`~repro.flows.plan.KernelTable`
#: as it is, in place of the store's own kernel columns (or pickled kernel
#: list), and drop the pre-seeded ``PlanArrays`` and covered-node count.
STORE_SCHEMA_VERSION = 4

#: default size cap; override with REPRO_CACHE_MAX_MB.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file, computed once per process.

    Folding this into store keys makes the disk tier self-invalidating: any
    edit anywhere in ``src/repro`` (cost model, lowering pass, model builder)
    changes every key, so entries computed by different code are unreachable.
    This is deliberately coarse — a cache miss costs a recompute, a stale hit
    would cost correctness.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x01")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


_EXTERNAL_FILE_HASHES: dict[str, str] = {}
_EXTERNAL_FINGERPRINTS: dict[tuple, str] = {}


def external_fingerprint(*objects: object) -> str:
    """Content hash of the out-of-tree source files defining ``objects``.

    :func:`code_fingerprint` covers everything under ``src/repro``; flows,
    passes, transforms, and model builders registered by *user code*
    (examples, downstream projects) live outside it, and an edit to one must
    not reuse store entries computed by the old implementation.  This hashes
    the defining module file of every object whose module is not part of the
    ``repro`` package; in-tree objects contribute nothing, so the common
    case returns ``""`` and costs two memoized dict lookups.
    """
    import inspect

    types = tuple(obj if inspect.isroutine(obj) else type(obj) for obj in objects)
    cached = _EXTERNAL_FINGERPRINTS.get(types)
    if cached is not None:
        return cached
    package_root = str(Path(__file__).resolve().parent.parent)
    digest = hashlib.blake2b(digest_size=16)
    relevant = False
    for entry in types:
        try:
            source = inspect.getfile(entry)
        except (TypeError, OSError):
            # builtins / REPL-defined code: no file to pin, key on the name.
            digest.update(f"<nofile:{getattr(entry, '__qualname__', entry)!r}>".encode())
            relevant = True
            continue
        resolved = str(Path(source).resolve())
        if resolved.startswith(package_root + os.sep):
            continue
        try:
            stat = Path(resolved).stat()
            memo_key = f"{resolved}:{stat.st_mtime_ns}:{stat.st_size}"
        except OSError:
            memo_key = resolved
        file_hash = _EXTERNAL_FILE_HASHES.get(memo_key)
        if file_hash is None:
            try:
                file_hash = hashlib.blake2b(
                    Path(resolved).read_bytes(), digest_size=16
                ).hexdigest()
            except OSError:
                file_hash = "<unreadable>"
            _EXTERNAL_FILE_HASHES[memo_key] = file_hash
        digest.update(f"{resolved}={file_hash}".encode())
        relevant = True
    result = digest.hexdigest() if relevant else ""
    _EXTERNAL_FINGERPRINTS[types] = result
    return result


def default_cache_dir() -> Path | None:
    """Resolve ``REPRO_CACHE_DIR``; ``None`` means the store is disabled."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw is not None:
        if raw.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(raw).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "nongemm-repro"


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_MB")
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        return max(1, int(raw)) * 1024 * 1024
    except ValueError:
        return DEFAULT_MAX_BYTES


@dataclass
class StoreInfo:
    """Snapshot of the store's on-disk state (``nongemm-bench cache info``)."""

    directory: str
    schema_version: int
    fingerprint: str
    entries: int
    total_bytes: int
    max_bytes: int
    entries_by_kind: dict[str, int] = field(default_factory=dict)


class ArtifactStore:
    """A flat directory of pickled, content-addressed artifacts.

    One file per entry, named ``<kind>-<digest>.pkl`` where the digest folds
    the schema version, the source-tree fingerprint, and the caller's key
    tuple.  The pickled payload is ``(key, value)`` so a (vanishingly
    unlikely) digest collision or a hand-copied file reads as a miss rather
    than a wrong value.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        schema_version: int = STORE_SCHEMA_VERSION,
        fingerprint: str | None = None,
    ):
        self.directory = Path(directory)
        self.max_bytes = _env_max_bytes() if max_bytes is None else max_bytes
        self.schema_version = schema_version
        self._fingerprint = fingerprint
        self._approx_bytes: int | None = None

    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """The store described by the environment, or None when disabled."""
        directory = default_cache_dir()
        if directory is None:
            return None
        return cls(directory)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    # -- keying ------------------------------------------------------------

    def _digest(self, key: tuple) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{self.schema_version}|{self.fingerprint}|{key!r}".encode())
        return digest.hexdigest()

    def _path(self, key: tuple) -> Path:
        return self.directory / f"{key[0]}-{self._digest(key)}.pkl"

    # -- load / save -------------------------------------------------------

    def get(self, key: tuple) -> object | None:
        """The stored value for ``key``, or None on miss *or any failure*.

        Unreadable entries are removed so they stop costing a read per run.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
            stored_key, value = pickle.loads(blob)
            if stored_key != key:
                return None
        except FileNotFoundError:
            return None
        except Exception:
            # truncated write, garbage bytes, unpicklable class: recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh mtime: eviction is least-recently-used
        except OSError:
            pass
        return value

    def put(self, key: tuple, value: object) -> None:
        """Persist ``value`` under ``key`` atomically; failures are silent.

        The store is an accelerator: a full disk or read-only directory must
        never break the computation whose result it failed to keep.
        """
        try:
            blob = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        if len(blob) > self.max_bytes:
            return
        path = self._path(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                replaced = path.stat().st_size  # overwrite: reclaim old size
            except OSError:
                replaced = 0
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        if self._approx_bytes is None:
            self._approx_bytes = self._scan_bytes()
        else:
            self._approx_bytes += len(blob) - replaced
        if self._approx_bytes > self.max_bytes:
            self._evict_to_cap()

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> list[Path]:
        try:
            return [p for p in self.directory.iterdir() if p.suffix == ".pkl"]
        except OSError:
            return []

    def _scan_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _purge_stale_tmp(self, max_age_s: float = 3600.0) -> None:
        """Drop temp files orphaned by killed writers (they never publish)."""
        import time

        cutoff = time.time() - max_age_s
        try:
            candidates = list(self.directory.glob(".tmp-*"))
        except OSError:
            return
        for path in candidates:
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    def _evict_to_cap(self) -> None:
        """Delete least-recently-used entries until 80% of the cap is free."""
        self._purge_stale_tmp()
        target = int(self.max_bytes * 0.8)
        stats = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.append((stat.st_mtime, stat.st_size, path))
        stats.sort()
        total = sum(size for _, size, _ in stats)
        for _, size, path in stats:
            if total <= target:
                break
            try:
                path.unlink()
                total -= size
            except OSError:
                pass
        self._approx_bytes = total

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp file); returns the count."""
        self._purge_stale_tmp(max_age_s=0.0)
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_bytes = 0
        return removed

    def info(self) -> StoreInfo:
        by_kind: dict[str, int] = {}
        total = 0
        count = 0
        for path in self._entries():
            kind = path.name.split("-", 1)[0]
            by_kind[kind] = by_kind.get(kind, 0) + 1
            count += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return StoreInfo(
            directory=str(self.directory),
            schema_version=self.schema_version,
            fingerprint=self.fingerprint,
            entries=count,
            total_bytes=total,
            max_bytes=self.max_bytes,
            entries_by_kind=dict(sorted(by_kind.items())),
        )


# -- plan payloads ---------------------------------------------------------
#
# Plans are persisted *without* their source graph: the store key already
# pins the graph's content hash, so the loader re-attaches whatever graph
# (or lazy GraphRef) the caller resolved — typically without ever building
# it.  The kernels travel as the plan's KernelTable, pickled as it is: a few
# numpy columns, which unpickle without minting a per-kernel object.  The
# simulator's arrays are cheap casts of those columns and are recomputed in
# the loading process; only the fusion rate, which needs the graph, rides
# along as a memoized derivative.


def plan_payload(plan: "ExecutionPlan") -> dict:
    """The persistable view of a lowered plan (everything but the graph)."""
    return {
        "flow": plan.flow,
        "dispatch_profile": plan.dispatch_profile,
        "target": plan.target,
        "kernels": plan.kernels,
        "gemm_peak_scale_f32": plan.gemm_peak_scale_f32,
        "gemm_saturation_scale": plan.gemm_saturation_scale,
        "notes": plan.notes,
        # walks the graph: cheap now (the lowering process needs it moments
        # later anyway), free for every later process.
        "fusion_rate": plan.non_gemm_fusion_rate(),
    }


def plan_from_payload(payload: dict, graph: "Graph") -> "ExecutionPlan":
    """Rebuild an :class:`ExecutionPlan` around the caller's graph handle.

    ``graph`` may be a materialized :class:`~repro.ir.graph.Graph` or a lazy
    :class:`~repro.sweep.cache.GraphRef`; the kernel table and the pre-seeded
    fusion rate serve the whole profiling path, so the graph is not built
    unless something walks it.
    """
    from repro.flows.plan import ExecutionPlan

    plan = ExecutionPlan(
        graph=graph,
        flow=payload["flow"],
        dispatch_profile=payload["dispatch_profile"],
        kernels=payload["kernels"],
        target=payload["target"],
        gemm_peak_scale_f32=payload["gemm_peak_scale_f32"],
        gemm_saturation_scale=payload["gemm_saturation_scale"],
        notes=payload["notes"],
    )
    plan.__dict__["_non_gemm_fusion_rate"] = payload["fusion_rate"]
    return plan


# -- transform payloads -----------------------------------------------------


@dataclass
class StoredTransformResult:
    """A transform result rebuilt from the store: stats plus a lazy graph.

    The transformed graph itself is *not* persisted — its content hash is a
    deterministic derivation of the parent's, which is all the plan and
    memory caches key on.  ``graph`` is a :class:`~repro.sweep.cache.GraphRef`
    that re-runs the transform only if something walks the structure.
    """

    graph: object
    stats: object


def transform_payload(result: object) -> dict:
    """Persistable view of a transform result (stats only when possible)."""
    if hasattr(result, "graph") and hasattr(result, "stats"):
        return {"stats": result.stats, "full": None}
    return {"stats": None, "full": result}
