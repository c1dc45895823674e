"""Span recorder for traced benchmark runs: wrappers, ledgers, Chrome traces.

The benchmark times the simulator from the outside.  In a traced child,
:meth:`Tracer.install` wraps the public entry point of every ``src/repro`` layer and
each call records a span (name, start, end, parent).  A child's time is cut
into *segments* — its setup and each timed pass — and :meth:`Tracer.end`
folds one segment's spans into a ledger:

* ``self_ns[name]`` — the span's duration minus the part its wrapped
  children cover, summed over calls;
* ``unattributed_ns`` — segment wall time minus the top-level spans.

Self times telescope, so ``sum(self_ns) + unattributed_ns == wall_ns``
exactly: the layer numbers add up to the measured wall time.

This module imports nothing from ``repro`` at import time, so the parent
process and the child's pre-import setup can use it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


def now_ns() -> int:
    """The system-wide monotonic clock: comparable across processes, so a
    parent's spawn time and a child's ready time can be subtracted."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


#: (span name, module, attribute path) of every wrapped public entry point.
#: A name may repeat: both capping functions report as one metrics layer.
TARGETS = (
    ("models.build_model", "repro.models.registry", "build_model"),
    ("flows.passes.derive_plan", "repro.flows.base", "DeploymentFlow.derive_plan"),
    ("runtime.simulator.simulate", "repro.runtime.simulator", "simulate"),
    ("runtime.memory.profile_memory", "repro.runtime.memory", "profile_memory"),
    ("profiler.profile_graph", "repro.profiler.profiler", "profile_graph"),
    ("sweep.store.get", "repro.sweep.store", "ArtifactStore.get"),
    ("sweep.store.put", "repro.sweep.store", "ArtifactStore.put"),
    ("sweep.store.decode", "repro.sweep.store", "plan_from_payload"),
    ("sweep.store.encode", "repro.sweep.store", "plan_payload"),
    ("sweep.runner.run_point", "repro.sweep.runner", "run_point"),
    ("analysis.render", "repro.analysis.common", "ExperimentResult.render"),
    ("analysis.save", "repro.analysis.common", "ExperimentResult.save"),
    ("serving.trace.make_trace", "repro.serving.trace", "make_trace"),
    ("serving.cost.cost_table", "repro.serving.cost", "BatchCostModel.cost_table"),
    ("serving.engine.engine_init", "repro.serving.engine", "ServingEngine.__init__"),
    ("serving.columnar.run_fast", "repro.serving.columnar", "run_fast"),
    ("serving.columnar_cluster.run_fast_cluster", "repro.serving.columnar_cluster",
     "run_fast_cluster"),
    ("serving.columnar_cluster.run_fast_faulted", "repro.serving.columnar_cluster",
     "run_fast_faulted"),
    ("serving.cluster.run", "repro.serving.cluster", "ClusterRouter.run"),
    ("serving.faults.injector", "repro.serving.faults", "FaultInjector.__init__"),
    ("serving.metrics.cap", "repro.serving.metrics", "cap_cluster_result"),
    ("serving.metrics.cap", "repro.serving.metrics", "cap_serving_result"),
    ("serving.metrics.streaming_stats", "repro.serving.metrics", "streaming_stats"),
)

#: (span-name prefix, module, base class, method): every subclass that
#: defines ``method`` in its own body is wrapped as ``<prefix>``, with
#: ``{cls}`` replaced by the subclass name.
FAMILIES = (
    ("flows.passes.{cls}", "repro.flows.passes.manager", "LoweringPass", "run"),
    ("serving.autoscale.desired_replicas", "repro.serving.autoscale", "Autoscaler",
     "desired_replicas"),
)

#: kernel_for returns a kernel per scheduler; the returned kernels are timed.
KERNEL_SPAN = ("serving.columnar.kernel", "repro.serving.columnar", "kernel_for")


class Tracer:
    """In-memory span recorder; one segment is open at a time."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index (-1: top level), segment]
        self.spans: list[list] = []
        self.segment = "setup"
        self._segment_start = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, now_ns(), 0, stack[-1] if stack else -1, self.segment]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = now_ns()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def begin(self, segment: str) -> None:
        self.segment = segment
        self._segment_start = len(self.spans)

    def end(self, wall_ns: int) -> dict:
        """Close the open segment and fold its spans into a ledger."""
        spans = self.spans
        start = self._segment_start
        covered = [0] * (len(spans) - start)  # ns of each span its children cover
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        top_ns = 0
        # children follow their parent in the list, so walking backwards
        # settles every span's children before the span itself
        for index in range(len(spans) - 1, start - 1, -1):
            name, begin, end, parent, _ = spans[index]
            duration = end - begin
            self_ns[name] = self_ns.get(name, 0) + duration - covered[index - start]
            incl_ns[name] = incl_ns.get(name, 0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent >= start:
                covered[parent - start] += duration
            else:
                top_ns += duration
        self.segment = "idle"
        self._segment_start = len(spans)
        return {
            "wall_ns": wall_ns,
            "unattributed_ns": wall_ns - top_ns,
            "self_ns": self_ns,
            "incl_ns": incl_ns,
            "calls": calls,
        }

    def chrome_events(self, pid: int, origin_ns: int) -> list[dict]:
        """Spans as Chrome Trace Event "complete" events (Perfetto opens them)."""
        return [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (begin - origin_ns) / 1e3,
                "dur": (end - begin) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {"segment": segment},
            }
            for name, begin, end, _, segment in self.spans
        ]

    # -- installation ------------------------------------------------------

    def _rebind(self, bindings: dict, target, wrapper) -> None:
        for owner, attr in bindings.get(id(target), ()):
            self._restore.append((owner, attr, target))
            setattr(owner, attr, wrapper)

    def install(self) -> list[str]:
        """Wrap every target; returns the span names whose target is absent.

        Each target is rebound wherever ``repro`` holds it — module globals
        (``simulate`` and friends are imported by name elsewhere) and class
        dicts — so every caller reaches the wrapper.
        """
        absent: list[str] = []
        wrappers: list[tuple[object, object]] = []  # (target, wrapper)
        for name, module, path in TARGETS:
            target = _resolve(module, path)
            if target is None:
                absent.append(name)
            else:
                wrappers.append((target, self.wrap(name, target)))
        for pattern, module, base_name, method in FAMILIES:
            base = _resolve(module, base_name)
            if base is None:
                absent.append(pattern.format(cls="*"))
                continue
            for cls in _subclasses(base):
                target = cls.__dict__.get(method)
                if target is not None:
                    name = pattern.format(cls=cls.__name__)
                    wrappers.append((target, self.wrap(name, target)))
        # every experiment harness, as ``analysis.<fig1|table4|...>``
        analysis = _module("repro.analysis")
        if analysis is None:
            absent.append("analysis.*")
        else:
            for attr, harness in list(vars(analysis).items()):
                if attr.startswith("run_") and callable(harness):
                    wrappers.append((harness, self.wrap(f"analysis.{attr[4:]}", harness)))
        name, module, path = KERNEL_SPAN
        kernel_for = _resolve(module, path)
        if kernel_for is None:
            absent.append(name)
        else:
            wrappers.append((kernel_for, self._kernel_for(name, kernel_for)))
        # index bindings only now: resolving the targets imported their modules
        bindings = _bindings()
        for target, wrapper in wrappers:
            self._rebind(bindings, target, wrapper)
        return absent

    def _kernel_for(self, name: str, kernel_for):
        wrapped: dict[int, object] = {}

        @functools.wraps(kernel_for)
        def wrapper(scheduler):
            kernel = kernel_for(scheduler)
            if kernel is None:
                return None
            if id(kernel) not in wrapped:
                wrapped[id(kernel)] = self.wrap(name, kernel)
            return wrapped[id(kernel)]

        return wrapper

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def pass_metrics(ledger: dict, counts: dict) -> dict[str, float]:
    """Flat per-layer metrics of one pass: its ledger plus its counters.

    ``counts`` may carry ``disk_hits`` (store reads that hit), which becomes
    the store's hit ratio against the wrapped ``get`` calls.
    """
    out = {key: value for key, value in counts.items() if key != "disk_hits"}
    for name, ns in ledger["self_ns"].items():
        out[f"{name}.self_s"] = ns / 1e9
        out[f"{name}.calls"] = ledger["calls"][name]
        out[f"{name}.wall_s"] = ledger["incl_ns"][name] / 1e9
    out["flows.passes.calls"] = sum(
        calls
        for name, calls in ledger["calls"].items()
        if name.startswith("flows.passes.") and name != "flows.passes.derive_plan"
    )
    out["analysis.harness.self_s"] = sum(
        ns
        for name, ns in ledger["self_ns"].items()
        if name.startswith("analysis.") and name not in ("analysis.render", "analysis.save")
    ) / 1e9
    gets = ledger["calls"].get("sweep.store.get", 0)
    out["sweep.store.get.hit_ratio"] = counts.get("disk_hits", 0) / gets if gets else 0.0
    out["ledger.wall_s"] = ledger["wall_ns"] / 1e9
    out["ledger.unattributed_s"] = ledger["unattributed_ns"] / 1e9
    return out


def setup_metrics(ledger: dict) -> dict[str, float]:
    """A child's set-up ledger, as self time per layer under ``setup.``."""
    out = {
        "setup.ledger.wall_s": ledger["wall_ns"] / 1e9,
        "setup.ledger.unattributed_s": ledger["unattributed_ns"] / 1e9,
    }
    for name, ns in ledger["self_ns"].items():
        key = f"setup.{name.rsplit('.', 1)[0]}.self_s"
        out[key] = out.get(key, 0.0) + ns / 1e9
    return out


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _resolve(module: str, path: str):
    obj = _module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _subclasses(base: type) -> list[type]:
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _bindings() -> dict[int, list[tuple[object, str]]]:
    """id(object) -> every (owner, attribute) in ``repro`` that holds it."""
    out: dict[int, list[tuple[object, str]]] = {}
    seen_classes: set[int] = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            out.setdefault(id(value), []).append((module, attr))
            if (
                isinstance(value, type)
                and id(value) not in seen_classes
                and str(getattr(value, "__module__", "")).startswith("repro")
            ):
                seen_classes.add(id(value))
                for member_name, member in list(vars(value).items()):
                    out.setdefault(id(member), []).append((value, member_name))
    return out
