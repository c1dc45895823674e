"""Declarative sweep grids: what to profile, as data instead of nested loops.

A :class:`SweepSpec` names the value sets of each sweep dimension and the
nesting order in which the cross-product should be walked; :meth:`points`
expands it into concrete :class:`SweepPoint` records.  Keeping the grid
declarative lets every figure/table harness share one runner (caching,
vectorized simulation, optional process parallelism) while still controlling
its exact row order — the CSV artifacts are byte-stable across engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

from repro.errors import RegistryError
from repro.hardware.device import DeviceKind, as_device_kind
from repro.knobs import AutoscaleKnobs, BatchingKnobs, FleetKnobs, TraceKnobs

#: canonical dimension nesting order; specs may reorder any prefix subset.
#: ("load" was appended for the serving simulator, "policy"/"fault" for the
#: cluster layer, and "autoscaler" for elastic fleets; their default
#: singleton values keep every pre-existing spec's point grid unchanged.)
DIMENSIONS = (
    "platform", "model", "seq_len", "batch_size", "flow", "device", "transform",
    "load", "policy", "fault", "autoscaler",
)

#: legacy device axis values (the axis now accepts any registered
#: :class:`~repro.hardware.device.DeviceKind` value, e.g. ``"npu"``).
DEVICE_GPU = "gpu"
DEVICE_CPU = "cpu"

#: every named placement target the ``device`` axis accepts.
DEVICE_MODES = tuple(kind.value for kind in DeviceKind)


@dataclass(frozen=True, kw_only=True)
class SweepKnobs(BatchingKnobs, FleetKnobs, TraceKnobs, AutoscaleKnobs):
    """The scalar knobs a :class:`SweepSpec` shares with every point of its
    grid; :meth:`SweepSpec.points` copies them field by field.  Load points
    read the batching and trace knobs, policy points the fleet knobs too,
    and autoscaler points scale between ``min_replicas`` and
    ``num_replicas`` (the provisioned ceiling)."""

    iterations: int = 3
    num_replicas: int = 2


@dataclass(frozen=True)
class SweepPoint(SweepKnobs):
    """One fully-resolved configuration to profile."""

    platform: str
    model: str
    flow: str
    batch_size: int
    use_gpu: bool
    seq_len: int | None = None
    transform: str | None = None
    #: named placement target from the sweep's ``device`` axis; None means
    #: the legacy ``use_gpu`` boolean decides (gpu/cpu).
    device_mode: str | None = None
    #: offered load as a fraction of single-stream (batch-1) capacity; None
    #: means a plain per-inference profile point (no serving simulation).
    load: float | None = None
    #: cluster axes: a non-None ``policy`` routes the load point through a
    #: multi-replica ClusterRouter instead of a single engine.
    policy: str | None = None
    fault_profile: str | None = None
    #: elastic-fleet axis: a non-None controller name autoscales the
    #: cluster; None keeps the whole fleet online.
    autoscaler: str | None = None

    @property
    def device(self) -> str:
        if self.device_mode is not None:
            return self.device_mode
        return DEVICE_GPU if self.use_gpu else DEVICE_CPU

    @property
    def target(self) -> DeviceKind:
        """The placement target as a :class:`DeviceKind`."""
        return as_device_kind(self.device)

    def describe(self) -> str:
        parts = [self.model, f"b{self.batch_size}", self.flow, self.platform, self.device]
        if self.seq_len is not None:
            parts.insert(1, f"seq{self.seq_len}")
        if self.transform:
            parts.append(self.transform)
        if self.load is not None:
            parts.append(f"load{self.load:g} {self.scheduler}")
        if self.policy is not None:
            parts.append(f"{self.num_replicas}x {self.policy}")
            if self.fault_profile:
                parts.append(f"faults={self.fault_profile}")
            if self.autoscaler:
                parts.append(
                    f"autoscale={self.autoscaler}"
                    f" [{self.min_replicas},{self.num_replicas}]"
                )
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec(SweepKnobs):
    """A cross-product sweep grid plus the nesting order of its dimensions."""

    models: tuple[str, ...]
    platforms: tuple[str, ...] = ("A",)
    flows: tuple[str, ...] = ("pytorch",)
    batch_sizes: tuple[int, ...] = (1,)
    devices: tuple[str, ...] = (DEVICE_GPU,)
    seq_lens: tuple[int | None, ...] = (None,)
    transforms: tuple[str | None, ...] = (None,)
    #: serving ``load`` axis: offered load as a fraction of single-stream
    #: capacity.  The default singleton None keeps the grid per-inference
    #: only; any non-None value makes the runner serve that point through
    #: the discrete-event engine (see ``repro.serving``).
    loads: tuple[float | None, ...] = (None,)
    #: cluster ``policy`` axis: admission policies for a multi-replica fleet.
    #: The default singleton None keeps load points on the single engine; a
    #: non-None policy requires a non-None load (the cluster always serves).
    policies: tuple[str | None, ...] = (None,)
    #: cluster ``fault`` axis: fault profile names (see
    #: ``repro.serving.faults``).  Only meaningful alongside a policy.
    fault_profiles: tuple[str | None, ...] = (None,)
    #: elastic-fleet ``autoscaler`` axis: controller names (see
    #: ``repro.serving.autoscale``).  Only meaningful alongside a policy;
    #: ``num_replicas`` is the provisioned ceiling the controller scales
    #: within.
    autoscalers: tuple[str | None, ...] = (None,)
    #: outermost-to-innermost loop order; unlisted dimensions follow in
    #: canonical order after the listed ones.
    order: tuple[str, ...] = field(default=DIMENSIONS)
    name: str = "sweep"

    def _values(self, dimension: str) -> tuple:
        return {
            "platform": self.platforms,
            "model": self.models,
            "flow": self.flows,
            "batch_size": self.batch_sizes,
            "device": self.devices,
            "seq_len": self.seq_lens,
            "transform": self.transforms,
            "load": self.loads,
            "policy": self.policies,
            "fault": self.fault_profiles,
            "autoscaler": self.autoscalers,
        }[dimension]

    def resolved_order(self) -> tuple[str, ...]:
        """The full loop order: explicit dimensions then canonical remainder."""
        for dimension in self.order:
            if dimension not in DIMENSIONS:
                raise RegistryError(
                    f"unknown sweep dimension {dimension!r}; known: {DIMENSIONS}"
                )
        if len(set(self.order)) != len(self.order):
            raise RegistryError(f"duplicate dimensions in sweep order {self.order}")
        return self.order + tuple(d for d in DIMENSIONS if d not in self.order)

    @property
    def num_points(self) -> int:
        total = 1
        for dimension in DIMENSIONS:
            total *= len(self._values(dimension))
        return total

    def points(self) -> list[SweepPoint]:
        """Expand the grid into concrete points, walked in nesting order."""
        order = self.resolved_order()
        for dimension in order:
            if not self._values(dimension):
                return []
        for device in self.devices:
            if device not in DEVICE_MODES:
                raise RegistryError(
                    f"unknown device {device!r}; known modes: {DEVICE_MODES}"
                )
        for load in self.loads:
            if load is not None and load <= 0.0:
                raise RegistryError(
                    f"sweep load values must be positive (or None), got {load!r}"
                )
        if self.num_replicas < 1:
            raise RegistryError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        knobs = {f.name: getattr(self, f.name) for f in fields(SweepKnobs)}
        points = []
        for combo in itertools.product(*(self._values(d) for d in order)):
            values = dict(zip(order, combo))
            if values["load"] is not None and values["transform"]:
                raise RegistryError(
                    "serving load points do not support graph transforms yet;"
                    " drop the transform axis or the load axis"
                )
            if values["policy"] is not None and values["load"] is None:
                raise RegistryError(
                    "cluster policy points require a load value; set the"
                    " spec's loads axis"
                )
            if values["fault"] is not None and values["policy"] is None:
                raise RegistryError(
                    "fault profile points require an admission policy; set"
                    " the spec's policies axis"
                )
            if values["autoscaler"] is not None and values["policy"] is None:
                raise RegistryError(
                    "autoscaler points require an admission policy; set"
                    " the spec's policies axis"
                )
            points.append(
                SweepPoint(
                    platform=values["platform"],
                    model=values["model"],
                    flow=values["flow"],
                    batch_size=values["batch_size"],
                    use_gpu=values["device"] != DEVICE_CPU,
                    seq_len=values["seq_len"],
                    transform=values["transform"],
                    device_mode=values["device"],
                    load=values["load"],
                    policy=values["policy"],
                    fault_profile=values["fault"],
                    autoscaler=values["autoscaler"],
                    **knobs,
                )
            )
        return points

    def subset(self, **overrides) -> "SweepSpec":
        """A copy of this spec with some dimensions replaced."""
        return replace(self, **overrides)
