"""Declarative sweep grids: what to profile, as data instead of nested loops.

A :class:`SweepSpec` names the value sets of each sweep dimension and the
nesting order in which the cross-product should be walked; :meth:`points`
expands it into concrete :class:`SweepPoint` records.  Each axis is one
``knob(..., axis=...)`` field of the spec, naming the point field it fills;
that name is the dimension's name, and the canonical nesting order, the
expansion and the ``sweep`` subcommand's flags all derive from the fields.
Keeping the grid declarative lets every figure/table harness share one
runner (caching, vectorized simulation, optional process parallelism) while
still controlling its exact row order — the CSV artifacts are byte-stable
across engines.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields, replace

from repro.errors import RegistryError
from repro.hardware.device import DeviceKind, as_device_kind
from repro.knobs import (
    POSITIVE,
    AutoscaleKnobs,
    BatchingKnobs,
    FleetKnobs,
    TraceKnobs,
    knob,
    listing,
    pick,
)

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
    #: named placement target (``cpu``/``gpu``/``npu``).
    device: str
    seq_len: int | None = None
    transform: str | None = None
    #: offered load as a fraction of single-stream (batch-1) capacity; None
    #: means a plain per-inference profile point (no serving simulation).
    load: float | None = None
    #: cluster axes: a non-None ``policy`` routes the load point through a
    #: multi-replica ClusterRouter instead of a single engine.
    policy: str | None = None
    fault_profile: str | None = None
    #: elastic-fleet axis: a non-None controller name autoscales the
    #: cluster; None keeps the whole fleet online.
    controller: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.load is not None and self.transform:
            raise RegistryError(
                "serving load points do not support graph transforms yet;"
                " drop the transform axis or the load axis"
            )
        if self.policy is not None and self.load is None:
            raise RegistryError(
                "cluster policy points require a load value; set the"
                " spec's loads axis"
            )
        for name, value in (("fault profile", self.fault_profile), ("autoscaler", self.controller)):
            if value is not None and self.policy is None:
                raise RegistryError(
                    f"{name} points require an admission policy; set"
                    " the spec's policies axis"
                )

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
            if self.controller:
                parts.append(
                    f"autoscale={self.controller}"
                    f" [{self.min_replicas},{self.num_replicas}]"
                )
        return " ".join(parts)


def _model_names(raw: str) -> tuple[str, ...]:
    """``--models``: comma-separated names, or ``paper`` for the paper's set."""
    if raw == "paper":
        from repro.models import PAPER_MODELS

        return tuple(PAPER_MODELS)
    return listing()(raw)


@dataclass(frozen=True, kw_only=True)
class SweepSpec(SweepKnobs):
    """A cross-product sweep grid plus the nesting order of its dimensions.

    The axis fields are declared in canonical nesting order (new axes are
    appended, so every existing spec's point grid is unchanged); each
    default is a singleton, so an unset axis adds no points.
    """

    platforms: tuple[str, ...] = knob(
        ("A",), "--platforms", axis="platform", parse=listing(),
        help="comma-separated platform ids",
    )
    models: tuple[str, ...] = knob(
        MISSING, "--models", axis="model", parse=_model_names,
        help="comma-separated model names, or 'paper' for the paper's model set",
    )
    seq_lens: tuple[int | None, ...] = knob(
        (None,), "--seq-lens", axis="seq_len", parse=listing(int, empty=(None,)),
        help="comma-separated sequence lengths (optional)",
    )
    batch_sizes: tuple[int, ...] = knob(
        (1,), "--batches", axis="batch_size", parse=listing(int),
        help="comma-separated batch sizes",
    )
    flows: tuple[str, ...] = knob(
        ("pytorch",), "--flows", axis="flow", parse=listing(),
        help="comma-separated flow names",
    )
    devices: tuple[str, ...] = knob(
        ("gpu",), "--devices", axis="device", parse=listing(),
        check=(f"one of {', '.join(DEVICE_MODES)}", DEVICE_MODES.__contains__),
        help="comma-separated placement targets (cpu,gpu,npu)",
    )
    transforms: tuple[str | None, ...] = knob((None,), axis="transform")
    #: offered load as a fraction of single-stream capacity.  Any non-None
    #: value makes the runner serve that point through the discrete-event
    #: engine (see ``repro.serving``).
    loads: tuple[float | None, ...] = knob(
        (None,), "--load", axis="load", parse=listing(float, empty=(None,)),
        check=POSITIVE,
        help="comma-separated offered loads (fractions of single-stream"
        " capacity); each load point also runs the serving engine",
    )
    #: admission policies for a multi-replica fleet; a non-None policy
    #: requires a non-None load (the cluster always serves).
    policies: tuple[str | None, ...] = knob((None,), axis="policy")
    #: fault profile names (see ``repro.serving.faults``); only meaningful
    #: alongside a policy.
    fault_profiles: tuple[str | None, ...] = knob((None,), axis="fault_profile")
    #: autoscale controller names (see ``repro.serving.autoscale``); only
    #: meaningful alongside a policy, and ``num_replicas`` is the
    #: provisioned ceiling the controller scales within.
    autoscalers: tuple[str | None, ...] = knob((None,), axis="controller")
    #: outermost-to-innermost loop order; unlisted dimensions follow in
    #: canonical order after the listed ones.
    order: tuple[str, ...] = ()
    name: str = "sweep"

    @classmethod
    def around(cls, source, **explicit) -> "SweepSpec":
        """A spec whose knobs, and whose axes as singletons, are ``source``'s
        attributes named like the spec's fields and the point's fields (a
        parsed command line or a config); ``explicit`` goes on top."""
        axes = {
            f.name: (getattr(source, f.metadata["axis"]),)
            for f in AXES
            if hasattr(source, f.metadata["axis"])
        }
        return cls(**{**pick(cls, source), **axes, **explicit})

    def _values(self, dimension: str) -> tuple:
        return getattr(self, _AXIS_FIELD[dimension])

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
        axes = [self._values(dimension) for dimension in order]
        if not all(axes):
            return []
        for f in AXES:
            if f.metadata["check"] is None:
                continue
            what, passes = f.metadata["check"]
            for value in getattr(self, f.name):
                if value is not None and not passes(value):
                    raise RegistryError(
                        f"sweep {f.metadata['axis']} values must be {what}, got {value!r}"
                    )
        if self.num_replicas < 1:
            raise RegistryError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        knobs = {f.name: getattr(self, f.name) for f in fields(SweepKnobs)}
        return [
            SweepPoint(**knobs, **dict(zip(order, combo)))
            for combo in itertools.product(*axes)
        ]

    def subset(self, **overrides) -> "SweepSpec":
        """A copy of this spec with some dimensions replaced."""
        return replace(self, **overrides)


#: the spec's axis fields, in canonical nesting order.
AXES = tuple(f for f in fields(SweepSpec) if f.metadata.get("axis"))
#: the dimension (point field) each axis fills -> the spec field holding it.
_AXIS_FIELD = {f.metadata["axis"]: f.name for f in AXES}
#: canonical dimension nesting order; specs may reorder any prefix subset.
DIMENSIONS = tuple(_AXIS_FIELD)
