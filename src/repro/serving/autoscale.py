"""Feedback autoscalers for the replicated serving fleet.

An :class:`Autoscaler` is a control loop evaluated at a fixed interval
inside the :class:`~repro.serving.cluster.ClusterRouter` event loop: it
observes one window of fleet telemetry (arrivals, completions, busy time,
queue depth) and returns the replica count it *wants*; the router clamps
the answer to ``[min_replicas, max_replicas]``, applies a cooldown, and
turns the delta into elastic lifecycle events — scale-up provisions an
offline replica (online after ``provision_delay_s``, cold: empty queue,
fresh clocks), scale-down drains the highest-index serving replica (stops
admitting, finishes its backlog, then goes offline).

Controllers are registered under a name exactly like admission policies
(:func:`~repro.serving.cluster.register_policy`) and batch schedulers
(:func:`~repro.serving.scheduler.register_scheduler`):
:func:`register_autoscaler` is usable as a decorator, and registered
controllers are immediately available to ``nongemm-bench cluster
--autoscaler`` and the sweep ``autoscaler`` axis.

Determinism: a controller sees only the :class:`AutoscaleObservation` the
router hands it and must return a pure function of it — no randomness, no
wall clock — so cluster runs replay bit-identically across processes
(pinned by the pool-determinism tests).  Three controllers ship built in:

* ``target-utilization`` — proportional control toward a busy-fraction
  set-point with a deadband.
* ``goodput``            — SLO feedback: scales on the windowed p99 versus
  the deadline, with a backlog override when nothing completes at all.
* ``step``               — hysteresis: one replica up above
  ``up_threshold`` utilization, one down below ``down_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from typing import NamedTuple

from repro.errors import ServingError
from repro.knobs import FRACTION, AutoscaleKnobs, at_least, knob
from repro.registry import Registry
from repro.serving.metrics import nearest_rank


@dataclass(frozen=True)
class AutoscaleConfig(AutoscaleKnobs):
    """One autoscaling scenario: controller, bounds, and timing knobs."""

    #: registered controller name (``list_autoscalers()``).
    controller: str = knob(
        MISSING, "--autoscaler",
        help="elastic-fleet controller (see --list-autoscalers); the"
        " replica count becomes the provisioned ceiling",
    )
    #: fleet-size ceiling; must equal the number of provisioned platforms
    #: in the cluster config (the ceiling is the hardware that exists, the
    #: ``min_replicas`` floor is what always stays online).
    max_replicas: int = 8
    #: replicas online at t=0; ``None`` starts at ``min_replicas``.
    initial_replicas: int | None = None
    #: half-width of the no-action band around the set-point.
    deadband: float = knob(0.1, check=at_least(0))
    #: ``step`` controller thresholds (hysteresis gap between them).
    up_threshold: float = knob(0.75, check=FRACTION)
    down_threshold: float = knob(0.25, check=FRACTION)
    #: ``goodput`` scales down only when the windowed p99 sits below
    #: ``slo_margin * slo_s`` — the gap is the hysteresis that keeps the
    #: controller from surrendering capacity it just acquired.
    slo_margin: float = knob(0.5, check=FRACTION)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_replicas < self.min_replicas:
            raise ServingError(
                f"max_replicas ({self.max_replicas}) must be >="
                f" min_replicas ({self.min_replicas})"
            )
        if self.initial_replicas is not None and not (
            self.min_replicas <= self.initial_replicas <= self.max_replicas
        ):
            raise ServingError(
                f"initial_replicas ({self.initial_replicas}) must lie in"
                f" [{self.min_replicas}, {self.max_replicas}]"
            )
        if self.down_threshold >= self.up_threshold:
            raise ServingError(
                f"down_threshold ({self.down_threshold}) must be below"
                f" up_threshold ({self.up_threshold})"
            )

    @property
    def start_replicas(self) -> int:
        """Replicas online at t=0 (``initial_replicas`` or the floor)."""
        if self.initial_replicas is not None:
            return self.initial_replicas
        return self.min_replicas


class AutoscaleObservation(NamedTuple):
    """One evaluation window of fleet telemetry, as the controller sees it.

    ``busy_s`` is the bottleneck-device busy time folded from dispatches
    that *completed* inside the window; ``latencies_s`` are end-to-end
    request latencies (completion minus trace arrival) in completion
    order.  ``queue_depth`` is the total backlog across serving replicas
    at evaluation time.
    """

    start_s: float
    end_s: float
    #: replicas online and not draining at evaluation time (crashed-but-
    #: provisioned replicas still count: the controller manages capacity
    #: it pays for, fault windows are the injector's business).
    active_replicas: int
    arrivals: int
    arrival_steps: int
    completions: int
    latencies_s: tuple[float, ...]
    busy_s: float
    queue_depth: int
    #: batch-1 latency of the fleet's reference replica — the time scale
    #: controllers can use to normalize backlog into seconds.
    unit_latency_s: float

    @property
    def interval_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def utilization(self) -> float:
        """Mean busy fraction per active replica over the window."""
        window = self.interval_s * self.active_replicas
        if window <= 0.0:
            return 0.0
        return self.busy_s / window

    @property
    def p99_s(self) -> float:
        """Windowed nearest-rank p99 of the completed-request latencies."""
        if not self.latencies_s:
            return 0.0
        return nearest_rank(sorted(self.latencies_s), 0.99)


class Autoscaler:
    """Base class: map one observation window to a desired replica count.

    Like schedulers and policies, controllers may hold state between
    evaluations (an error integrator, a trend estimate), so
    :func:`get_autoscaler` returns a fresh instance per call and the
    router calls :meth:`reset` before every run.  The return value of
    :meth:`desired_replicas` is clamped to the configured bounds by the
    router — controllers express intent, the router enforces limits.
    """

    #: registry name; subclasses must override.
    name = ""
    description = ""

    def reset(self, config: AutoscaleConfig) -> None:
        """Bind the run's config and drop instance state."""
        self._config = config

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        raise NotImplementedError


class TargetUtilizationAutoscaler(Autoscaler):
    """Proportional control toward a busy-fraction set-point.

    Desired capacity is ``active * utilization / target`` (rounded up) —
    the fleet size at which the observed work would sit exactly on the
    set-point.  A deadband around the target absorbs measurement ripple
    so steady load does not flap the fleet.
    """

    name = "target-utilization"
    description = "proportional control toward a busy-fraction set-point"

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        config = self._config
        utilization = obs.utilization
        if abs(utilization - config.target_utilization) <= config.deadband:
            return obs.active_replicas
        return math.ceil(
            obs.active_replicas * utilization / config.target_utilization
        )


class GoodputAutoscaler(Autoscaler):
    """SLO feedback: track the windowed p99 against the latency deadline.

    Above the SLO the controller adds capacity proportional to the
    overshoot (at least one replica); when nothing completes at all but
    work is queued — the saturated-cold-start regime where utilization
    controllers see 0% busy — it still steps up.  It surrenders a replica
    only when the p99 sits below ``slo_margin * slo_s`` *and* the backlog
    is no deeper than the fleet, so the scale-down hysteresis is wide.
    """

    name = "goodput"
    description = "scale on windowed p99 vs. the latency SLO (deadline)"

    def reset(self, config: AutoscaleConfig) -> None:
        super().reset(config)
        if config.slo_s is None:
            raise ServingError(
                "the goodput autoscaler needs an SLO: set autoscale slo_s"
                " or the cluster deadline_s"
            )

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        config = self._config
        slo = config.slo_s
        if obs.completions == 0:
            if obs.queue_depth > 0:
                return obs.active_replicas + 1
            return obs.active_replicas
        p99 = obs.p99_s
        if p99 > slo:
            overshoot = min(p99 / slo - 1.0, 1.0)
            step = math.ceil(obs.active_replicas * overshoot)
            return obs.active_replicas + max(1, step)
        if (
            p99 <= config.slo_margin * slo
            and obs.queue_depth <= obs.active_replicas
        ):
            return obs.active_replicas - 1
        return obs.active_replicas


class StepAutoscaler(Autoscaler):
    """One-replica steps with utilization hysteresis.

    The simplest production pattern: above ``up_threshold`` add one
    replica, below ``down_threshold`` remove one, hold in between.  The
    gap between the thresholds is the hysteresis that prevents limit
    cycles; the config validator enforces it is positive.
    """

    name = "step"
    description = "one replica up/down across utilization thresholds"

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        config = self._config
        utilization = obs.utilization
        if utilization > config.up_threshold:
            return obs.active_replicas + 1
        if utilization < config.down_threshold:
            return obs.active_replicas - 1
        return obs.active_replicas


AUTOSCALER_REGISTRY: Registry[type[Autoscaler]] = Registry("autoscaler", ServingError)


def register_autoscaler(
    autoscaler_cls: type[Autoscaler], replace: bool = False
) -> type[Autoscaler]:
    """Register an autoscaler class under its ``name``.

    Usable as a decorator on custom controllers, exactly like
    :func:`~repro.serving.cluster.register_policy`.
    """
    return AUTOSCALER_REGISTRY.register(autoscaler_cls.name, autoscaler_cls, replace)


for _cls in (TargetUtilizationAutoscaler, GoodputAutoscaler, StepAutoscaler):
    register_autoscaler(_cls)


def get_autoscaler(name: str) -> Autoscaler:
    """Instantiate a controller by name — a fresh instance per call."""
    return AUTOSCALER_REGISTRY.get(name)()


list_autoscalers = AUTOSCALER_REGISTRY.names
autoscaler_entries = AUTOSCALER_REGISTRY.entries
