"""Deterministic fault injection for the multi-replica cluster simulator.

Real deployments fail in three characteristic ways, and each one produces
tail latency through a different mechanism:

* **replica crashes** — a whole replica disappears for a window: queued and
  in-flight work is lost and must be re-routed (detected via per-request
  timeouts, see :mod:`repro.serving.cluster`);
* **transient accelerator loss** — the replica stays up but its accelerator
  drops out (driver reset, thermal trip, preempted MIG slice): new
  dispatches fall back to the host CPU — the same missing-accelerator
  fallback path :func:`~repro.hardware.platform.resolve_target` takes
  for platforms that never had the device;
* **stragglers** — individual dispatches run a multiplier slower than the
  cost model predicts (contended SMs, page faults, clock throttling).

A :class:`FaultInjector` is built from a *fault profile* — a registered
generator function mirroring ``register_trace`` — and is deterministic end
to end: every draw flows through explicit :class:`numpy.random.Generator`\\ s
seeded from the injector's seed, and the per-replica straggler streams are
seeded by ``(seed, replica)`` so the multiplier sequence a replica sees
depends only on its own launch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ServingError
from repro.registry import Registry

#: fault window kinds.
CRASH = "crash"
ACCEL_LOSS = "accel-loss"
_WINDOW_KINDS = (CRASH, ACCEL_LOSS)


@dataclass(frozen=True)
class FaultWindow:
    """One contiguous fault on one replica: ``[start_s, end_s)``."""

    replica: int
    kind: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.kind not in _WINDOW_KINDS:
            raise ServingError(
                f"unknown fault window kind {self.kind!r}; known: {_WINDOW_KINDS}"
            )
        if self.replica < 0:
            raise ServingError(f"fault window names replica {self.replica}")
        if not (0.0 <= self.start_s < self.end_s):
            raise ServingError(
                f"fault window [{self.start_s}, {self.end_s}) is not a"
                " positive-length interval"
            )

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class FaultSchedule:
    """What a fault profile produces: windows plus straggler parameters.

    ``straggler_prob`` is the per-dispatch probability that a launch is
    afflicted; afflicted launches draw a slowdown multiplier uniformly from
    ``straggler_range`` (inclusive low, exclusive high, both >= 1).
    """

    windows: tuple[FaultWindow, ...] = ()
    straggler_prob: float = 0.0
    straggler_range: tuple[float, float] = (2.0, 4.0)

    def __post_init__(self) -> None:
        if not (0.0 <= self.straggler_prob <= 1.0):
            raise ServingError(
                f"straggler_prob must be in [0, 1], got {self.straggler_prob}"
            )
        lo, hi = self.straggler_range
        if lo < 1.0 or hi < lo:
            raise ServingError(f"invalid straggler_range {self.straggler_range!r}")

    @property
    def perturbs(self) -> bool:
        """Does this drawn schedule actually perturb a run?  A profile that
        yields no windows and no straggler probability is equivalent to
        ``none`` — rail selection keys off this, not the profile name."""
        return bool(self.windows) or self.straggler_prob > 0.0

    def crash_replicas(self) -> frozenset[int]:
        """Indices of replicas the schedule ever crashes (these pay for
        open-dispatch bookkeeping on the columnar faulted rail)."""
        return frozenset(w.replica for w in self.windows if w.kind == CRASH)


#: a fault profile maps (num_replicas, horizon_s, rng) -> FaultSchedule.
FaultProfile = Callable[[int, float, np.random.Generator], FaultSchedule]

FAULT_PROFILE_REGISTRY: Registry[FaultProfile] = Registry("fault profile", ServingError)


def register_fault_profile(
    name: str, fn: FaultProfile, replace: bool = False
) -> FaultProfile:
    """Register a fault profile under ``name`` (mirrors ``register_trace``)."""
    return FAULT_PROFILE_REGISTRY.register(name, fn, replace)


list_fault_profiles = FAULT_PROFILE_REGISTRY.names
fault_profile_entries = FAULT_PROFILE_REGISTRY.entries


def none_profile(
    num_replicas: int, horizon_s: float, rng: np.random.Generator
) -> FaultSchedule:
    """No faults: the cluster equivalence rail runs through this."""
    return FaultSchedule()


def crash_profile(
    num_replicas: int, horizon_s: float, rng: np.random.Generator
) -> FaultSchedule:
    """One replica crashes mid-run and recovers.

    The victim is drawn uniformly; the outage starts between 20% and 40% of
    the horizon and lasts 20-35% of it — long enough that queued work must
    be re-routed, short enough that time-to-recovery is observable.
    """
    victim = int(rng.integers(num_replicas))
    start = float(rng.uniform(0.20, 0.40)) * horizon_s
    length = float(rng.uniform(0.20, 0.35)) * horizon_s
    return FaultSchedule(windows=(FaultWindow(victim, CRASH, start, start + length),))


def accel_loss_profile(
    num_replicas: int, horizon_s: float, rng: np.random.Generator
) -> FaultSchedule:
    """One replica loses its accelerator mid-run and runs host-only.

    Same window shape as :func:`crash_profile`, but the replica keeps
    serving — every dispatch inside the window is priced with the host-CPU
    fallback cost model, so the fleet degrades instead of shrinking.
    """
    victim = int(rng.integers(num_replicas))
    start = float(rng.uniform(0.20, 0.40)) * horizon_s
    length = float(rng.uniform(0.25, 0.40)) * horizon_s
    return FaultSchedule(
        windows=(FaultWindow(victim, ACCEL_LOSS, start, start + length),)
    )


def straggler_profile(
    num_replicas: int, horizon_s: float, rng: np.random.Generator
) -> FaultSchedule:
    """No outages, but ~15% of dispatches run 2-6x slower than priced."""
    return FaultSchedule(straggler_prob=0.15, straggler_range=(2.0, 6.0))


for _name, _fn in (
    ("none", none_profile),
    ("crash", crash_profile),
    ("accel-loss", accel_loss_profile),
    ("straggler", straggler_profile),
):
    register_fault_profile(_name, _fn)


class FaultInjector:
    """Seeded, replayable fault source for one cluster run.

    The schedule (outage windows, straggler parameters) is drawn once at
    construction from ``numpy.random.default_rng(seed)``; per-dispatch
    straggler multipliers come from per-replica generators seeded by
    ``(seed, replica)``, consumed once per launch in launch order — so two
    runs of the same configuration see bit-identical faults, and a replica's
    multiplier stream never depends on what *other* replicas do.
    """

    def __init__(
        self,
        profile: str,
        num_replicas: int,
        horizon_s: float,
        seed: int = 0,
    ):
        fn = FAULT_PROFILE_REGISTRY.get(profile)
        key = profile.lower()
        if num_replicas < 1:
            raise ServingError(f"num_replicas must be >= 1, got {num_replicas}")
        if not (horizon_s > 0.0) or not math.isfinite(horizon_s):
            raise ServingError(f"fault horizon must be positive, got {horizon_s}")
        self.profile = key
        self.num_replicas = num_replicas
        self.horizon_s = horizon_s
        self.seed = seed
        self.schedule = fn(num_replicas, horizon_s, np.random.default_rng(seed))
        for window in self.schedule.windows:
            if window.replica >= num_replicas:
                raise ServingError(
                    f"fault profile {key!r} produced a window for replica"
                    f" {window.replica} of a {num_replicas}-replica cluster"
                )
        self._straggler_rngs = [
            np.random.default_rng([seed, replica])
            for replica in range(num_replicas)
        ]

    # -- outage queries ------------------------------------------------------

    def windows_for(self, replica: int, kind: str | None = None) -> tuple[FaultWindow, ...]:
        return tuple(
            w
            for w in self.schedule.windows
            if w.replica == replica and (kind is None or w.kind == kind)
        )

    def is_crashed(self, replica: int, t: float) -> bool:
        return any(w.covers(t) for w in self.windows_for(replica, CRASH))

    def accel_lost(self, replica: int, t: float) -> bool:
        return any(w.covers(t) for w in self.windows_for(replica, ACCEL_LOSS))

    def transitions(self) -> tuple[float, ...]:
        """Every window start/end, ascending — the event loop's fault clock."""
        times = sorted(
            {w.start_s for w in self.schedule.windows}
            | {w.end_s for w in self.schedule.windows}
        )
        return tuple(times)

    # -- stragglers ----------------------------------------------------------

    @property
    def has_stragglers(self) -> bool:
        return self.schedule.straggler_prob > 0.0

    def dispatch_multiplier(self, replica: int) -> float:
        """The slowdown multiplier for ``replica``'s next launch (>= 1.0).

        Consumes the replica's straggler stream: call exactly once per
        dispatch launch.  Profiles without stragglers return 1.0 without
        touching any generator, so the no-fault path stays bit-identical to
        a single :class:`~repro.serving.engine.ServingEngine`.
        """
        if not self.has_stragglers:
            return 1.0
        rng = self._straggler_rngs[replica]
        if float(rng.random()) >= self.schedule.straggler_prob:
            return 1.0
        lo, hi = self.schedule.straggler_range
        return float(rng.uniform(lo, hi))
