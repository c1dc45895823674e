"""One model replica serving a request trace.

One :class:`ServingEngine` models one model replica serving a request trace
on one platform: a batching scheduler (see :mod:`repro.serving.scheduler`)
decides what to launch, a :class:`~repro.serving.cost.BatchCostModel` prices
each dispatch with the vectorized simulator (plans lowered once per batch
size via the PlanCache/ArtifactStore), and per-device occupancy is tracked
on the N-device :class:`~repro.hardware.platform.Platform`.

The engine keeps no event loop of its own.  :meth:`ServingEngine.run`
replays the scheduler's launches on its launch machine
(:mod:`repro.serving.columnar`): a built-in kind's recurrence, or, for a
scheduler that declares no kind, the callback machine that asks the
scheduler object itself.

Timing semantics (documented here because the equivalence battery pins them):

* Every dispatch runs ``iterations`` sequential model iterations.  An
  iteration has a host phase (``BatchCost.host_s``: CPU kernels — fallback
  work and synchronous dispatch) followed by an accelerator phase
  (``BatchCost.accel_s`` on the plan's target device).
* The host phase starts when both the batch and the host thread are ready;
  the accelerator phase starts when the host phase ends *and* the target
  device is free.  An iteration that never waits on the device completes at
  ``start + BatchCost.total_s`` — bit-identical to
  :func:`repro.runtime.simulator.simulate` — so a single request on an idle
  engine reproduces the per-inference simulator exactly.
* Devices with ``async_dispatch`` overlap naturally: the host frees at the
  end of its phase and can form/dispatch the next batch while the
  accelerator drains its queue (the ``accel_free`` horizon).  CPU-target
  plans have ``host_s == total_s``, so execution is fully serial.
* ``barrier`` dispatches (continuous batching) advance the scheduling clock
  to the iteration's end before the next decision, so membership changes
  happen exactly at iteration boundaries.

Everything is deterministic: arrivals come from a seeded trace, the
schedulers and the replays use no randomness, and all float accumulation
is fixed-order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.flows import get_flow
from repro.hardware.device import DEVICE_MODE, DeviceKind, as_device_kind
from repro.hardware.platform import get_platform, resolve_target
from repro.knobs import BatchingKnobs, knob, pick
from repro.serving.cost import BatchCostModel
from repro.serving.metrics import ServingResult
from repro.serving.trace import RequestTrace, seeded_trace
from repro.sweep.cache import PlanCache


@dataclass(frozen=True)
class EngineKnobs(BatchingKnobs):
    """The engine knobs a single engine and a cluster's replicas share: the
    batching knob group plus the sweep-axis fields."""

    model: str
    flow: str = knob("pytorch", "--flow")
    #: placement target mode (``cpu``/``gpu``/``npu``); targets the platform
    #: lacks fall back to the host CPU (see ``resolve_target``).
    device: str = knob(
        "gpu", "--device", check=DEVICE_MODE, help="placement target (cpu/gpu/npu)"
    )
    seq_len: int | None = knob(None, "--seq-len")

    @property
    def target(self) -> DeviceKind:
        """The placement target as a :class:`DeviceKind`."""
        return as_device_kind(self.device)


@dataclass(frozen=True)
class ServingConfig(EngineKnobs):
    """One serving scenario: what serves, where, and how it batches."""

    platform: str = "A"


class ServingEngine:
    """Discrete-event serving simulation of one configuration."""

    def __init__(self, config: ServingConfig, cache: PlanCache | None = None):
        self.config = config
        self.platform, self.target = resolve_target(
            get_platform(config.platform), config.target
        )
        self.flow = get_flow(config.flow)
        self.costs = BatchCostModel(
            model=config.model,
            flow=self.flow,
            platform=self.platform,
            target=self.target,
            seq_len=config.seq_len,
            cache=cache,
        )
        self._fallback_costs: BatchCostModel | None = None

    def base_latency_s(self) -> float:
        """Single-stream (batch-1) latency — the load axis' capacity unit."""
        return self.costs.cost(1).total_s

    def fallback_costs(self) -> BatchCostModel:
        """Host-CPU cost model for accelerator-loss windows: the engine's own
        model when it already targets the CPU, else built on first use
        through the same plan cache and kept."""
        if self.target is DeviceKind.CPU:
            return self.costs
        if self._fallback_costs is None:
            platform, target = resolve_target(self.platform, DeviceKind.CPU)
            self._fallback_costs = BatchCostModel(
                model=self.config.model,
                flow=self.flow,
                platform=platform,
                target=target,
                seq_len=self.config.seq_len,
                cache=self.costs.cache,
            )
        return self._fallback_costs

    def run(
        self, trace: RequestTrace, offered_rate_rps: float | None = None
    ) -> ServingResult:
        """Serve ``trace`` to completion on the scheduler's launch machine
        and aggregate the metrics under the ``record_requests`` cap."""
        from repro.serving.columnar import run_fast

        return run_fast(self, trace, offered_rate_rps)


def simulate_serving(
    config: ServingConfig,
    trace: RequestTrace,
    offered_rate_rps: float | None = None,
    cache: PlanCache | None = None,
) -> ServingResult:
    """Convenience wrapper: build an engine for ``config`` and serve ``trace``."""
    return ServingEngine(config, cache=cache).run(trace, offered_rate_rps)


def serve_point(point) -> ServingResult:
    """Serve one sweep point (``point.load`` names the offered load).

    The ``load`` axis is a fraction of single-stream capacity: an offered
    arrival rate of ``load / batch-1 latency``.  Loads above 1 oversubscribe
    a serial server — batching capacity is what absorbs them.  All
    randomness (arrival gaps, decode-step draws) flows through one
    ``numpy.random.Generator`` seeded from the spec's ``seed``; because the
    generator is consumed identically across loads, load sweeps share
    common random numbers.
    """
    if point.load is None or point.load <= 0.0:
        raise ServingError(f"sweep point has no positive load: {point.load!r}")
    engine = ServingEngine(ServingConfig(**pick(ServingConfig, point)))
    rate_rps = point.load / engine.base_latency_s()
    return engine.run(seeded_trace(point, rate_rps), offered_rate_rps=rate_rps)
