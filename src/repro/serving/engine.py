"""The deterministic discrete-event serving loop.

One :class:`ServingEngine` models one model replica serving a request trace
on one platform: a batching scheduler (see :mod:`repro.serving.scheduler`)
decides what to launch, a :class:`~repro.serving.cost.BatchCostModel` prices
each dispatch with the vectorized simulator (plans lowered once per batch
size via the PlanCache/ArtifactStore), and the event loop tracks per-device
occupancy on the N-device :class:`~repro.hardware.platform.Platform`.

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
scheduler and the event loop use no randomness, and all float accumulation
is fixed-order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.flows import get_flow
from repro.hardware.device import DeviceKind, as_device_kind
from repro.hardware.platform import Platform, get_platform
from repro.knobs import BatchingKnobs, knob, pick
from repro.serving.cost import BatchCostModel
from repro.serving.metrics import RequestRecord, ServingResult, cap_serving_result
from repro.serving.scheduler import Dispatch, get_scheduler
from repro.serving.trace import RequestTrace, seeded_trace
from repro.sweep.cache import PlanCache


@dataclass(frozen=True)
class EngineKnobs(BatchingKnobs):
    """The engine knobs a single engine and a cluster's replicas share: the
    batching knob group plus the sweep-axis fields."""

    model: str
    flow: str = knob("pytorch", "--flow")
    #: placement target mode (``cpu``/``gpu``/``npu``); targets the platform
    #: lacks fall back to the host CPU, exactly like ``profile_graph``.
    device: str = knob("gpu", "--device", help="placement target (cpu/gpu/npu)")
    seq_len: int | None = knob(None, "--seq-len")


@dataclass(frozen=True)
class ServingConfig(EngineKnobs):
    """One serving scenario: what serves, where, and how it batches."""

    platform: str = "A"


def resolve_serving_target(
    platform: Platform, device: "bool | str | DeviceKind"
) -> tuple[Platform, DeviceKind]:
    """The effective (platform, target) pair for a serving scenario.

    Mirrors :func:`~repro.profiler.profiler.profile_graph`: a target the
    platform lacks falls back to the host CPU, and CPU targets run on the
    platform's accelerator-free :meth:`~repro.hardware.platform.Platform.cpu_only`
    derivation (the paper's CPU-only bars).
    """
    target = as_device_kind(device)
    if target is not DeviceKind.CPU and not platform.has_device(target):
        target = DeviceKind.CPU
    if target is DeviceKind.CPU:
        platform = platform.cpu_only()
    return platform, target


class ServingEngine:
    """Discrete-event serving simulation of one configuration."""

    def __init__(self, config: ServingConfig, cache: PlanCache | None = None):
        self.config = config
        platform, target = resolve_serving_target(
            get_platform(config.platform), config.device
        )
        self.platform = platform
        self.target = target
        self.flow = get_flow(config.flow)
        self.costs = BatchCostModel(
            model=config.model,
            flow=self.flow,
            platform=platform,
            target=target,
            seq_len=config.seq_len,
            cache=cache,
        )

    def base_latency_s(self) -> float:
        """Single-stream (batch-1) latency — the load axis' capacity unit."""
        return self.costs.cost(1).total_s

    def run(
        self, trace: RequestTrace, offered_rate_rps: float | None = None
    ) -> ServingResult:
        """Serve ``trace`` to completion and aggregate the metrics.

        Replays the scheduler's launches on its columnar launch machine, or
        runs the scalar reference loop when it declares none (results are
        bit-identical; ``backend_used`` says which ran), then applies the
        ``record_requests`` streaming cap if one is configured.
        """
        from repro.serving.columnar import run_fast

        result = run_fast(self, trace, offered_rate_rps)
        cap = self.config.record_requests
        if cap is not None and result.record_cap is None:
            capped = cap_serving_result(result, cap)
            capped.backend_used = result.backend_used
            capped.fast_path_fallback_reason = result.fast_path_fallback_reason
            result = capped
        return result

    def _run_reference(
        self, trace: RequestTrace, offered_rate_rps: float | None = None
    ) -> ServingResult:
        """The scalar reference event loop (drives the scheduler object)."""
        config = self.config
        scheduler = get_scheduler(
            config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
        )
        requests = trace.requests
        # dense cost rows (shared with the columnar path): list index +
        # None check instead of a dict hash per dispatch.
        cost_table = self.costs.cost_table(scheduler.max_batch)
        busy: dict[DeviceKind, float] = {spec.kind: 0.0 for spec in self.platform.devices}
        energy: dict[DeviceKind, float] = {spec.kind: 0.0 for spec in self.platform.devices}
        result = ServingResult(
            model=config.model,
            flow=self.flow.name,
            platform_id=config.platform,
            device=self.target.value,
            scheduler=scheduler.name,
            trace=trace.name,
            offered_rate_rps=(
                trace.offered_rate_rps if offered_rate_rps is None else offered_rate_rps
            ),
            # filled in place below; an empty trace reports idle devices.
            busy_s=busy,
            energy_j=energy,
        )
        if not requests:
            return result

        total = len(requests)
        next_index = 0
        now = 0.0
        host_free = 0.0
        accel_free: dict[DeviceKind, float] = {}
        starts: dict[int, float] = {}
        completions: dict[int, tuple[float, int]] = {}
        gemm_busy = 0.0
        non_gemm_busy = 0.0
        depth_samples: list[tuple[float, int]] = []
        dispatches = 0
        iterations_run = 0
        weighted_size = 0

        # every loop turn either launches work or strictly advances the
        # clock, so this bound is generous; hitting it means a (custom)
        # scheduler is stalling or spinning.
        max_turns = 8 * (total + trace.total_decode_steps()) + 64
        turns = 0
        while len(completions) < total:
            turns += 1
            if turns > max_turns:
                raise ServingError(
                    f"scheduler {scheduler.name!r} made no progress after"
                    f" {max_turns} decision turns ({len(completions)}/{total} done,"
                    f" queue depth {scheduler.queue_depth}, clock t={now:.6f}s)"
                )
            while next_index < total and requests[next_index].arrival_s <= now:
                scheduler.admit(requests[next_index])
                depth_samples.append(
                    (requests[next_index].arrival_s, scheduler.queue_depth)
                )
                next_index += 1
            arrivals_pending = next_index < total

            verdict = scheduler.next_dispatch(now, arrivals_pending)
            if isinstance(verdict, Dispatch):
                cost = cost_table.row(verdict.size)
                start = max(now, host_free)
                cursor = start
                for _ in range(verdict.iterations):
                    host_end = cursor + cost.host_s
                    if cost.has_accel:
                        accel_start = max(host_end, accel_free.get(cost.target, 0.0))
                        if accel_start == host_end:
                            # uncontended: serial semantics, bit-identical to
                            # the per-inference simulator's total.
                            end = cursor + cost.total_s
                        else:
                            end = accel_start + cost.accel_s
                        accel_free[cost.target] = end
                    else:
                        end = cursor + cost.total_s
                        host_end = end
                    host_free = host_end
                    cursor = end
                for kind, seconds in cost.busy_s.items():
                    busy[kind] += seconds * verdict.iterations
                for kind, joules in cost.energy_j.items():
                    energy[kind] += joules * verdict.iterations
                gemm_busy += cost.gemm_s * verdict.iterations
                non_gemm_busy += cost.non_gemm_s * verdict.iterations
                dispatches += 1
                iterations_run += verdict.iterations
                weighted_size += verdict.size * verdict.iterations
                for request_id in verdict.members:
                    starts.setdefault(request_id, start)
                for request_id in verdict.completes:
                    completions[request_id] = (cursor, verdict.size)
                depth_samples.append((start, scheduler.queue_depth))
                now = cursor if verdict.barrier else max(now, host_free)
                continue

            if verdict is None:
                if arrivals_pending:
                    now = requests[next_index].arrival_s
                    continue
                raise ServingError(
                    f"scheduler {scheduler.name!r} returned no work with"
                    f" {total - len(completions)} requests outstanding, the"
                    f" trace exhausted, queue depth {scheduler.queue_depth},"
                    f" and clock t={now:.6f}s"
                )

            # float deadline: advance to it (or to an earlier arrival).
            wake = float(verdict)
            if arrivals_pending:
                wake = min(wake, requests[next_index].arrival_s)
            if wake <= now:
                raise ServingError(
                    f"scheduler {scheduler.name!r} requested a wake-up at"
                    f" {wake} that does not advance the clock (t={now:.6f}s,"
                    f" queue depth {scheduler.queue_depth})"
                )
            now = wake

        first_arrival = requests[0].arrival_s
        last_completion = max(end for end, _ in completions.values())
        result.records = [
            RequestRecord(
                request_id=request.request_id,
                arrival_s=request.arrival_s,
                start_s=starts[request.request_id],
                completion_s=completions[request.request_id][0],
                decode_steps=request.decode_steps,
                batch_size=completions[request.request_id][1],
            )
            for request in requests
        ]
        result.makespan_s = last_completion - first_arrival
        result.num_dispatches = dispatches
        result.num_iterations = iterations_run
        result.mean_batch_size = (
            weighted_size / iterations_run if iterations_run else 0.0
        )
        result.gemm_busy_s = gemm_busy
        result.non_gemm_busy_s = non_gemm_busy
        result.queue_depth_timeline = tuple(depth_samples)
        return result


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
