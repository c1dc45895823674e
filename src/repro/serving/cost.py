"""Per-batch serving costs, pulled from the vectorized simulator once each.

The engine prices every dispatch with a :class:`BatchCost`: the full
simulated latency of one model iteration at a given graph batch size, plus
the decompositions the event loop and the metrics need (host vs accelerator
portions, per-device busy time and energy, GEMM vs non-GEMM split).

Costs are resolved through the sweep engine's two-tier
:class:`~repro.sweep.cache.PlanCache`: a batch size is lowered **once** per
(model, flow, target) — whatever mix of schedulers, loads, and platforms
replays it — and the resulting :class:`BatchCost` is itself a persisted
artifact (kind ``"serving"``), so a warm store serves a whole serving sweep
without building a graph or running the simulator at all.

Decomposition invariants (the equivalence battery leans on these):

* ``total_s`` is exactly ``Simulation.total_latency_s`` — the same
  left-to-right cumsum the simulator produces.
* ``host_s`` accumulates the CPU kernels' latencies in the same record
  order (an all-CPU plan therefore has ``host_s == total_s`` bit-exactly,
  and an accelerator-only plan has ``host_s == 0.0``).
* ``accel_s`` is ``total_s - host_s``; the engine only uses it when a batch
  actually waits on a busy accelerator — an uncontended dispatch completes
  at ``start + total_s`` directly, preserving bit-identity with the serial
  simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.base import DeploymentFlow
from repro.flows.plan import DEVICE_CODE
from repro.hardware.device import DeviceKind
from repro.hardware.platform import Platform
from repro.runtime.simulator import SimulationResult, plan_arrays, simulate
from repro.serving.metrics import _ordered_sum
from repro.sweep.cache import PLAN_CACHE, PlanCache


@dataclass(frozen=True)
class BatchCost:
    """Simulated cost of one model iteration at one graph batch size."""

    batch_size: int
    #: end-to-end serial latency — exactly ``Simulation.total_latency_s``.
    total_s: float
    #: CPU-kernel portion (dispatch + fallback work the host thread runs).
    host_s: float
    #: accelerator-side remainder (``total_s - host_s``).
    accel_s: float
    #: the device kind accelerator work queues on (the plan's target).
    target: DeviceKind
    #: whether any kernel runs off the host CPU.
    has_accel: bool
    #: per-device busy seconds for one iteration (utilization accounting).
    busy_s: dict[DeviceKind, float]
    #: per-device joules for one iteration (idle + dynamic over ``total_s``).
    energy_j: dict[DeviceKind, float]
    #: GEMM / non-GEMM split of the iteration's busy time.
    gemm_s: float
    non_gemm_s: float
    num_kernels: int


def batch_cost_from_simulation(sim: SimulationResult, batch_size: int) -> BatchCost:
    """Decompose one :func:`~repro.runtime.simulator.simulate` result."""
    plan = sim.plan
    arrays = plan_arrays(plan)
    latencies = sim.latencies
    host_mask = arrays.device_idx == DEVICE_CODE[DeviceKind.CPU]
    host_s = _ordered_sum(np.where(host_mask, latencies, 0.0))
    total_s = sim.total_latency_s
    busy_s = {
        spec.kind: _ordered_sum(
            np.where(arrays.device_idx == DEVICE_CODE[spec.kind], latencies, 0.0)
        )
        for spec in sim.platform.devices
    }
    return BatchCost(
        batch_size=batch_size,
        total_s=total_s,
        host_s=host_s,
        accel_s=total_s - host_s,
        target=plan.target,
        has_accel=bool(np.any(~host_mask)),
        busy_s=busy_s,
        energy_j=dict(sim.energy_j),
        gemm_s=_ordered_sum(np.where(arrays.is_gemm, latencies, 0.0)),
        non_gemm_s=_ordered_sum(np.where(arrays.is_gemm, 0.0, latencies)),
        num_kernels=plan.num_kernels,
    )


class BatchCostTable:
    """Dense per-batch-size cost columns for one :class:`BatchCostModel`.

    One float64 column per decomposition field, indexed by batch size (row 0
    is unused).  The columnar result assembler folds per-dispatch accounting
    by gathering these columns at the dispatch sizes.

    Rows fill lazily through :meth:`BatchCostModel.cost`, so the table
    shares :class:`BatchCost` objects (and the PlanCache behind them) with
    every other consumer and never lowers a plan the run would not have
    lowered anyway.  ``row()`` is the inner-loop replacement for the
    model's dict lookup: a list index plus a ``None`` check.
    """

    __slots__ = (
        "model",
        "max_batch",
        "rows",
        "total_s",
        "host_s",
        "accel_s",
        "gemm_s",
        "non_gemm_s",
        "busy_s",
        "energy_j",
    )

    def __init__(self, model: "BatchCostModel", max_batch: int):
        self.model = model
        self.max_batch = max_batch
        n = max_batch + 1
        self.rows: list[BatchCost | None] = [None] * n
        self.total_s = np.zeros(n)
        self.host_s = np.zeros(n)
        self.accel_s = np.zeros(n)
        self.gemm_s = np.zeros(n)
        self.non_gemm_s = np.zeros(n)
        kinds = tuple(spec.kind for spec in model.platform.devices)
        self.busy_s = {kind: np.zeros(n) for kind in kinds}
        self.energy_j = {kind: np.zeros(n) for kind in kinds}

    def row(self, batch_size: int) -> BatchCost:
        """The :class:`BatchCost` for ``batch_size``, filling the columns on
        first touch.  Out-of-range sizes resolve through the model directly
        (defensive: built-in schedulers never exceed ``max_batch``)."""
        if batch_size > self.max_batch:
            return self.model.cost(batch_size)
        cached = self.rows[batch_size]
        if cached is None:
            cached = self._fill(batch_size)
        return cached

    def _fill(self, batch_size: int) -> BatchCost:
        cost = self.model.cost(batch_size)
        self.rows[batch_size] = cost
        self.total_s[batch_size] = cost.total_s
        self.host_s[batch_size] = cost.host_s
        self.accel_s[batch_size] = cost.accel_s
        self.gemm_s[batch_size] = cost.gemm_s
        self.non_gemm_s[batch_size] = cost.non_gemm_s
        for kind, seconds in cost.busy_s.items():
            self.busy_s[kind][batch_size] = seconds
        for kind, joules in cost.energy_j.items():
            self.energy_j[kind][batch_size] = joules
        return cost


class BatchCostModel:
    """Memoized (batch size -> :class:`BatchCost`) resolver for one serving
    configuration.

    The per-run dict makes every engine run self-sufficient (a disabled
    global cache still lowers each batch size once per run); the
    :class:`~repro.sweep.cache.PlanCache` behind it shares lowered plans and
    stored costs across runs, schedulers, and processes.  Hot loops resolve
    through :meth:`cost_table` instead — a dense, shared
    :class:`BatchCostTable` whose ``row()`` avoids dict hashing entirely and
    whose columns feed the columnar path's vectorized accounting.
    """

    def __init__(
        self,
        model: str,
        flow: DeploymentFlow,
        platform: Platform,
        target: DeviceKind,
        seq_len: int | None = None,
        cache: PlanCache | None = None,
    ):
        self.model = model
        self.flow = flow
        self.platform = platform
        self.target = target
        self.seq_len = seq_len
        self.cache = cache if cache is not None else PLAN_CACHE
        self._costs: dict[int, BatchCost] = {}
        self._tables: dict[int, BatchCostTable] = {}

    def cost_table(self, max_batch: int) -> BatchCostTable:
        """The memoized dense table for ``max_batch``.  Shared by the
        reference loops and every columnar machine of this model."""
        table = self._tables.get(max_batch)
        if table is None:
            table = self._tables[max_batch] = BatchCostTable(self, max_batch)
        return table

    def cost(self, batch_size: int) -> BatchCost:
        cached = self._costs.get(batch_size)
        if cached is None:
            overrides = {} if self.seq_len is None else {"seq_len": self.seq_len}
            graph = self.cache.graph_ref(self.model, batch_size, **overrides)
            cached = self.cache.serving_cost(
                self.flow,
                graph,
                self.target,
                self.platform,
                lambda plan: batch_cost_from_simulation(
                    simulate(plan, self.platform), batch_size
                ),
            )
            self._costs[batch_size] = cached
        return cached
