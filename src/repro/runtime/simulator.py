"""Latency and energy simulation of execution plans.

Walks a lowered :class:`~repro.flows.plan.ExecutionPlan` on a
:class:`~repro.hardware.platform.Platform`, estimating each kernel with the
roofline cost model, adding interconnect transfers for kernels forced off the
plan's target device, and integrating the power model for energy.

The hardware model is N-device: kernels carry a :class:`DeviceKind`, the
platform contributes one parameter table per device kind plus a directed
link table, and energy is accounted per device.  Transfers are priced on the
link between the kernel's device and its *peer* — the plan's target device
for host kernels (fallback ops pull operands off the accelerator), the host
CPU for accelerator kernels (sync readbacks) — which reduces to the historic
single PCIe hop on two-device platforms.

:func:`simulate` is vectorized: it casts the plan's
:class:`~repro.flows.plan.KernelTable` columns into per-kernel float and
index arrays (:func:`plan_arrays`, cached on the plan) and estimates every
kernel in one :func:`~repro.hardware.cost_model.estimate_kernels_batch`
call, so a 10k-kernel plan costs a handful of array operations instead of
10k Python-level roofline evaluations.  The scalar kernel-by-kernel loop it
must match bit for bit lives with the tests, as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RegistryError
from repro.flows.plan import (
    CATEGORIES,
    CATEGORY_CODE,
    DEVICE_CODE,
    DEVICE_KINDS,
    DTYPES,
    ExecutionPlan,
    PlannedKernel,
)
from repro.hardware.calibration import (
    FALLBACK_SYNC_S,
    DispatchProfile,
    dispatch_profile,
    efficiency_for_kind,
)
from repro.hardware.cost_model import (
    BatchEstimates,
    LatencyEstimate,
    estimate_kernels_batch,
)
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.platform import Platform
from repro.ir.dtype import DType
from repro.ops.base import OpCategory

#: GEMM peak column of each table dtype code: f32 (TF32-scalable), f16/bf16,
#: i8, and "other" (falls back to the f32 pipe rate but never gets the TF32
#: scale).
_DTYPE_F32, _DTYPE_F16, _DTYPE_I8, _DTYPE_OTHER = 0, 1, 2, 3
_PEAK_OF_DTYPE = {
    DType.F32: _DTYPE_F32,
    DType.F16: _DTYPE_F16,
    DType.BF16: _DTYPE_F16,
    DType.I8: _DTYPE_I8,
}
_PEAK_COLUMN = np.array(
    [_PEAK_OF_DTYPE.get(dtype, _DTYPE_OTHER) for dtype in DTYPES], dtype=np.int64
)

#: attribute used to cache the platform-independent arrays on a plan.
_PLAN_ARRAYS_ATTR = "_simulator_arrays"

#: lazily-built efficiency lookup tables indexed [device_kind, category]; the
#: calibration data is static, so they are computed once per process.
_EFF_TABLES: tuple[np.ndarray, np.ndarray] | None = None

#: per-DispatchProfile [device_kind, is_metadata] overhead tables, keyed by
#: the (frozen, hashable) profile itself so replaced registry entries can
#: never alias a recycled object id.
_DISPATCH_TABLES: dict[DispatchProfile, np.ndarray] = {}


def _efficiency_tables() -> tuple[np.ndarray, np.ndarray]:
    global _EFF_TABLES
    if _EFF_TABLES is None:
        _EFF_TABLES = (
            np.array(
                [
                    [efficiency_for_kind(c, kind).compute for c in CATEGORIES]
                    for kind in DEVICE_KINDS
                ]
            ),
            np.array(
                [
                    [efficiency_for_kind(c, kind).memory for c in CATEGORIES]
                    for kind in DEVICE_KINDS
                ]
            ),
        )
    return _EFF_TABLES


def _dispatch_table(profile: DispatchProfile) -> np.ndarray:
    """[device_kind, metadata_only] dispatch overheads for one profile."""
    table = _DISPATCH_TABLES.get(profile)
    if table is None:
        table = np.array(
            [
                [profile.dispatch_for(kind, False), profile.dispatch_for(kind, True)]
                for kind in DEVICE_KINDS
            ]
        )
        _DISPATCH_TABLES[profile] = table
    return table


@dataclass(frozen=True)
class KernelRecord:
    """Simulated timing of one planned kernel."""

    kernel: PlannedKernel
    estimate: LatencyEstimate
    transfer_s: float

    @property
    def latency_s(self) -> float:
        return self.estimate.total_s + self.transfer_s


@dataclass(frozen=True)
class PlanArrays:
    """Platform-independent per-kernel arrays lifted from a plan once."""

    category_idx: np.ndarray  # int index into CATEGORIES
    device_idx: np.ndarray  # int index into DEVICE_KINDS (kernel.device)
    is_gemm: np.ndarray
    flops: np.ndarray
    total_bytes: np.ndarray
    metadata_only: np.ndarray
    is_custom: np.ndarray
    launch_count: np.ndarray
    dtype_code: np.ndarray
    transfer_in: np.ndarray
    transfer_out: np.ndarray


def plan_arrays(plan: ExecutionPlan) -> PlanArrays:
    """The per-kernel array view of ``plan``, cast from its kernel table
    once and cached on the plan."""
    cached = plan.__dict__.get(_PLAN_ARRAYS_ATTR)
    if cached is not None:
        return cached
    table = plan.kernels
    arrays = PlanArrays(
        category_idx=table.category.astype(np.int64),
        device_idx=table.device.astype(np.int64),
        is_gemm=table.category == CATEGORY_CODE[OpCategory.GEMM],
        flops=table.flops.astype(np.float64),
        # KernelTable guarantees the int64 sum cannot overflow.
        total_bytes=(table.bytes_read + table.bytes_written).astype(np.float64),
        metadata_only=table.metadata_only,
        is_custom=table.is_custom,
        launch_count=table.launch_count.astype(np.float64),
        dtype_code=_PEAK_COLUMN[table.dtype],
        transfer_in=table.transfer_bytes_in.astype(np.float64),
        transfer_out=table.transfer_bytes_out.astype(np.float64),
    )
    plan.__dict__[_PLAN_ARRAYS_ATTR] = arrays
    return arrays


@dataclass(frozen=True)
class DeviceTables:
    """Per-device-kind simulation parameters of one platform.

    Every array has one row per :class:`DeviceKind`; rows for kinds the
    platform lacks hold inert fill values and are guarded by ``present`` —
    the simulator raises before ever gathering through an absent row.
    """

    present: np.ndarray  # bool: platform has a device of this kind
    is_gpu: np.ndarray  # bool: kind is GPU (gates the TF32 f32 scale)
    is_async: np.ndarray  # bool: dispatch overlaps device work
    gemm_peak: np.ndarray  # [kind, dtype_code] peak GEMM flops
    gemm_saturation: np.ndarray
    vector_flops: np.ndarray
    mem_bandwidth: np.ndarray
    kernel_launch_s: np.ndarray


def _device_tables(platform: Platform) -> DeviceTables:
    """``platform``'s per-kind parameter tables, built once and cached."""
    cache: dict = platform.__dict__.setdefault("_sim_tables", {})
    tables = cache.get("device")
    if tables is None:
        n = len(DEVICE_KINDS)
        present = np.zeros(n, dtype=bool)
        is_gpu = np.zeros(n, dtype=bool)
        is_async = np.zeros(n, dtype=bool)
        gemm_peak = np.zeros((n, 4), dtype=np.float64)
        saturation = np.zeros(n, dtype=np.float64)
        vector = np.full(n, 1.0, dtype=np.float64)
        bandwidth = np.full(n, 1.0, dtype=np.float64)
        launch = np.zeros(n, dtype=np.float64)
        for spec in platform.devices:
            row = DEVICE_CODE[spec.kind]
            present[row] = True
            is_gpu[row] = spec.is_gpu
            is_async[row] = spec.async_dispatch
            gemm_peak[row] = (
                spec.gemm_flops_f32,
                spec.gemm_flops_f16,
                spec.gemm_flops_i8,
                spec.gemm_flops_f32,
            )
            saturation[row] = spec.gemm_saturation_flops
            vector[row] = spec.vector_flops
            bandwidth[row] = spec.mem_bandwidth
            launch[row] = spec.kernel_launch_s
        tables = DeviceTables(
            present=present,
            is_gpu=is_gpu,
            is_async=is_async,
            gemm_peak=gemm_peak,
            gemm_saturation=saturation,
            vector_flops=vector,
            mem_bandwidth=bandwidth,
            kernel_launch_s=launch,
        )
        cache["device"] = tables
    return tables


def _transfer_peer(target: DeviceKind, kind: DeviceKind) -> DeviceKind:
    """The other end of a kernel's transfers.

    Host kernels exchange data with the plan's target accelerator (fallback
    ops pull operands off it and push results back); accelerator kernels
    exchange with the host (sync readbacks).  On a CPU+GPU platform this is
    the historic single PCIe hop in both cases.
    """
    return target if kind is DeviceKind.CPU else DeviceKind.CPU


def _transfer_tables(platform: Platform, target: DeviceKind) -> np.ndarray:
    """[kind, 4] link parameters: in-latency, in-bandwidth (peer -> kind)
    and out-latency, out-bandwidth (kind -> peer).  Same-device rows price
    to zero (latency 0, infinite bandwidth)."""
    cache: dict = platform.__dict__.setdefault("_sim_tables", {})
    key = ("transfer", target)
    table = cache.get(key)
    if table is None:
        table = np.zeros((len(DEVICE_KINDS), 4), dtype=np.float64)
        for row, kind in enumerate(DEVICE_KINDS):
            peer = _transfer_peer(target, kind)
            inbound = platform.link(peer, kind)
            outbound = platform.link(kind, peer)
            table[row, 0] = 0.0 if inbound is None else inbound.latency_s
            table[row, 1] = np.inf if inbound is None else inbound.bandwidth
            table[row, 2] = 0.0 if outbound is None else outbound.latency_s
            table[row, 3] = np.inf if outbound is None else outbound.bandwidth
        cache[key] = table
    return table


class SimulationResult:
    """Timeline of one simulated inference.

    Energy is accounted per device: :attr:`energy_j` maps each of the
    platform's device kinds to joules; the historical ``gpu_energy_j`` /
    ``cpu_energy_j`` fields remain as read-only views into it.

    Per-kernel latencies and bound labels are arrays (``estimates`` and
    ``transfer_s``); the :attr:`records` list of :class:`KernelRecord`
    objects is materialized lazily for callers that want the object view.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        platform: Platform,
        total_latency_s: float,
        energy_j: dict[DeviceKind, float],
        estimates: BatchEstimates,
        transfer_s: np.ndarray,
    ):
        self.plan = plan
        self.platform = platform
        self.total_latency_s = total_latency_s
        self.energy_j: dict[DeviceKind, float] = dict(energy_j)
        self.estimates = estimates
        self._transfer_s = transfer_s
        self._records: list[KernelRecord] | None = None
        self._latencies: np.ndarray | None = None

    @property
    def gpu_energy_j(self) -> float:
        return self.energy_j.get(DeviceKind.GPU, 0.0)

    @property
    def cpu_energy_j(self) -> float:
        return self.energy_j.get(DeviceKind.CPU, 0.0)

    @property
    def total_latency_ms(self) -> float:
        return self.total_latency_s * 1e3

    @property
    def latencies(self) -> np.ndarray:
        """Per-kernel wall-clock latency (estimate + transfers), float64."""
        if self._latencies is None:
            self._latencies = self.estimates.total_s + self._transfer_s
        return self._latencies

    def bound_labels(self) -> list[str]:
        """Per-kernel roofline bound ("dispatch"/"launch"/"compute"/"memory")."""
        return self.estimates.bound_labels()

    @property
    def records(self) -> list[KernelRecord]:
        if self._records is None:
            self._records = [
                KernelRecord(
                    kernel=kernel,
                    estimate=self.estimates.estimate(i),
                    transfer_s=float(self._transfer_s[i]),
                )
                for i, kernel in enumerate(self.plan.kernels)
            ]
        return self._records


def _raise_missing_devices(
    plan: ExecutionPlan, platform: Platform, missing_mask: np.ndarray
) -> None:
    """Raise a :class:`RegistryError` naming the kernels placed on device
    kinds the platform lacks (the old path re-called ``platform.device``
    solely to re-raise its error, losing the offending kernels)."""
    rows = np.unique(plan_arrays(plan).device_idx[missing_mask])
    kinds = sorted(DEVICE_KINDS[row].value.upper() for row in rows)
    offenders = [
        name for name, absent in zip(plan.kernels.names, missing_mask) if absent
    ]
    shown = ", ".join(offenders[:5])
    if len(offenders) > 5:
        shown += f", ... ({len(offenders)} total)"
    raise RegistryError(
        f"platform {platform.platform_id} has no {'/'.join(kinds)},"
        f" required by plan {plan.flow!r} kernels: {shown}"
    )


def simulate(plan: ExecutionPlan, platform: Platform) -> SimulationResult:
    """Estimate the wall-clock timeline of ``plan`` on ``platform``.

    Vectorized over all kernels; bit-identical to the scalar
    kernel-by-kernel loop that the tests keep as its oracle
    (``simulate_reference`` in ``tests/oracles.py``).
    """
    arrays = plan_arrays(plan)
    tables = _device_tables(platform)
    didx = arrays.device_idx
    present = tables.present[didx]
    if not present.all():
        _raise_missing_devices(plan, platform, ~present)
    profile = dispatch_profile(plan.dispatch_profile)
    is_gpu = tables.is_gpu[didx]

    eff_compute_table, eff_memory_table = _efficiency_tables()
    eff_compute = eff_compute_table[didx, arrays.category_idx]
    eff_memory = eff_memory_table[didx, arrays.category_idx]

    dispatch_s = _dispatch_table(profile)[didx, arrays.metadata_only.astype(np.int64)]

    gemm_peak = tables.gemm_peak[didx, arrays.dtype_code]
    # eager PyTorch ships with TF32 disabled; engine flows scale the f32 pipe.
    f32_on_gpu = (arrays.dtype_code == _DTYPE_F32) & is_gpu
    gemm_peak = np.where(f32_on_gpu, gemm_peak * plan.gemm_peak_scale_f32, gemm_peak)
    saturation_flops = tables.gemm_saturation[didx] * plan.gemm_saturation_scale

    estimates = estimate_kernels_batch(
        is_async=tables.is_async[didx],
        is_gemm=arrays.is_gemm,
        flops=arrays.flops,
        total_bytes=arrays.total_bytes,
        metadata_only=arrays.metadata_only,
        is_custom=arrays.is_custom,
        launch_count=arrays.launch_count,
        dispatch_s=dispatch_s,
        eff_compute=eff_compute,
        eff_memory=eff_memory,
        gemm_peak=gemm_peak,
        gemm_saturation_flops=saturation_flops,
        vector_flops=tables.vector_flops[didx],
        mem_bandwidth=tables.mem_bandwidth[didx],
        kernel_launch_s=tables.kernel_launch_s[didx],
    )

    links = _transfer_tables(platform, plan.target)[didx]
    transfer_s = np.where(
        arrays.transfer_in > 0.0,
        (links[:, 0] + arrays.transfer_in / links[:, 1]) + FALLBACK_SYNC_S,
        0.0,
    ) + np.where(
        arrays.transfer_out > 0.0,
        (links[:, 2] + arrays.transfer_out / links[:, 3]) + FALLBACK_SYNC_S,
        0.0,
    )

    latencies = estimates.total_s + transfer_s
    # cumsum is a sequential left-to-right accumulation, so the total matches
    # the reference loop's running `+=` bit-for-bit (np.sum's pairwise
    # summation would not).
    wall = float(np.cumsum(latencies)[-1]) if len(latencies) else 0.0

    utilization = estimates.utilization
    energy = {
        spec.kind: _device_energy(
            spec, didx == DEVICE_CODE[spec.kind], utilization, estimates.device_s, wall
        )
        for spec in platform.devices
    }

    return SimulationResult(
        plan=plan,
        platform=platform,
        total_latency_s=wall,
        energy_j=energy,
        estimates=estimates,
        transfer_s=transfer_s,
    )


def _device_energy(
    device: DeviceSpec,
    mask: np.ndarray,
    utilization: np.ndarray,
    device_s: np.ndarray,
    wall_s: float,
) -> float:
    """One device's energy over a run of ``wall_s`` seconds, the two-term
    power model ``P_idle * wall + sum_k (P_peak - P_idle) * util_k * t_k``
    over the kernels under ``mask``: a launch-bound kernel draws little
    dynamic power, a saturated GEMM close to peak."""
    dynamic_power = device.peak_power_w - device.idle_power_w
    contributions = np.where(mask, dynamic_power * utilization * device_s, 0.0)
    dynamic_j = float(np.cumsum(contributions)[-1]) if len(contributions) else 0.0
    return device.idle_power_w * wall_s + dynamic_j
