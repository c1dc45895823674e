"""Roofline latency estimation for every kernel of a plan, in one numpy pass.

Latency of a kernel is modelled as::

    host   = dispatch overhead of the deployment flow (per kernel)
    device = kernel launch + max(flops / achieved_compute,
                                 bytes / achieved_bandwidth)
    total  = max(host, device)   on GPUs (async dispatch overlaps)
             host + device_work  on CPUs (the host thread runs the kernel)

Metadata-only ops (tensor views) never launch a kernel: their entire cost is
the host dispatch time.  This single mechanism produces the paper's headline
result — after GEMM acceleration, many non-GEMM kernels are launch- or
dispatch-bound, so their *relative* share of latency grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.calibration import CUSTOM_KERNEL_PENALTY

#: bound labels in the order of the integer codes in :class:`BatchEstimates`.
BOUND_LABELS = ("dispatch", "launch", "compute", "memory")


@dataclass(frozen=True)
class LatencyEstimate:
    """Breakdown of one kernel's estimated wall-clock time."""

    total_s: float
    host_s: float
    device_s: float
    compute_s: float
    memory_s: float
    launch_s: float
    bound: str  # "dispatch" | "launch" | "compute" | "memory"

    @property
    def utilization(self) -> float:
        """Fraction of the device's busy time doing peak-rate work (for energy)."""
        if self.device_s <= 0.0:
            return 0.0
        return min(1.0, max(self.compute_s, self.memory_s) / self.device_s)


@dataclass
class BatchEstimates:
    """Vectorized :class:`LatencyEstimate` for every kernel of a plan.

    Produced by :func:`estimate_kernels_batch`; each field is a float64 array
    with one entry per kernel, and every value is bit-identical to what the
    scalar ``estimate_kernel`` oracle in ``tests/oracles.py`` computes for
    that kernel (the vectorized expressions preserve operation order and
    association).
    """

    total_s: np.ndarray
    host_s: np.ndarray
    device_s: np.ndarray
    compute_s: np.ndarray
    memory_s: np.ndarray
    launch_s: np.ndarray
    bound_code: np.ndarray  # int8 index into BOUND_LABELS

    def bound_labels(self) -> list[str]:
        return [BOUND_LABELS[c] for c in self.bound_code]

    @property
    def utilization(self) -> np.ndarray:
        """Per-kernel fraction of busy time at peak rate (see LatencyEstimate)."""
        work = np.maximum(self.compute_s, self.memory_s)
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.minimum(1.0, work / self.device_s)
        return np.where(self.device_s > 0.0, util, 0.0)

    def estimate(self, i: int) -> LatencyEstimate:
        """Materialize the scalar estimate record for one kernel."""
        return LatencyEstimate(
            total_s=float(self.total_s[i]),
            host_s=float(self.host_s[i]),
            device_s=float(self.device_s[i]),
            compute_s=float(self.compute_s[i]),
            memory_s=float(self.memory_s[i]),
            launch_s=float(self.launch_s[i]),
            bound=BOUND_LABELS[self.bound_code[i]],
        )


def estimate_kernels_batch(
    *,
    is_async: np.ndarray,
    is_gemm: np.ndarray,
    flops: np.ndarray,
    total_bytes: np.ndarray,
    metadata_only: np.ndarray,
    is_custom: np.ndarray,
    launch_count: np.ndarray,
    dispatch_s: np.ndarray,
    eff_compute: np.ndarray,
    eff_memory: np.ndarray,
    gemm_peak: np.ndarray,
    gemm_saturation_flops: np.ndarray,
    vector_flops: np.ndarray,
    mem_bandwidth: np.ndarray,
    kernel_launch_s: np.ndarray,
) -> BatchEstimates:
    """Roofline-estimate an entire plan's kernels in one numpy pass.

    All inputs are per-kernel arrays with device- and flow-level parameters
    already resolved (``gemm_peak`` includes the TF32 f32 scale, and
    ``gemm_saturation_flops`` the flow's saturation scale; ``is_async`` is
    the per-kernel async-dispatch flag of the kernel's device — True for
    GPU/NPU command queues, False for inline CPU execution).  The arithmetic
    mirrors the scalar ``estimate_kernel`` oracle in ``tests/oracles.py``
    expression-for-expression, so the equivalence tests can demand
    bit-identical results.
    """
    host_s = dispatch_s * launch_count
    scale = np.where(is_custom, CUSTOM_KERNEL_PENALTY, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        saturation = np.where(
            gemm_saturation_flops > 0.0,
            flops / (flops + gemm_saturation_flops),
            1.0,
        )
        peak_flops = np.where(is_gemm, gemm_peak * saturation, vector_flops)
        compute_s = np.where(
            flops > 0.0, flops / (peak_flops * eff_compute * scale), 0.0
        )
        memory_s = np.where(
            total_bytes > 0.0,
            total_bytes / (mem_bandwidth * eff_memory * scale),
            0.0,
        )

    work_s = np.maximum(compute_s, memory_s)
    launch_s = kernel_launch_s * launch_count
    device_s = launch_s + work_s
    total_s = np.where(is_async, np.maximum(host_s, device_s), host_s + work_s)

    no_work = work_s <= 0.0
    bound_code = np.select(
        [
            metadata_only,
            no_work & is_async & (launch_s >= host_s),
            no_work,
            is_async & (host_s >= device_s),
            is_async & (launch_s >= work_s),
            compute_s >= memory_s,
        ],
        [0, 1, 0, 0, 1, 2],
        default=3,
    ).astype(np.int8)

    # metadata-only kernels pay only host dispatch and launch nothing.
    zero = np.zeros_like(host_s)
    total_s = np.where(metadata_only, host_s, total_s)
    device_s = np.where(metadata_only, zero, device_s)
    compute_s = np.where(metadata_only, zero, compute_s)
    memory_s = np.where(metadata_only, zero, memory_s)
    launch_s = np.where(metadata_only, zero, launch_s)

    return BatchEstimates(
        total_s=total_s,
        host_s=host_s,
        device_s=device_s,
        compute_s=compute_s,
        memory_s=memory_s,
        launch_s=launch_s,
        bound_code=bound_code,
    )
