"""Profiling record types and the profile result container.

:class:`ProfileResult` has two faces: an array-backed one used on the sweep
hot path (per-kernel latencies, bounds, and group indices as numpy arrays,
aggregated with vectorized reductions) and a record-object one
(:class:`OpRecord` per kernel) materialized lazily for reports, traces, and
tests.  Both produce bit-identical aggregates: the vectorized reductions
accumulate in record order exactly like the original per-record loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.hardware.cost_model import BOUND_LABELS
from repro.hardware.device import DeviceKind
from repro.hardware.platform import Platform
from repro.ops.base import MISC_LIKE, OpCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.plan import ExecutionPlan

#: Display order of operator groups in the paper's figures.
GROUP_ORDER = [
    OpCategory.GEMM,
    OpCategory.ACTIVATION,
    OpCategory.NORMALIZATION,
    OpCategory.MEMORY,
    OpCategory.ROI,
    OpCategory.INTERPOLATION,
    OpCategory.ELEMENTWISE,
    OpCategory.LOGIT,
    OpCategory.QDQ,
    OpCategory.EMBEDDING,
    OpCategory.MISC,
]


def report_group(category: OpCategory) -> OpCategory:
    """Map fine categories onto the paper's reporting groups (Misc folds pooling/reduction)."""
    if category in MISC_LIKE:
        return OpCategory.MISC
    return category


class OpRecord(NamedTuple):
    """Mean profiled timing of one kernel across iterations.

    A NamedTuple: profiles materialize one record per kernel per sweep point,
    and tuple construction keeps that path cheap.
    """

    name: str
    op_kinds: tuple[str, ...]
    category: OpCategory
    device: DeviceKind
    latency_s: float
    latency_std_s: float
    flops: int
    bytes_moved: int
    fused: bool
    bound: str

    @property
    def is_gemm(self) -> bool:
        return self.category is OpCategory.GEMM

    @property
    def group(self) -> OpCategory:
        return report_group(self.category)


class ProfileResult:
    """Operator-level profile of one (model, flow, platform, batch) point."""

    def __init__(
        self,
        model: str,
        flow: str,
        platform: Platform,
        use_gpu: bool,
        target: DeviceKind,
        batch_size: int,
        iterations: int,
        total_latency_s: float = 0.0,
        total_latency_std_s: float = 0.0,
        energy_j: dict[DeviceKind, float] | None = None,
        peak_memory_bytes: int = 0,
        num_graph_ops: int = 0,
        num_kernels: int = 0,
        non_gemm_fusion_rate: float = 0.0,
        plan: "ExecutionPlan | None" = None,
        kernel_latency_s: np.ndarray | None = None,
        kernel_latency_std_s: np.ndarray | None = None,
        bound_code: np.ndarray | None = None,
        gemm_mask: np.ndarray | None = None,
        group_categories: list[OpCategory] | None = None,
        group_pos: np.ndarray | None = None,
    ):
        self.model = model
        self.flow = flow
        self.platform = platform
        self.use_gpu = use_gpu
        #: the placement target this profile ran against.
        self.target = target
        self.batch_size = batch_size
        self.iterations = iterations
        self.total_latency_s = total_latency_s
        self.total_latency_std_s = total_latency_std_s
        #: joules per device kind over the simulated run (idle + dynamic).
        self.energy_j: dict[DeviceKind, float] = dict(energy_j or {})
        self.peak_memory_bytes = peak_memory_bytes
        self.num_graph_ops = num_graph_ops
        self.num_kernels = num_kernels
        self.non_gemm_fusion_rate = non_gemm_fusion_rate
        self._records: list[OpRecord] | None = None
        self._plan = plan
        self._kernel_latency_s = kernel_latency_s
        self._kernel_latency_std_s = kernel_latency_std_s
        self._bound_code = bound_code
        self._gemm_mask = gemm_mask
        self._group_categories = group_categories
        self._group_pos = group_pos
        self._latency_by_group: dict[OpCategory, float] | None = None
        self._non_gemm_latency_s: float | None = None

    @property
    def records(self) -> list[OpRecord]:
        """Per-kernel records, materialized on first access from the arrays."""
        if self._records is None:
            plan = self._plan
            latency = self._kernel_latency_s
            std = self._kernel_latency_std_s
            codes = self._bound_code
            assert plan is not None and latency is not None
            assert std is not None and codes is not None
            self._records = [
                OpRecord(
                    name=kernel.name,
                    op_kinds=kernel.op_kinds,
                    category=kernel.category,
                    device=kernel.device,
                    latency_s=float(latency[i]),
                    latency_std_s=float(std[i]),
                    flops=kernel.cost.flops,
                    bytes_moved=kernel.cost.total_bytes,
                    fused=kernel.fused,
                    bound=BOUND_LABELS[codes[i]],
                )
                for i, kernel in enumerate(plan.kernels)
            ]
        return self._records

    def detach(self) -> "ProfileResult":
        """Materialize the records and drop the plan/array backrefs.

        A ProfileResult lazily references its ExecutionPlan (and through it
        the whole Graph); shipping one independent copy per record over IPC
        — or pinning one per record in a long-lived result set — grows with
        the grid.  ``detach`` forces the per-kernel :class:`OpRecord` list
        into existence while the plan is at hand, then clears every lazy
        field so the result is self-contained.  Aggregations fall back to
        the record-order loops, which are bit-identical to the array paths.
        Returns ``self`` for chaining.  New lazy fields must be cleared here
        rather than at call sites.
        """
        self.records  # force materialization while the plan is available
        self._plan = None
        self._kernel_latency_s = None
        self._kernel_latency_std_s = None
        self._bound_code = None
        self._gemm_mask = None
        self._group_pos = None
        return self

    # -- aggregation -----------------------------------------------------------

    @property
    def gpu_energy_j(self) -> float:
        return self.energy_j.get(DeviceKind.GPU, 0.0)

    @property
    def cpu_energy_j(self) -> float:
        return self.energy_j.get(DeviceKind.CPU, 0.0)

    @property
    def total_latency_ms(self) -> float:
        return self.total_latency_s * 1e3

    def latency_by_group(self) -> dict[OpCategory, float]:
        """Seconds per reporting group (the paper's stacked-bar breakdown).

        Memoized; on the array path a bincount accumulates each group's
        kernels in record order, matching the per-record loop bit-for-bit.
        """
        if self._latency_by_group is None:
            if self._group_pos is not None and self._kernel_latency_s is not None:
                groups = self._group_categories or []
                sums = np.bincount(
                    self._group_pos,
                    weights=self._kernel_latency_s,
                    minlength=len(groups),
                )
                self._latency_by_group = {
                    group: float(sums[i]) for i, group in enumerate(groups)
                }
            else:
                out: dict[OpCategory, float] = {}
                for record in self.records:
                    group = report_group(record.category)
                    out[group] = out.get(group, 0.0) + record.latency_s
                self._latency_by_group = out
        return self._latency_by_group

    def share_by_group(self) -> dict[OpCategory, float]:
        """Fraction of total latency per reporting group."""
        total = self.total_latency_s or 1.0
        return {g: t / total for g, t in self.latency_by_group().items()}

    @property
    def gemm_latency_s(self) -> float:
        return self.latency_by_group().get(OpCategory.GEMM, 0.0)

    @property
    def non_gemm_latency_s(self) -> float:
        # summed in record order (not per-group) to stay bit-identical with
        # the original per-record accumulation.
        if self._non_gemm_latency_s is None:
            if self._gemm_mask is not None and self._kernel_latency_s is not None:
                masked = np.where(self._gemm_mask, 0.0, self._kernel_latency_s)
                total = float(np.cumsum(masked)[-1]) if len(masked) else 0.0
            else:
                total = sum(r.latency_s for r in self.records if not r.is_gemm)
            self._non_gemm_latency_s = total
        return self._non_gemm_latency_s

    @property
    def gemm_share(self) -> float:
        return self.gemm_latency_s / (self.total_latency_s or 1.0)

    @property
    def non_gemm_share(self) -> float:
        return self.non_gemm_latency_s / (self.total_latency_s or 1.0)

    def dominant_non_gemm_group(self) -> tuple[OpCategory, float]:
        """The paper's Table IV: heaviest non-GEMM group and its share of total."""
        best: tuple[OpCategory, float] | None = None
        for group, latency in self.latency_by_group().items():
            if group is OpCategory.GEMM:
                continue
            share = latency / (self.total_latency_s or 1.0)
            if best is None or share > best[1]:
                best = (group, share)
        if best is None:
            return (OpCategory.MISC, 0.0)
        return best

    def top_operators(self, n: int = 10, non_gemm_only: bool = False) -> list[OpRecord]:
        records = [r for r in self.records if not (non_gemm_only and r.is_gemm)]
        return sorted(records, key=lambda r: r.latency_s, reverse=True)[:n]

    def describe(self) -> str:
        device = f"CPU+{self.target.value.upper()}" if self.use_gpu else "CPU"
        return (
            f"{self.model} b{self.batch_size} [{self.flow}, platform {self.platform.platform_id},"
            f" {device}]: {self.total_latency_ms:.2f} ms,"
            f" non-GEMM {self.non_gemm_share:.1%}"
        )
