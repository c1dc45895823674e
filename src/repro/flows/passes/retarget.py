"""RetargetPass: seed kernels from an existing plan instead of re-lowering.

``DeploymentFlow.derive_plan`` runs a short pipeline — retarget, sync
insertion, metadata elision — over the kernels of an already-lowered plan.
For uniform-placement flows the kernel partition, fused costs, dtypes, and
launch counts are all device-independent, so re-targeting reuses them
verbatim and only the device-sensitive refinements re-run.  The pass copies
the source plan's kernel table as columns, so the refinements rewrite them
exactly as they rewrite a full lowering's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.flows.passes.manager import LoweringPass
from repro.flows.passes.state import KernelColumns, LoweringState
from repro.flows.plan import DEVICE_CODE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.plan import ExecutionPlan


class RetargetPass(LoweringPass):
    """Copy a source plan's kernel columns onto the target device.

    Device-dependent fields (placement, sync transfers, metadata elision) are
    reset here and re-derived by the refinement passes that follow.
    """

    name = "retarget"

    def __init__(self, source: "ExecutionPlan"):
        self.source = source

    def describe(self) -> str:
        return self.source.flow

    def run(self, state: LoweringState) -> None:
        kernels = KernelColumns.from_table(self.source.kernels, state.record_provenance)
        kernels.device[:] = DEVICE_CODE[state.target]
        kernels.metadata_only[:] = False
        kernels.transfer_bytes_in[:] = 0
        kernels.transfer_bytes_out[:] = 0
        state.kernels = kernels
        state.note(self.name, kernels=len(kernels), source_flow=self.source.flow)
