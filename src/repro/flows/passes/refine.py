"""Refinement passes: masked kernel-column rewrites after construction.

Each pass owns one deployment-flow behavior that the pre-pass planner had
inlined into ``_plan_single``:

* :class:`CompositeExpansionPass` — eager kernel splitting: composite Python
  ops launch one kernel per tensor expression and re-stream their operands.
* :class:`TransferInsertionPass` — CPU-fallback PCIe accounting: an op forced
  off the accelerator materializes its operands on the host and back.
* :class:`SyncInsertionPass` — data-dependent ops stall the pipeline with a
  device-to-host round trip to read their result size.
* :class:`MetadataElisionPass` — shape-only ops cost nothing at runtime
  unless something (a sync, a fallback) forces their data to materialize.

All four skip fused kernels and fallback kernels where the pre-pass
planner's early returns did, so pipelines composed of any subset stay
kernel-for-kernel identical to it.  Each is one masked update of
:class:`~repro.flows.passes.state.KernelColumns` against the graph's node
table.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.device import DeviceKind
from repro.flows.passes.manager import LoweringPass
from repro.flows.plan import DEVICE_CODE
from repro.flows.passes.state import LoweringState


class CompositeExpansionPass(LoweringPass):
    """Split composite Python ops into their eager kernel launches.

    Only non-collapsing flows (PyTorch eager) include this pass: each
    full-size sub-kernel of a composite re-streams the tensor, so traffic
    scales with the op's ``traffic_passes`` and the dispatch model charges
    one launch per sub-kernel.
    """

    name = "composite-expansion"

    def run(self, state: LoweringState) -> None:
        assert state.kernels is not None, "composite expansion requires kernels"
        kernels = state.kernels
        table = state.graph.freeze()
        first = kernels.first_nodes()
        launches = table.eager_kernels[first]
        mask = kernels.single() & ~kernels.fallback & (launches > 1)
        passes = table.traffic_passes[first][mask]
        kernels.launch_count[mask] = launches[mask]
        kernels.bytes_read[mask] *= passes
        kernels.bytes_written[mask] *= passes
        kernels.tag(mask, map("composite[{} launches]".format, launches[mask].tolist()))
        state.note(self.name, expanded=int(np.count_nonzero(mask)))


class TransferInsertionPass(LoweringPass):
    """Charge interconnect round trips to kernels forced off the target.

    A fallback op's compute is negligible next to the forced materialization:
    its cost becomes pure traffic (inputs cross the link down, outputs cross
    back up), mirroring the paper's ORT unsupported-operator study.  The
    simulator prices the traffic on the platform's link between the kernel's
    device and the plan's target (PCIe on the paper platforms, fabric DMA on
    the edge SoC).
    """

    name = "transfer-insertion"

    def run(self, state: LoweringState) -> None:
        assert state.kernels is not None, "transfer insertion requires kernels"
        kernels = state.kernels
        table = state.graph.freeze()
        mask = kernels.fallback
        first = kernels.first_nodes()[mask]
        in_bytes = table.in_bytes[first]
        out_bytes = table.out_bytes[first]
        kernels.flops[mask] = 0
        kernels.bytes_read[mask] = kernels.transfer_bytes_in[mask] = in_bytes
        kernels.bytes_written[mask] = kernels.transfer_bytes_out[mask] = out_bytes
        kernels.tag(mask, map("cpu-fallback[{}B transfer]".format, (in_bytes + out_bytes).tolist()))
        state.note(self.name, fallback_kernels=int(np.count_nonzero(mask)))


class SyncInsertionPass(LoweringPass):
    """Insert device-to-host round trips after data-dependent accelerator ops.

    Applies to any async device (GPU, NPU): the host must read the result
    size back before it can continue.  CPU kernels run inline and never sync.
    """

    name = "sync-insertion"

    def run(self, state: LoweringState) -> None:
        assert state.kernels is not None, "sync insertion requires kernels"
        kernels = state.kernels
        table = state.graph.freeze()
        first = kernels.first_nodes()
        mask = (
            kernels.single()
            & ~kernels.fallback
            & (kernels.device != DEVICE_CODE[DeviceKind.CPU])
            & table.forces_sync[first]
        )
        kernels.transfer_bytes_out[mask] = table.out_bytes[first[mask]]
        kernels.tag(mask, "sync[device->host round trip]")
        state.note(self.name, syncs=int(np.count_nonzero(mask)))


class MetadataElisionPass(LoweringPass):
    """Mark shape-only kernels that the runtime never actually launches.

    View/reshape-style ops cost nothing unless a sync round-trip (or a CPU
    fallback) forces their data to exist; runs after SyncInsertionPass so a
    synced metadata op stays a real kernel.
    """

    name = "metadata-elision"

    def run(self, state: LoweringState) -> None:
        assert state.kernels is not None, "metadata elision requires kernels"
        kernels = state.kernels
        mask = (
            kernels.single()
            & ~kernels.fallback
            & (kernels.transfer_bytes_out == 0)
            & state.graph.freeze().metadata_only[kernels.first_nodes()]
        )
        kernels.metadata_only[mask] = True
        kernels.tag(mask, "metadata-elided")
        state.note(self.name, elided=int(np.count_nonzero(mask)))
