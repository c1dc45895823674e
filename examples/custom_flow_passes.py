"""Assemble a custom deployment flow from lowering passes.

The lowering stack is a pass pipeline (``repro.flows.passes``): a flow is an
ordered list of named passes plus tuning knobs.  This example builds a
what-if serving stack — a compiled flow that *offloads tiny kernels to the
CPU* to keep the accelerator queue free, paying PCIe transfers for each —
out of one custom pass and the stock passes, registers it, and compares it
against plain TorchInductor.

Run with ``PYTHONPATH=src python examples/custom_flow_passes.py``.
"""

from repro.flows import DeploymentFlow, TorchInductorFlow, get_flow, register_flow
from repro.flows.plan import DEVICE_CODE
from repro.flows.passes import (
    FusionPass,
    KernelConstructionPass,
    LoweringPass,
    MetadataElisionPass,
    PassManager,
    PlacementPass,
    SyncInsertionPass,
    TransferInsertionPass,
    UniformPlacement,
)
from repro.hardware import PLATFORM_A, DeviceKind
from repro.models import build_model
from repro.profiler import profile_graph


class SmallKernelOffloadPass(LoweringPass):
    """Re-place sub-threshold standalone kernels onto the host.

    A refinement pass: it runs after kernel construction and flips small
    non-fused, non-metadata kernels to CPU-fallback.  Passes rewrite the
    plan's kernels as columns (``state.kernels``), so the policy is one mask;
    the stock TransferInsertionPass downstream then charges the PCIe round
    trips.
    """

    name = "small-kernel-offload"

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes

    def describe(self) -> str:  # folded into pipeline_signature()
        return f"max_bytes={self.max_bytes}"

    def run(self, state) -> None:
        if state.target is DeviceKind.CPU:
            return  # nothing to offload on a CPU-only run
        kernels = state.kernels
        nodes = state.graph.freeze()  # the graph's node table
        first = kernels.first_nodes()
        small = (
            kernels.single()
            & ~kernels.fallback
            & ~nodes.metadata_only[first]
            & ~nodes.forces_sync[first]
            & (kernels.bytes_read + kernels.bytes_written <= self.max_bytes)
        )
        kernels.device[small] = DEVICE_CODE[DeviceKind.CPU]
        kernels.fallback[small] = True
        kernels.tag(small, f"offloaded[<= {self.max_bytes}B]")
        state.note(self.name, offloaded=int(small.sum()))


class EdgeOffloadFlow(DeploymentFlow):
    """Inductor-style compilation + small-kernel host offload."""

    name = "edge-offload"
    dispatch_profile = "compiled"
    fusion = TorchInductorFlow.fusion
    gemm_saturation_scale = TorchInductorFlow.gemm_saturation_scale
    uniform_placement = False  # the custom pass re-places per kernel

    def build_pipeline(self) -> PassManager:
        return PassManager(
            (
                FusionPass(self.fusion),
                PlacementPass(UniformPlacement()),
                KernelConstructionPass(collapse=True),
                SmallKernelOffloadPass(max_bytes=512 * 1024),  # the custom pass
                TransferInsertionPass(),  # stock pass prices the offloads
                SyncInsertionPass(),
                MetadataElisionPass(),
            )
        )


# replace=True keeps re-runs in one process (e.g. the test suite) idempotent
register_flow(EdgeOffloadFlow, replace=True)


def main() -> None:
    graph = build_model("swin-t", batch_size=1)

    custom = get_flow("edge-offload")  # registered like any built-in flow
    plan = custom.lower(graph, record_provenance=True)
    trace = {entry["pass"]: entry for entry in plan.notes["passes"]}
    offloaded = trace["small-kernel-offload"]["offloaded"]
    print(f"custom pass pipeline: {' -> '.join(custom.pipeline.pass_names())}")
    print(f"pipeline signature:   {custom.pipeline_signature()}")
    print(f"offloaded kernels:    {offloaded} of {plan.num_kernels}")

    baseline = profile_graph(graph, TorchInductorFlow(), PLATFORM_A)
    offload = profile_graph(graph, custom, PLATFORM_A)
    print(
        f"swin-t on A:          torchinductor {baseline.total_latency_ms:.2f} ms"
        f" -> edge-offload {offload.total_latency_ms:.2f} ms"
        " (PCIe prices every offload)"
    )


if __name__ == "__main__":
    main()
