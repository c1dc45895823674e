"""Deployment flows: lowering operator graphs into executable plans."""

import functools

from repro.errors import RegistryError
from repro.flows.base import DeploymentFlow
from repro.flows.fusion import (
    FusionConfig,
    FusionResult,
    fuse_graph,
)
from repro.flows.npu_offload import NPUOffloadFlow
from repro.flows.onnxruntime import ONNXRuntimeFlow
from repro.flows.ort_cpu import ORTCpuEpFlow
from repro.flows.passes import (
    CategoryRoutePlacement,
    CompositeExpansionPass,
    FusionPass,
    KernelConstructionPass,
    LoweringPass,
    LoweringState,
    MetadataElisionPass,
    PassManager,
    PerOpFallbackPlacement,
    PlacementPass,
    PlacementPolicy,
    SyncInsertionPass,
    TransferInsertionPass,
    UniformPlacement,
)
from repro.flows.plan import (
    ExecutionPlan,
    KernelTable,
    PlannedKernel,
    node_base_cost,
)
from repro.flows.pytorch_eager import PyTorchEagerFlow
from repro.flows.tensorrt import TensorRTFlow
from repro.flows.torch_inductor import TorchInductorFlow
from repro.registry import Registry

FLOW_REGISTRY: Registry[type[DeploymentFlow]] = Registry("flow")

#: short names accepted by :func:`get_flow` alongside canonical flow names.
_ALIASES = {
    "pt": "pytorch",
    "eager": "pytorch",
    "inductor": "torchinductor",
    "trt": "tensorrt",
    "ort": "onnxruntime",
    "ortcpu": "ort-cpu-ep",
    "npu": "npu-offload",
}


def register_flow(flow_cls: type[DeploymentFlow], replace: bool = False) -> type[DeploymentFlow]:
    """Register a deployment flow class under its ``name`` for :func:`get_flow`.

    Usable as a decorator on custom flows (see
    ``examples/custom_flow_passes.py``); registered flows are immediately
    available to the sweep CLI's ``--flows`` axis and every harness.
    """
    alias = _ALIASES.get(str(flow_cls.name).casefold())
    if alias is not None:
        raise RegistryError(
            f"flow name {flow_cls.name!r} collides with the built-in alias"
            f" for {alias!r}"
        )
    return FLOW_REGISTRY.register(flow_cls.name, flow_cls, replace)


@functools.cache
def _shared_instance(flow_cls: type[DeploymentFlow]) -> DeploymentFlow:
    """One instance per registered class: flows are stateless besides their
    lazily-built (and content-addressed) pipeline, so sweep points share it
    instead of rebuilding pipeline + signature per point.  The cache holds
    one entry per class ever looked up, like the registry holds classes."""
    return flow_cls()


for _cls in (
    PyTorchEagerFlow,
    TorchInductorFlow,
    TensorRTFlow,
    ONNXRuntimeFlow,
    ORTCpuEpFlow,
    NPUOffloadFlow,
):
    register_flow(_cls)


def get_flow(name: str) -> DeploymentFlow:
    """Instantiate a deployment flow by name.

    Accepted names: ``pytorch``, ``torchinductor``, ``tensorrt``,
    ``onnxruntime``, ``ort-cpu-ep``, plus anything passed to
    :func:`register_flow` (aliases: ``pt``, ``inductor``, ``trt``, ``ort``,
    ``ortcpu``).
    """
    alias = _ALIASES.get(name.casefold()) if isinstance(name, str) else None
    return _shared_instance(FLOW_REGISTRY.get(alias or name))


list_flows = FLOW_REGISTRY.names


__all__ = [
    "CategoryRoutePlacement",
    "CompositeExpansionPass",
    "DeploymentFlow",
    "ExecutionPlan",
    "FLOW_REGISTRY",
    "FusionConfig",
    "FusionPass",
    "FusionResult",
    "KernelConstructionPass",
    "KernelTable",
    "LoweringPass",
    "LoweringState",
    "MetadataElisionPass",
    "NPUOffloadFlow",
    "ONNXRuntimeFlow",
    "ORTCpuEpFlow",
    "PassManager",
    "PerOpFallbackPlacement",
    "PlacementPass",
    "PlacementPolicy",
    "PlannedKernel",
    "PyTorchEagerFlow",
    "SyncInsertionPass",
    "TensorRTFlow",
    "TorchInductorFlow",
    "TransferInsertionPass",
    "UniformPlacement",
    "fuse_graph",
    "get_flow",
    "list_flows",
    "node_base_cost",
    "register_flow",
]
