"""Composable, cache-keyed lowering passes.

Deployment flows are assembled from the passes in this package instead of a
monolithic planner: a :class:`PassManager` runs an ordered list of named
passes over one :class:`LoweringState`, and the flow freezes the resulting
kernel columns into an :class:`~repro.flows.plan.ExecutionPlan`.

Ordering contract — grouping, then placement, then construction, then any
number of refinements (see :mod:`repro.flows.passes.manager` and the README
architecture section).  Every pass exposes a stable
:meth:`~repro.flows.passes.manager.LoweringPass.signature`, and the pipeline
folds them into the content hash that
:meth:`~repro.flows.base.DeploymentFlow.pipeline_signature` exposes for plan
caching.
"""

from repro.flows.passes.construct import KernelConstructionPass
from repro.flows.passes.fusion_pass import FusionPass
from repro.flows.passes.manager import LoweringPass, PassManager
from repro.flows.passes.placement import (
    CategoryRoutePlacement,
    PerOpFallbackPlacement,
    PlacementPass,
    PlacementPolicy,
    UniformPlacement,
)
from repro.flows.passes.refine import (
    CompositeExpansionPass,
    MetadataElisionPass,
    SyncInsertionPass,
    TransferInsertionPass,
)
from repro.flows.passes.retarget import RetargetPass
from repro.flows.passes.state import KernelColumns, LoweringState, PassTrace

__all__ = [
    "CategoryRoutePlacement",
    "CompositeExpansionPass",
    "FusionPass",
    "KernelColumns",
    "KernelConstructionPass",
    "LoweringPass",
    "LoweringState",
    "MetadataElisionPass",
    "PassManager",
    "PassTrace",
    "PerOpFallbackPlacement",
    "PlacementPass",
    "PlacementPolicy",
    "RetargetPass",
    "SyncInsertionPass",
    "TransferInsertionPass",
    "UniformPlacement",
]
