"""Deployment flow abstraction.

A flow lowers an operator graph into an :class:`ExecutionPlan` the way a real
serving stack would: it decides fusion, per-op placement (GPU vs CPU
fallback), whether composite Python ops run as many kernels or one, and the
per-kernel host dispatch overhead profile.

Lowering is a *pass pipeline* (:mod:`repro.flows.passes`): each concrete flow
is a declarative list of named passes plus tuning knobs, and
:meth:`DeploymentFlow.lower` just runs its :class:`~repro.flows.passes.PassManager`
and freezes the resulting kernel columns.  The pipeline's content hash
(:meth:`DeploymentFlow.pipeline_signature`) is what the sweep
:class:`~repro.sweep.cache.PlanCache` keys plans on.
"""

from __future__ import annotations

import abc
import hashlib
from typing import ClassVar

from repro.errors import PlanError
from repro.ir.graph import Graph, collector_paused
from repro.flows.fusion import FusionConfig
from repro.flows.passes import (
    CompositeExpansionPass,
    FusionPass,
    KernelConstructionPass,
    MetadataElisionPass,
    PassManager,
    PlacementPass,
    PlacementPolicy,
    RetargetPass,
    SyncInsertionPass,
    TransferInsertionPass,
    UniformPlacement,
)
from repro.flows.passes.state import LoweringState
from repro.flows.plan import ExecutionPlan
from repro.hardware.device import DeviceKind


class DeploymentFlow(abc.ABC):
    """Base class for PyTorch-eager, TorchInductor, TensorRT, and ORT flows."""

    name: ClassVar[str]
    dispatch_profile: ClassVar[str]
    fusion: ClassVar[FusionConfig] = FusionConfig()
    #: compiled flows collapse composite Python ops into one kernel.
    collapses_composites: ClassVar[bool] = True
    #: fp32 GEMM rate multiplier: engine flows enable TF32 tensor cores on
    #: Ampere-class GPUs (8x the fp32 pipe rate); eager PyTorch ships with
    #: TF32 matmul disabled.
    gemm_peak_scale_f32: ClassVar[float] = 1.0
    #: scale on the device's small-GEMM saturation size: autotuned engines
    #: pick better tilings for small problems than stock cuBLAS heuristics.
    gemm_saturation_scale: ClassVar[float] = 1.0
    #: True when placement puts every node on the same device for a given
    #: target (all flows except ORT's per-op fallback).  Enables
    #: :meth:`derive_plan` re-targeting instead of a full re-lowering.
    uniform_placement: ClassVar[bool] = True

    # -- pipeline declaration -------------------------------------------------

    def placement_policy(self) -> PlacementPolicy:
        """The flow's placement policy; per-op-fallback flows override this."""
        return UniformPlacement()

    def build_pipeline(self) -> PassManager:
        """Assemble the flow's lowering pipeline from its knobs.

        Concrete flows override this to declare their pass list explicitly;
        the default assembly covers the common shapes (uniform vs per-op
        placement, collapsing vs eager composites) for custom flows that only
        set knobs.  The pass ordering contract is documented in
        :mod:`repro.flows.passes.manager`.
        """
        policy = self.placement_policy()
        passes = [
            FusionPass(self.fusion),
            PlacementPass(policy),
            KernelConstructionPass(collapse=self.collapses_composites),
        ]
        if not policy.is_uniform:
            passes.append(TransferInsertionPass())
        if not self.collapses_composites:
            passes.append(CompositeExpansionPass())
        passes.extend((SyncInsertionPass(), MetadataElisionPass()))
        return PassManager(passes)

    @property
    def pipeline(self) -> PassManager:
        """The flow's pass pipeline, built once per instance."""
        built = self.__dict__.get("_pipeline")
        if built is None:
            built = self.build_pipeline()
            self.__dict__["_pipeline"] = built
        return built

    def pipeline_signature(self) -> str:
        """Content hash of everything that determines this flow's plans.

        Folds the flow-level knobs (name, dispatch profile, GEMM scales) with
        the ordered signatures of every pipeline pass, so the sweep cache key
        survives refactors that preserve behavior and invalidates on any knob
        change — including subclass overrides that keep the flow name.
        """
        signature = self.__dict__.get("_pipeline_signature")
        if signature is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                f"{self.name}|{self.dispatch_profile}"
                f"|{self.gemm_peak_scale_f32!r}|{self.gemm_saturation_scale!r}"
                f"|{int(self.uniform_placement)}".encode()
            )
            digest.update(self.pipeline.signature().encode())
            signature = digest.hexdigest()
            self.__dict__["_pipeline_signature"] = signature
        return signature

    # -- lowering --------------------------------------------------------------

    @collector_paused()
    def lower(
        self,
        graph: Graph,
        target: DeviceKind = DeviceKind.GPU,
        record_provenance: bool = False,
    ) -> ExecutionPlan:
        """Lower ``graph`` into an execution plan for the ``target`` device
        class (e.g. ``DeviceKind.NPU`` for the edge flows).

        With ``record_provenance``, the plan's ``notes`` carry a per-pass
        trace and per-kernel provenance tags (``nongemm-bench inspect``).
        """
        graph.validate()
        state = self.pipeline.run(graph, target, record_provenance=record_provenance)
        plan = self._finalize(state)
        plan.validate()
        return plan

    def supports_derivation(self) -> bool:
        """True when :meth:`derive_plan` reproduces :meth:`lower` exactly.

        Requires uniform placement *and* a pipeline whose refinement passes
        are all known to the re-targeting mini-pipeline: a custom refinement
        pass would be silently skipped during derivation, so its presence
        opts the flow out of sibling-plan derivation (the sweep cache then
        always lowers in full).
        """
        if not self.uniform_placement:
            return False
        derivable = {
            FusionPass,
            PlacementPass,
            KernelConstructionPass,
            # device-independent (composite scaling is baked into the source
            # kernels) or a no-op for uniform flows (no fallback kernels):
            CompositeExpansionPass,
            TransferInsertionPass,
            # re-run by derive_plan:
            SyncInsertionPass,
            MetadataElisionPass,
        }
        for p in self.pipeline.passes:
            # exact types, not isinstance: a subclass of a stock pass carries
            # behavior the re-targeting mini-pipeline would not reproduce.
            if type(p) not in derivable:
                return False
            # trust the pipeline's actual policy, not the uniform_placement
            # declaration: a knob-only flow overriding placement_policy()
            # must not be derived with its fallback placements dropped.
            if type(p) is PlacementPass and not p.policy.is_uniform:
                return False
        return True

    def derive_plan(self, source: ExecutionPlan, target: DeviceKind) -> ExecutionPlan:
        """Re-target an already-lowered plan to another device class.

        Valid only when :meth:`supports_derivation` holds: the kernel
        partition, fused costs, dtypes, and launch counts are all
        device-independent, so the opposite-device plan differs only in
        placement and the device-sensitive refinements (syncs, metadata
        elision), which re-run here as a short pipeline over the re-targeted
        kernel columns.  Produces exactly what ``lower(graph, target)`` would,
        for a fraction of the cost — the sweep cache uses this when it
        already holds the sibling plan.
        """
        if not self.uniform_placement:
            raise PlanError(f"flow {self.name} places per-op; cannot derive plans")
        if not self.supports_derivation():
            raise PlanError(
                f"flow {self.name} has custom refinement passes; re-targeting"
                " would skip them — lower the graph in full instead"
            )
        manager = PassManager(
            (RetargetPass(source), SyncInsertionPass(), MetadataElisionPass())
        )
        # a plan served from the persistent store may hold a lazy GraphRef;
        # re-targeting walks graph structure, so resolve it here.
        state = manager.run(source.graph.materialize(), target)
        return self._finalize(state)

    def _finalize(self, state: LoweringState) -> ExecutionPlan:
        """Freeze the kernel columns into an immutable :class:`ExecutionPlan`."""
        assert state.kernels is not None, "pipeline produced no kernels"
        plan = ExecutionPlan(
            graph=state.graph,
            flow=self.name,
            dispatch_profile=self.dispatch_profile,
            kernels=state.kernels.freeze(),
            target=state.target,
            gemm_peak_scale_f32=self.gemm_peak_scale_f32,
            gemm_saturation_scale=self.gemm_saturation_scale,
        )
        if state.record_provenance:
            plan.notes["pipeline_signature"] = self.pipeline_signature()
            plan.notes["passes"] = [
                {"pass": trace.pass_name, **trace.summary} for trace in state.trace
            ]
            plan.notes["kernel_provenance"] = tuple(map(tuple, state.kernels.provenance))
        return plan
