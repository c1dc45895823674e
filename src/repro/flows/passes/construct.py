"""KernelConstructionPass: turn placed fusion groups into kernel drafts.

This is the single home of kernel construction: full lowerings and plan
re-targeting (:class:`~repro.flows.passes.retarget.RetargetPass`) both
produce :class:`~repro.flows.passes.state.KernelDraft` records that the flow
freezes into a :class:`~repro.flows.plan.KernelTable`, so there is
exactly one place that knows how a kernel's name, cost, dtype, and flags are
derived from graph structure.
"""

from __future__ import annotations

from repro.hardware.device import DeviceKind
from repro.ir.dtype import DType
from repro.ir.node import Node
from repro.flows.fusion import group_category
from repro.flows.passes.manager import LoweringPass
from repro.flows.passes.state import KernelDraft, LoweringState
from repro.flows.plan import group_costs_batch


class KernelConstructionPass(LoweringPass):
    """Build one draft per placed group: base cost, dtype, name, flags.

    ``collapse`` mirrors ``DeploymentFlow.collapses_composites``: compiled
    flows swallow composite Python ops into one generated kernel, which also
    strips the hand-written-custom-kernel flag from collapsed singles.
    CPU-fallback drafts keep the raw flag — a fallback op runs the framework's
    own (possibly custom) CPU kernel, not a generated one.
    """

    name = "construct"

    def __init__(self, collapse: bool = True):
        self.collapse = collapse

    def describe(self) -> str:
        return f"collapse={int(self.collapse)}"

    def run(self, state: LoweringState) -> None:
        assert state.groups is not None and state.devices is not None, (
            "construction requires fusion groups and placements"
        )
        graph = state.graph
        nodes = graph.nodes
        node_costs = graph.node_costs()
        collapse = self.collapse
        target = state.target
        accelerated = target is not DeviceKind.CPU
        record = state.record_provenance
        # fused groups need boundary-aware costs; evaluate them all in one
        # batched graph walk instead of a per-group membership analysis.
        fused_groups = [group for group in state.groups if len(group) > 1]
        fused_costs = iter(group_costs_batch(graph, fused_groups))
        drafts: list[KernelDraft] = []
        for group, device in zip(state.groups, state.devices):
            if len(group) == 1:
                node = nodes[group[0]]
                op = node.op
                # a kernel forced off the lowering target is a fallback: it
                # pays interconnect transfers and skips refinement rewrites.
                fallback = accelerated and device is not target
                draft = KernelDraft(
                    name=node.qualified_name,
                    node_ids=group,
                    op_kinds=(op.kind,),
                    category=op.category,
                    device=device,
                    cost=node_costs[group[0]],
                    dtype=node_dtype(node),
                    is_custom=op.is_custom_kernel if fallback else (
                        op.is_custom_kernel and not collapse
                    ),
                    fallback=fallback,
                )
            else:
                first = nodes[group[0]]
                draft = KernelDraft(
                    name=f"{first.qualified_name}+{len(group) - 1}",
                    node_ids=group,
                    op_kinds=tuple(nodes[i].op.kind for i in group),
                    category=group_category(graph, group),
                    device=device,
                    cost=next(fused_costs),
                    dtype=node_dtype(first),
                    # fused kernels are generated, not hand-written
                    is_custom=False,
                )
                if record:
                    draft.tag(f"fused[{len(group)}]")
            drafts.append(draft)
        state.drafts = drafts
        state.note(self.name, kernels=len(drafts))


def node_dtype(node: Node) -> DType:
    """Execution precision of a node: its first tensor input, else its output."""
    if node.inputs:
        return node.inputs[0].spec.dtype
    return node.outputs[0].dtype
