"""The pass manager: an ordered, content-addressable lowering pipeline.

A :class:`PassManager` owns a tuple of :class:`LoweringPass` instances and
runs them in order over one :class:`~repro.flows.passes.state.LoweringState`.
Each pass declares a stable :meth:`~LoweringPass.signature` covering its name
and configuration; the manager folds those, in order, into a content hash
that :meth:`repro.flows.base.DeploymentFlow.pipeline_signature` exposes and
the sweep :class:`~repro.sweep.cache.PlanCache` keys plans on — so renaming
a flow class or refactoring pass internals never invalidates cached plans,
while changing any knob that could alter a plan always does.

Ordering contract (see README "The pass pipeline"):

1. exactly one grouping pass (FusionPass) runs first and sets ``groups``;
2. exactly one placement pass follows and sets ``devices`` (it may also
   rewrite ``groups``, e.g. splitting device-spanning fusion groups);
3. exactly one construction pass turns groups+devices into ``kernels``
   (:class:`~repro.flows.passes.state.KernelColumns`);
4. any number of refinement passes then rewrite those columns in place
   (composite expansion, transfers, syncs, metadata elision, custom passes).
"""

from __future__ import annotations

import abc
import hashlib
from typing import TYPE_CHECKING, ClassVar, Iterable

from repro.flows.passes.state import LoweringState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.device import DeviceKind
    from repro.ir.graph import Graph


class LoweringPass(abc.ABC):
    """One named, individually-testable stage of plan lowering."""

    name: ClassVar[str]

    @abc.abstractmethod
    def run(self, state: LoweringState) -> None:
        """Advance ``state``; passes mutate it in place."""

    def describe(self) -> str:
        """Stable description of this pass's configuration (hash input)."""
        return ""

    def signature(self) -> str:
        """Content identity of the pass: name plus configuration."""
        return f"{self.name}({self.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.signature()}>"


class PassManager:
    """Runs an ordered list of lowering passes over a fresh state."""

    def __init__(self, passes: Iterable[LoweringPass]):
        self.passes: tuple[LoweringPass, ...] = tuple(passes)
        if not self.passes:
            raise ValueError("a lowering pipeline needs at least one pass")
        self._signature: str | None = None

    def run(
        self,
        graph: "Graph",
        target: "DeviceKind",
        record_provenance: bool = False,
    ) -> LoweringState:
        """Run the pipeline for one lowering target."""
        state = LoweringState(
            graph=graph, target=target, record_provenance=record_provenance
        )
        for lowering_pass in self.passes:
            lowering_pass.run(state)
        return state

    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def signature(self) -> str:
        """Order-sensitive content hash of the pipeline's pass configurations."""
        if self._signature is None:
            digest = hashlib.blake2b(digest_size=16)
            for lowering_pass in self.passes:
                digest.update(b"\x00")
                digest.update(lowering_pass.signature().encode())
            self._signature = digest.hexdigest()
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassManager({' -> '.join(self.pass_names())})"
