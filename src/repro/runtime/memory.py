"""Peak activation-memory estimation via liveness analysis.

Part of the paper's performance report ("Peak Memory Usage").  Every value
stays alive from its producer to its last consumer, in topological order;
peak memory is the high-water mark of live activations plus resident
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.graph import Graph
from repro.ir.table import segment_sum


@dataclass(frozen=True)
class MemoryProfile:
    """Memory footprint summary for one graph."""

    weight_bytes: int
    peak_activation_bytes: int

    @property
    def peak_total_bytes(self) -> int:
        return self.weight_bytes + self.peak_activation_bytes


def profile_memory(graph: Graph) -> MemoryProfile:
    """Compute resident-weight and peak-activation bytes for ``graph``.

    A value is live from its producer until its last consumer (graph
    outputs until the end); values nothing reads are never allocated, and
    metadata-only ops alias their input storage, so they add no bytes.
    Live bytes after node ``i`` produces are the bytes produced through
    ``i`` minus those released through ``i - 1``: two prefix sums over the
    node table.
    """
    table = graph.freeze()
    n = table.num_nodes
    uses = np.diff(table.use_offsets)
    last_use = np.full(table.num_values, -1, dtype=np.int64)
    read = uses > 0
    last_use[read] = table.use_nodes[table.use_offsets[1:][read] - 1]
    last_use[table.outputs] = n
    producing = ~table.metadata_only | table.placeholder
    live = (last_use >= 0) & np.repeat(producing, np.diff(table.out_offsets))
    nbytes = np.where(live, table.value_nbytes, 0)
    released = np.zeros(n + 1, dtype=np.int64)
    np.add.at(released, last_use[live], nbytes[live])
    held = np.cumsum(segment_sum(nbytes, table.out_offsets))
    held[1:] -= np.cumsum(released[: n - 1])
    peak = max(int(held.max(initial=0)), 0)
    return MemoryProfile(
        weight_bytes=int(table.weight_bytes.sum()), peak_activation_bytes=peak
    )
