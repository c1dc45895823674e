"""KernelConstructionPass: turn placed fusion groups into kernel columns.

This is the single home of kernel construction: one place knows how a
kernel's name, cost, dtype, and flags are derived from graph structure.
Single-node kernels are gathered from the graph's node table; fused
kernels take :func:`~repro.flows.plan.group_costs_batch` costs and
:func:`~repro.flows.fusion.group_categories` categories.  Plan re-targeting
(:class:`~repro.flows.passes.retarget.RetargetPass`) copies an existing
plan's columns instead.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.hardware.device import DeviceKind
from repro.ir.table import NodeTable
from repro.flows.fusion import group_categories
from repro.flows.passes.manager import LoweringPass
from repro.flows.passes.state import KernelColumns, LoweringState
from repro.flows.plan import DEVICE_CODE, group_costs_batch

#: device codes keyed by member identity (an int hash per group instead of
#: ``Enum.__hash__``).
_DEVICE_BY_ID = {id(kind): code for kind, code in DEVICE_CODE.items()}


class KernelConstructionPass(LoweringPass):
    """Build one kernel per placed group: base cost, dtype, name, flags.

    ``collapse`` mirrors ``DeploymentFlow.collapses_composites``: compiled
    flows swallow composite Python ops into one generated kernel, which also
    strips the hand-written-custom-kernel flag from collapsed singles.
    CPU-fallback kernels keep the raw flag — a fallback op runs the
    framework's own (possibly custom) CPU kernel, not a generated one.
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
        table = graph.freeze()
        groups = state.groups
        count = len(groups)
        sizes = np.fromiter(map(len, groups), np.int64, count)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        node_ids = np.fromiter(chain.from_iterable(groups), np.int64, int(offsets[-1]))
        first = node_ids[offsets[:-1]]
        fused = sizes > 1
        device = np.fromiter(map(_DEVICE_BY_ID.__getitem__, map(id, state.devices)), np.int8, count)
        # a single kernel forced off an accelerator target is a fallback: it
        # pays interconnect transfers and skips refinement rewrites.
        accelerated = state.target is not DeviceKind.CPU
        fallback = ~fused & (device != DEVICE_CODE[state.target]) & accelerated

        flops = table.flops[first]
        bytes_read = table.bytes_read[first]
        bytes_written = table.bytes_written[first]
        category = table.category[first]
        if fused.any():
            # fused groups need boundary-aware costs: all in one batched walk.
            fused_offsets = np.zeros(np.count_nonzero(fused) + 1, dtype=np.int64)
            np.cumsum(sizes[fused], out=fused_offsets[1:])
            fused_ids = node_ids[np.repeat(fused, sizes)]
            costs = group_costs_batch(graph, fused_ids, fused_offsets)
            flops[fused], bytes_read[fused], bytes_written[fused] = costs
            category[fused] = group_categories(table, fused_ids, fused_offsets)

        op_kind_vocab, op_kind_idx = _op_kinds(table, node_ids, sizes, fused)
        names = table.names[first]
        names[fused] = list(map("{}+{}".format, names[fused], (sizes[fused] - 1).tolist()))
        kernels = KernelColumns(
            fallback,
            state.record_provenance,
            names=names,
            node_ids=node_ids,
            offsets=offsets,
            op_kind_vocab=op_kind_vocab,
            op_kind_idx=op_kind_idx,
            category=category,
            device=device,
            dtype=table.dtype[first],
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            metadata_only=np.zeros(count, dtype=bool),
            # fused kernels are generated, not hand-written
            is_custom=table.is_custom[first] & ~fused & (fallback | (not self.collapse)),
            launch_count=np.ones(count, dtype=np.int32),
            transfer_bytes_in=np.zeros(count, dtype=np.int64),
            transfer_bytes_out=np.zeros(count, dtype=np.int64),
        )
        kernels.tag(fused, map("fused[{}]".format, sizes[fused].tolist()))
        state.kernels = kernels
        state.note(self.name, kernels=count)


def _op_kinds(
    table: NodeTable, node_ids: np.ndarray, sizes: np.ndarray, fused: np.ndarray
) -> tuple[tuple[tuple[str, ...], ...], np.ndarray]:
    """The kernels' ``op_kind_vocab`` (distinct kind tuples, by first use)
    and ``op_kind_idx``.

    A single-node kernel's key is its node's kind code; a fused kernel's key
    lies past the kind vocabulary, one per distinct kind sequence (found by
    ``np.unique`` over the sequences padded with -1).
    """
    kind_vocab = table.kind_vocab
    kinds = table.kind[node_ids]
    key = kinds[np.cumsum(sizes) - sizes].astype(np.int64)
    fused_sizes = sizes[fused]
    sequences = np.zeros((0, 0), dtype=np.int32)
    if len(fused_sizes):
        padded = np.full((len(fused_sizes), int(fused_sizes.max())), -1, dtype=np.int32)
        padded[np.arange(padded.shape[1]) < fused_sizes[:, None]] = kinds[np.repeat(fused, sizes)]
        sequences, inverse = np.unique(padded, axis=0, return_inverse=True)
        key[fused] = len(kind_vocab) + inverse.reshape(-1)
    distinct, first_use, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first_use)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    vocab = tuple(
        (kind_vocab[k],) if k < len(kind_vocab)
        else tuple(kind_vocab[c] for c in sequences[k - len(kind_vocab)].tolist() if c >= 0)
        for k in distinct[order].tolist()
    )
    return vocab, rank[inverse.reshape(-1)]
