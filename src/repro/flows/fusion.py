"""Pattern-based operator fusion.

Two fusion mechanisms, mirroring what real deployment flows do:

* **GEMM epilogue fusion** — a GEMM followed by a single-consumer chain of
  normalization/activation/elementwise ops folds the chain into the GEMM
  kernel (TensorRT's CONV+BN+ReLU pattern; the paper credits this for DETR's
  13.5x non-GEMM speedup).
* **Pointwise chain fusion** — runs of single-consumer elementwise-like ops
  merge into one generated kernel (TorchInductor-style).

A :class:`FusionConfig` says which mechanism a flow applies and to which
operator categories; :func:`fuse_graph` returns disjoint node groups in
topological order of their last node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.ir.graph import Graph
from repro.ir.table import CATEGORIES, GEMM_CODE, NodeTable, segment_sum
from repro.ops.base import OpCategory

#: categories that behave pointwise enough to fuse into chains / epilogues.
POINTWISE_CATEGORIES = frozenset(
    {
        OpCategory.ELEMENTWISE,
        OpCategory.ACTIVATION,
        OpCategory.QDQ,
    }
)

#: categories fusible when the flow also fuses normalization/logit kernels.
NORM_LIKE_CATEGORIES = frozenset({OpCategory.NORMALIZATION, OpCategory.LOGIT})

#: the norm kinds TensorRT folds into GEMM kernels (the CONV+BN+ReLU
#: pattern).  LayerNorm/RMSNorm stay standalone kernels even in engines.
EPILOGUE_NORM_KINDS = frozenset(
    {"batch_norm2d", "frozen_batch_norm2d", "group_norm"}
)


@dataclass(frozen=True)
class FusionConfig:
    """What a deployment flow is willing to fuse."""

    #: fold pointwise/norm chains into a preceding GEMM kernel.
    gemm_epilogue: bool = False
    #: max epilogue ops folded into one GEMM.
    max_epilogue: int = 3
    #: fuse standalone pointwise chains into one kernel.
    pointwise_chains: bool = False
    #: include normalization/softmax in GEMM epilogues (TensorRT's
    #: CONV+BN+ReLU pattern).
    epilogue_norms: bool = False
    #: include normalization/softmax in standalone chains (TorchInductor's
    #: generated reduction+pointwise kernels).
    chain_norms: bool = False
    #: max ops per pointwise chain.
    max_chain: int = 8

    def fusible(self, category: OpCategory, in_epilogue: bool = False, kind: str = "") -> bool:
        if category in POINTWISE_CATEGORIES:
            return True
        if in_epilogue:
            # GEMM epilogues absorb the BatchNorm family only (CONV+BN+ReLU);
            # LayerNorm/Softmax stay standalone kernels even in engines.
            return self.epilogue_norms and kind in EPILOGUE_NORM_KINDS
        return self.chain_norms and category in NORM_LIKE_CATEGORIES


@dataclass
class FusionResult:
    """Disjoint groups of node ids, in topological order of their last node."""

    groups: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def fused_groups(self) -> list[tuple[int, ...]]:
        return [g for g in self.groups if len(g) > 1]


def fuse_graph(graph: Graph, config: FusionConfig) -> FusionResult:
    """Partition the compute nodes of ``graph`` into fusion groups.

    The greedy walk is sequential, but everything it asks about a node —
    its sole consumer, whether it is a GEMM, whether it may join a chain or
    an epilogue — is read from lists precomputed on the node table.
    """
    table = graph.freeze()
    compute_ids = np.flatnonzero(~table.placeholder).tolist()
    if not (config.gemm_epilogue or config.pointwise_chains):
        return FusionResult(groups=list(zip(compute_ids)))  # all singletons
    sole = table.sole_consumers().tolist()
    chain_ok, epilogue_ok = (mask.tolist() for mask in _fusible_masks(table, config))
    is_gemm = (table.category == GEMM_CODE).tolist()
    assigned = [False] * table.num_nodes
    groups: list[tuple[int, ...]] = []

    def chain_from(start: int, budget: int, fusible: list[bool]) -> list[int]:
        """Greedy single-consumer chain of fusible ops starting at ``start``."""
        chain: list[int] = []
        current = start
        while current >= 0 and len(chain) < budget and not assigned[current] and fusible[current]:
            chain.append(current)
            assigned[current] = True
            current = sole[current]
        return chain

    for node_id in compute_ids:
        if assigned[node_id]:
            continue
        if config.gemm_epilogue and is_gemm[node_id]:
            assigned[node_id] = True
            group = [node_id]
            nxt = sole[node_id]
            if nxt >= 0:
                group.extend(chain_from(nxt, config.max_epilogue, epilogue_ok))
            groups.append(tuple(group))
            continue
        if config.pointwise_chains and chain_ok[node_id]:
            group = chain_from(node_id, config.max_chain, chain_ok)
            if group:
                groups.append(tuple(group))
                continue
        assigned[node_id] = True
        groups.append((node_id,))

    # Only a group's last member can feed another group: every earlier
    # member's one output is read once, by the next member.  Ordering by the
    # last member therefore puts every producer group before its consumers.
    groups.sort(key=itemgetter(-1))
    return FusionResult(groups=groups)


def _fusible_masks(table: NodeTable, config: FusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per node: may it join a pointwise chain, and a GEMM epilogue?

    :meth:`FusionConfig.fusible` is asked once per distinct (category, kind)
    pair; metadata-only nodes never fuse.
    """
    kinds = len(table.kind_vocab)
    pairs, inverse = np.unique(
        table.category.astype(np.int64) * kinds + table.kind, return_inverse=True
    )
    lookup = np.array(
        [
            (
                config.fusible(CATEGORIES[pair // kinds], False, table.kind_vocab[pair % kinds]),
                config.fusible(CATEGORIES[pair // kinds], True, table.kind_vocab[pair % kinds]),
            )
            for pair in pairs.tolist()
        ],
        dtype=bool,
    ).reshape(len(pairs), 2)
    fusible = lookup[inverse.reshape(-1)] & ~table.metadata_only[:, None]
    return fusible[:, 0], fusible[:, 1]


def group_categories(table: NodeTable, node_ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Reporting category codes of fused kernels, as CSR groups (group ``i``
    is ``node_ids[offsets[i]:offsets[i + 1]]``; none empty).

    Any GEMM member makes the whole kernel GEMM (fused epilogues disappear
    into the GEMM's latency, as the paper observes for CONV+BN+ReLU).
    Otherwise the member with the largest unfused traffic wins (the first
    on ties).
    """
    sizes = np.diff(offsets)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    traffic = table.bytes_read[node_ids] + table.bytes_written[node_ids]
    top = np.maximum.reduceat(traffic, offsets[:-1]) if len(sizes) else traffic
    ties = np.flatnonzero(traffic == top[group_of])
    _, first = np.unique(group_of[ties], return_index=True)
    categories = table.category[node_ids]
    any_gemm = segment_sum(categories == GEMM_CODE, offsets) > 0
    return np.where(any_gemm, GEMM_CODE, categories[ties[first]]).astype(np.int8)
