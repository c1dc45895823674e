"""The three NonGEMM Bench output reports (paper Section III-C).

* :class:`PerformanceReport` — end-to-end latency with operator-level
  breakdown, energy, and peak memory.
* :class:`WorkloadReport` — operator kinds and tensor shapes captured from
  the graph.
* :class:`NonGemmReport` — non-GEMM-specific insights: operator variants per
  group, dominant groups, taxonomy traits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.classify import describe_node
from repro.ir.graph import Graph
from repro.ops.base import OpCategory
from repro.profiler.records import GROUP_ORDER, ProfileResult, report_group

Row = dict[str, object]


@dataclass
class PerformanceReport:
    """Latency/energy/memory view of one profile."""

    profile: ProfileResult

    def summary_row(self) -> Row:
        p = self.profile
        return {
            "model": p.model,
            "flow": p.flow,
            "platform": p.platform.platform_id,
            "device": "cpu+gpu" if p.use_gpu else "cpu",
            "batch": p.batch_size,
            "latency_ms": round(p.total_latency_ms, 4),
            "latency_std_ms": round(p.total_latency_std_s * 1e3, 4),
            "gemm_pct": round(100 * p.gemm_share, 2),
            "non_gemm_pct": round(100 * p.non_gemm_share, 2),
            "gpu_energy_j": round(p.gpu_energy_j, 4),
            "cpu_energy_j": round(p.cpu_energy_j, 4),
            "peak_memory_mb": round(p.peak_memory_bytes / 1e6, 2),
            "kernels": p.num_kernels,
            "graph_ops": p.num_graph_ops,
        }

    def breakdown_rows(self) -> list[Row]:
        """Per operator-group latency shares, in figure order."""
        shares = self.profile.share_by_group()
        latencies = self.profile.latency_by_group()
        rows = []
        for group in GROUP_ORDER:
            if group not in shares:
                continue
            rows.append(
                {
                    "model": self.profile.model,
                    "batch": self.profile.batch_size,
                    "group": group.value,
                    "latency_ms": round(latencies[group] * 1e3, 4),
                    "share_pct": round(100 * shares[group], 2),
                }
            )
        return rows

    def top_operator_rows(self, n: int = 10) -> list[Row]:
        return [
            {
                "name": r.name,
                "kinds": "+".join(r.op_kinds),
                "group": r.group.value,
                "latency_us": round(r.latency_s * 1e6, 2),
                "bound": r.bound,
                "fused": r.fused,
            }
            for r in self.profile.top_operators(n)
        ]


@dataclass
class WorkloadReport:
    """Static view of the model graph: op mix, shapes, parameters."""

    graph: Graph

    def op_count_rows(self) -> list[Row]:
        stats = self.graph.stats()
        return [
            {"op": kind, "count": count}
            for kind, count in sorted(stats.op_counts.items(), key=lambda kv: -kv[1])
        ]

    def summary_row(self) -> Row:
        stats = self.graph.stats()
        return {
            "model": self.graph.name,
            "ops": stats.num_nodes,
            "gemm_ops": stats.gemm_op_count,
            "non_gemm_ops": stats.non_gemm_op_count,
            "params": stats.num_params,
        }

    def shape_rows(self, limit: int | None = None) -> list[Row]:
        rows = []
        for node in self.graph.compute_nodes():
            rows.append(
                {
                    "name": node.qualified_name,
                    "op": node.op.kind,
                    "inputs": [str(v.spec) for v in node.inputs],
                    "outputs": [str(s) for s in node.outputs],
                }
            )
            if limit is not None and len(rows) >= limit:
                break
        return rows


@dataclass
class NonGemmReport:
    """Non-GEMM-specific analysis: variants, taxonomy, dominant groups."""

    graph: Graph
    profile: ProfileResult | None = None

    def variant_rows(self) -> list[Row]:
        """Operator variants per group (e.g. DETR's two BatchNorm flavours)."""
        variants: dict[OpCategory, Counter[str]] = {}
        for node in self.graph.compute_nodes():
            group = report_group(node.op.category)
            if group is OpCategory.GEMM:
                continue
            variants.setdefault(group, Counter())[node.op.describe()] += 1
        rows = []
        for group in GROUP_ORDER:
            if group not in variants:
                continue
            for variant, count in variants[group].most_common():
                rows.append({"group": group.value, "variant": variant, "count": count})
        return rows

    def taxonomy_rows(self, unique: bool = True) -> list[Row]:
        """Table I-style rows: one per (op kind) with traits and example shape."""
        seen: set[str] = set()
        rows = []
        for node in self.graph.compute_nodes():
            if node.op.category is OpCategory.GEMM or node.op.kind == "constant":
                continue
            if unique and node.op.kind in seen:
                continue
            seen.add(node.op.kind)
            row = describe_node(node)
            row["model"] = self.graph.name
            rows.append(row)
        return rows

    def dominant_row(self) -> Row | None:
        if self.profile is None:
            return None
        group, share = self.profile.dominant_non_gemm_group()
        return {
            "model": self.profile.model,
            "dominant_group": group.value,
            "share_pct": round(100 * share, 2),
        }
