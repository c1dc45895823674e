"""NonGEMM Bench core: the output reports and the operator taxonomy."""

from repro.core.classify import OpTraits, describe_node, is_non_gemm, traits_for
from repro.core.reports import NonGemmReport, PerformanceReport, WorkloadReport

__all__ = [
    "NonGemmReport",
    "OpTraits",
    "PerformanceReport",
    "WorkloadReport",
    "describe_node",
    "is_non_gemm",
    "traits_for",
]
