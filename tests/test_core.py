"""Tests for the core reports and the operator taxonomy."""

from types import SimpleNamespace

import pytest

from repro.core import NonGemmReport, PerformanceReport, WorkloadReport, traits_for
from repro.models import build_model
from repro.sweep.runner import run_point
from repro.sweep.spec import SweepPoint


class TestReports:
    @pytest.fixture(scope="class")
    def point(self):
        graph = build_model("gpt2", batch_size=1)
        point = SweepPoint(
            platform="A", model="gpt2", flow="pytorch", batch_size=1, device="gpu",
            iterations=2,
        )
        profile = run_point(point).profile
        return SimpleNamespace(
            performance=PerformanceReport(profile),
            workload=WorkloadReport(graph),
            non_gemm=NonGemmReport(graph, profile),
        )

    def test_summary_row_complete(self, point):
        row = point.performance.summary_row()
        assert row["gemm_pct"] + row["non_gemm_pct"] == pytest.approx(100, abs=0.1)
        assert row["latency_ms"] > 0 and row["device"] == "cpu+gpu"

    def test_breakdown_shares_sum(self, point):
        rows = point.performance.breakdown_rows()
        assert sum(r["share_pct"] for r in rows) == pytest.approx(100, abs=0.5)

    def test_top_operator_rows(self, point):
        rows = point.performance.top_operator_rows(5)
        assert len(rows) == 5
        assert rows[0]["latency_us"] >= rows[-1]["latency_us"]

    def test_workload_summary(self, point):
        row = point.workload.summary_row()
        assert row["ops"] == row["gemm_ops"] + row["non_gemm_ops"]
        assert row["params"] > 1e8

    def test_workload_shapes_limited(self, point):
        assert len(point.workload.shape_rows(limit=5)) == 5

    def test_non_gemm_variants(self, point):
        rows = point.non_gemm.variant_rows()
        assert any("gelu" in str(r["variant"]) for r in rows)
        assert all(r["count"] > 0 for r in rows)

    def test_taxonomy_rows_have_traits(self, point):
        rows = point.non_gemm.taxonomy_rows()
        gelu = next(r for r in rows if r["operator"] == "gelu")
        assert gelu["non_linearity"] is True
        softmax = next(r for r in rows if r["operator"] == "softmax")
        assert softmax["reduction"] is True and softmax["dynamicity"] is True

    def test_dominant_row(self, point):
        row = point.non_gemm.dominant_row()
        assert row is not None and row["dominant_group"] != "GEMM-based"

    def test_detr_reports_two_bn_variants(self):
        graph = build_model("detr")
        report = NonGemmReport(graph)
        rows = report.variant_rows()
        norm_variants = [r for r in rows if r["group"] == "Normalization"]
        assert len(norm_variants) >= 2  # frozen BN + LayerNorm (paper's observation)


class TestTraits:
    def test_known_traits(self):
        assert traits_for("nms").dynamic
        assert traits_for("layer_norm").reduction
        assert traits_for("relu").non_linear

    def test_unknown_kind_defaults_conservative(self):
        t = traits_for("alien_op")
        assert not t.single_operation
