"""Unit tests for the profiler and aggregation layer."""

import pytest

from repro.flows import get_flow
from repro.hardware import PLATFORM_A, DeviceKind
from repro.ops.base import OpCategory
from repro.profiler import (
    average_share,
    breakdown,
    dominant_group_table,
    profile_graph,
    report_group,
)


@pytest.fixture
def profile(tiny_transformer_graph):
    return profile_graph(
        tiny_transformer_graph, get_flow("pytorch"), PLATFORM_A, iterations=7
    )


class TestProfileResult:
    def test_shares_sum_to_one(self, profile):
        assert sum(profile.share_by_group().values()) == pytest.approx(1.0)

    def test_gemm_plus_non_gemm_is_total(self, profile):
        assert profile.gemm_latency_s + profile.non_gemm_latency_s == pytest.approx(
            profile.total_latency_s
        )

    def test_records_cover_all_kernels(self, profile, tiny_transformer_graph):
        assert profile.num_kernels == len(profile.records)
        assert profile.num_graph_ops == len(tiny_transformer_graph.compute_nodes())

    def test_jitter_is_deterministic(self, tiny_transformer_graph):
        a = profile_graph(tiny_transformer_graph, get_flow("pytorch"), PLATFORM_A, seed=5)
        b = profile_graph(tiny_transformer_graph, get_flow("pytorch"), PLATFORM_A, seed=5)
        assert a.total_latency_s == b.total_latency_s

    def test_jitter_variance_reported(self, profile):
        assert profile.total_latency_std_s > 0
        assert any(r.latency_std_s > 0 for r in profile.records)

    def test_dominant_non_gemm_group(self, profile):
        group, share = profile.dominant_non_gemm_group()
        assert group is not OpCategory.GEMM
        assert 0 < share < 1

    def test_top_operators_sorted(self, profile):
        top = profile.top_operators(5)
        latencies = [r.latency_s for r in top]
        assert latencies == sorted(latencies, reverse=True)

    def test_cpu_only_falls_back(self, tiny_transformer_graph):
        result = profile_graph(
            tiny_transformer_graph,
            get_flow("pytorch"),
            PLATFORM_A.cpu_only(),
            target=DeviceKind.GPU,  # requested but unavailable
        )
        assert result.target is DeviceKind.CPU

    def test_describe_mentions_model_and_share(self, profile):
        text = profile.describe()
        assert "tiny" in text and "non-GEMM" in text


class TestAggregation:
    def test_breakdown_orders_groups(self, profile):
        b = breakdown(profile)
        assert b.gemm_pct + b.non_gemm_pct == pytest.approx(100.0)
        assert list(b.shares)  # non-empty, figure order

    def test_average_share(self, profile):
        avg = average_share([profile, profile])
        assert avg == pytest.approx(profile.non_gemm_share)
        norm = average_share([profile], OpCategory.NORMALIZATION)
        assert 0 <= norm <= 1

    def test_dominant_group_table(self, profile):
        rows = dominant_group_table({"tiny": [profile, profile]})
        assert len(rows) == 1
        model, group, share = rows[0]
        assert model == "tiny" and group is not OpCategory.GEMM

    def test_report_group_folds_misc_like(self):
        assert report_group(OpCategory.POOLING) is OpCategory.MISC
        assert report_group(OpCategory.REDUCTION) is OpCategory.MISC
        assert report_group(OpCategory.MEMORY) is OpCategory.MEMORY
