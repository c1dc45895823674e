"""Quickstart: profile one model and read the GEMM/non-GEMM split.

Run:  python examples/quickstart.py

Profiles GPT-2 on the data-center platform (EPYC 7763 + A100 model) with
and without GPU acceleration — the paper's Fig. 1 experiment in ten lines —
then prints the operator-group breakdown and the slowest kernels.
"""

from repro import build_model, profile_graph
from repro.flows import get_flow
from repro.hardware import PLATFORM_A, DeviceKind
from repro.viz.ascii import render_stacked_bar, render_table


def main() -> None:
    graph = build_model("gpt2", batch_size=1)
    flow = get_flow("pytorch")

    print(f"model: {graph.name}, {len(graph.compute_nodes())} operators,"
          f" {graph.param_count() / 1e6:.1f}M parameters\n")

    for target in (DeviceKind.CPU, DeviceKind.GPU):
        # a CPU target runs on the platform's CPU-only variant (no idle GPU)
        profile = profile_graph(graph, flow, PLATFORM_A, target=target, model_name="gpt2")
        device = profile.device.upper()
        shares = {g.value: s for g, s in profile.share_by_group().items()}
        print(render_stacked_bar(
            f"gpt2 [{device}]", shares, total_label=f"{profile.total_latency_ms:7.2f} ms"
        ))
    print()

    # detailed look at the accelerated profile
    profile = profile_graph(graph, flow, PLATFORM_A, model_name="gpt2")
    print(f"non-GEMM share with GPU: {profile.non_gemm_share:.1%}")
    group, share = profile.dominant_non_gemm_group()
    print(f"dominant non-GEMM group: {group.value} ({share:.1%} of total)\n")

    rows = [
        {
            "kernel": r.name,
            "group": r.group.value,
            "latency_us": round(r.latency_s * 1e6, 1),
            "bound": r.bound,
        }
        for r in profile.top_operators(8, non_gemm_only=True)
    ]
    print("slowest non-GEMM kernels:")
    print(render_table(rows))


if __name__ == "__main__":
    main()
