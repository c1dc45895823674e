"""Operator-fusion study on detection/segmentation models (Fig. 8 / Table V).

Run:  python examples/detection_fusion_study.py

Compares eager PyTorch, TorchInductor, and TensorRT on DETR and SegFormer,
reproducing the paper's headline fusion finding: DETR's FrozenBatchNorm
kernels all fold into convolutions under TensorRT (a >10x non-GEMM
speedup), while SegFormer's norms only fuse with other non-GEMM operators
and improve far less.
"""

from repro import build_model, profile_graph
from repro.flows import get_flow
from repro.hardware import PLATFORM_A
from repro.viz.ascii import render_table


def main() -> None:
    rows = []
    speedups: dict[str, float] = {}
    for model in ("detr", "segformer", "swin-b"):
        graph = build_model(model, batch_size=1)
        eager_ng_ms = None
        for flow_name in ("pytorch", "torchinductor", "tensorrt"):
            profile = profile_graph(
                graph, get_flow(flow_name), PLATFORM_A, model_name=model
            )
            ng_ms = profile.non_gemm_latency_s * 1e3
            if flow_name == "pytorch":
                eager_ng_ms = ng_ms
            rows.append(
                {
                    "model": model,
                    "flow": flow_name,
                    "latency_ms": round(profile.total_latency_ms, 2),
                    "non_gemm_ms": round(ng_ms, 2),
                    "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
                    "fusion_rate_pct": round(100 * profile.non_gemm_fusion_rate, 1),
                }
            )
            if flow_name == "tensorrt" and eager_ng_ms:
                speedups[model] = eager_ng_ms / max(ng_ms, 1e-9)
    print(render_table(rows))
    print()
    for model, speedup in speedups.items():
        print(f"{model}: TensorRT non-GEMM speedup over eager = {speedup:.1f}x")
    print(
        "\nDETR's speedup dwarfs SegFormer's at a similar fusion rate because its\n"
        "batch norms fuse INTO the GEMM kernels (CONV+BN+ReLU), exactly as the\n"
        "paper's Table V analysis explains."
    )


if __name__ == "__main__":
    main()
