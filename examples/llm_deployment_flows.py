"""Deployment-flow study on language models (the paper's Fig. 7 scenario).

Run:  python examples/llm_deployment_flows.py

Profiles GPT2-XL and Llama-2 7B under all four deployment flows on the
data-center platform and shows how the choice of serving stack moves both
the total latency and the *identity* of the non-GEMM bottleneck — including
ONNX Runtime's CPU-fallback blowup of the Memory group on GPT-2.
"""

from repro import build_model, profile_graph
from repro.flows import get_flow
from repro.hardware import PLATFORM_A
from repro.ops import OpCategory
from repro.viz.ascii import render_table

FLOWS = ("pytorch", "torchinductor", "onnxruntime", "tensorrt")
MODELS = ("gpt2-xl", "llama2-7b")


def main() -> None:
    rows = []
    for model in MODELS:
        graph = build_model(model, batch_size=1)
        for flow_name in FLOWS:
            profile = profile_graph(
                graph, get_flow(flow_name), PLATFORM_A, model_name=model
            )
            shares = profile.share_by_group()
            group, share = profile.dominant_non_gemm_group()
            rows.append(
                {
                    "model": model,
                    "flow": flow_name,
                    "latency_ms": round(profile.total_latency_ms, 2),
                    "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
                    "memory_pct": round(100 * shares.get(OpCategory.MEMORY, 0.0), 1),
                    "dominant_non_gemm": f"{group.value} ({share:.0%})",
                    "kernels": profile.num_kernels,
                }
            )
    print(render_table(rows))
    print(
        "\nTakeaways (match the paper's Section IV-B):\n"
        " * ONNX Runtime cuts GPT2-XL's activation overhead but its CPU fallback\n"
        "   inflates the Memory group -- the dominant non-GEMM operator changes\n"
        "   with the deployment flow.\n"
        " * Llama-2's export is clean, so ORT simply accelerates it.\n"
        " * Even TensorRT leaves a measurable non-GEMM share behind."
    )


if __name__ == "__main__":
    main()
