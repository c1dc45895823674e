"""LLM.int8() quantization study (the paper's Fig. 9 scenario).

Run:  python examples/quantization_seqlen_study.py

Quantizes Llama-3 8B with the LLM.int8() graph pass and profiles FP16 vs
INT8 across sequence lengths.  Shows the paper's counterintuitive result:
quantization makes the *GEMMs* faster but the *end-to-end profile* becomes
dominated by the injected Q/DQ and scaling operators.
"""

from repro import build_model, profile_graph, quantize_llm_int8
from repro.flows import get_flow
from repro.hardware import PLATFORM_A
from repro.ops import OpCategory
from repro.viz.ascii import render_table


def main() -> None:
    flow = get_flow("pytorch")
    rows = []
    for seq in (512, 2048, 8192):
        graph = build_model("llama3-8b", batch_size=1, seq_len=seq)
        quantized = quantize_llm_int8(graph)
        for precision, g in (("fp16", graph), ("int8", quantized.graph)):
            profile = profile_graph(g, flow, PLATFORM_A, model_name=f"llama3-{precision}")
            shares = profile.share_by_group()
            rows.append(
                {
                    "seq_len": seq,
                    "precision": precision,
                    "latency_ms": round(profile.total_latency_ms, 1),
                    "gemm_ms": round(profile.gemm_latency_s * 1e3, 1),
                    "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
                    "qdq_pct": round(100 * shares.get(OpCategory.QDQ, 0.0), 1),
                    "elementwise_pct": round(100 * shares.get(OpCategory.ELEMENTWISE, 0.0), 1),
                }
            )
    print(render_table(rows))
    stats = quantize_llm_int8(build_model("llama3-8b", batch_size=1, seq_len=512)).stats
    print(
        f"\nquantization pass: {stats.linears_quantized} linears -> int8,"
        f" {stats.ops_added} operators added"
        f" ({stats.qdq_ops_added} Q/DQ, {stats.elementwise_ops_added} element-wise)"
    )
    print(
        "\nGEMM latency drops after quantization, but the added dequant/requant\n"
        "work makes non-GEMM operators the dominant cost -- the paper's Fig. 9."
    )


if __name__ == "__main__":
    main()
