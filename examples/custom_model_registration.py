"""Extending the benchmark with a custom model (paper Section III-B).

Run:  python examples/custom_model_registration.py

Builds a small custom transformer from the operator library, registers it
in the model registry next to the 17 presets, profiles it through two
deployment flows, and finally *executes it numerically* on synthetic
tokenized text to show the graphs are real programs, not just cost stubs.
"""

import numpy as np

from repro import profile_graph, register_model
from repro.data import SyntheticWikitext
from repro.flows import get_flow
from repro.hardware import PLATFORM_B
from repro.ir import Graph, TensorSpec
from repro.ir.dtype import DType
from repro import ops
from repro.models import ModelEntry, TaskDomain, build_model
from repro.models.common import pre_norm_encoder_layer
from repro.runtime import run_graph
from repro.viz.ascii import render_table

VOCAB = 1000
DIM = 64
LAYERS = 2
HEADS = 4


def build_tiny_lm(config: object = None, batch_size: int = 1, seq_len: int = 16) -> Graph:
    """A 2-layer pre-LN transformer LM over a 1000-token vocabulary."""
    g = Graph("tiny-lm")
    ids = g.input(TensorSpec((batch_size, seq_len), DType.I64), "input_ids")
    h = g.call(ops.Embedding(VOCAB, DIM), ids, name="embed")
    pos = g.call(ops.Constant((1, seq_len, DIM), name="pos"), name="pos_embed")
    h = g.call(ops.Add(), h, pos, name="add_pos")
    for i in range(LAYERS):
        h = pre_norm_encoder_layer(g, h, DIM, HEADS, 4 * DIM, DType.F32, f"layer{i}")
    h = g.call(ops.LayerNorm(DIM), h, name="final_ln")
    logits = g.call(ops.Linear(DIM, VOCAB, bias=False), h, name="lm_head")
    g.set_outputs(logits)
    return g


def main() -> None:
    register_model(
        ModelEntry(
            name="tiny-lm",
            domain=TaskDomain.NLP,
            builder=build_tiny_lm,
            config=None,
            dataset="wikitext",
            paper_params="0.1M",
        ),
        replace=True,
    )

    # profile it like any preset model
    graph = build_model("tiny-lm", batch_size=2)
    rows = []
    for flow_name in ("pytorch", "tensorrt"):
        profile = profile_graph(
            graph, get_flow(flow_name), PLATFORM_B, model_name="tiny-lm"
        )
        rows.append(
            {
                "flow": flow_name,
                "latency_us": round(profile.total_latency_ms * 1e3, 1),
                "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
                "kernels": profile.num_kernels,
            }
        )
    print(render_table(rows))

    # and execute it for real on synthetic text
    data = SyntheticWikitext(vocab_size=VOCAB, seed=7)
    token_ids = data.batch(batch_size=2, seq_len=16)
    (logits,) = run_graph(graph, {"input_ids": token_ids}, seed=7)
    print(f"\nexecuted tiny-lm on synthetic text: logits shape {logits.shape}")
    next_tokens = np.argmax(logits[:, -1, :], axis=-1)
    print(f"greedy next-token predictions: {next_tokens.tolist()}")


if __name__ == "__main__":
    main()
