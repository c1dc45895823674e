"""Tests for the model zoo: registry, shapes, parameter counts, op mixes."""

import numpy as np
import pytest

from repro import ops
from repro.errors import ConfigError, RegistryError
from repro.models import (
    PAPER_MODELS,
    ModelEntry,
    TaskDomain,
    build_model,
    configs,
    get_model,
    list_models,
    register_model,
)
from repro.models.bert import build_bert
from repro.models.gpt2 import build_gpt2
from repro.models.llama import build_llama
from repro.models.segformer import build_segformer
from repro.models.swin import build_swin
from repro.models.vit import build_vit
from repro.runtime import run_graph

#: published parameter counts (millions) and acceptable relative tolerance
PARAM_TARGETS = {
    "vit-b": (86.6, 0.05),
    "vit-l": (304.3, 0.05),
    "vit-h": (632.0, 0.05),
    "swin-t": (28.3, 0.06),
    "swin-s": (49.6, 0.06),
    "swin-b": (87.8, 0.06),
    "detr": (41.3, 0.10),
    "segformer": (3.7, 0.15),
    "gpt2": (163.0, 0.05),  # incl. untied lm_head (124M tied)
    "gpt2-xl": (1638.0, 0.05),
    "llama2-7b": (6738.0, 0.02),
    "bert": (109.5, 0.05),
    "mixtral-8x7b": (46703.0, 0.02),
}


class TestRegistry:
    def test_all_17_paper_models_registered(self):
        assert len(PAPER_MODELS) == 17
        for name in PAPER_MODELS:
            assert get_model(name).name == name

    def test_domains(self):
        assert get_model("vit-b").domain is TaskDomain.IMAGE_CLASSIFICATION
        assert get_model("detr").domain is TaskDomain.OBJECT_DETECTION
        assert get_model("segformer").domain is TaskDomain.IMAGE_SEGMENTATION
        assert get_model("llama2-7b").domain is TaskDomain.NLP

    def test_domain_filter(self):
        ic = {e.name for e in list_models(TaskDomain.IMAGE_CLASSIFICATION)}
        # the six paper IC models plus the two CNN extension baselines
        assert {"vit-b", "vit-l", "vit-h", "swin-t", "swin-s", "swin-b"} <= ic
        assert {"resnet50", "mobilenet-v2"} <= ic

    def test_unknown_model(self):
        with pytest.raises(RegistryError):
            get_model("resnet-9000")

    def test_duplicate_registration_rejected(self):
        entry = get_model("gpt2")
        with pytest.raises(RegistryError):
            register_model(entry)
        register_model(entry, replace=True)  # explicit replace allowed

    def test_custom_registration(self):
        def build(config, batch_size=1):
            from repro.ir import Graph, TensorSpec

            g = Graph("unit-model")
            x = g.input(TensorSpec((batch_size, 4)), "x")
            g.set_outputs(g.call(ops.Linear(4, 2), x))
            return g

        register_model(
            ModelEntry("unit-model", TaskDomain.NLP, build, None, "wikitext", "tiny"),
            replace=True,
        )
        graph = build_model("unit-model", batch_size=3)
        assert graph.outputs[0].spec.shape == (3, 2)

    @pytest.mark.parametrize(
        "kwargs,what",
        [({"batch_size": True}, "batch size"), ({"batch_size": "2"}, "batch size"),
         ({"seq_len": True}, "seq_len")],
    )
    def test_non_int_size_is_a_config_error(self, kwargs, what):
        with pytest.raises(ConfigError, match=f"gpt2: {what} must be an int"):
            build_model("gpt2", **kwargs)

    def test_unknown_override_is_a_registry_error(self):
        with pytest.raises(RegistryError, match="'gpt2'.*foo"):
            build_model("gpt2", foo=1)


@pytest.mark.parametrize("name,target", sorted(PARAM_TARGETS.items()))
def test_parameter_counts_match_published(name, target):
    millions, tolerance = target
    graph = build_model(name, batch_size=1)
    actual = graph.param_count() / 1e6
    assert actual == pytest.approx(millions, rel=tolerance), f"{name}: {actual:.1f}M"


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_every_model_builds_and_validates(name):
    graph = build_model(name, batch_size=1)
    graph.validate()
    stats = graph.stats()
    assert stats.gemm_op_count > 0
    assert stats.non_gemm_op_count > stats.gemm_op_count  # non-GEMM ops outnumber GEMMs


@pytest.mark.parametrize("name", ["vit-b", "swin-t", "gpt2", "bert", "detr"])
def test_batch_size_scales_input(name):
    graph = build_model(name, batch_size=4)
    assert graph.input_nodes[0].outputs[0].shape[0] == 4


class TestOperatorSignatures:
    """Each architecture must carry its paper-documented operator signature."""

    def test_swin_has_window_copies_and_rolls(self):
        graph = build_model("swin-t")
        kinds = graph.stats().op_counts
        assert kinds.get("contiguous", 0) >= 24  # partition/reverse copies
        assert kinds.get("roll", 0) >= 8  # shifted windows

    def test_vit_memory_ops_are_views(self):
        graph = build_model("vit-b")
        kinds = graph.stats().op_counts
        assert kinds.get("contiguous", 0) == 0  # ViT never materializes copies
        assert kinds.get("permute", 0) > 0

    def test_detr_uses_per_forward_frozen_bn(self):
        graph = build_model("detr")
        fbns = [n.op for n in graph.compute_nodes() if n.op.kind == "frozen_batch_norm2d"]
        assert len(fbns) == 53  # ResNet-50 norm count
        assert all(not op.precomputed for op in fbns)

    def test_rcnn_uses_precomputed_frozen_bn_and_nms(self):
        graph = build_model("faster-rcnn")
        kinds = graph.stats().op_counts
        fbns = [n.op for n in graph.compute_nodes() if n.op.kind == "frozen_batch_norm2d"]
        assert all(op.precomputed for op in fbns)
        assert kinds.get("nms", 0) >= 2  # RPN + detection
        assert kinds.get("roi_align", 0) == 1

    def test_mask_rcnn_extends_faster_rcnn(self):
        frcnn = build_model("faster-rcnn").stats().op_counts
        mrcnn = build_model("mask-rcnn").stats().op_counts
        assert mrcnn.get("roi_align", 0) == 2
        assert mrcnn.get("conv2d", 0) > frcnn.get("conv2d", 0)

    def test_gpt2_signature(self):
        graph = build_model("gpt2")
        kinds = graph.stats().op_counts
        assert kinds.get("conv1d", 0) == 4 * 12  # HF Conv1D projections
        assert kinds.get("split", 0) == 12
        assert kinds.get("where", 0) == 12  # causal mask
        gelus = [n.op for n in graph.compute_nodes() if n.op.kind == "gelu"]
        assert all(op.eager_kernels > 1 for op in gelus)  # NewGELU composite

    def test_llama_signature(self):
        graph = build_model("llama2-7b")
        kinds = graph.stats().op_counts
        assert kinds.get("rms_norm", 0) == 2 * 32 + 1
        assert kinds.get("silu", 0) == 32
        assert kinds.get("neg", 0) == 2 * 32  # rotate_half on q and k

    def test_llama3_gqa_expands_kv(self):
        graph = build_model("llama3-8b", seq_len=16)
        kinds = graph.stats().op_counts
        assert kinds.get("expand", 0) >= 2 * 32  # repeat_kv memory ops

    def test_mixtral_routing_ops(self):
        graph = build_model("mixtral-8x7b")
        kinds = graph.stats().op_counts
        assert kinds.get("topk", 0) == 32
        assert kinds.get("nonzero", 0) == 32 * 8
        assert kinds.get("index_add", 0) == 32 * 8

    def test_segformer_has_batchnorm_decode_head(self):
        graph = build_model("segformer")
        kinds = graph.stats().op_counts
        assert kinds.get("batch_norm2d", 0) == 1
        assert kinds.get("interpolate", 0) >= 3

    def test_maskformer_inherits_swin_memory_ops(self):
        graph = build_model("maskformer")
        kinds = graph.stats().op_counts
        assert kinds.get("contiguous", 0) > 40
        assert kinds.get("group_norm", 0) > 0

    def test_bert_embeddings_and_pooler(self):
        graph = build_model("bert")
        kinds = graph.stats().op_counts
        assert kinds.get("embedding", 0) == 3  # word/pos/type
        assert kinds.get("tanh", 0) == 1
        assert kinds.get("layer_norm", 0) == 2 * 12 + 1


class TestSmallConfigExecution:
    """Scaled-down configs execute numerically end to end."""

    def test_tiny_vit_executes(self, rng):
        config = configs.ViTConfig(name="vit-test", image_size=32, patch_size=8, dim=32, depth=2, heads=2)
        graph = build_vit(config, batch_size=2)
        (logits,) = run_graph(graph, {"pixels": rng.normal(size=(2, 3, 32, 32)).astype(np.float32)})
        assert logits.shape == (2, 1000)
        assert np.all(np.isfinite(logits))

    def test_tiny_swin_executes(self, rng):
        config = configs.SwinConfig(
            name="swin-test", image_size=32, patch_size=4, window=4,
            embed_dim=16, depths=(2, 2), heads=(2, 4),
        )
        graph = build_swin(config, batch_size=1)
        (logits,) = run_graph(graph, {"pixels": rng.normal(size=(1, 3, 32, 32)).astype(np.float32)})
        assert logits.shape == (1, 1000)

    def test_tiny_gpt2_executes(self, rng):
        config = configs.GPT2Config(name="gpt2-test", layers=2, dim=32, heads=2, vocab=100, seq_len=6)
        graph = build_gpt2(config, batch_size=2)
        ids = rng.integers(0, 100, size=(2, 6)).astype(np.int64)
        pos = np.tile(np.arange(6, dtype=np.int64), (2, 1))
        (logits,) = run_graph(graph, {"input_ids": ids, "position_ids": pos})
        assert logits.shape == (2, 6, 100)

    def test_tiny_llama_executes(self, rng):
        config = configs.LlamaConfig(
            name="llama-test", layers=2, dim=32, heads=4, kv_heads=2,
            ffn_dim=64, vocab=120, seq_len=5,
        )
        graph = build_llama(config, batch_size=1)
        ids = rng.integers(0, 120, size=(1, 5)).astype(np.int64)
        (logits,) = run_graph(graph, {"input_ids": ids})
        assert logits.shape == (1, 5, 120)
        assert np.all(np.isfinite(logits.astype(np.float32)))

    def test_tiny_bert_executes(self, rng):
        config = configs.BertConfig(name="bert-test", layers=2, dim=32, heads=2, ffn_dim=64, vocab=80, seq_len=8)
        graph = build_bert(config, batch_size=2)
        ids = rng.integers(0, 80, size=(2, 8)).astype(np.int64)
        pos = np.tile(np.arange(8, dtype=np.int64), (2, 1))
        types = np.zeros((2, 8), dtype=np.int64)
        hidden, pooled = run_graph(
            graph, {"input_ids": ids, "position_ids": pos, "token_type_ids": types}
        )
        assert hidden.shape == (2, 8, 32)
        assert pooled.shape == (2, 32)

    def test_tiny_segformer_executes(self, rng):
        config = configs.SegFormerConfig(
            name="seg-test", image_size=64, embed_dims=(8, 16, 24, 32),
            depths=(1, 1, 1, 1), heads=(1, 2, 3, 4), sr_ratios=(4, 2, 1, 1),
            decoder_dim=16, num_classes=10,
        )
        graph = build_segformer(config, batch_size=1)
        (logits,) = run_graph(graph, {"pixels": rng.normal(size=(1, 3, 64, 64)).astype(np.float32)})
        assert logits.shape[:2] == (1, 10)
