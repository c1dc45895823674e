"""The NonGEMM Bench model registry.

Mirrors the paper's Table II: 17 models across Image Classification, Object
Detection, Image Segmentation, and NLP, plus Llama-3 8B for the quantization
study.  Users extend the benchmark by registering their own
:class:`ModelEntry` (the paper's "plug new models into the registry" flow).
"""

from __future__ import annotations

import enum
import functools
import inspect
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, RegistryError
from repro.ir.graph import Graph, collector_paused
from repro.models import configs
from repro.models.bert import build_bert
from repro.models.detr import build_detr
from repro.models.gpt2 import build_gpt2
from repro.models.llama import build_llama
from repro.models.maskformer import build_maskformer
from repro.models.mixtral import build_mixtral
from repro.models.rcnn import build_faster_rcnn, build_mask_rcnn
from repro.models.segformer import build_segformer
from repro.models.swin import build_swin
from repro.models.vit import build_vit
from repro.registry import Registry


class TaskDomain(enum.Enum):
    """The paper's four task domains."""

    IMAGE_CLASSIFICATION = "IC"
    OBJECT_DETECTION = "OD"
    IMAGE_SEGMENTATION = "IS"
    NLP = "NLP"


@dataclass(frozen=True)
class ModelEntry:
    """One registry row: how to build a model and what data it consumes."""

    name: str
    domain: TaskDomain
    builder: Callable[..., Graph]
    config: object
    dataset: str
    paper_params: str  # Table II's reported size, for the workload report

    @collector_paused()
    def build(self, batch_size: int = 1, **overrides) -> Graph:
        """The model's graph, after :meth:`check` accepts the arguments."""
        self.check(batch_size, **overrides)
        return self.builder(self.config, batch_size=batch_size, **overrides)

    def check(self, batch_size: int = 1, **overrides) -> None:
        """Reject build arguments before anything is built or keyed.

        Raises :class:`ConfigError` on a batch size or ``seq_len`` override
        that is not an int >= 1 (a bool included), and
        :class:`RegistryError` on an override the builder does not take.
        """
        sizes = [("batch size", batch_size)]
        if overrides.get("seq_len") is not None:
            sizes.append(("seq_len", overrides["seq_len"]))
        for what, value in sizes:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{self.name}: {what} must be an int >= 1, got {value!r}")
        names = frozenset(overrides)
        if names in self._accepted:
            return
        try:
            inspect.signature(self.builder).bind(self.config, batch_size=batch_size, **overrides)
        except TypeError as exc:
            raise RegistryError(
                f"model {self.name!r} does not accept overrides {overrides}: {exc}"
            ) from None
        self._accepted.add(names)

    @functools.cached_property
    def _accepted(self) -> set[frozenset[str]]:
        """Override names the builder takes: binding reads names, not values,
        so a warm sweep binds each name set once rather than once a point."""
        return set()


MODEL_REGISTRY: Registry[ModelEntry] = Registry("model")


def register_model(entry: ModelEntry, replace: bool = False) -> None:
    """Add a model to the registry (``replace=True`` to override a preset)."""
    MODEL_REGISTRY.register(entry.name, entry, replace)


get_model = MODEL_REGISTRY.get


def list_models(domain: TaskDomain | None = None) -> list[ModelEntry]:
    """Registered models ordered by task domain, then name."""
    entries = sorted(MODEL_REGISTRY.values(), key=lambda e: (e.domain.value, e.name))
    if domain is None:
        return entries
    return [e for e in entries if e.domain is domain]


def build_model(name: str, batch_size: int = 1, **overrides) -> Graph:
    """Build a registered model's graph (convenience wrapper)."""
    return get_model(name).build(batch_size=batch_size, **overrides)


#: The 17 models of the paper's Table II (+ Llama-3 for Fig. 9).
_PRESETS = [
    # Image classification
    ModelEntry("vit-b", TaskDomain.IMAGE_CLASSIFICATION, build_vit, configs.VIT_BASE, "imagenet", "86M"),
    ModelEntry("vit-l", TaskDomain.IMAGE_CLASSIFICATION, build_vit, configs.VIT_LARGE, "imagenet", "307M"),
    ModelEntry("vit-h", TaskDomain.IMAGE_CLASSIFICATION, build_vit, configs.VIT_HUGE, "imagenet", "632M"),
    ModelEntry("swin-t", TaskDomain.IMAGE_CLASSIFICATION, build_swin, configs.SWIN_TINY, "imagenet", "29M"),
    ModelEntry("swin-s", TaskDomain.IMAGE_CLASSIFICATION, build_swin, configs.SWIN_SMALL, "imagenet", "50M"),
    ModelEntry("swin-b", TaskDomain.IMAGE_CLASSIFICATION, build_swin, configs.SWIN_BASE, "imagenet", "88M"),
    # Object detection
    ModelEntry("faster-rcnn", TaskDomain.OBJECT_DETECTION, build_faster_rcnn, configs.FASTER_RCNN, "coco", "42M"),
    ModelEntry("mask-rcnn", TaskDomain.OBJECT_DETECTION, build_mask_rcnn, configs.MASK_RCNN, "coco", "44M"),
    ModelEntry("detr", TaskDomain.OBJECT_DETECTION, build_detr, configs.DETR, "coco", "41M"),
    # Image segmentation
    ModelEntry("maskformer", TaskDomain.IMAGE_SEGMENTATION, build_maskformer, configs.MASKFORMER, "coco", "102M"),
    ModelEntry("segformer", TaskDomain.IMAGE_SEGMENTATION, build_segformer, configs.SEGFORMER_B0, "coco", "3.7M"),
    # NLP
    ModelEntry("gpt2", TaskDomain.NLP, build_gpt2, configs.GPT2, "wikitext", "117M"),
    ModelEntry("gpt2-l", TaskDomain.NLP, build_gpt2, configs.GPT2_LARGE, "wikitext", "762M"),
    ModelEntry("gpt2-xl", TaskDomain.NLP, build_gpt2, configs.GPT2_XL, "wikitext", "1.5B"),
    ModelEntry("llama2-7b", TaskDomain.NLP, build_llama, configs.LLAMA2_7B, "wikitext", "7B"),
    ModelEntry("bert", TaskDomain.NLP, build_bert, configs.BERT_BASE, "wikitext", "110M"),
    ModelEntry("mixtral-8x7b", TaskDomain.NLP, build_mixtral, configs.MIXTRAL_8X7B, "wikitext", "46.7B"),
    # Quantization study (Section IV-C)
    ModelEntry("llama3-8b", TaskDomain.NLP, build_llama, configs.LLAMA3_8B, "wikitext", "8B"),
]

#: extension models beyond the paper's Table II (extensibility demo;
#: classic CNN baselines with BatchNorm/ReLU-dominated non-GEMM profiles).
_EXTENSIONS = "resnet50", "mobilenet-v2"

for _entry in _PRESETS:
    register_model(_entry)


def _register_extensions() -> None:
    from repro.models import cnn

    register_model(
        ModelEntry(
            "resnet50", TaskDomain.IMAGE_CLASSIFICATION, cnn.build_resnet50,
            cnn.RESNET50, "imagenet", "25.6M",
        )
    )
    register_model(
        ModelEntry(
            "mobilenet-v2", TaskDomain.IMAGE_CLASSIFICATION, cnn.build_mobilenet_v2,
            cnn.MOBILENET_V2, "imagenet", "3.5M",
        )
    )


_register_extensions()

#: names of the paper's 17 evaluated models (llama3-8b is the Fig. 9 extra).
PAPER_MODELS = [
    e.name for e in _PRESETS if e.name != "llama3-8b"
]
