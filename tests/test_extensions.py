"""Tests for the extension surface: CNN baselines, trace export, and
registration input checks."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import RegistryError, ServingError
from repro.flows import TensorRTFlow, get_flow, register_flow
from repro.hardware import A100, EPYC_7763, PLATFORM_A, Platform, register_device, register_platform
from repro.models import ModelEntry, TaskDomain, build_model, get_model, register_model
from repro.models.cnn import (
    MobileNetV2Config,
    ResNetConfig,
    build_mobilenet_v2,
    build_resnet50,
)
from repro.ops.base import OpCategory
from repro.profiler import export_chrome_trace, profile_graph, trace_events
from repro.runtime import run_graph
from repro.serving import register_fault_profile, register_trace
from repro.sweep import register_transform


class TestResNet50:
    def test_registered_as_extension(self):
        entry = get_model("resnet50")
        assert entry.paper_params == "25.6M"

    def test_parameter_count(self):
        graph = build_model("resnet50")
        assert graph.param_count() / 1e6 == pytest.approx(25.6, rel=0.02)

    def test_profile_is_gemm_dominated_on_gpu(self):
        graph = build_model("resnet50")
        profile = profile_graph(graph, get_flow("pytorch"), PLATFORM_A)
        group, _ = profile.dominant_non_gemm_group()
        # a classic CNN's non-GEMM profile is BN/ReLU dominated
        assert group in (OpCategory.NORMALIZATION, OpCategory.ACTIVATION)

    def test_small_config_executes(self, rng):
        config = ResNetConfig(name="r50-test", image_size=64, num_classes=10)
        graph = build_resnet50(config, batch_size=1)
        (logits,) = run_graph(graph, {"pixels": rng.normal(size=(1, 3, 64, 64)).astype(np.float32)})
        assert logits.shape == (1, 10)


class TestMobileNetV2:
    def test_parameter_count(self):
        graph = build_model("mobilenet-v2")
        assert graph.param_count() / 1e6 == pytest.approx(3.5, rel=0.05)

    def test_depthwise_convs_present(self):
        graph = build_model("mobilenet-v2")
        dw = [
            n for n in graph.compute_nodes()
            if n.op.kind == "conv2d" and getattr(n.op, "groups", 1) > 1
        ]
        assert len(dw) == 17  # one per inverted residual block

    def test_small_config_executes(self, rng):
        config = MobileNetV2Config(name="mbv2-test", image_size=64, width_mult=0.25, num_classes=7)
        graph = build_mobilenet_v2(config, batch_size=2)
        (logits,) = run_graph(graph, {"pixels": rng.normal(size=(2, 3, 64, 64)).astype(np.float32)})
        assert logits.shape == (2, 7)

    def test_residuals_only_on_matching_shapes(self):
        graph = build_model("mobilenet-v2")
        adds = [n for n in graph.compute_nodes() if n.op.kind == "add"]
        assert len(adds) == 10  # blocks with stride 1 and equal channels


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_graph(build_model("gpt2"), get_flow("pytorch"), PLATFORM_A)

    def test_events_cover_all_kernels(self, profile):
        events = trace_events(profile)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(profile.records)

    def test_events_are_contiguous_timeline(self, profile):
        complete = [e for e in trace_events(profile) if e["ph"] == "X"]
        cursor = 0.0
        for event in complete:
            assert event["ts"] == pytest.approx(cursor, abs=0.01)
            cursor += event["dur"]
        assert cursor == pytest.approx(profile.total_latency_ms * 1e3, rel=0.01)

    def test_export_roundtrips_as_json(self, profile, tmp_path):
        path = export_chrome_trace(profile, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["otherData"]["model"] == "gpt2"
        assert payload["traceEvents"]
        groups = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "GEMM-based" in groups and "Activation" in groups


def _noop(*args):
    """A registration that must never land."""


class _NamelessFlow(TensorRTFlow):
    name = ""


#: every registration path that once accepted an empty name silently.
EMPTY_NAME_REGISTRATIONS = {
    "trace": (ServingError, lambda: register_trace("", _noop)),
    "fault-profile": (ServingError, lambda: register_fault_profile(" ", _noop)),
    "transform": (RegistryError, lambda: register_transform("", _noop)),
    "device": (RegistryError, lambda: register_device(replace(A100, name=""))),
    "flow": (RegistryError, lambda: register_flow(_NamelessFlow)),
    "platform": (RegistryError, lambda: register_platform(Platform("", "x", cpu=EPYC_7763))),
    "model": (
        RegistryError,
        lambda: register_model(ModelEntry("", TaskDomain.NLP, _noop, None, "none", "0")),
    ),
}


@pytest.mark.parametrize("kind", sorted(EMPTY_NAME_REGISTRATIONS))
def test_empty_registration_names_rejected(kind):
    error, register = EMPTY_NAME_REGISTRATIONS[kind]
    with pytest.raises(error, match="declares no name"):
        register()
