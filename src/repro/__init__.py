"""NonGEMM Bench (reproduction): operator-level GEMM/non-GEMM performance
characterization of modern ML inference.

Public API quick reference::

    from repro import build_model, profile_graph
    from repro.flows import get_flow
    from repro.hardware import PLATFORM_A

    profile = profile_graph(build_model("gpt2"), get_flow("pytorch"), PLATFORM_A)
    print(profile.describe())

Grids of such profiles run through :mod:`repro.sweep` (``SweepSpec`` and
``SweepRunner``), and the paper's figures and tables through
:mod:`repro.analysis`.  README.md describes the architecture layer by
layer.
"""

from repro.errors import (
    ConfigError,
    ExecutionError,
    GraphError,
    PlanError,
    RegistryError,
    ReproError,
    ShapeError,
)
from repro.ir import DType, Graph, TensorSpec
from repro.models import PAPER_MODELS, build_model, get_model, list_models, register_model
from repro.profiler import ProfileResult, profile_graph
from repro.quant import quantize_llm_int8

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "DType",
    "ExecutionError",
    "Graph",
    "GraphError",
    "PAPER_MODELS",
    "PlanError",
    "ProfileResult",
    "RegistryError",
    "ReproError",
    "ShapeError",
    "TensorSpec",
    "__version__",
    "build_model",
    "get_model",
    "list_models",
    "profile_graph",
    "quantize_llm_int8",
    "register_model",
]
