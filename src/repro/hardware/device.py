"""Device specifications for the analytic performance model.

Each :class:`DeviceSpec` captures the handful of published numbers the
roofline model needs: peak GEMM throughput per precision, vector (non-GEMM)
throughput, memory bandwidth, kernel-launch latency, and power envelope.
The four devices of the paper's Table III ship as presets, plus the three
devices of the edge SoC Platform C (big-core CPU + NPU + integrated GPU).

Devices are grouped into :class:`DeviceKind` classes — CPU, GPU, NPU — which
is what placement policies, the sweep ``device`` axis, and the simulator's
per-kind parameter tables speak.  :func:`register_device` adds presets to the
registry the same way :func:`repro.flows.register_flow` does for flows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import RegistryError
from repro.ir.dtype import DType
from repro.registry import Registry


class DeviceKind(enum.Enum):
    """Device classes the placement and simulation layers can target.

    The member order is load-bearing: it defines the row order of the
    simulator's per-kind parameter tables and the integer codes in the plan
    arrays, so new kinds must be appended, never inserted.
    """

    CPU = "cpu"
    GPU = "gpu"
    NPU = "npu"


#: every named placement target, spelled exactly as the config edges accept
#: it (lower case): the sweep's ``device`` axis, a point's ``device`` and the
#: serving ``device`` knob.
DEVICE_MODES = tuple(kind.value for kind in DeviceKind)
#: the knob ``check`` (see :mod:`repro.knobs`) of a device-mode string.
DEVICE_MODE = (f"one of {', '.join(DEVICE_MODES)}", DEVICE_MODES.__contains__)


def as_device_kind(mode: str) -> DeviceKind:
    """Parse a device-mode string (one of :data:`DEVICE_MODES`).

    Config edges call this once; every API below them takes a
    :class:`DeviceKind`.
    """
    try:
        return DeviceKind(mode)
    except ValueError:
        raise RegistryError(
            f"unknown device mode {mode!r}; known: {', '.join(DEVICE_MODES)}"
        ) from None


@dataclass(frozen=True)
class DeviceSpec:
    """Performance-relevant description of one processor.

    ``gemm_flops_*`` are peak matrix-engine throughputs (tensor cores / FMA
    units running dense GEMM); ``vector_flops`` is the peak for elementwise
    and reduction kernels.  ``kernel_launch_s`` is the fixed device-side cost
    of starting one kernel (zero for CPUs, where the caller runs inline).
    """

    name: str
    kind: DeviceKind
    gemm_flops_f32: float
    gemm_flops_f16: float
    gemm_flops_i8: float
    vector_flops: float
    mem_bandwidth: float
    kernel_launch_s: float
    idle_power_w: float
    peak_power_w: float
    #: GEMM problem size (flops) at which matrix engines reach half of peak;
    #: models the poor occupancy of small batched GEMMs (see calibration).
    gemm_saturation_flops: float = 0.0

    def gemm_peak(self, dtype: DType) -> float:
        """Peak GEMM throughput for a given accumulation precision."""
        if dtype == DType.I8:
            return self.gemm_flops_i8
        if dtype in (DType.F16, DType.BF16):
            return self.gemm_flops_f16
        return self.gemm_flops_f32

    @property
    def is_gpu(self) -> bool:
        return self.kind is DeviceKind.GPU

    @property
    def async_dispatch(self) -> bool:
        """True when host dispatch overlaps device work (GPU/NPU command
        queues); CPUs run kernels inline on the dispatching thread."""
        return self.kind is not DeviceKind.CPU


# -- presets (Table III of the paper) ---------------------------------------

#: NVIDIA A100 80GB (PCIe).  The f32 entry is the non-tensor-core rate —
#: PyTorch has shipped with TF32 matmul *disabled* by default since 1.12, so
#: eager fp32 Linear/BMM run on the FP32 pipes.  624 TOPS int8 matches the
#: paper's Table III.
A100 = DeviceSpec(
    name="nvidia-a100-80gb",
    kind=DeviceKind.GPU,
    gemm_flops_f32=19.5e12,
    gemm_flops_f16=312e12,
    gemm_flops_i8=624e12,
    vector_flops=19.5e12,
    mem_bandwidth=2.0e12,
    kernel_launch_s=4.0e-6,
    idle_power_w=60.0,
    peak_power_w=300.0,
    gemm_saturation_flops=800e6,
)

#: NVIDIA RTX 4090 24GB: 660 TOPS int8 per the paper's table.
RTX4090 = DeviceSpec(
    name="nvidia-rtx-4090",
    kind=DeviceKind.GPU,
    gemm_flops_f32=82.6e12,
    gemm_flops_f16=330e12,
    gemm_flops_i8=660e12,
    vector_flops=41.3e12,
    mem_bandwidth=1.008e12,
    kernel_launch_s=3.5e-6,
    idle_power_w=30.0,
    peak_power_w=450.0,
    gemm_saturation_flops=600e6,
)

#: AMD EPYC 7763: 64 Zen3 cores, AVX2 FMA; 8-channel DDR4-3200.
EPYC_7763 = DeviceSpec(
    name="amd-epyc-7763",
    kind=DeviceKind.CPU,
    gemm_flops_f32=4.9e12,
    gemm_flops_f16=4.9e12,  # no fast fp16 path on Zen3; runs at f32 rate
    gemm_flops_i8=9.8e12,   # VNNI-less int8 via AVX2 packing
    vector_flops=1.2e12,
    mem_bandwidth=204.8e9,
    kernel_launch_s=0.0,
    idle_power_w=100.0,
    peak_power_w=280.0,
    # 64 cores need large GEMMs to amortise threading/synchronisation; small
    # attention-sized GEMMs run at a fraction of peak on many-core CPUs.
    gemm_saturation_flops=350e6,
)

#: Intel i9-13900K: 8P+16E cores; 2-channel DDR5-5600.
I9_13900K = DeviceSpec(
    name="intel-i9-13900k",
    kind=DeviceKind.CPU,
    gemm_flops_f32=1.8e12,
    gemm_flops_f16=1.8e12,
    gemm_flops_i8=3.6e12,
    vector_flops=0.6e12,
    mem_bandwidth=89.6e9,
    kernel_launch_s=0.0,
    idle_power_w=30.0,
    peak_power_w=253.0,
    gemm_saturation_flops=80e6,
)


# -- edge SoC presets (Platform C) ------------------------------------------

#: AMD Ryzen 9 7940HS (Phoenix): 8 Zen4 cores @ 4.0 GHz sustained, AVX-512
#: via double-pumped 256-bit datapaths (32 f32 flops/cycle/core ~= 1.0 Tflop/s
#: all-core) with AVX-512 VNNI for int8; 2-channel DDR5-5600 shared with the
#: iGPU and NPU.  35-54 W configurable TDP.
RYZEN_7940HS = DeviceSpec(
    name="amd-ryzen-9-7940hs",
    kind=DeviceKind.CPU,
    gemm_flops_f32=1.0e12,
    gemm_flops_f16=1.0e12,  # no fast fp16 FMA path; runs at f32 rate
    gemm_flops_i8=4.0e12,   # AVX-512 VNNI
    vector_flops=0.35e12,
    mem_bandwidth=89.6e9,
    kernel_launch_s=0.0,
    idle_power_w=8.0,
    peak_power_w=54.0,
    # 8 mobile cores saturate on much smaller GEMMs than a 64-core EPYC
    gemm_saturation_flops=40e6,
)

#: AMD XDNA NPU (Phoenix): 10 TOPS int8 published, bf16 at half rate.  There
#: is no fp32 datapath — NPU deployment toolchains cast fp32 GEMMs to bf16
#: (the standard Vitis-AI / ONNX-EP path), so the f32 entry is the bf16
#: rate.  A pure matrix engine otherwise: the AIE tiles' scalar/vector units
#: are tiny next to the systolic arrays, kernel dispatch goes through a
#: driver round trip, and operands stream over a fabric DMA — exactly the
#: profile that makes non-GEMM offload unprofitable.
XDNA_NPU = DeviceSpec(
    name="amd-xdna-npu",
    kind=DeviceKind.NPU,
    gemm_flops_f32=5.0e12,
    gemm_flops_f16=5.0e12,
    gemm_flops_i8=10.0e12,
    vector_flops=0.15e12,
    mem_bandwidth=35e9,
    kernel_launch_s=30e-6,
    idle_power_w=0.3,
    peak_power_w=10.0,
    gemm_saturation_flops=150e6,
)

#: AMD Radeon 780M (RDNA3 iGPU): 12 CUs / 768 shaders @ 2.7 GHz — ~4.1
#: Tflop/s f32 (8.3 with dual-issue, rarely achieved), double-rate fp16,
#: WMMA int8.  No dedicated VRAM: it shares the SoC's DDR5 bandwidth, which
#: is the edge squeeze next to an A100's 2 TB/s of HBM.
RADEON_780M = DeviceSpec(
    name="amd-radeon-780m",
    kind=DeviceKind.GPU,
    gemm_flops_f32=4.1e12,
    gemm_flops_f16=8.3e12,
    gemm_flops_i8=16.6e12,
    vector_flops=2.0e12,
    mem_bandwidth=89.6e9,
    kernel_launch_s=6.0e-6,
    idle_power_w=2.0,
    peak_power_w=45.0,
    gemm_saturation_flops=200e6,
)


DEVICE_REGISTRY: Registry[DeviceSpec] = Registry("device")


def register_device(spec: DeviceSpec, replace: bool = False) -> DeviceSpec:
    """Register a device preset under its ``name``; returns the spec."""
    return DEVICE_REGISTRY.register(spec.name, spec, replace)


for _spec in (A100, RTX4090, EPYC_7763, I9_13900K, RYZEN_7940HS, XDNA_NPU, RADEON_780M):
    register_device(_spec)

get_device = DEVICE_REGISTRY.get
list_devices = DEVICE_REGISTRY.values
