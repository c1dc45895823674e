"""Register a custom N-device platform and profile a model on it.

The hardware layer is a registry, like flows and models: a platform is an
ordered set of :class:`~repro.hardware.DeviceSpec` devices (at most one per
:class:`~repro.hardware.DeviceKind`) plus a directed link table.  This
example builds a hypothetical next-gen edge SoC — a big-core CPU, a 40-TOPS
NPU, and an integrated GPU behind one LPDDR5X pool — registers it, and
profiles a model under both the plain PyTorch flow and the GEMM-only
``npu-offload`` flow to show the non-GEMM horizon on it.

Run with ``PYTHONPATH=src python examples/custom_platform.py``.
"""

from repro.flows import get_flow
from repro.hardware import (
    DeviceKind,
    DeviceSpec,
    Link,
    Platform,
    get_platform,
    register_device,
    register_platform,
)
from repro.models import build_model
from repro.profiler import profile_graph

# -- three devices of a hypothetical 2026 edge SoC --------------------------

BIG_CPU = DeviceSpec(
    name="hypo-big-cpu",
    kind=DeviceKind.CPU,
    gemm_flops_f32=1.6e12,
    gemm_flops_f16=1.6e12,
    gemm_flops_i8=6.4e12,
    vector_flops=0.5e12,
    mem_bandwidth=136e9,  # LPDDR5X-8533, 2 channels, shared
    kernel_launch_s=0.0,
    idle_power_w=6.0,
    peak_power_w=45.0,
    gemm_saturation_flops=50e6,
)

BIG_NPU = DeviceSpec(
    name="hypo-40tops-npu",
    kind=DeviceKind.NPU,
    gemm_flops_f32=20e12,  # bf16-cast path
    gemm_flops_f16=20e12,
    gemm_flops_i8=40e12,
    vector_flops=0.4e12,
    mem_bandwidth=60e9,
    kernel_launch_s=20e-6,
    idle_power_w=0.5,
    peak_power_w=12.0,
    gemm_saturation_flops=200e6,
)

SMALL_IGPU = DeviceSpec(
    name="hypo-igpu",
    kind=DeviceKind.GPU,
    gemm_flops_f32=6.0e12,
    gemm_flops_f16=12.0e12,
    gemm_flops_i8=24.0e12,
    vector_flops=3.0e12,
    mem_bandwidth=136e9,
    kernel_launch_s=5e-6,
    idle_power_w=1.5,
    peak_power_w=35.0,
    gemm_saturation_flops=250e6,
)

# replace=True keeps re-runs in one process (e.g. the test suite) idempotent
for spec in (BIG_CPU, BIG_NPU, SMALL_IGPU):
    register_device(spec, replace=True)

HYPO_SOC = Platform(
    platform_id="hypo-soc",
    description="Hypothetical edge SoC: big CPU + 40-TOPS NPU + iGPU",
    devices=(BIG_CPU, BIG_NPU, SMALL_IGPU),
    links={
        # same-die CPU<->iGPU copies through the shared memory controller
        (DeviceKind.CPU, DeviceKind.GPU): Link(bandwidth=70e9, latency_s=2e-6),
        # fabric DMA to the NPU tiles; reads back are faster than writes in
        (DeviceKind.CPU, DeviceKind.NPU): Link(bandwidth=40e9, latency_s=15e-6),
        (DeviceKind.NPU, DeviceKind.CPU): Link(bandwidth=50e9, latency_s=12e-6),
    },
)
register_platform(HYPO_SOC, replace=True)


def main() -> None:
    platform = get_platform("hypo-soc")  # registered like any built-in
    print(f"platform {platform.platform_id}: {platform.description}")
    for spec in platform.devices:
        print(f"  {spec.kind.value:>4}: {spec.name}")
    one_mb = 1024 * 1024
    print(
        "  1 MiB cpu->npu over the fabric DMA:"
        f" {platform.transfer_time(DeviceKind.CPU, DeviceKind.NPU, one_mb) * 1e6:.1f} us"
        f" (back: {platform.transfer_time(DeviceKind.NPU, DeviceKind.CPU, one_mb) * 1e6:.1f} us)"
    )

    graph = build_model("vit-b", batch_size=1)
    cpu = profile_graph(graph, get_flow("pytorch"), platform, target=DeviceKind.CPU)
    gpu = profile_graph(graph, get_flow("pytorch"), platform, target=DeviceKind.GPU)
    npu = profile_graph(graph, get_flow("npu-offload"), platform, target=DeviceKind.NPU)
    print("\nvit-b non-GEMM share on the hypothetical SoC:")
    for label, profile in (("cpu only", cpu), ("igpu", gpu), ("npu offload", npu)):
        print(
            f"  {label:>11}: {profile.total_latency_ms:7.2f} ms,"
            f" non-GEMM {profile.non_gemm_share:.1%}"
        )
    print(
        "\nthe narrower the accelerated fraction, the wider the non-GEMM"
        " horizon — the paper's thesis, on hardware you just invented."
    )


if __name__ == "__main__":
    main()
