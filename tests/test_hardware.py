"""Unit tests for the hardware layer: devices, platforms, roofline, energy."""

import numpy as np
import pytest

from repro.errors import RegistryError
from repro.hardware import (
    A100,
    EPYC_7763,
    PLATFORM_A,
    PLATFORM_B,
    PLATFORM_C,
    RYZEN_7940HS,
    XDNA_NPU,
    DeviceKind,
    Link,
    Platform,
    as_device_kind,
    dispatch_profile,
    efficiency_for,
    efficiency_for_kind,
    gemm_saturation,
    get_device,
    get_platform,
    list_platforms,
    register_device,
    register_platform,
    resolve_target,
)
from repro.ir.dtype import DType
from repro.ops.base import OpCategory, OpCost

from oracles import EnergyAccumulator, estimate_kernel


class TestDevices:
    def test_presets_lookup(self):
        assert get_device("nvidia-a100-80gb") is A100
        with pytest.raises(RegistryError):
            get_device("tpu-v9")

    def test_gemm_peak_by_dtype(self):
        assert A100.gemm_peak(DType.I8) == 624e12  # paper Table III
        assert A100.gemm_peak(DType.F16) == 312e12
        assert A100.gemm_peak(DType.F32) < A100.gemm_peak(DType.F16)

    def test_cpu_has_no_launch_overhead(self):
        assert EPYC_7763.kernel_launch_s == 0.0
        assert not EPYC_7763.is_gpu


class TestPlatforms:
    def test_paper_platforms(self):
        assert PLATFORM_A.cpu.name == "amd-epyc-7763"
        assert PLATFORM_A.gpu.name == "nvidia-a100-80gb"
        assert PLATFORM_B.gpu.name == "nvidia-rtx-4090"
        assert get_platform("a") is PLATFORM_A

    def test_cpu_only_variant(self):
        cpu_only = PLATFORM_A.cpu_only()
        assert not cpu_only.has_gpu
        assert cpu_only.accelerator is PLATFORM_A.cpu
        with pytest.raises(RegistryError):
            cpu_only.device(DeviceKind.GPU)

    def test_transfer_time_scales_with_bytes(self):
        small = PLATFORM_A.transfer_time(1024)
        large = PLATFORM_A.transfer_time(1024 * 1024 * 100)
        assert large > small > 0


class TestResolveTarget:
    """``resolve_target`` is the one place the effective (platform, target)
    pair is decided."""

    @pytest.mark.parametrize("platform", list_platforms(), ids=lambda p: p.platform_id)
    @pytest.mark.parametrize("kind", list(DeviceKind), ids=lambda k: k.value)
    def test_idempotent_and_ids_round_trip(self, platform, kind):
        resolved, target = resolve_target(platform, kind)
        assert resolve_target(resolved, target) == (resolved, target)
        assert get_platform(resolved.platform_id) is resolved
        assert resolved.has_device(target)
        # a CPU run never carries an idle accelerator
        if target is DeviceKind.CPU:
            assert resolved.kinds == {DeviceKind.CPU}
        else:
            assert target is kind and resolved is platform

    def test_cpu_only_of_an_accelerator_free_platform_is_itself(self):
        derived = PLATFORM_A.cpu_only()
        assert derived.cpu_only() is derived
        assert derived.platform_id == "A-cpu"
        solo = Platform("solo-cpu-test", "host only", cpu=EPYC_7763)
        assert solo.cpu_only() is solo

    @pytest.mark.parametrize("target", [True, False, "gpu"])
    def test_rejects_anything_but_a_device_kind(self, target):
        with pytest.raises(RegistryError, match="DeviceKind"):
            resolve_target(PLATFORM_A, target)


class TestDeviceKinds:
    def test_as_device_kind_parses_device_modes(self):
        assert as_device_kind("npu") is DeviceKind.NPU
        assert as_device_kind("cpu") is DeviceKind.CPU
        with pytest.raises(RegistryError, match="tpu"):
            as_device_kind("tpu")

    @pytest.mark.parametrize("value", [True, False, "GPU", "Cpu"])
    def test_as_device_kind_rejects_booleans_and_other_cases(self, value):
        # one case rule at every config edge: the lower-case device modes
        with pytest.raises(RegistryError, match="unknown device mode"):
            as_device_kind(value)

    def test_async_dispatch_per_kind(self):
        assert A100.async_dispatch and XDNA_NPU.async_dispatch
        assert not EPYC_7763.async_dispatch

    def test_npu_efficiency_table(self):
        gemm = efficiency_for_kind(OpCategory.GEMM, DeviceKind.NPU)
        misc = efficiency_for_kind(OpCategory.MISC, DeviceKind.NPU)
        assert gemm.compute > 3 * misc.compute  # matrix engine, not much else
        # CPU/GPU kind lookups read the exact historical tables
        for category in OpCategory:
            assert efficiency_for_kind(category, DeviceKind.GPU) == efficiency_for(
                category, is_gpu=True
            )
            assert efficiency_for_kind(category, DeviceKind.CPU) == efficiency_for(
                category, is_gpu=False
            )

    def test_dispatch_for_npu_defaults_to_gpu_overheads(self):
        profile = dispatch_profile("ort")
        assert profile.dispatch_for(DeviceKind.NPU, False) == profile.gpu_kernel
        assert profile.dispatch_for(DeviceKind.GPU, True) == profile.gpu_metadata
        assert profile.dispatch_for(DeviceKind.CPU, False) == profile.cpu_kernel

    def test_register_device_rejects_duplicates(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_device(A100)


class TestPlatformC:
    def test_three_devices_one_per_kind(self):
        assert len(PLATFORM_C.devices) == 3
        assert PLATFORM_C.kinds == {DeviceKind.CPU, DeviceKind.GPU, DeviceKind.NPU}
        assert PLATFORM_C.cpu is RYZEN_7940HS
        assert PLATFORM_C.npu is XDNA_NPU
        assert PLATFORM_C.device(DeviceKind.NPU).kind is DeviceKind.NPU

    def test_registered_and_listed(self):
        assert get_platform("c") is PLATFORM_C
        assert PLATFORM_C in list_platforms()

    def test_duplicate_kind_rejected(self):
        with pytest.raises(RegistryError, match="two cpu devices"):
            Platform("dup", "two hosts", devices=(EPYC_7763, RYZEN_7940HS))

    def test_platform_requires_host_cpu(self):
        with pytest.raises(RegistryError, match="no host CPU"):
            Platform("headless", "gpu only", devices=(A100,))

    def test_mixed_constructor_forms_rejected(self):
        with pytest.raises(RegistryError, match="mixes"):
            Platform("mixed", "both forms", cpu=EPYC_7763, devices=(XDNA_NPU,))

    def test_links_are_read_only(self):
        with pytest.raises(TypeError):
            PLATFORM_C.links[(DeviceKind.CPU, DeviceKind.NPU)] = Link(1e9, 1e-6)

    def test_platform_pickles_round_trip(self):
        import pickle

        clone = pickle.loads(pickle.dumps(PLATFORM_C))
        assert clone.platform_id == "C"
        assert clone.kinds == PLATFORM_C.kinds
        one_mb = 1024 * 1024
        assert clone.transfer_time(
            DeviceKind.CPU, DeviceKind.NPU, one_mb
        ) == PLATFORM_C.transfer_time(DeviceKind.CPU, DeviceKind.NPU, one_mb)


class TestTransferLinks:
    def test_same_device_transfer_is_free(self):
        for kind in DeviceKind:
            assert PLATFORM_C.transfer_time(kind, kind, 10**9) == 0.0
        assert PLATFORM_C.link(DeviceKind.CPU, DeviceKind.CPU) is None

    def test_asymmetric_npu_links(self):
        one_mb = 1024 * 1024
        down = PLATFORM_C.transfer_time(DeviceKind.CPU, DeviceKind.NPU, one_mb)
        back = PLATFORM_C.transfer_time(DeviceKind.NPU, DeviceKind.CPU, one_mb)
        assert down != back
        assert down == pytest.approx(25e-6 + one_mb / 25e9)
        assert back == pytest.approx(20e-6 + one_mb / 30e9)

    def test_reverse_entry_serves_undeclared_direction(self):
        # only (gpu, npu) is declared; the reverse reads the same link
        forward = PLATFORM_C.link(DeviceKind.GPU, DeviceKind.NPU)
        assert PLATFORM_C.link(DeviceKind.NPU, DeviceKind.GPU) is forward

    def test_undeclared_pair_falls_back_to_host_link(self):
        # A/B declare no links: every pair prices as the historical PCIe hop
        nbytes = 4096
        assert PLATFORM_A.transfer_time(
            DeviceKind.GPU, DeviceKind.CPU, nbytes
        ) == PLATFORM_A.transfer_time(nbytes)

    def test_link_time_formula(self):
        link = Link(bandwidth=10e9, latency_s=5e-6)
        assert link.time(10**9) == pytest.approx(5e-6 + 0.1)


class TestPlatformRegistry:
    def test_lowercase_registered_id_is_reachable(self):
        edge = Platform("edge-soc-test", "lowercase id", cpu=RYZEN_7940HS)
        register_platform(edge, replace=True)
        assert get_platform("edge-soc-test") is edge
        assert get_platform("EDGE-SOC-TEST") is edge

    def test_reserved_cpu_suffix_rejected(self):
        with pytest.raises(RegistryError, match="reserved"):
            register_platform(Platform("X-cpu", "derived id", cpu=EPYC_7763))

    def test_cpu_only_ids_resolve_through_registry(self):
        derived = get_platform("A-cpu")
        assert derived.platform_id == "A-cpu"
        assert not derived.has_gpu
        assert derived is PLATFORM_A.cpu_only()
        with pytest.raises(RegistryError, match="unknown platform"):
            get_platform("Z-cpu")

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_platform(Platform("A", "twin", cpu=EPYC_7763))


class TestDeviceEnergy:
    def _energy(self, device, mask, utilization, device_s, wall_s):
        from repro.runtime.simulator import _device_energy

        return _device_energy(
            device,
            np.asarray(mask, dtype=bool),
            np.asarray(utilization, dtype=np.float64),
            np.asarray(device_s, dtype=np.float64),
            wall_s,
        )

    def test_idle_floor_with_no_kernels(self):
        assert self._energy(A100, [], [], [], 2.0) == pytest.approx(
            A100.idle_power_w * 2.0
        )

    def test_zero_utilization_draws_idle_only(self):
        joules = self._energy(A100, [True], [0.0], [1e-3], 1e-3)
        assert joules == pytest.approx(A100.idle_power_w * 1e-3)

    def test_metadata_only_kernels_add_no_dynamic_power(self):
        # metadata-only kernels have device_s == 0, so the mask is irrelevant
        joules = self._energy(A100, [True, True], [0.0, 1.0], [0.0, 0.0], 1e-3)
        assert joules == pytest.approx(A100.idle_power_w * 1e-3)

    def test_idle_dynamic_split(self):
        wall, busy = 2e-3, 1e-3
        joules = self._energy(A100, [True], [1.0], [busy], wall)
        expected = A100.idle_power_w * wall + (
            A100.peak_power_w - A100.idle_power_w
        ) * busy
        assert joules == pytest.approx(expected)

    def test_other_devices_kernels_masked_out(self):
        joules = self._energy(A100, [False], [1.0], [1e-3], 1e-3)
        assert joules == pytest.approx(A100.idle_power_w * 1e-3)

    def test_matches_accumulator(self):
        cost = OpCost(flops=10**11, bytes_read=10**7, bytes_written=10**7)
        est = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=1e-6)
        acc = EnergyAccumulator(A100)
        acc.add_kernel(est)
        vectorized = self._energy(
            A100, [True], [est.utilization], [est.device_s], est.total_s
        )
        assert vectorized == acc.total_j(est.total_s)


class TestMissingDeviceError:
    def test_vectorized_error_names_kernels_and_kind(self):
        from repro.flows import get_flow
        from repro.models import build_model
        from repro.runtime.simulator import simulate

        plan = get_flow("npu-offload").lower(
            build_model("swin-t", batch_size=1), target=DeviceKind.NPU
        )
        with pytest.raises(RegistryError, match="has no NPU") as excinfo:
            simulate(plan, PLATFORM_A)
        message = str(excinfo.value)
        assert "npu-offload" in message
        # at least one offending kernel is named
        npu_kernels = [k.name for k in plan.kernels if k.device is DeviceKind.NPU]
        assert any(name in message for name in npu_kernels[:5])


class TestRoofline:
    def test_compute_bound_gemm(self):
        cost = OpCost(flops=10**12, bytes_read=10**6, bytes_written=10**6)
        est = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=5e-6)
        assert est.bound == "compute"
        assert est.compute_s > est.memory_s

    def test_memory_bound_elementwise(self):
        cost = OpCost(flops=10**6, bytes_read=10**9, bytes_written=10**9)
        est = estimate_kernel(A100, OpCategory.ELEMENTWISE, cost, DType.F32, dispatch_s=5e-6)
        assert est.bound == "memory"

    def test_dispatch_bound_small_kernel(self):
        cost = OpCost(flops=100, bytes_read=100, bytes_written=100)
        est = estimate_kernel(A100, OpCategory.ELEMENTWISE, cost, DType.F32, dispatch_s=20e-6)
        assert est.bound == "dispatch"
        assert est.total_s == pytest.approx(20e-6)

    def test_metadata_only_costs_dispatch(self):
        est = estimate_kernel(
            A100, OpCategory.MEMORY, OpCost(), DType.F32, dispatch_s=4e-6, metadata_only=True
        )
        assert est.total_s == pytest.approx(4e-6)
        assert est.device_s == 0.0

    def test_launch_count_multiplies_overheads(self):
        cost = OpCost(flops=1000, bytes_read=1000, bytes_written=1000)
        one = estimate_kernel(A100, OpCategory.NORMALIZATION, cost, DType.F32, dispatch_s=5e-6)
        six = estimate_kernel(
            A100, OpCategory.NORMALIZATION, cost, DType.F32, dispatch_s=5e-6, launch_count=6
        )
        assert six.total_s == pytest.approx(6 * one.total_s, rel=0.2)

    def test_custom_kernel_penalty_slows(self):
        cost = OpCost(flops=10**7, bytes_read=10**8, bytes_written=10**8)
        normal = estimate_kernel(A100, OpCategory.NORMALIZATION, cost, DType.F32, dispatch_s=1e-6)
        custom = estimate_kernel(
            A100, OpCategory.NORMALIZATION, cost, DType.F32, dispatch_s=1e-6, is_custom=True
        )
        assert custom.total_s > normal.total_s

    def test_cpu_adds_dispatch_serially(self):
        cost = OpCost(flops=10**9, bytes_read=10**7, bytes_written=10**7)
        est = estimate_kernel(EPYC_7763, OpCategory.GEMM, cost, DType.F32, dispatch_s=5e-6)
        assert est.total_s > max(est.compute_s, est.memory_s)  # includes dispatch

    def test_int8_faster_than_f16_gemm(self):
        cost = OpCost(flops=10**11, bytes_read=10**7, bytes_written=10**7)
        f16 = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=1e-6)
        i8 = estimate_kernel(A100, OpCategory.GEMM, cost, DType.I8, dispatch_s=1e-6)
        assert i8.total_s < f16.total_s

    def test_tf32_scale_applies_to_f32_only(self):
        cost = OpCost(flops=10**11, bytes_read=10**6, bytes_written=10**6)
        base = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F32, dispatch_s=1e-6)
        tf32 = estimate_kernel(
            A100, OpCategory.GEMM, cost, DType.F32, dispatch_s=1e-6, gemm_peak_scale_f32=8.0
        )
        f16 = estimate_kernel(
            A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=1e-6, gemm_peak_scale_f32=8.0
        )
        f16_base = estimate_kernel(A100, OpCategory.GEMM, cost, DType.F16, dispatch_s=1e-6)
        assert tf32.compute_s < base.compute_s
        assert f16.compute_s == pytest.approx(f16_base.compute_s)


class TestSaturation:
    def test_half_efficiency_at_saturation_point(self):
        assert gemm_saturation(100, 100) == pytest.approx(0.5)

    def test_large_problems_approach_one(self):
        assert gemm_saturation(10**12, 800e6) > 0.999

    def test_zero_saturation_disables(self):
        assert gemm_saturation(10, 0) == 1.0

    def test_small_gemm_runs_below_peak(self):
        small = OpCost(flops=10**7, bytes_read=10**4, bytes_written=10**4)
        big = OpCost(flops=10**12, bytes_read=10**4, bytes_written=10**4)
        est_small = estimate_kernel(A100, OpCategory.GEMM, small, DType.F16, dispatch_s=0.0)
        est_big = estimate_kernel(A100, OpCategory.GEMM, big, DType.F16, dispatch_s=0.0)
        rate_small = small.flops / est_small.compute_s
        rate_big = big.flops / est_big.compute_s
        assert rate_small < rate_big / 10


class TestDispatchProfiles:
    def test_eager_slower_than_engine(self):
        eager = dispatch_profile("eager")
        engine = dispatch_profile("engine")
        assert eager.gpu_kernel > engine.gpu_kernel

    def test_metadata_cheaper_than_kernel(self):
        for name in ("eager", "compiled", "engine", "ort"):
            profile = dispatch_profile(name)
            assert profile.gpu_metadata < profile.gpu_kernel
            assert profile.cpu_metadata < profile.cpu_kernel

    def test_unknown_profile(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            dispatch_profile("jit")


class TestEnergy:
    def test_energy_grows_with_utilization(self):
        cost_hot = OpCost(flops=10**12, bytes_read=10**6, bytes_written=10**6)
        est_hot = estimate_kernel(A100, OpCategory.GEMM, cost_hot, DType.F16, dispatch_s=0.0)
        acc = EnergyAccumulator(A100)
        acc.add_kernel(est_hot)
        hot_j = acc.total_j(est_hot.total_s)
        idle_j = A100.idle_power_w * est_hot.total_s
        assert hot_j > idle_j

    def test_idle_floor(self):
        acc = EnergyAccumulator(A100)
        assert acc.total_j(1.0) == pytest.approx(A100.idle_power_w)
