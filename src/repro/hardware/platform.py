"""Hardware platforms: an ordered set of devices plus an interconnect topology.

Mirrors the paper's Table III — Platform A is the data-center machine
(EPYC 7763 + A100) and Platform B the workstation (i9-13900K + RTX 4090) —
and extends it with Platform C, an edge SoC (Ryzen 9 7940HS big-core CPU +
XDNA NPU + Radeon 780M iGPU) built from published numbers.

A platform holds at most one device per :class:`~repro.hardware.device.DeviceKind`
and a directed link table; :meth:`Platform.transfer_time` replaces the old
single-PCIe assumption with a per-pair lookup (asymmetric links supported,
same-device transfers are free).  Platforms live in a
:class:`~repro.registry.Registry`: :func:`register_platform`,
:func:`get_platform`, :func:`list_platforms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.errors import RegistryError
from repro.hardware.calibration import PCIE_BANDWIDTH, PCIE_LATENCY_S
from repro.hardware.device import (
    A100,
    EPYC_7763,
    I9_13900K,
    RADEON_780M,
    RTX4090,
    RYZEN_7940HS,
    XDNA_NPU,
    DeviceKind,
    DeviceSpec,
)
from repro.registry import Registry

#: suffix reserved for :meth:`Platform.cpu_only` derived platform ids;
#: :func:`register_platform` rejects it so derived ids can never collide
#: with (or shadow) a registered platform.
CPU_ONLY_SUFFIX = "-cpu"


@dataclass(frozen=True)
class Link:
    """One directed interconnect between two devices of a platform."""

    bandwidth: float
    latency_s: float

    def time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` over this link."""
        return self.latency_s + nbytes / self.bandwidth


class Platform:
    """One benchmarking machine: an ordered device set and its link table.

    ``devices`` holds at most one :class:`DeviceSpec` per kind (so a kind
    names a device unambiguously, the way placement targets do).  ``links``
    maps directed ``(src_kind, dst_kind)`` pairs to :class:`Link`\\ s; pairs
    without an entry fall back to the reverse direction, then to the host
    PCIe link (``pcie_bandwidth``/``pcie_latency_s``), preserving the
    historical CPU<->GPU behavior bit-for-bit.

    The legacy two-device constructor shape (``cpu=``, ``gpu=``) keeps
    working: it builds the equivalent ordered device set.
    """

    def __init__(
        self,
        platform_id: str,
        description: str,
        cpu: DeviceSpec | None = None,
        gpu: DeviceSpec | None = None,
        pcie_bandwidth: float = PCIE_BANDWIDTH,
        pcie_latency_s: float = PCIE_LATENCY_S,
        devices: Iterable[DeviceSpec] = (),
        links: Mapping[tuple[DeviceKind, DeviceKind], Link] | None = None,
    ):
        resolved = tuple(devices)
        if resolved and (cpu is not None or gpu is not None):
            raise RegistryError(
                f"platform {platform_id!r} mixes the legacy cpu=/gpu= arguments"
                " with an explicit devices= set; declare every device in one place"
            )
        if not resolved:
            resolved = tuple(d for d in (cpu, gpu) if d is not None)
        if not resolved:
            raise RegistryError(f"platform {platform_id!r} declares no devices")
        by_kind: dict[DeviceKind, DeviceSpec] = {}
        for spec in resolved:
            if spec.kind in by_kind:
                raise RegistryError(
                    f"platform {platform_id!r} declares two {spec.kind.value} devices"
                    f" ({by_kind[spec.kind].name}, {spec.name})"
                )
            by_kind[spec.kind] = spec
        if DeviceKind.CPU not in by_kind:
            raise RegistryError(f"platform {platform_id!r} has no host CPU")
        self.platform_id = platform_id
        self.description = description
        self.devices = resolved
        self.pcie_bandwidth = pcie_bandwidth
        self.pcie_latency_s = pcie_latency_s
        #: read-only: the simulator caches per-platform tables derived from
        #: the link topology, so platforms are immutable once constructed —
        #: build a new Platform (register with replace=True) for what-ifs.
        self.links: Mapping[tuple[DeviceKind, DeviceKind], Link] = MappingProxyType(
            dict(links or {})
        )
        self._by_kind = by_kind
        self._host_link = Link(bandwidth=pcie_bandwidth, latency_s=pcie_latency_s)

    # -- device lookup -------------------------------------------------------

    @property
    def cpu(self) -> DeviceSpec:
        return self._by_kind[DeviceKind.CPU]

    @property
    def gpu(self) -> DeviceSpec | None:
        return self._by_kind.get(DeviceKind.GPU)

    @property
    def npu(self) -> DeviceSpec | None:
        return self._by_kind.get(DeviceKind.NPU)

    @property
    def kinds(self) -> frozenset[DeviceKind]:
        return frozenset(self._by_kind)

    @property
    def has_gpu(self) -> bool:
        return DeviceKind.GPU in self._by_kind

    def has_device(self, kind: DeviceKind) -> bool:
        return kind in self._by_kind

    @property
    def accelerator(self) -> DeviceSpec:
        """The default accelerator: the GPU when present, else the first
        non-CPU device, else the CPU itself (CPU-only machines)."""
        gpu = self.gpu
        if gpu is not None:
            return gpu
        for spec in self.devices:
            if spec.kind is not DeviceKind.CPU:
                return spec
        return self.cpu

    def device(self, kind: DeviceKind) -> DeviceSpec:
        try:
            return self._by_kind[kind]
        except KeyError:
            raise RegistryError(
                f"platform {self.platform_id} has no {kind.value.upper()}"
            ) from None

    def cpu_only(self) -> "Platform":
        """The same machine with every accelerator removed (the paper's
        CPU-only bars): the platform itself when it has none.  A derived id
        carries the reserved ``-cpu`` suffix; :func:`get_platform` resolves
        such ids back through the registry."""
        if len(self.devices) == 1:
            return self
        derived = self.__dict__.get("_cpu_only")
        if derived is None:
            derived = Platform(
                platform_id=f"{self.platform_id}{CPU_ONLY_SUFFIX}",
                description=f"{self.description} (CPU only)",
                devices=(self.cpu,),
                pcie_bandwidth=self.pcie_bandwidth,
                pcie_latency_s=self.pcie_latency_s,
            )
            self.__dict__["_cpu_only"] = derived
        return derived

    def content_signature(self) -> str:
        """Content hash of the platform's device specs and link topology.

        Persistent serving-cost artifacts fold this into their store keys so
        an out-of-tree platform re-registered under the same id with
        different numbers can never be served another definition's entries
        (in-tree platforms are already covered by the source fingerprint,
        but the signature keeps the rule uniform).  Memoized under a
        ``_sim_``-prefixed slot so pickled platforms stay lean.
        """
        cached = self.__dict__.get("_sim_content_signature")
        if cached is None:
            import hashlib

            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                f"{self.pcie_bandwidth!r}|{self.pcie_latency_s!r}".encode()
            )
            for spec in self.devices:
                digest.update(f"\x00{spec!r}".encode())
            for (src, dst), link in sorted(
                self.links.items(), key=lambda item: (item[0][0].value, item[0][1].value)
            ):
                digest.update(
                    f"\x01{src.value}>{dst.value}:{link.bandwidth!r},{link.latency_s!r}".encode()
                )
            cached = digest.hexdigest()
            self.__dict__["_sim_content_signature"] = cached
        return cached

    # -- interconnect --------------------------------------------------------

    def link(self, src: DeviceKind, dst: DeviceKind) -> Link | None:
        """The directed link between two device kinds; None when src is dst.

        Lookup order: the exact ``(src, dst)`` entry, the reverse entry
        (symmetric links need only one declaration), then the host PCIe
        default — the historical single-link assumption.
        """
        if src is dst:
            return None
        entry = self.links.get((src, dst))
        if entry is None:
            entry = self.links.get((dst, src))
        return entry if entry is not None else self._host_link

    def transfer_time(
        self,
        src: "DeviceKind | int",
        dst: DeviceKind | None = None,
        nbytes: int | None = None,
    ) -> float:
        """Copy time for ``nbytes`` over the ``src -> dst`` link.

        Same-device transfers are free.  The legacy one-argument form
        ``transfer_time(nbytes)`` remains supported and prices the host PCIe
        link, exactly as the old CPU-plus-GPU model did.
        """
        if dst is None and nbytes is None:
            return self._host_link.time(int(src))  # legacy: transfer_time(nbytes)
        assert isinstance(src, DeviceKind) and dst is not None and nbytes is not None
        link = self.link(src, dst)
        if link is None:
            return 0.0
        return link.time(nbytes)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(spec.name for spec in self.devices)
        return f"<Platform {self.platform_id}: {names}>"

    def __getstate__(self) -> dict:
        # drop derived caches (simulator tables, cpu_only variant) so pickled
        # platforms — e.g. inside pool-shipped ProfileResults — stay lean,
        # and unwrap the links mapping proxy (proxies don't pickle).
        state = dict(self.__dict__)
        for key in tuple(state):
            if key.startswith("_sim_") or key == "_cpu_only":
                del state[key]
        state["links"] = dict(self.links)
        return state

    def __setstate__(self, state: dict) -> None:
        state["links"] = MappingProxyType(state["links"])
        self.__dict__.update(state)


#: Platform A — data center class (paper Table III row A).
PLATFORM_A = Platform(
    platform_id="A",
    description="Data Center: AMD EPYC 7763 + NVIDIA A100 80GB",
    cpu=EPYC_7763,
    gpu=A100,
)

#: Platform B — workstation class (paper Table III row B).
PLATFORM_B = Platform(
    platform_id="B",
    description="Workstation: Intel i9-13900K + NVIDIA RTX 4090",
    cpu=I9_13900K,
    gpu=RTX4090,
)

#: Platform C — edge SoC class (beyond the paper's table): one shared DDR5
#: pool behind a big-core CPU, an XDNA NPU, and an RDNA3 iGPU.  The link
#: table models the SoC fabric: CPU<->iGPU traffic is a same-die copy
#: through the shared memory controller; NPU traffic goes over a fabric DMA
#: whose read and write paths differ (reads from NPU-local tiles are
#: slightly faster than host-initiated writes into them, hence the
#: asymmetric pair); iGPU<->NPU traffic bounces through host memory.
PLATFORM_C = Platform(
    platform_id="C",
    description="Edge SoC: AMD Ryzen 9 7940HS + XDNA NPU + Radeon 780M iGPU",
    devices=(RYZEN_7940HS, XDNA_NPU, RADEON_780M),
    links={
        (DeviceKind.CPU, DeviceKind.GPU): Link(bandwidth=50e9, latency_s=3e-6),
        (DeviceKind.CPU, DeviceKind.NPU): Link(bandwidth=25e9, latency_s=25e-6),
        (DeviceKind.NPU, DeviceKind.CPU): Link(bandwidth=30e9, latency_s=20e-6),
        (DeviceKind.GPU, DeviceKind.NPU): Link(bandwidth=15e9, latency_s=30e-6),
    },
)


PLATFORM_REGISTRY: Registry[Platform] = Registry("platform")


def register_platform(platform: Platform, replace: bool = False) -> Platform:
    """Register a platform under its id; returns the platform.

    Ids ending in the reserved ``-cpu`` suffix are rejected: those name
    :meth:`Platform.cpu_only` derivations, which :func:`get_platform`
    resolves from the base platform instead of storing.
    """
    pid = platform.platform_id
    if pid.casefold().endswith(CPU_ONLY_SUFFIX):
        raise RegistryError(
            f"platform id {pid!r} uses the reserved {CPU_ONLY_SUFFIX!r} suffix"
            " (derived CPU-only variants); register the base platform instead"
        )
    return PLATFORM_REGISTRY.register(pid, platform, replace)


for _platform in (PLATFORM_A, PLATFORM_B, PLATFORM_C):
    register_platform(_platform)


def get_platform(platform_id: str) -> Platform:
    """Look up a registered platform by id (case-insensitive).

    Ids with the reserved ``-cpu`` suffix resolve to the base platform's
    :meth:`Platform.cpu_only` derivation, so ``get_platform("A-cpu")`` works
    and a registered platform can never be shadowed by a derived id.
    """
    if isinstance(platform_id, str) and platform_id.casefold().endswith(CPU_ONLY_SUFFIX):
        base = platform_id[: -len(CPU_ONLY_SUFFIX)]
        if base in PLATFORM_REGISTRY:
            return PLATFORM_REGISTRY.get(base).cpu_only()
    return PLATFORM_REGISTRY.get(platform_id)


def resolve_target(platform: Platform, target: DeviceKind) -> tuple[Platform, DeviceKind]:
    """The effective (platform, target) pair of a placement request.

    The one place that decides it: a target the platform lacks falls back
    to the host CPU, and a CPU target runs on the platform's
    accelerator-free :meth:`Platform.cpu_only` derivation (the paper's
    CPU-only bars), so idle accelerators are never charged.  Idempotent.
    """
    if not isinstance(target, DeviceKind):
        raise RegistryError(f"placement target must be a DeviceKind, got {target!r}")
    if not platform.has_device(target):
        target = DeviceKind.CPU
    if target is DeviceKind.CPU:
        platform = platform.cpu_only()
    return platform, target


list_platforms = PLATFORM_REGISTRY.values
