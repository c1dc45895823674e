"""Calibration harness: per-model shares vs the paper's anchors.

Run:  python scripts/calibrate.py [--platform A|B] [--batch 1] [--models M ...]

Prints, for every paper model: CPU-only and CPU+GPU non-GEMM shares, the
dominant non-GEMM group with its share, and the paper's Table IV target for
quick visual comparison.
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import PAPER_TABLE4
from repro.flows import get_flow
from repro.hardware import DeviceKind, get_platform
from repro.models import PAPER_MODELS, build_model
from repro.profiler import profile_graph


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--platform", default="A")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--models", nargs="*", default=None)
    args = parser.parse_args()

    platform = get_platform(args.platform)
    flow = get_flow("pytorch")
    names = args.models or PAPER_MODELS

    print(
        f"{'model':14s} {'cpu ms':>9s} {'cpuNG%':>7s} {'gpu ms':>9s} {'gpuNG%':>7s}"
        f"  {'dominant group':24s} {'share':>6s}  {'paper target':>28s}"
    )
    for name in names:
        graph = build_model(name, batch_size=args.batch)
        cpu = profile_graph(
            graph, flow, platform, target=DeviceKind.CPU, batch_size=args.batch, model_name=name
        )
        gpu = profile_graph(graph, flow, platform, batch_size=args.batch, model_name=name)
        dom, share = gpu.dominant_non_gemm_group()
        target_group, target_share = PAPER_TABLE4.get(name, ("?", 0.0))
        match = "OK " if dom.value == target_group else "!! "
        print(
            f"{name:14s} {cpu.total_latency_ms:9.2f} {cpu.non_gemm_share:7.1%}"
            f" {gpu.total_latency_ms:9.2f} {gpu.non_gemm_share:7.1%}"
            f"  {dom.value:24s} {share:6.1%}  {match}{target_group:>20s} {target_share:5.1%}"
        )


if __name__ == "__main__":
    main()
