"""Command-line interface: ``nongemm-bench`` (or ``python -m repro.cli``).

Subcommands mirror the paper artifact's scripts:

* ``list-models``            — show the model registry (Table II).
* ``profile``                — profile one model on a platform/flow.
* ``experiment <name>``      — regenerate a figure/table (fig1..fig9, table1/4/5).
* ``sweep``                  — run a custom cross-product grid through the
  sweep engine (memoized builds/plans, vectorized simulation, optional
  process parallelism).
* ``inspect <model>``        — dump a lowered execution plan with per-pass
  provenance (which pass fused/placed/refined each kernel).
* ``workload <model>``       — static workload report (op mix, params).
* ``serve <model>``          — discrete-event serving simulation under load
  (``--list-schedulers`` discovers the batching policies).
* ``cluster <model>``        — fault-tolerant multi-replica serving: N
  replicas behind an admission policy with fault injection, retries,
  hedging, and admission control (``--list-policies``/``--list-faults``).
* ``platforms``              — list registered platforms, devices, links.
* ``cache info|clear|warm``  — manage the persistent artifact store
  (``REPRO_CACHE_DIR``) that makes fresh processes start warm.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.analysis import EXPERIMENTS
from repro.core import NonGemmReport, PerformanceReport
from repro.errors import ReproError
from repro.hardware import DeviceKind
from repro.knobs import TraceKnobs, listing, pick
from repro.models import build_model, list_models
from repro.serving import AutoscaleConfig, ClusterConfig, ServingConfig
from repro.sweep.spec import AXES, SweepPoint, SweepSpec
from repro.viz.ascii import render_stacked_bar, render_table
from repro.viz.csvout import write_csv


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nongemm-bench",
        description="NonGEMM Bench: operator-level GEMM/non-GEMM performance characterization",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list-models", help="show the model registry")
    p_list.set_defaults(handler=_cmd_list_models)

    p_prof = sub.add_parser("profile", help="profile one model")
    p_prof.add_argument("model")
    p_prof.add_argument("--flow", default="pytorch")
    p_prof.add_argument("--platform", default="A")
    p_prof.add_argument("--batch", type=int, default=1)
    p_prof.add_argument("--cpu-only", action="store_true")
    p_prof.add_argument("--iterations", type=int, default=5)
    p_prof.add_argument("--top", type=_count, default=10, help="top-N slowest kernels to list")
    p_prof.add_argument("--csv", metavar="DIR", default=None, help="also write CSV here")
    p_prof.set_defaults(handler=_cmd_profile)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--csv", metavar="DIR", default="results")
    p_exp.set_defaults(handler=_cmd_experiment)

    p_sweep = sub.add_parser("sweep", help="run a cross-product sweep via the sweep engine")
    _add_flags(p_sweep, AXES, models="paper")
    p_sweep.add_argument(
        "--scheduler", default="dynamic",
        help="batching scheduler for --load points",
    )
    p_sweep.add_argument("--iterations", type=int, default=3)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--workers", type=int, default=0,
        help="process-parallel workers (0/1 = in-process with shared caches)",
    )
    p_sweep.add_argument("--csv", metavar="DIR", default=None, help="also write CSV here")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_ins = sub.add_parser(
        "inspect", help="dump a lowered plan with per-pass provenance"
    )
    p_ins.add_argument("model")
    p_ins.add_argument("--flow", default="pytorch")
    p_ins.add_argument("--batch", type=int, default=1)
    p_ins.add_argument("--cpu-only", action="store_true")
    p_ins.add_argument("--seq-len", type=int, default=None)
    p_ins.add_argument(
        "--kernels", type=_count, default=16,
        help="kernel rows to print (largest by traffic; 0 = all)",
    )
    p_ins.set_defaults(handler=_cmd_inspect)

    p_work = sub.add_parser("workload", help="static workload/non-GEMM report for a model")
    p_work.add_argument("model")
    p_work.add_argument("--batch", type=int, default=1)
    p_work.set_defaults(handler=_cmd_workload)

    p_serve = _serving_parser(
        sub, "serve",
        help="simulate serving a model under load (discrete-event engine)",
        lists="--list-schedulers",
        load_type=float,
        load_help="offered load as a fraction of single-stream capacity",
    )
    _add_flags(p_serve, ServingConfig)
    _add_list_flags(p_serve, schedulers="batching schedulers", traces="arrival processes")
    p_serve.set_defaults(handler=_cmd_serve)

    p_cluster = _serving_parser(
        sub, "cluster",
        help="simulate a fault-tolerant multi-replica serving cluster",
        lists="--list-policies/--list-faults",
        load_type=listing(float),
        load_help="offered load as a fraction of fleet capacity; a comma-separated"
        " list sweeps every load through the sweep runner (see --workers)",
    )
    p_cluster.add_argument(
        "--platforms", type=listing(), default=None,
        help="comma-separated per-replica platform ids (overrides"
        " --platform/--replicas; one replica per entry)",
    )
    p_cluster.add_argument("--replicas", type=int, default=2)
    p_cluster.add_argument(
        "--workers", type=int, default=0,
        help="process-pool size for multi-load sweeps (0/1 = in-process)",
    )
    _add_flags(p_cluster, ClusterConfig, policy="least-loaded")
    _add_flags(p_cluster, AutoscaleConfig)
    _add_list_flags(
        p_cluster,
        policies="admission policies",
        faults="fault profiles",
        autoscalers="autoscale controllers",
        traces="arrival processes",
    )
    p_cluster.set_defaults(handler=_cmd_cluster)

    p_plat = sub.add_parser(
        "platforms", help="list registered platforms, their devices and links"
    )
    p_plat.set_defaults(handler=_cmd_platforms)

    p_cache = sub.add_parser(
        "cache", help="inspect or manage the persistent artifact store"
    )
    p_cache.add_argument(
        "action", choices=("info", "clear", "warm"),
        help="info: show store state; clear: delete all entries;"
        " warm: pre-populate by running every figure/table harness",
    )
    p_cache.set_defaults(handler=_cmd_cache)

    return parser


def _serving_parser(
    sub, name: str, *, help: str, lists: str, load_type, load_help: str
) -> argparse.ArgumentParser:
    """A ``serve``/``cluster`` subparser holding the flags that are not config
    fields: the model positional, the base platform, the offered load and
    the request trace's knobs."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument(
        "model", nargs="?", default=None, help=f"model to serve (omit with {lists})"
    )
    parser.add_argument(
        "--platform", default="A",
        help="platform id (cluster: of every replica, unless --platforms is given)",
    )
    parser.add_argument("--load", type=load_type, default="1.0", help=load_help)
    parser.add_argument(
        "--rate", type=float, default=None,
        help="explicit arrival rate in requests/s (overrides a single --load)",
    )
    _add_flags(parser, TraceKnobs)
    return parser


#: flag value types by annotation; config modules postpone annotations, so
#: an ``int | None`` field arrives as that string.
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _add_flags(parser: argparse.ArgumentParser, knobs, **cli_defaults) -> None:
    """One flag per ``knob(...)`` field of ``knobs`` (a dataclass, or some
    of its fields), parsed into the field's name so
    :func:`~repro.knobs.pick` hands it on.  An unset flag keeps the field
    default (in seconds for ``ms`` knobs), or its ``cli_defaults`` entry
    where the CLI default differs from the library's.  A knob's own
    ``parse`` callable, if any, parses its value."""
    for f in dataclasses.fields(knobs) if isinstance(knobs, type) else knobs:
        flags = f.metadata.get("flags")
        if not flags:
            continue
        annotation = getattr(f.type, "__name__", str(f.type))
        default = None if f.default is dataclasses.MISSING else f.default
        parse = f.metadata["parse"] or _FLAG_TYPES[annotation.split(" ")[0]]
        parser.add_argument(
            *flags,
            dest=f.name,
            metavar=flags[0].lstrip("-").replace("-", "_").upper(),
            type=_ms if f.metadata["ms"] else parse,
            default=cli_defaults.get(f.name, default),
            help=f.metadata["help"] or None,
        )


def _add_list_flags(parser: argparse.ArgumentParser, **listings: str) -> None:
    """A ``--list-<key>`` discovery flag per keyword; the value says what
    the registry holds."""
    for key, what in listings.items():
        parser.add_argument(
            f"--list-{key}", action="store_true",
            help=f"list registered {what} and exit",
        )


def _flag_type(parse, expected: str):
    """An argparse ``type=`` callable: ``parse``, with a bad value reported
    as a usage error naming what was ``expected``."""

    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}") from None

    return convert


_ms = _flag_type(lambda raw: float(raw) * 1e-3, "a number of milliseconds")


def _parse_count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


_count = _flag_type(_parse_count, "a non-negative integer")


def _cmd_list_models(args: argparse.Namespace) -> int:
    rows = [
        {
            "model": e.name,
            "domain": e.domain.value,
            "dataset": e.dataset,
            "paper_params": e.paper_params,
        }
        for e in list_models()
    ]
    print(render_table(rows))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.sweep.runner import run_point

    point = SweepPoint(
        **pick(
            SweepPoint, args, batch_size=args.batch, device="cpu" if args.cpu_only else "gpu"
        )
    )
    profile = run_point(point).profile
    report = PerformanceReport(profile)
    print(render_table([report.summary_row()]))
    print()
    print(render_table(report.breakdown_rows()))
    print()
    shares = {g.value: s for g, s in profile.share_by_group().items()}
    print(render_stacked_bar(profile.model, shares, total_label=f"{profile.total_latency_ms:.2f} ms"))
    print()
    print("slowest kernels:")
    print(render_table(report.top_operator_rows(args.top)))
    if args.csv:
        path = write_csv(report.breakdown_rows(), f"profile_{args.model}", args.csv)
        print(f"\nwrote {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS[args.name]
    result = runner()
    print(result.render())
    path = result.save(args.csv)
    print(f"\nwrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.runner import SweepRunner

    spec = SweepSpec(**pick(SweepSpec, args, name="cli-sweep"))
    result = SweepRunner(workers=args.workers).run(spec)
    rows = []
    for record in result.records:
        point, profile = record.point, record.profile
        row: dict[str, object] = {
            "model": point.model,
            "flow": point.flow,
            "platform": point.platform,
            "batch": point.batch_size,
            "device": point.device,
        }
        if point.seq_len is not None:
            row["seq_len"] = point.seq_len
        row.update(
            {
                "latency_ms": round(profile.total_latency_ms, 3),
                "gemm_pct": round(100 * profile.gemm_share, 1),
                "non_gemm_pct": round(100 * profile.non_gemm_share, 1),
                "gpu_energy_j": round(profile.gpu_energy_j, 3),
            }
        )
        if record.serving is not None:
            serving = record.serving
            row.update(
                {
                    "load": point.load,
                    "scheduler": point.scheduler,
                    "served_rps": round(serving.throughput_rps, 2),
                    "p99_ms": round(serving.p99_s * 1e3, 3),
                }
            )
        rows.append(row)
    print(render_table(rows))
    print(
        f"\n{len(result.records)} points in {result.wall_s:.2f}s ({_cache_summary(result)})"
    )
    if args.csv:
        path = write_csv(rows, "sweep", args.csv)
        print(f"wrote {path}")
    return 0


def _cache_summary(result) -> str:
    """A sweep's cache activity.  Pool runs (``--workers`` > 1) sum the
    deltas each worker ships back with its records, so the counters cover
    every per-process cache."""
    hits, disk_hits, misses = (
        sum(result.cache_info.get(kind, {}).values())
        for kind in ("hits", "disk_hits", "misses")
    )
    return f"cache: {hits} hits, {disk_hits} disk hits, {misses} misses"


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.flows import get_flow

    flow = get_flow(args.flow)
    overrides = {} if args.seq_len is None else {"seq_len": args.seq_len}
    graph = build_model(args.model, batch_size=args.batch, **overrides)
    target = DeviceKind.CPU if args.cpu_only else DeviceKind.GPU
    plan = flow.lower(graph, target, record_provenance=True)

    print(f"plan: {args.model} via {flow.name} ({plan.num_kernels} kernels,")
    print(f"      {plan.num_fused_kernels} fused, dispatch={plan.dispatch_profile})")
    print(f"pipeline signature: {plan.notes['pipeline_signature']}")
    print()
    print("pass pipeline:")
    pass_rows = []
    for entry in plan.notes["passes"]:
        entry = dict(entry)
        name = entry.pop("pass")
        summary = ", ".join(f"{k}={v}" for k, v in entry.items())
        pass_rows.append({"pass": name, "effect": summary or "-"})
    print(render_table(pass_rows))
    print()

    provenance = plan.notes["kernel_provenance"]
    indexed = list(zip(plan.kernels, provenance))
    if args.kernels:
        indexed.sort(key=lambda pair: pair[0].cost.total_bytes, reverse=True)
        indexed = indexed[: args.kernels]
        print(f"top {len(indexed)} kernels by traffic:")
    else:
        print("kernels (plan order):")
    kernel_rows = []
    for kernel, tags in indexed:
        kernel_rows.append(
            {
                "kernel": kernel.name,
                "ops": len(kernel.node_ids),
                "category": kernel.category.value,
                "device": kernel.device.value,
                "launches": kernel.launch_count,
                "bytes": kernel.cost.total_bytes,
                "transfer": kernel.transfer_bytes_in + kernel.transfer_bytes_out,
                "provenance": "; ".join(tags) or "-",
            }
        )
    print(render_table(kernel_rows))
    return 0


def _discover(args: argparse.Namespace, **registries) -> "int | None":
    """Handle the ``--list-*`` flags: print the ``(name, description)`` table
    of every registry whose flag (keyword name) is set and return 0.  With
    none set, a missing model returns 2; otherwise None (go on serving)."""
    tables = [
        render_table(
            [{registry.kind: name, "description": text} for name, text in registry.entries()]
        )
        for flag, registry in registries.items()
        if getattr(args, flag)
    ]
    if tables:
        print("\n\n".join(tables))
        return 0
    if args.model is None:
        flags = "/".join("--" + flag.replace("_", "-") for flag in registries)
        print(f"error: a model is required unless {flags} is given")
        return 2
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import ServingEngine, seeded_trace
    from repro.serving.scheduler import SCHEDULER_REGISTRY
    from repro.serving.trace import TRACE_REGISTRY

    code = _discover(
        args, list_schedulers=SCHEDULER_REGISTRY, list_traces=TRACE_REGISTRY
    )
    if code is not None:
        return code

    engine = ServingEngine(ServingConfig(**pick(ServingConfig, args)))
    base_s = engine.base_latency_s()
    rate = args.rate if args.rate is not None else args.load / base_s
    result = engine.run(seeded_trace(args, rate), offered_rate_rps=rate)
    utilization = result.utilization()
    print(result.describe())
    print()
    print(
        render_table(
            [
                {
                    "requests": result.num_requests_served,
                    "backend": result.backend_used,
                    "offered_rps": round(result.offered_rate_rps, 2),
                    "served_rps": round(result.throughput_rps, 2),
                    "p50_ms": round(result.p50_s * 1e3, 3),
                    "p95_ms": round(result.p95_s * 1e3, 3),
                    "p99_ms": round(result.p99_s * 1e3, 3),
                    "mean_queue_ms": round(result.mean_queue_s * 1e3, 3),
                    "mean_batch": round(result.mean_batch_size, 2),
                    "max_depth": result.max_queue_depth,
                    "non_gemm_busy_pct": round(100 * result.non_gemm_busy_share, 1),
                }
            ]
        )
    )
    print()
    print("device occupancy:")
    print(
        render_table(
            [
                {
                    "device": kind.value,
                    "busy_ms": round(busy * 1e3, 3),
                    "utilization_pct": round(100 * utilization.get(kind, 0.0), 1),
                    "energy_j": round(result.energy_j.get(kind, 0.0), 3),
                }
                for kind, busy in result.busy_s.items()
            ]
        )
    )
    print(
        f"\nbatch-1 latency {base_s * 1e3:.3f} ms"
        f" ({1.0 / base_s:.1f} rps single-stream capacity)"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.serving import ClusterRouter, seeded_trace
    from repro.serving.autoscale import AUTOSCALER_REGISTRY
    from repro.serving.cluster import POLICY_REGISTRY
    from repro.serving.faults import FAULT_PROFILE_REGISTRY
    from repro.serving.trace import TRACE_REGISTRY

    code = _discover(
        args,
        list_policies=POLICY_REGISTRY,
        list_faults=FAULT_PROFILE_REGISTRY,
        list_autoscalers=AUTOSCALER_REGISTRY,
        list_traces=TRACE_REGISTRY,
    )
    if code is not None:
        return code

    platforms = args.platforms or (args.platform,) * args.replicas
    autoscale = None
    if args.controller is not None:
        autoscale = AutoscaleConfig(
            **pick(AutoscaleConfig, args, max_replicas=len(platforms))
        )
    config = ClusterConfig(
        **pick(ClusterConfig, args, platforms=platforms, autoscale=autoscale)
    )
    if len(args.load) > 1:
        return _cluster_sweep(args)
    load = args.load[0] if args.load else 1.0

    router = ClusterRouter(config)
    capacity = router.fleet_capacity_rps()
    rate = args.rate if args.rate is not None else load * capacity
    result = router.run(seeded_trace(args, rate), offered_rate_rps=rate)
    print(result.describe())
    print()
    print(
        render_table(
            [
                {
                    "requests": (
                        result.num_requests_total
                        if result.num_requests_total is not None
                        else len(result.records)
                    ),
                    "backend": result.backend_used,
                    "offered_rps": round(result.offered_rate_rps, 2),
                    "served_rps": round(result.throughput_rps, 2),
                    "goodput_pct": round(100 * result.goodput, 1),
                    "p50_ms": round(result.p50_s * 1e3, 3),
                    "p99_ms": round(result.p99_s * 1e3, 3),
                    "shed": result.num_shed,
                    "failed": result.num_failed,
                    "retries": result.num_retries,
                    "hedges": result.num_hedges,
                    "hedge_wins": result.num_hedge_wins,
                    "recovery_ms": round(result.time_to_recovery_s * 1e3, 3),
                }
            ]
        )
    )
    if result.fast_path_fallback_reason is not None:
        print(
            "note: fast path fell back to the reference loop:"
            f" {result.fast_path_fallback_reason}"
        )
    if autoscale is not None:
        print()
        print(
            f"autoscale: {autoscale.controller}"
            f" [{autoscale.min_replicas},{autoscale.max_replicas}]"
            f" mean_replicas={result.mean_replicas:.2f}"
            f" replica_seconds={result.replica_seconds:.2f}"
            f" scale_events={len(result.scale_events)}"
        )
        for event in result.scale_events[:20]:
            print(
                f"  t={event.time_s:8.3f}s {event.action:<8}"
                f" replica={event.replica} serving={event.serving}"
                f"  ({event.reason})"
            )
        if len(result.scale_events) > 20:
            print(f"  ... {len(result.scale_events) - 20} more events")
    print()
    print("per-replica occupancy (of the cluster makespan):")
    replica_rows = []
    for index, (replica, utilization) in enumerate(
        zip(result.replicas, result.utilization())
    ):
        replica_rows.append(
            {
                "replica": index,
                "platform": result.platform_ids[index],
                "completed": replica.num_requests_served,
                "dispatches": replica.num_dispatches,
                "utilization_pct": " + ".join(
                    f"{kind.value} {100 * share:.1f}%"
                    for kind, share in utilization.items()
                ),
                "energy_j": round(sum(replica.energy_j.values()), 3),
            }
        )
    print(render_table(replica_rows))
    print(f"\nfleet capacity {capacity:.1f} rps across {len(config.platforms)} replicas")
    return 0


def _cluster_sweep(args: argparse.Namespace) -> int:
    """Serve the parsed cluster at every ``--load`` through the sweep
    runner — optionally fanned out over a worker pool (``--workers``).  The
    spec's knobs and single-valued axes are the parsed flags of the same
    names."""
    from repro.sweep.runner import SweepRunner

    if args.rate is not None:
        print("error: --rate fixes one arrival rate; use a single --load with it")
        return 2
    if args.platforms:
        print(
            "error: multi-load sweeps replicate --platform across the fleet;"
            " --platforms mixes are single-load only"
        )
        return 2

    spec = SweepSpec.around(
        args, loads=args.load, num_replicas=args.replicas, name="cli-cluster"
    )
    result = SweepRunner(workers=args.workers).run(spec)
    rows = []
    for record in result.records:
        cluster = record.serving
        row = {
            "load": record.point.load,
            "offered_rps": round(cluster.offered_rate_rps, 2),
            "served_rps": round(cluster.throughput_rps, 2),
            "goodput_pct": round(100 * cluster.goodput, 1),
            "p50_ms": round(cluster.p50_s * 1e3, 3),
            "p99_ms": round(cluster.p99_s * 1e3, 3),
            "shed": cluster.num_shed,
            "failed": cluster.num_failed,
            "retries": cluster.num_retries,
        }
        if args.controller is not None:
            row["mean_repl"] = round(cluster.mean_replicas, 2)
            row["repl_s"] = round(cluster.replica_seconds, 2)
            row["scale_ev"] = len(cluster.scale_events)
        rows.append(row)
    print(render_table(rows))
    print(
        f"\n{len(result.records)} loads x {args.replicas} replicas in"
        f" {result.wall_s:.2f}s ({_cache_summary(result)})"
    )
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.hardware import list_platforms

    platforms = list_platforms()
    print(
        render_table(
            [
                {
                    "platform": p.platform_id,
                    "description": p.description,
                    "devices": " + ".join(
                        f"{spec.kind.value}:{spec.name}" for spec in p.devices
                    ),
                }
                for p in platforms
            ]
        )
    )
    link_rows = []
    for p in platforms:
        for (src, dst), link in sorted(
            p.links.items(), key=lambda item: (item[0][0].value, item[0][1].value)
        ):
            link_rows.append(
                {
                    "platform": p.platform_id,
                    "link": f"{src.value} -> {dst.value}",
                    "bandwidth_gbs": round(link.bandwidth / 1e9, 1),
                    "latency_us": round(link.latency_s * 1e6, 1),
                }
            )
        link_rows.append(
            {
                "platform": p.platform_id,
                "link": "(default host link)",
                "bandwidth_gbs": round(p.pcie_bandwidth / 1e9, 1),
                "latency_us": round(p.pcie_latency_s * 1e6, 1),
            }
        )
    print()
    print("interconnect links (unlisted pairs use the default host link):")
    print(render_table(link_rows))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    graph = build_model(args.model, batch_size=args.batch)
    report = NonGemmReport(graph)
    from repro.core import WorkloadReport

    workload = WorkloadReport(graph)
    print(render_table([workload.summary_row()]))
    print()
    print("operator counts:")
    print(render_table(workload.op_count_rows()))
    print()
    print("non-GEMM variants:")
    print(render_table(report.variant_rows()))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import time

    from repro.sweep.cache import PLAN_CACHE

    store = PLAN_CACHE.store
    if store is None:
        print(
            "persistent artifact store disabled"
            " (REPRO_CACHE_DIR is set to 0/off/empty)"
        )
        return 0 if args.action == "info" else 2

    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.directory}")
        return 0

    if args.action == "warm":
        started = time.perf_counter()
        for name in sorted(EXPERIMENTS):
            step = time.perf_counter()
            EXPERIMENTS[name]()
            print(f"  {name}: {time.perf_counter() - step:.2f}s")
        print(f"warmed in {time.perf_counter() - started:.2f}s")

    info = store.info()
    print(
        render_table(
            [
                {
                    "directory": info.directory,
                    "schema": f"v{info.schema_version}",
                    "code": info.fingerprint[:12],
                    "entries": info.entries,
                    "size_mb": round(info.total_bytes / 1e6, 1),
                    "cap_mb": round(info.max_bytes / 1e6, 1),
                }
            ]
        )
    )
    if info.entries_by_kind:
        print()
        print(
            render_table(
                [{"kind": k, "entries": v} for k, v in info.entries_by_kind.items()]
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
