"""The repository benchmark: every layer of the chain, timed from the outside.

    python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
    python3 bench/run.py --compare A B      # each a latest.json or a directory of them
    python3 bench/run.py --write-golden

One run is a closed loop on the host: fresh child processes (``child.py``)
run one at a time, each starting when the previous one ends, until
``run_seconds`` (``BENCHMARK.json``) are spent.  Every child sets a
workload up, runs one timed pass and checks its outputs.  One untimed
child goes first: it compiles bytecode, fills ``paper_warm``'s store, and
its outputs are the reference every timed pass must equal.  The
end-to-end metrics are host time and memory, never simulated time:

* ``setup_s``     median over children of spawn-to-ready time;
* ``pass_s``      one pass on an uncontended host: each step's (harness's or
                  fleet config's) fastest time over the children, summed;
                  the children's median pass and its q1/q3 are printed beside it;
* ``peak_rss_mb`` the largest ``ru_maxrss`` of any child (quartiles over children).

``--trace 1`` spends half the budget untraced and half with a span around
every public layer entry point (``ledger.py``), and reports the per-layer
ledger named in ``BENCHMARK.json`` instead.  Results go to
``bench/out/latest.json``; traces to ``bench/out/trace-<workload>.json``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed pass makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from ledger import now_ns
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
GOLDEN = BENCH / "golden_seed0.json"
#: every workload's children finish within this many seconds of its start.
WORKLOAD_DEADLINE_S = 170.0
#: provenance that must be the same in every run on both sides of --compare
RUN_SETTINGS = ("seconds", "smoke", "trace")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="accepted only as BENCHMARK.json run_seconds, which fixes every"
                             " run's length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="fig1, fig7 and table1, 2000 requests per fleet config,"
                             " one child, no golden comparisons")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="diff two latest.json files, or two directories of them")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"regenerate {GOLDEN.name} from one seed-0 pass")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds}, run_seconds in BENCHMARK.json")
    if args.compare:
        return compare(*args.compare, config)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    tmp = args.out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            return write_golden(tmp)
        names = [args.workload] if args.workload else list(WORKLOADS)
        runs = {name: run_workload(name, args, seconds, tmp, config) for name in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report(runs, args, seconds)


# -- children ------------------------------------------------------------------


def spawn(spec: dict, tmp: Path, store: Path | None, timeout: float) -> dict:
    """Run one child to completion: its result, whose ``errors`` say why not."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(store) if store is not None else "off",
        TMPDIR=str(tmp),
        # bytecode is cached in one place whatever the caller's settings, so
        # set-up measures imports, not compilation (the untimed first child
        # of a workload compiles whatever a source edit made stale)
        PYTHONPYCACHEPREFIX=str(tmp.parent / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spec = dict(spec, spawn_ns=now_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"child timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {"errors": [f"child exited {proc.returncode}: {proc.stderr[-3000:]}"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": ["child printed no result"]}
    if "ready_ns" in result:
        result["setup_s"] = (result["ready_ns"] - spec["spawn_ns"]) / 1e9
    return result


def run_workload(name: str, args, seconds: float, tmp: Path, config: dict) -> dict:
    """One untimed child, then children in a closed loop for ``seconds``."""
    start = time.monotonic()
    golden = None
    if args.seed == 0 and not args.smoke:
        golden = str(ROOT / "results") if name.startswith("paper") else str(GOLDEN)
    base = {"workload": name, "seed": args.seed, "smoke": args.smoke, "golden": golden}
    warm_store = tmp / "store-warm" if name == "paper_warm" else None

    def one(index: int, traced: bool) -> dict:
        # paper_cold: a fresh, empty store per child, so every write happens;
        # paper_warm: the store the untimed child filled
        store = tmp / f"store-{index}" if name == "paper_cold" else warm_store
        out_dir = tmp / f"out-{index}"
        child = spawn(dict(base, trace=traced, index=index, out_dir=str(out_dir)),
                      tmp, store, WORKLOAD_DEADLINE_S - (time.monotonic() - start))
        shutil.rmtree(out_dir, ignore_errors=True)
        if name == "paper_cold":
            shutil.rmtree(store, ignore_errors=True)
        return child

    # compiles stale bytecode and warms the page cache, so no timed child
    # pays for either; counts only toward attempted and failed
    untimed = one(-1, False)
    reference = untimed.get("observed")
    phases = [(False, seconds)] if not args.trace else [(False, seconds / 2), (True, seconds / 2)]
    children: dict[bool, list[dict]] = {False: [], True: []}
    index = 0
    for traced, budget in phases:
        phase_start, durations = time.monotonic(), []
        while True:
            began = time.monotonic()
            child = one(index, traced)
            durations.append(time.monotonic() - began)
            if reference is not None and child.get("observed", reference) != reference:
                child["errors"].append("outputs differ from the untimed first pass")
            children[traced].append(child)
            index += 1
            now, typical = time.monotonic(), statistics.median(durations)
            if (
                args.smoke
                or "wall_s" not in child
                or now - phase_start + typical > budget
                or now - start + typical > WORKLOAD_DEADLINE_S
            ):
                break
    return aggregate(children, [untimed], config)


# -- aggregation ----------------------------------------------------------------


def spread(values: list[float], unit: str) -> dict:
    """The median of ``values`` with its quartiles and sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def fastest_pass(children: list[dict]) -> float:
    """Each step's fastest time over ``children``, summed over the pass's steps.

    On a shared host, contention comes and goes within seconds; a step's
    minimum over the run's children is the run's best estimate of its
    uncontended time, and it is steadier from run to run than the median
    pass.
    """
    return sum(min(child["steps_s"][step] for child in children)
               for step in children[0]["steps_s"])


def aggregate(children: dict[bool, list[dict]], untimed: list[dict], config: dict) -> dict:
    """End-to-end metrics from the untraced children; failures from all."""
    everyone = untimed + children[False] + children[True]
    failed = sum(1 for child in everyone if child["errors"] or "wall_s" not in child)
    plain = [child for child in children[False] if "wall_s" in child]
    metrics = {}
    if plain:
        walls = spread([child["wall_s"] for child in plain], "s")
        metrics = {
            "setup_s": spread([child["setup_s"] for child in plain], "s"),
            # the children's median pass and its quartiles are the noise band
            "pass_s": dict(walls, value=fastest_pass(plain), p50=walls["value"]),
            "peak_rss_mb": dict(
                spread([child["peak_rss_mb"] for child in plain], "MB"),
                value=max(child["peak_rss_mb"] for child in plain),
            ),
        }
    run = {
        "attempted": len(everyone),
        "failed": failed,
        "fail_ratio": failed / len(everyone),
        "correct": failed == 0 and bool(plain),
        "errors": list(dict.fromkeys(e for child in everyone for e in child["errors"])),
        "metrics": metrics,
        "absent": sorted({a for child in everyone for a in child.get("absent", [])}),
        "samples": [
            {key: child[key] for key in ("setup_s", "wall_s", "steps_s", "peak_rss_mb")}
            for child in plain
        ],
    }
    traced = [child for child in children[True] if "metrics" in child]
    if traced:
        run.update(layers(traced, [child["wall_s"] for child in plain], config))
    return run


def layers(traced: list[dict], untraced_walls: list[float], config: dict) -> dict:
    """Per-layer medians of the traced children, plus their raw ledgers.

    A ``BENCHMARK.json`` name that no traced child produced (its call never
    ran here, or its wrapper target is gone) prints 0 and is listed under
    ``unmeasured``.
    """
    names = {name for child in traced for name in child["metrics"]}
    names |= {name for child in traced for name in child["setup"]}
    per_layer = {
        name: statistics.median(
            child["setup" if name.startswith("setup.") else "metrics"].get(name, 0.0)
            for child in traced
        )
        for name in sorted(names)
    }
    if untraced_walls:
        per_layer["ledger.trace_overhead_pct"] = 100.0 * (
            statistics.median(child["wall_s"] for child in traced)
            / statistics.median(untraced_walls) - 1.0
        )
    return {
        "per_layer": {
            metric["name"]: {"value": per_layer.get(metric["name"], 0.0), "unit": metric["unit"]}
            for metric in config["per_layer"]
        },
        "unmeasured": [m["name"] for m in config["per_layer"] if m["name"] not in per_layer],
        "per_layer_all": per_layer,
        "ledgers": [child["ledger"] for child in traced],
        "events": [event for child in traced for event in child["events"]],
    }


# -- reporting ------------------------------------------------------------------


def provenance(args, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def report(runs: dict, args, seconds: float) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    for name, run in runs.items():
        events = run.pop("events", None)
        if events is not None:
            (args.out / f"trace-{name}.json").write_text(
                json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
            )
    (args.out / "latest.json").write_text(
        json.dumps({"provenance": provenance(args, seconds), "workloads": runs}, indent=1) + "\n"
    )
    for name, run in runs.items():
        print(f"== {name}: {run['attempted']} passes, {run['failed']} failed"
              f" (fail_ratio {run['fail_ratio']:g}) ==")
        for metric, entry in run["metrics"].items():
            median = f"  median {entry['p50']:.6g}" if "p50" in entry else ""
            print(f"  {metric:<14} {entry['value']:>12.6g} {entry['unit']:<3}{median}"
                  f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}")
        for metric, entry in run.get("per_layer", {}).items():
            print(f"  {metric:<58} {entry['value']:>12.6g} {entry['unit']}")
        if run["absent"]:
            print(f"  absent wrapper targets: {', '.join(run['absent'])}")
        if run.get("unmeasured"):
            print(f"  not produced here (printed as 0): {', '.join(run['unmeasured'])}")
        for error in run["errors"][:5]:
            print(f"  FAILED: {error}", file=sys.stderr)
    key = "per_layer" if args.trace else "metrics"
    single = len(runs) == 1
    metrics = {
        (metric if single else f"{name}.{metric}"): {"value": entry["value"], "unit": entry["unit"]}
        for name, run in runs.items()
        for metric, entry in run.get(key, {}).items()
    }
    correct = all(run["correct"] for run in runs.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def load_side(path: Path) -> tuple[dict, dict]:
    """One side of a comparison, and the settings its runs were made with.

    A side is a ``latest.json``, or a directory of them (other JSON files
    there, such as traces, are skipped).  With several runs, each metric is
    the median of the runs' values and its quartiles are taken across the
    runs.
    """
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(file.read_text()) for file in files]
    results = [result for result in results if "workloads" in result]
    if not results:
        raise SystemExit(f"error: no benchmark results in {path}")
    settings = {key: sorted({result["provenance"].get(key) for result in results})
                for key in RUN_SETTINGS}
    settings["seeds"] = sorted(result["provenance"].get("seed") for result in results)
    runs = [result["workloads"] for result in results]
    side = {}
    for workload in runs[0]:
        present = [run[workload] for run in runs if workload in run]
        metrics = {}
        for name, entry in present[0]["metrics"].items():
            entries = [run["metrics"][name] for run in present if name in run["metrics"]]
            metrics[name] = (entries[0] if len(entries) == 1
                             else spread([e["value"] for e in entries], entry["unit"]))
        failed = sum(run["failed"] for run in present)
        side[workload] = {"metrics": metrics,
                          "fail_ratio": failed / sum(run["attempted"] for run in present)}
    return side, settings


def compare(path_a: Path, path_b: Path, config: dict) -> int:
    """Diff two sides (runs or directories of runs) against the bounds."""
    (a, settings_a), (b, settings_b) = load_side(path_a), load_side(path_b)
    if settings_a != settings_b or any(len(settings_a[key]) != 1 for key in RUN_SETTINGS):
        print(f"error: the sides were run differently (seed, seconds, smoke or trace):"
              f" A {settings_a}, B {settings_b}", file=sys.stderr)
        return 2
    flagged = 0
    print(f"{'workload':<16} {'metric':<12} {'A value':>11} {'A q1-q3':>21}"
          f" {'B value':>11} {'B q1-q3':>21} {'diff':>8}  verdict")
    for workload in [w for w in a if w in b]:
        for meta in config["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            ma, mb = a[workload]["metrics"].get(name), b[workload]["metrics"].get(name)
            if ma is None or mb is None:
                continue
            diff = (mb["value"] - ma["value"]) / ma["value"]
            worse = diff if meta["better"] == "lower" else -diff
            wide = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb)) > bound
            verdict = "unresolved" if wide else "FLAGGED" if worse > bound else "ok"
            flagged += verdict == "FLAGGED"
            print(f"{workload:<16} {name:<12} {ma['value']:>11.5g} "
                  f"{ma['q1']:>10.5g}-{ma['q3']:<10.5g} {mb['value']:>11.5g} "
                  f"{mb['q1']:>10.5g}-{mb['q3']:<10.5g} {diff:>+8.1%}  {verdict}")
        ra, rb = a[workload]["fail_ratio"], b[workload]["fail_ratio"]
        verdict = "FLAGGED" if rb > ra else "ok"
        flagged += verdict == "FLAGGED"
        print(f"{workload:<16} {'fail_ratio':<12} {ra:>11.5g} {'':>21} {rb:>11.5g}"
              f" {'':>21} {'':>8}  {verdict}")
    return 1 if flagged else 0


def write_golden(tmp: Path) -> int:
    """Regenerate the fleet golden file from one full-size seed-0 pass."""
    golden = {}
    for name in WORKLOADS:
        if name.startswith("paper"):
            continue  # the paper's golden outputs are the committed results/
        spec = {"workload": name, "seed": 0, "smoke": False, "golden": None,
                "trace": False, "index": 0, "out_dir": str(tmp / "out")}
        child = spawn(spec, tmp, None, WORKLOAD_DEADLINE_S)
        if child["errors"] or "observed" not in child:
            print(f"error: {name}: {child['errors']}", file=sys.stderr)
            return 1
        golden[name] = child["observed"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
