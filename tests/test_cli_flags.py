"""The CLI flag surface: spellings, defaults and hand-offs.

These pin what a command line parses into — the option strings of the
``serve``, ``cluster``, ``profile``, ``inspect`` and ``sweep`` subcommands,
the configs a bare invocation builds, and the millisecond conversion of
every ``*-ms`` flag — independently of how the parser is assembled.  Serving
runs stub the engine/router constructor, so nothing is served.
"""

from __future__ import annotations

import argparse
import inspect
import re
import shlex
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import repro.serving
from repro.cli import _build_parser
from repro.cli import main as cli_main
from repro.knobs import pick
from repro.serving import AutoscaleConfig, ClusterConfig, ServingConfig
from repro.sweep.spec import SweepPoint, SweepSpec

README = Path(__file__).resolve().parents[1] / "README.md"

SERVE_FLAGS = {
    "-h", "--help", "--flow", "--platform", "--device", "--scheduler",
    "--trace", "--load", "--rate", "--num-requests", "--requests",
    "--record-requests", "--max-batch", "--max-wait-ms", "--decode-steps",
    "--seq-len", "--seed", "--list-schedulers", "--list-traces",
}

CLUSTER_FLAGS = {
    "-h", "--help", "--flow", "--platform", "--platforms", "--replicas",
    "--device", "--scheduler", "--policy", "--fault", "--fault-seed",
    "--trace", "--load", "--rate", "--workers", "--num-requests",
    "--requests", "--record-requests", "--max-batch", "--max-wait-ms",
    "--decode-steps", "--timeout-ms", "--retries", "--timeout-cap-ms",
    "--hedge-ms", "--shed-ms", "--deadline-ms", "--autoscaler",
    "--min-replicas", "--scale-interval-ms", "--scale-cooldown-ms",
    "--provision-ms", "--target-util", "--slo-ms", "--seq-len", "--seed",
    "--list-policies", "--list-faults", "--list-autoscalers", "--list-traces",
}


PROFILE_FLAGS = {
    "-h", "--help", "--flow", "--platform", "--batch", "--cpu-only",
    "--iterations", "--top", "--csv",
}

INSPECT_FLAGS = {
    "-h", "--help", "--flow", "--batch", "--cpu-only", "--seq-len", "--kernels",
}

SWEEP_FLAGS = {
    "-h", "--help", "--models", "--flows", "--platforms", "--batches",
    "--devices", "--seq-lens", "--load", "--scheduler", "--iterations",
    "--seed", "--workers", "--csv",
}


class _Captured(Exception):
    """Raised by the stub constructor once it has seen the config."""


def _parsed_config(monkeypatch, argv: list[str]):
    """The config object ``argv`` hands to the engine (serve) or router
    (cluster) constructor."""
    attr = {"serve": "ServingEngine", "cluster": "ClusterRouter"}[argv[0]]
    seen = []

    def capture(config, *args, **kwargs):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(repro.serving, attr, capture)
    with pytest.raises(_Captured):
        cli_main(argv)
    return seen[0]


def _subparser(name: str):
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"]
    return sub.choices[name]


@pytest.mark.parametrize(
    "name, flags",
    [
        ("serve", SERVE_FLAGS),
        ("cluster", CLUSTER_FLAGS),
        ("profile", PROFILE_FLAGS),
        ("inspect", INSPECT_FLAGS),
        ("sweep", SWEEP_FLAGS),
    ],
)
def test_option_strings_are_pinned(name, flags):
    parser = _subparser(name)
    assert {s for action in parser._actions for s in action.option_strings} == flags


def test_bare_serve_parses_into_the_library_defaults(monkeypatch):
    config = _parsed_config(monkeypatch, ["serve", "gpt2"])
    assert config == ServingConfig(model="gpt2")
    assert config.platform == "A"
    assert config.max_batch == 8
    assert config.max_wait_s == 2e-3
    assert config.record_requests is None


def test_bare_cluster_parses_into_least_loaded_pair(monkeypatch):
    config = _parsed_config(monkeypatch, ["cluster", "gpt2"])
    assert config == ClusterConfig(
        model="gpt2", platforms=("A", "A"), policy="least-loaded"
    )
    assert config.max_wait_s == 2e-3
    assert config.max_retries == 3
    assert config.fault_profile == "none"
    assert config.autoscale is None


def test_cluster_autoscaler_defaults(monkeypatch):
    config = _parsed_config(
        monkeypatch, ["cluster", "gpt2", "--replicas", "4", "--autoscaler", "step"]
    )
    assert config.autoscale == AutoscaleConfig(
        controller="step",
        min_replicas=1,
        max_replicas=4,
        interval_s=0.1,
        cooldown_s=0.0,
        provision_delay_s=0.1,
        target_utilization=0.6,
        slo_s=None,
    )


MS_FLAGS = [
    ("serve", "--max-wait-ms", "max_wait_s"),
    ("cluster", "--max-wait-ms", "max_wait_s"),
    ("cluster", "--timeout-ms", "timeout_s"),
    ("cluster", "--timeout-cap-ms", "timeout_cap_s"),
    ("cluster", "--hedge-ms", "hedge_after_s"),
    ("cluster", "--shed-ms", "shed_queue_s"),
    ("cluster", "--deadline-ms", "deadline_s"),
    ("cluster", "--scale-interval-ms", "autoscale.interval_s"),
    ("cluster", "--scale-cooldown-ms", "autoscale.cooldown_s"),
    ("cluster", "--provision-ms", "autoscale.provision_delay_s"),
    ("cluster", "--slo-ms", "autoscale.slo_s"),
]


@pytest.mark.parametrize("command, flag, attribute", MS_FLAGS)
@pytest.mark.parametrize("raw", ["7.3", "250"])
def test_ms_flags_scale_by_1e_minus_3(monkeypatch, command, flag, attribute, raw):
    argv = [command, "gpt2", flag, raw]
    if attribute.startswith("autoscale."):
        argv += ["--autoscaler", "goodput"]
    value = _parsed_config(monkeypatch, argv)
    for part in attribute.split("."):
        value = getattr(value, part)
    assert value == float(raw) * 1e-3


@pytest.mark.parametrize(
    "cls", [ServingConfig, ClusterConfig, AutoscaleConfig, SweepSpec, SweepPoint]
)
def test_every_field_is_annotated_in_one_class(cls):
    owners: dict[str, list[str]] = {}
    for klass in cls.__mro__:
        for name in inspect.get_annotations(klass):
            owners.setdefault(name, []).append(klass.__name__)
    assert {name for name, where in owners.items() if len(where) > 1} == set()
    assert {f.name for f in fields(cls)} <= set(owners)


def test_sweep_knob_defaults_are_the_config_defaults():
    spec = SweepSpec(models=("gpt2",))
    cluster = ClusterConfig(
        **pick(ClusterConfig, spec, model="gpt2", platforms=("A", "A"))
    )
    assert cluster == ClusterConfig(model="gpt2")
    autoscale = AutoscaleConfig(
        **pick(AutoscaleConfig, spec, controller="step", max_replicas=2)
    )
    assert autoscale == AutoscaleConfig(controller="step", max_replicas=2)


@pytest.mark.parametrize("cpu_only", [False, True], ids=["gpu", "cpu-only"])
def test_profile_prints_the_direct_profile(capsys, cpu_only):
    """``profile`` prints the tables of a direct ``profile_graph`` call on
    the same model, flow, platform, device and iteration count."""
    from repro.core import PerformanceReport
    from repro.flows import get_flow
    from repro.hardware import DeviceKind, get_platform
    from repro.models import build_model
    from repro.profiler import profile_graph
    from repro.viz.ascii import render_table

    argv = ["profile", "gpt2", "--iterations", "2", "--top", "4"]
    assert cli_main(argv + ["--cpu-only"] * cpu_only) == 0
    out = capsys.readouterr().out
    profile = profile_graph(
        build_model("gpt2", batch_size=1),
        get_flow("pytorch"),
        get_platform("A"),
        target=DeviceKind.CPU if cpu_only else DeviceKind.GPU,
        iterations=2,
    )
    report = PerformanceReport(profile)
    assert report.summary_row()["device"] == ("cpu" if cpu_only else "cpu+gpu")
    for rows in (
        [report.summary_row()], report.breakdown_rows(), report.top_operator_rows(4)
    ):
        assert render_table(rows) in out


def test_cpu_only_profile_of_a_cpu_only_platform_keeps_its_id(capsys):
    """``A-cpu`` has no accelerator, so its CPU-only variant is itself."""
    from repro.serving import ServingConfig, ServingEngine

    argv = ["profile", "gpt2", "--platform", "A-cpu", "--cpu-only", "--iterations", "1"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert " A-cpu " in out and "A-cpu-cpu" not in out
    engine = ServingEngine(ServingConfig(model="gpt2", platform="A-cpu", device="cpu"))
    assert engine.platform.platform_id == "A-cpu"


def _table(text: str, column: str) -> list[dict[str, str]]:
    """The rows of the first rendered table whose header names ``column``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if column in line.split())
    header = lines[start].split()
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(dict(zip(header, line.split())))
    return rows


def test_single_and_multi_load_cluster_paths_agree(capsys):
    assert cli_main(["cluster", "gpt2", "--load", "0.5", "--requests", "16"]) == 0
    (single,) = _table(capsys.readouterr().out, "p50_ms")
    argv = ["cluster", "gpt2", "--load", "0.5,1.0", "--requests", "16"]
    assert cli_main(argv) == 0
    swept = {row["load"]: row for row in _table(capsys.readouterr().out, "p50_ms")}
    assert set(swept) == {"0.50", "1.00"}
    for column in ("p50_ms", "p99_ms", "goodput_pct"):
        assert swept["0.50"][column] == single[column]


def test_multi_load_cluster_sweep_carries_the_retry_budget(capsys):
    flags = ["--retries", "1", "--fault", "crash", "--timeout-ms", "20", "--requests", "16"]
    assert cli_main(["cluster", "gpt2", "--load", "0.5", *flags]) == 0
    (single,) = _table(capsys.readouterr().out, "p50_ms")
    assert cli_main(["cluster", "gpt2", "--load", "0.5,1.0", *flags]) == 0
    swept = {row["load"]: row for row in _table(capsys.readouterr().out, "p50_ms")}
    for column in ("p50_ms", "p99_ms", "goodput_pct", "retries"):
        assert swept["0.50"][column] == single[column]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "gpt2", "--decode-steps", "x"],
        ["cluster", "gpt2", "--load", "0.5,x"],
        ["serve", "gpt2", "--max-batch", "0", "--requests", "4"],
        ["cluster", "gpt2", "--replicas", "0"],
        ["profile", "gpt2", "--batch", "0"],
        ["inspect", "gpt2", "--batch", "0"],
        ["inspect", "gpt2", "--seq-len", "0"],
        ["inspect", "gpt2", "--kernels", "-325"],
        ["sweep", "--models", "gpt2", "--batches", "x"],
        ["sweep", "--models", "gpt2", "--seq-lens", "x"],
        ["sweep", "--models", "gpt2", "--load", "x"],
        ["profile", "gpt2", "--top", "-1"],
        ["sweep", "--models", "gpt2", "--iterations", "0"],
        ["cluster", "gpt2", "--timeout-ms", "inf"],
        ["cluster", "gpt2", "--timeout-cap-ms", "inf"],
        ["cluster", "gpt2", "--hedge-ms", "inf"],
    ],
)
def test_bad_input_is_a_usage_error_not_a_traceback(capsys, argv):
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.out + captured.err


def _readme_commands() -> list[str]:
    """Every ``python -m repro.cli ...`` command in a fenced README block,
    with line continuations joined."""
    commands = []
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    for block in fenced:
        for line in block.replace("\\\n", " ").splitlines():
            if "python -m repro" in line:
                commands.append(line.split("#")[0].strip())
    return commands


def test_readme_has_cli_commands():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_cli_commands_parse(command):
    words = shlex.split(command)
    assert words[words.index("-m") + 1] == "repro.cli", command
    _build_parser().parse_args(words[words.index("-m") + 2:])


def test_one_knob_field_becomes_a_flag_and_round_trips():
    from repro.cli import _add_flags
    from repro.knobs import knob

    @dataclass(frozen=True)
    class Toy:
        name: str
        depth: int = knob(4, "--depth", help="how deep")
        budget_s: float | None = knob(None, "--budget-ms", ms=True)
        seed: int = 0

    parser = argparse.ArgumentParser()
    _add_flags(parser, Toy)
    assert {s for a in parser._actions for s in a.option_strings} == {
        "-h", "--help", "--depth", "--budget-ms",
    }
    args = parser.parse_args(["--depth", "7", "--budget-ms", "2.5"])
    assert Toy(**pick(Toy, args, name="toy")) == Toy(
        name="toy", depth=7, budget_s=2.5 * 1e-3
    )
    defaults = Toy(**pick(Toy, parser.parse_args([]), name="toy"))
    assert defaults == Toy(name="toy")
