"""Config knobs declared once, as dataclass fields.

A :func:`knob` field carries its CLI spelling beside its type and default,
so the command line derives from the config dataclasses; :func:`pick`
derives every hand-off between configs (CLI arguments, sweep points, a
cluster's per-replica engine configs) from shared field names.

A knob may also declare a ``check`` on its own value, run whenever the
dataclass holding it is built.  The scalar serving knobs live in four
knob groups: :class:`BatchingKnobs`, :class:`FleetKnobs`,
:class:`TraceKnobs` and :class:`AutoscaleKnobs`.  The serving configs and
the sweep's :class:`~repro.sweep.spec.SweepKnobs` inherit them, so one
field reaches the configs, the flags and the sweep.  Only
:mod:`dataclasses` and the import-free :mod:`repro.errors` are imported:
``import repro.serving`` stays light, and the sweep imports the groups
without importing the serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache

from repro.errors import ServingError

#: default batching knobs, shared by the schedulers, the configs and the sweep.
DEFAULT_MAX_BATCH = 8
DEFAULT_MAX_WAIT_S = 2e-3


def knob(
    default, *flags: str, ms: bool = False, parse=None, check=None, help: str = ""
):
    """A dataclass field with CLI metadata: its option strings, whether the
    (seconds-valued) field is given in milliseconds, the callable that
    parses a flag value when the annotation's type does not (a
    ``ValueError`` marks a bad value), the ``check`` its value must pass
    and its help text.  A knob without flags has no CLI flag."""
    return field(
        default=default,
        metadata={"flags": flags, "ms": ms, "parse": parse, "check": check, "help": help},
    )


def pick(cls, source, **explicit) -> dict:
    """Keyword arguments for ``cls``: ``source``'s attribute named like each
    init field, then ``explicit`` on top.  ``source`` is any object — an
    argparse namespace, a sweep point, another config."""
    names = (f.name for f in fields(cls) if f.init)
    kwargs = {name: getattr(source, name) for name in names if hasattr(source, name)}
    kwargs.update(explicit)
    return kwargs


def count_or_range(raw: str) -> "int | tuple[int, int]":
    """``"n"`` as the count ``n``, or ``"lo:hi"`` as the inclusive range
    ``(lo, hi)``."""
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return (int(lo), int(hi))
    return int(raw)


def at_least(bound: int):
    """A knob ``check``: the value is ``>= bound``."""
    return (f">= {bound}", lambda value: value >= bound)


#: knob ``check``s, each a ``(what the value must be, predicate)`` pair.
#: NaN fails every check: each is a comparison, and NaN compares false.
POSITIVE = ("positive", lambda value: value > 0.0)
#: for timers that must fire: an infinite timeout or hedge delay would arm
#: an event at t=inf.  (Thresholds like ``shed_queue_s`` keep ``POSITIVE``:
#: there ``inf`` just means "never".)
POSITIVE_FINITE = ("positive and finite", lambda value: 0.0 < value < float("inf"))
FRACTION = ("in (0, 1]", lambda value: 0.0 < value <= 1.0)


@cache
def _checks(cls) -> tuple:
    """``(field name, check)`` for every field of ``cls`` declaring one."""
    return tuple((f.name, f.metadata["check"]) for f in fields(cls) if f.metadata.get("check"))


class _Checked:
    """Runs the ``check`` of every field declaring one when the dataclass is
    built (a ``None`` value passes); subclasses with cross-field checks call
    it from their own ``__post_init__``."""

    def __post_init__(self) -> None:
        for name, (what, passes) in _checks(type(self)):
            value = getattr(self, name)
            if value is not None and not passes(value):
                raise ServingError(f"{name} must be {what}, got {value}")


@dataclass(frozen=True, kw_only=True)
class BatchingKnobs(_Checked):
    """How one engine forms batches, and how much of its run it records."""

    scheduler: str = knob("dynamic", "--scheduler")
    max_batch: int = knob(DEFAULT_MAX_BATCH, "--max-batch")
    max_wait_s: float = knob(
        DEFAULT_MAX_WAIT_S, "--max-wait-ms", ms=True,
        help="dynamic batching max wait before a partial batch launches",
    )
    #: cap on materialized per-request records; ``None`` keeps the full
    #: record list and queue-depth timeline.  With a cap the result carries
    #: streaming aggregates plus a seeded reservoir sample — O(cap) memory
    #: regardless of trace length, on either path.
    record_requests: int | None = knob(
        None, "--record-requests", check=at_least(1),
        help="cap materialized per-request records (streaming percentiles +"
        " a seeded uniform sample); default keeps everything",
    )


@dataclass(frozen=True, kw_only=True)
class FleetKnobs(_Checked):
    """How a replicated fleet survives faults: timeouts, retries, hedging,
    shedding and the goodput deadline."""

    fault_seed: int = knob(0, "--fault-seed")
    #: per-request timeout before a queued/lost copy is re-routed; doubles
    #: per retry up to ``timeout_cap_s``.  Required when the fault profile
    #: produces crash windows (lost work is only ever detected by timeout).
    timeout_s: float | None = knob(
        None, "--timeout-ms", ms=True, check=POSITIVE_FINITE,
        help="per-request timeout before a copy is re-routed (required for"
        " crash profiles; doubles per retry up to --timeout-cap-ms)",
    )
    max_retries: int = knob(3, "--retries", check=at_least(0))
    timeout_cap_s: float | None = knob(
        None, "--timeout-cap-ms", ms=True, check=POSITIVE_FINITE
    )
    #: hedge delay: duplicate the request to a second replica once the
    #: primary has been outstanding this long.  ``None`` disables hedging.
    hedge_after_s: float | None = knob(
        None, "--hedge-ms", ms=True, check=POSITIVE_FINITE,
        help="hedge a request to a second replica after this delay",
    )
    #: admission-control threshold on estimated queue delay; ``None``
    #: disables shedding.
    shed_queue_s: float | None = knob(
        None, "--shed-ms", ms=True, check=POSITIVE,
        help="shed arrivals whose estimated queue delay exceeds this",
    )
    #: goodput deadline recorded on the result (``None``: any completion).
    deadline_s: float | None = knob(
        None, "--deadline-ms", ms=True, check=POSITIVE,
        help="goodput deadline (completions slower than this are not good)",
    )


@dataclass(frozen=True, kw_only=True)
class TraceKnobs(_Checked):
    """The seeded request trace a serving run replays (see
    :func:`~repro.serving.trace.seeded_trace`)."""

    trace: str = knob(
        "poisson", "--trace", help="arrival process (poisson, bursty, closed-loop)"
    )
    num_requests: int = knob(
        32, "--num-requests", "--requests",
        help="trace length in requests (--requests is an alias)",
    )
    decode_steps: int | tuple[int, int] = knob(
        1, "--decode-steps", parse=count_or_range,
        help="decode iterations per request: a count, or an inclusive"
        " 'lo:hi' range drawn per request from the seeded generator",
    )
    #: seeds the trace generator (and a sweep's profiling noise).
    seed: int = knob(0, "--seed")


@dataclass(frozen=True, kw_only=True)
class AutoscaleKnobs(_Checked):
    """How an elastic fleet's controller scales (see
    :class:`~repro.serving.autoscale.AutoscaleConfig`)."""

    #: the floor of replicas that always stay online.
    min_replicas: int = knob(
        1, "--min-replicas", check=at_least(1),
        help="autoscale floor (replicas that always stay online)",
    )
    #: controller evaluation period (one observation window per interval).
    interval_s: float = knob(
        0.1, "--scale-interval-ms", ms=True, check=POSITIVE,
        help="autoscale controller evaluation period",
    )
    #: minimum time between scale *actions*; evaluations inside the
    #: cooldown observe but do not act.  0 disables.
    cooldown_s: float = knob(
        0.0, "--scale-cooldown-ms", ms=True, check=at_least(0),
        help="minimum time between autoscale actions",
    )
    #: cold-start delay between a scale-up decision and the replica
    #: admitting work.  Replica-seconds cost accrues from the decision.
    provision_delay_s: float = knob(
        0.1, "--provision-ms", ms=True, check=POSITIVE,
        help="cold-start delay before a scaled-up replica admits work",
    )
    #: busy-fraction set-point for ``target-utilization``.
    target_utilization: float = knob(
        0.6, "--target-util", check=FRACTION,
        help="busy-fraction set-point for the target-utilization controller",
    )
    #: latency SLO for ``goodput``; ``None`` falls back to the cluster's
    #: ``deadline_s`` (the router resolves this before the run).
    slo_s: float | None = knob(
        None, "--slo-ms", ms=True, check=POSITIVE,
        help="latency SLO for the goodput controller (default: --deadline-ms)",
    )
