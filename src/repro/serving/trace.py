"""Synthetic request-arrival traces for the serving simulator.

A :class:`RequestTrace` is a *static, replayable* record: an ordered arrival
sequence with absolute arrival times and (for autoregressive models) a
per-request decode-step count.  Traces are generated once from an explicit
seeded :class:`numpy.random.Generator` and then replayed verbatim by the
engine, so every serving simulation is deterministic end to end — the same
seed yields byte-identical metrics, and a trace saved with
:meth:`RequestTrace.to_rows` replays exactly via :meth:`RequestTrace.from_rows`.

Traces are **column-backed**: arrival times, decode steps, and request ids
live in immutable numpy arrays (the representation the columnar fast backend
in :mod:`repro.serving.columnar` consumes directly), while the classic
``requests`` tuple of :class:`Request` objects is materialized lazily on
first access — a million-request trace costs ~40 bytes per request until
something actually asks for Python objects.

Generation is vectorized: every built-in process draws its randomness in
**one batched call per trace**.  A ``numpy`` Generator produces the same
stream for one size-``k`` ``exponential`` call as for ``k`` scalar calls, so
the batched draws are bit-identical to the historical per-request loops
(pinned by the trace-identity tests).

Three arrival processes ship built in, behind a
:class:`~repro.registry.Registry`:

* ``poisson``     — memoryless open-loop arrivals at a target rate (the
  standard serving-benchmark load model).
* ``bursty``      — the same aggregate rate delivered in tight bursts
  (request spikes; stresses batching and queue depth).
* ``closed-loop`` — a fixed client population where each client issues its
  next request one think-time cycle after its previous one.  Replayable
  traces are static, so the cycle length uses the configured rate rather
  than engine feedback; the approximation is documented, not hidden.

All generators share one signature — ``fn(rate_rps, num_requests, rng,
decode_steps)`` — so the sweep ``load`` axis and the CLI can name any of
them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import ServingError
from repro.registry import Registry


@dataclass(frozen=True)
class Request:
    """One inference request entering the serving system."""

    request_id: int
    arrival_s: float
    #: autoregressive decode iterations this request needs; 1 for any
    #: single-shot model (classification, detection, prefill-only).
    decode_steps: int = 1


class RequestTrace:
    """An ordered, replayable arrival record (the serving workload input).

    Construct either from ``requests`` (the classic tuple of
    :class:`Request`) or from columns (``arrival_s`` + ``decode_steps``
    arrays, with ids defaulting to ``0..n-1``).  Both forms expose both
    views; the column arrays are defensively copied and frozen, so a trace
    stays immutable like the frozen dataclass it replaces.
    """

    __slots__ = ("name", "_arrival_s", "_decode_steps", "_request_ids", "_requests")

    def __init__(
        self,
        name: str,
        requests: "Iterable[Request] | None" = None,
        *,
        arrival_s: "np.ndarray | None" = None,
        decode_steps: "np.ndarray | None" = None,
        request_ids: "np.ndarray | None" = None,
    ):
        self.name = name
        if requests is not None:
            if arrival_s is not None or decode_steps is not None or request_ids is not None:
                raise ServingError(
                    f"trace {name!r}: pass either requests or columns, not both"
                )
            requests = tuple(requests)
            n = len(requests)
            self._requests = requests
            self._request_ids = np.fromiter(
                (r.request_id for r in requests), dtype=np.int64, count=n
            )
            self._arrival_s = np.fromiter(
                (r.arrival_s for r in requests), dtype=np.float64, count=n
            )
            self._decode_steps = np.fromiter(
                (r.decode_steps for r in requests), dtype=np.int64, count=n
            )
        else:
            if arrival_s is None or decode_steps is None:
                raise ServingError(
                    f"trace {name!r}: column construction needs both arrival_s"
                    " and decode_steps"
                )
            self._requests = None
            self._arrival_s = np.array(arrival_s, dtype=np.float64, ndmin=1)
            self._decode_steps = np.array(decode_steps, dtype=np.int64, ndmin=1)
            n = self._arrival_s.shape[0]
            if request_ids is None:
                self._request_ids = np.arange(n, dtype=np.int64)
            else:
                self._request_ids = np.array(request_ids, dtype=np.int64, ndmin=1)
            if self._decode_steps.shape[0] != n or self._request_ids.shape[0] != n:
                raise ServingError(
                    f"trace {name!r}: column lengths disagree"
                    f" ({n} arrivals, {self._decode_steps.shape[0]} decode"
                    f" counts, {self._request_ids.shape[0]} ids)"
                )
        for column in (self._arrival_s, self._decode_steps, self._request_ids):
            column.flags.writeable = False
        self._validate()

    def _validate(self) -> None:
        arrivals = self._arrival_s
        n = arrivals.shape[0]
        if n == 0:
            return
        # NaN passes the ordering test below and would hang the event loops;
        # an infinite arrival can never complete.  Reject both up front.
        non_finite = ~np.isfinite(arrivals)
        if bool(non_finite.any()):
            index = int(np.argmax(non_finite))
            raise ServingError(
                f"trace {self.name!r} request {int(self._request_ids[index])}"
                f" has a non-finite arrival time {float(arrivals[index])}"
            )
        previous = np.empty_like(arrivals)
        previous[0] = 0.0
        previous[1:] = arrivals[:-1]
        unsorted = arrivals < previous
        if bool(unsorted.any()):
            index = int(np.argmax(unsorted))
            raise ServingError(
                f"trace {self.name!r} is not sorted by arrival time"
                f" (request {int(self._request_ids[index])} at"
                f" {float(arrivals[index])})"
            )
        bad_steps = self._decode_steps < 1
        if bool(bad_steps.any()):
            index = int(np.argmax(bad_steps))
            raise ServingError(
                f"trace {self.name!r} request {int(self._request_ids[index])}"
                f" has decode_steps={int(self._decode_steps[index])} (must be >= 1)"
            )

    # -- the two views -------------------------------------------------------

    @property
    def requests(self) -> tuple[Request, ...]:
        """The Python-object view, materialized on first access."""
        if self._requests is None:
            self._requests = tuple(
                Request(request_id=rid, arrival_s=t, decode_steps=steps)
                for rid, t, steps in zip(
                    self._request_ids.tolist(),
                    self._arrival_s.tolist(),
                    self._decode_steps.tolist(),
                )
            )
        return self._requests

    def arrival_column(self) -> np.ndarray:
        """Arrival times as a frozen float64 column (seconds)."""
        return self._arrival_s

    def decode_column(self) -> np.ndarray:
        """Per-request decode-step counts as a frozen int64 column."""
        return self._decode_steps

    def id_column(self) -> np.ndarray:
        """Request ids as a frozen int64 column (trace order)."""
        return self._request_ids

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestTrace):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self._request_ids, other._request_ids)
            and np.array_equal(self._arrival_s, other._arrival_s)
            and np.array_equal(self._decode_steps, other._decode_steps)
        )

    __hash__ = None  # mutable-array backed; compare by value, don't hash

    def __repr__(self) -> str:
        return (
            f"RequestTrace(name={self.name!r}, num_requests={self.num_requests},"
            f" duration_s={self.duration_s!r})"
        )

    # -- aggregate views -----------------------------------------------------

    @property
    def num_requests(self) -> int:
        return int(self._arrival_s.shape[0])

    @property
    def duration_s(self) -> float:
        """Time span between the first and last arrival."""
        if not self.num_requests:
            return 0.0
        return float(self._arrival_s[-1]) - float(self._arrival_s[0])

    @property
    def offered_rate_rps(self) -> float:
        """Average arrival rate over the trace (requests per second)."""
        if self.num_requests < 2 or self.duration_s <= 0.0:
            return 0.0
        return (self.num_requests - 1) / self.duration_s

    def total_decode_steps(self) -> int:
        return int(self._decode_steps.sum())

    # -- replayable record format -------------------------------------------

    def to_rows(self) -> list[dict]:
        """Plain dict rows (CSV/JSON-friendly) that replay bit-exactly:
        arrival times are serialized via ``repr`` round-tripping floats."""
        return [
            {
                "request_id": rid,
                "arrival_s": repr(t),
                "decode_steps": steps,
            }
            for rid, t, steps in zip(
                self._request_ids.tolist(),
                self._arrival_s.tolist(),
                self._decode_steps.tolist(),
            )
        ]

    @classmethod
    def from_rows(cls, name: str, rows: Iterable[dict]) -> "RequestTrace":
        rows = list(rows)
        return cls(
            name=name,
            arrival_s=np.array([float(row["arrival_s"]) for row in rows], dtype=np.float64),
            decode_steps=np.array(
                [int(row.get("decode_steps", 1)) for row in rows], dtype=np.int64
            ),
            request_ids=np.array([int(row["request_id"]) for row in rows], dtype=np.int64),
        )


def _decode_step_counts(
    decode_steps: "int | tuple[int, int]", count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-request decode iterations: a constant, or seeded uniform draws
    from an inclusive ``(lo, hi)`` range — one batched call."""
    if isinstance(decode_steps, int):
        if decode_steps < 1:
            raise ServingError(f"decode_steps must be >= 1, got {decode_steps}")
        return np.full(count, decode_steps, dtype=np.int64)
    lo, hi = decode_steps
    if lo < 1 or hi < lo:
        raise ServingError(f"invalid decode_steps range {decode_steps!r}")
    return rng.integers(lo, hi + 1, size=count).astype(np.int64, copy=False)


def _build(name: str, arrivals: np.ndarray, steps: np.ndarray) -> RequestTrace:
    return RequestTrace(
        name=name,
        arrival_s=np.asarray(arrivals, dtype=np.float64),
        decode_steps=np.asarray(steps, dtype=np.int64),
    )


def poisson_trace(
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    decode_steps: "int | tuple[int, int]" = 1,
) -> RequestTrace:
    """Open-loop Poisson arrivals: i.i.d. exponential gaps at ``rate_rps``.

    The first request arrives at t=0 so a single-request trace exercises an
    idle engine (the equivalence battery relies on this).
    """
    _check_rate(rate_rps, num_requests)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    arrivals = np.cumsum(gaps) - gaps[0]
    return _build("poisson", arrivals, _decode_step_counts(decode_steps, num_requests, rng))


def bursty_trace(
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    decode_steps: "int | tuple[int, int]" = 1,
    burst_size: int = 4,
) -> RequestTrace:
    """The same aggregate rate delivered in tight bursts of ``burst_size``.

    Burst starts are spaced ``burst_size / rate_rps`` apart (preserving the
    offered rate); members of a burst land within a jitter window two orders
    of magnitude tighter than the burst interval.  Jitter is drawn in one
    batched call for the non-leading burst members — the same generator
    stream, and so the same floats, as one scalar draw per member.
    """
    _check_rate(rate_rps, num_requests)
    if burst_size < 1:
        raise ServingError(f"burst_size must be >= 1, got {burst_size}")
    interval = burst_size / rate_rps
    index = np.arange(num_requests, dtype=np.int64)
    jitter = np.zeros(num_requests, dtype=np.float64)
    jittered = index % burst_size != 0
    draws = int(np.count_nonzero(jittered))
    if draws:
        jitter[jittered] = rng.exponential(interval / 100.0, size=draws)
    arrivals = (index // burst_size) * interval + jitter
    arrivals.sort()
    return _build("bursty", arrivals, _decode_step_counts(decode_steps, num_requests, rng))


#: default client population of the closed-loop generator.
CLOSED_LOOP_CLIENTS = 4


def closed_loop_trace(
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    decode_steps: "int | tuple[int, int]" = 1,
    num_clients: int = CLOSED_LOOP_CLIENTS,
) -> RequestTrace:
    """A fixed client population, each issuing one request per cycle.

    Each of ``num_clients`` clients contributes requests at a per-client
    cycle of ``num_clients / rate_rps`` (aggregate rate ``rate_rps``), with a
    seeded jitter on each think time (one batched draw for every
    round-index-above-zero request).  Because traces are static records the
    cycle uses the configured rate, not engine completion feedback — the
    standard replayable approximation of a closed loop.  Client start
    offsets stagger uniformly across one cycle; client 0 starts at t=0.
    """
    _check_rate(rate_rps, num_requests)
    if num_clients < 1:
        raise ServingError(f"num_clients must be >= 1, got {num_clients}")
    cycle = num_clients / rate_rps
    index = np.arange(num_requests, dtype=np.int64)
    client = index % num_clients
    round_index = index // num_clients
    jitter = np.zeros(num_requests, dtype=np.float64)
    jittered = round_index > 0
    draws = int(np.count_nonzero(jittered))
    if draws:
        jitter[jittered] = rng.exponential(cycle / 20.0, size=draws)
    arrivals = client * cycle / num_clients + round_index * cycle + jitter
    arrivals.sort()
    return _build(
        "closed-loop", arrivals, _decode_step_counts(decode_steps, num_requests, rng)
    )


def _check_rate(rate_rps: float, num_requests: int) -> None:
    if not 0.0 < rate_rps < float("inf"):
        raise ServingError(
            f"arrival rate must be positive and finite, got {rate_rps}"
        )
    if num_requests < 1:
        raise ServingError(f"num_requests must be >= 1, got {num_requests}")


TraceGenerator = Callable[..., RequestTrace]

TRACE_REGISTRY: Registry[TraceGenerator] = Registry("trace", ServingError)


def register_trace(name: str, fn: TraceGenerator, replace: bool = False) -> TraceGenerator:
    """Register an arrival-process generator for :func:`make_trace` lookup."""
    return TRACE_REGISTRY.register(name, fn, replace)


for _name, _fn in (
    ("poisson", poisson_trace),
    ("bursty", bursty_trace),
    ("closed-loop", closed_loop_trace),
):
    register_trace(_name, _fn)

list_traces = TRACE_REGISTRY.names
trace_entries = TRACE_REGISTRY.entries


def make_trace(
    kind: str,
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    decode_steps: "int | tuple[int, int]" = 1,
) -> RequestTrace:
    """Generate a trace by registered process name (``poisson``, ``bursty``,
    ``closed-loop``, or anything passed to :func:`register_trace`)."""
    return TRACE_REGISTRY.get(kind)(rate_rps, num_requests, rng, decode_steps)


def seeded_trace(knobs, rate_rps: float) -> RequestTrace:
    """The trace ``knobs`` describes at ``rate_rps``, drawn from a generator
    seeded with ``knobs.seed``.  ``knobs`` is any holder of the
    :class:`~repro.knobs.TraceKnobs` fields: a parsed command line or a
    sweep point."""
    return make_trace(
        knobs.trace,
        rate_rps,
        knobs.num_requests,
        rng=np.random.default_rng(knobs.seed),
        decode_steps=knobs.decode_steps,
    )
