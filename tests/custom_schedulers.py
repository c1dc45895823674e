"""Custom schedulers that declare no launch-machine kind (test-only).

They ride the callback machine on every rail; the equivalence tests check
them against the reference loops in ``oracles.py``.  Register one inside
``registrations.restored(SCHEDULER_REGISTRY)`` before serving by its name.
"""

from __future__ import annotations

from repro.serving.scheduler import BatchScheduler, Dispatch, FIFOScheduler


class LIFOScheduler(BatchScheduler):
    """Last-in-first-out: a custom scheduler with no columnar kernel."""

    name = "lifo-columnar-test"
    description = "serve the newest queued request first (test-only)"

    def next_dispatch(self, now, arrivals_pending):
        if not self._queue:
            return None
        request = self._queue.pop()
        return Dispatch(
            members=(request.request_id,),
            size=1,
            iterations=request.decode_steps,
            completes=(request.request_id,),
            barrier=True,
        )


class InheritingFIFO(FIFOScheduler):
    """Subclasses FIFO but changes the decision sequence: the inherited
    ``columnar_kernel = "fifo"`` declaration must NOT be honored."""

    name = "fifo-reversed-columnar-test"
    description = "fifo subclass that serves the newest request (test-only)"

    def next_dispatch(self, now, arrivals_pending):
        if not self._queue:
            return None
        request = self._queue.pop()
        return Dispatch(
            members=(request.request_id,),
            size=1,
            iterations=request.decode_steps,
            completes=(request.request_id,),
            barrier=True,
        )


class PairingScheduler(BatchScheduler):
    """Launches pairs (single requests at ``max_batch=1``); a lone request
    waits for a partner until 1 ms after its arrival (a float deadline),
    then launches alone.  Non-barrier."""

    name = "pairing-columnar-test"
    description = "pairs, or a lone request after 1 ms (test-only)"

    def next_dispatch(self, now, arrivals_pending):
        if not self._queue:
            return None
        deadline = self._queue[0].arrival_s + 0.001
        if len(self._queue) < 2 and arrivals_pending and now < deadline:
            return deadline
        members = self._take(min(2, self.max_batch, len(self._queue)))
        ids = tuple(r.request_id for r in members)
        return Dispatch(
            members=ids,
            size=len(ids),
            iterations=max(r.decode_steps for r in members),
            completes=ids,
        )


CUSTOM_SCHEDULERS = (LIFOScheduler, PairingScheduler, InheritingFIFO)


def recording(scheduler_cls):
    """A subclass of ``scheduler_cls`` whose instances log every call that
    returns a :class:`Dispatch` as ``(now, arrivals_pending, members)``.
    ``logs`` holds one log per instance, in construction order."""

    class Recording(scheduler_cls):
        name = f"recording-{scheduler_cls.name}"
        logs: list = []

        def __post_init__(self):
            super().__post_init__()
            self.log = []
            self.logs.append(self.log)

        def next_dispatch(self, now, arrivals_pending):
            verdict = super().next_dispatch(now, arrivals_pending)
            if isinstance(verdict, Dispatch):
                self.log.append((now, arrivals_pending, verdict.members))
            return verdict

    return Recording


class StallingScheduler(BatchScheduler):
    """Queues every request and never launches one."""

    name = "stalling-columnar-test"
    description = "never dispatches (test-only)"

    def next_dispatch(self, now, arrivals_pending):
        return None


class OversizedScheduler(BatchScheduler):
    """Launches the whole queue as one batch, ignoring ``max_batch``."""

    name = "oversized-columnar-test"
    description = "one batch of everything queued (test-only)"

    def next_dispatch(self, now, arrivals_pending):
        if not self._queue:
            return None
        members = self._take(len(self._queue))
        ids = tuple(r.request_id for r in members)
        return Dispatch(
            members=ids,
            size=len(ids),
            iterations=max(r.decode_steps for r in members),
            completes=ids,
        )
