"""Test-only access to the scalar reference loops (the bit-identity oracles).

Production code picks its path from facts in the config — the scheduler
and policy classes, hedge/autoscale/timeout settings and the fault
schedule — so nothing in ``src/`` lets a caller force the slow loops.  The
equivalence batteries reach them by swapping in selectors that refuse every
fast path:

* ``repro.serving.columnar.kernel_for`` returns ``None``, so
  :meth:`ServingEngine.run` serves on ``ServingEngine._run_reference``;
* ``repro.serving.columnar_cluster.fast_path_fallback_reason`` returns a
  reason, so :meth:`ClusterRouter.run` serves on its event loop.

Everything else (record capping, result assembly) runs unchanged, so a run
inside :func:`reference_paths` is the oracle for the same run outside it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

#: the fallback reason a forced reference run records on its result.
FORCED_REASON = "reference path forced by tests/oracles.py"


@contextmanager
def reference_paths() -> Iterator[None]:
    """Serve every engine and cluster run in the block on the reference loops."""
    with mock.patch(
        "repro.serving.columnar.kernel_for", lambda scheduler: None
    ), mock.patch(
        "repro.serving.columnar_cluster.fast_path_fallback_reason",
        lambda config, policy, scheduler: FORCED_REASON,
    ):
        yield


def run_reference(runner, trace, offered_rate_rps=None):
    """``runner.run(trace, offered_rate_rps)`` on the reference loops, for a
    :class:`ServingEngine` or a :class:`ClusterRouter`."""
    with reference_paths():
        return runner.run(trace, offered_rate_rps)
