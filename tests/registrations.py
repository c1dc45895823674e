"""Temporary registrations for tests: whatever a block registers is undone.

Tests that register custom flows, schedulers, policies, fault profiles or
autoscalers wrap the registration in :func:`restored` instead of reaching
into a module's private state to clean up::

    with restored(SCHEDULER_REGISTRY):
        register_scheduler(MyScheduler)
        ...
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def restored(*registries):
    """Run the block, then put each registry back as it was: entries added
    in the block are removed and entries replaced in it get their old value
    (and spelling) back."""
    saved = [
        (registry, {name: registry.get(name) for name in registry.names()})
        for registry in registries
    ]
    try:
        yield
    finally:
        for registry, before in saved:
            for name in registry.names():
                if name not in before:
                    registry.unregister(name)
            for name, entry in before.items():
                registry.register(name, entry, replace=True)
