"""Config knobs declared once, as dataclass fields.

A :func:`knob` field carries its CLI spelling beside its type and default,
so the command line derives from the config dataclasses; :func:`pick`
derives every hand-off between configs (CLI arguments, sweep points, a
cluster's per-replica engine configs) from shared field names.  Only
:mod:`dataclasses` is imported: ``import repro.serving`` stays light.
"""

from __future__ import annotations

from dataclasses import field, fields


def knob(default, *flags: str, ms: bool = False, help: str = ""):
    """A dataclass field with CLI metadata: its option strings, whether the
    (seconds-valued) field is given in milliseconds, and its help text."""
    return field(default=default, metadata={"flags": flags, "ms": ms, "help": help})


def pick(cls, source, **explicit) -> dict:
    """Keyword arguments for ``cls``: ``source``'s attribute named like each
    init field, then ``explicit`` on top.  ``source`` is any object — an
    argparse namespace, a sweep point, another config."""
    names = (f.name for f in fields(cls) if f.init)
    kwargs = {name: getattr(source, name) for name in names if hasattr(source, name)}
    kwargs.update(explicit)
    return kwargs
