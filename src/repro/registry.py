"""One registry type behind every extension point.

Models, flows, devices, platforms, graph transforms, batching schedulers,
admission policies, fault profiles, autoscalers and arrival processes each
live in a :class:`Registry`, and every one follows the same rule:

* keys are case-folded, so lookups ignore letter case, while listings and
  error messages keep the spelling an entry was registered under;
* registering a taken name raises unless ``replace=True``;
* an empty or blank name is rejected;
* an unknown name raises the registry's typed error, naming the known ones;
* :meth:`Registry.entries` rows are ``(name, description)``: the entry's
  ``description`` attribute, else the first line of its docstring.

Each module keeps only its real special cases (flow aliases, the reserved
``-cpu`` platform suffix, fresh scheduler instances, ...) around the
registry it owns.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.errors import RegistryError, ReproError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one kind (``"flow"``, ``"scheduler"``, ...)."""

    def __init__(self, kind: str, error: type[ReproError] = RegistryError):
        self.kind = kind
        self.error = error
        #: case-folded name -> (registered spelling, entry)
        self._entries: dict[str, tuple[str, T]] = {}

    def register(self, name: str, entry: T, replace: bool = False) -> T:
        """Store ``entry`` under ``name`` and return it (decorator-friendly)."""
        if not isinstance(name, str) or not name.strip():
            label = getattr(entry, "__name__", type(entry).__name__)
            raise self.error(f"{self.kind} {label} declares no name (got {name!r})")
        key = name.casefold()
        if key in self._entries and not replace:
            raise self.error(f"{self.kind} {name!r} already registered")
        self._entries[key] = (name, entry)
        return entry

    def unregister(self, name: str) -> T:
        """Remove ``name``'s entry and return it."""
        entry = self.get(name)
        del self._entries[name.casefold()]
        return entry

    def get(self, name: str) -> T:
        """The entry registered under ``name``, in any letter case."""
        found = self._entries.get(name.casefold()) if isinstance(name, str) else None
        if found is None:
            known = ", ".join(self.names())
            raise self.error(f"unknown {self.kind} {name!r}; known: {known}")
        return found[1]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.casefold() in self._entries

    def names(self) -> list[str]:
        """Registered spellings, sorted case-insensitively."""
        return [name for name, _ in self._sorted()]

    def values(self) -> list[T]:
        """Entries in :meth:`names` order."""
        return [entry for _, entry in self._sorted()]

    def entries(self) -> list[tuple[str, str]]:
        """``(name, description)`` rows for discovery surfaces (CLI, docs)."""
        return [(name, _describe(entry)) for name, entry in self._sorted()]

    def _sorted(self) -> list[tuple[str, T]]:
        return [self._entries[key] for key in sorted(self._entries)]


def _describe(entry: object) -> str:
    text = getattr(entry, "description", None)
    if not isinstance(text, str) or not text.strip():
        text = entry.__doc__ or ""
    lines = text.strip().splitlines()
    return lines[0] if lines else ""
