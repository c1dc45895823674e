"""The registry contract, checked once for all ten extension points.

Every registry (model, flow, device, platform, transform, scheduler, policy,
fault profile, autoscaler, trace) must reject duplicates unless
``replace=True``, look names up case-insensitively, raise its typed error
for unknown and empty names, list its spellings sorted, and describe each
entry as a ``(name, description)`` row.  Each case registers through the
module's public ``register_*`` function and resolves through its public
``get_*`` (or the registry itself where no getter exists).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import pytest

from repro.errors import RegistryError, ServingError
from repro.flows import FLOW_REGISTRY, TensorRTFlow, get_flow, register_flow
from repro.hardware import (
    A100,
    EPYC_7763,
    Platform,
    get_device,
    get_platform,
    register_device,
    register_platform,
)
from repro.hardware.device import DEVICE_REGISTRY
from repro.hardware.platform import PLATFORM_REGISTRY
from repro.models import ModelEntry, TaskDomain, get_model, register_model
from repro.models.registry import MODEL_REGISTRY
from repro.registry import Registry
from repro.serving import (
    FIFOScheduler,
    RoundRobinPolicy,
    StepAutoscaler,
    get_autoscaler,
    get_policy,
    get_scheduler,
    register_autoscaler,
    register_fault_profile,
    register_policy,
    register_scheduler,
    register_trace,
)
from repro.serving.autoscale import AUTOSCALER_REGISTRY
from repro.serving.cluster import POLICY_REGISTRY
from repro.serving.faults import FAULT_PROFILE_REGISTRY
from repro.serving.scheduler import SCHEDULER_REGISTRY
from repro.serving.trace import TRACE_REGISTRY
from repro.sweep.cache import TRANSFORM_REGISTRY, get_transform, register_transform

from registrations import restored


def _subclass(base: type) -> Callable[[str], type]:
    return lambda name: type(f"Contract{base.__name__}", (base,), {"name": name})


def _function(name: str) -> Callable:
    def entry(*args):
        """A contract-test entry."""

    return entry


@dataclass(frozen=True)
class Case:
    registry: Registry
    error: type[Exception]
    #: name -> a fresh entry registered under that name
    make: Callable[[str], Any]
    #: (name, entry, replace) through the public register_* function
    register: Callable[[str, Any, bool], Any]
    #: name -> the registered entry, through the public lookup
    lookup: Callable[[str], Any]


CASES = {
    "device": Case(
        DEVICE_REGISTRY, RegistryError,
        lambda name: replace(A100, name=name),
        lambda name, entry, again: register_device(entry, replace=again),
        get_device,
    ),
    "platform": Case(
        PLATFORM_REGISTRY, RegistryError,
        lambda name: Platform(name, "contract test", cpu=EPYC_7763),
        lambda name, entry, again: register_platform(entry, replace=again),
        get_platform,
    ),
    "model": Case(
        MODEL_REGISTRY, RegistryError,
        lambda name: ModelEntry(name, TaskDomain.NLP, _function(name), None, "none", "0"),
        lambda name, entry, again: register_model(entry, replace=again),
        get_model,
    ),
    "flow": Case(
        FLOW_REGISTRY, RegistryError,
        _subclass(TensorRTFlow),
        lambda name, entry, again: register_flow(entry, replace=again),
        lambda name: type(get_flow(name)),
    ),
    "transform": Case(
        TRANSFORM_REGISTRY, RegistryError,
        _function,
        lambda name, entry, again: register_transform(name, entry, replace=again),
        get_transform,
    ),
    "scheduler": Case(
        SCHEDULER_REGISTRY, ServingError,
        _subclass(FIFOScheduler),
        lambda name, entry, again: register_scheduler(entry, replace=again),
        lambda name: type(get_scheduler(name)),
    ),
    "policy": Case(
        POLICY_REGISTRY, ServingError,
        _subclass(RoundRobinPolicy),
        lambda name, entry, again: register_policy(entry, replace=again),
        lambda name: type(get_policy(name)),
    ),
    "fault profile": Case(
        FAULT_PROFILE_REGISTRY, ServingError,
        _function,
        lambda name, entry, again: register_fault_profile(name, entry, replace=again),
        FAULT_PROFILE_REGISTRY.get,
    ),
    "autoscaler": Case(
        AUTOSCALER_REGISTRY, ServingError,
        _subclass(StepAutoscaler),
        lambda name, entry, again: register_autoscaler(entry, replace=again),
        lambda name: type(get_autoscaler(name)),
    ),
    "trace": Case(
        TRACE_REGISTRY, ServingError,
        _function,
        lambda name, entry, again: register_trace(name, entry, replace=again),
        TRACE_REGISTRY.get,
    ),
}

NAME = "Contract-Test"


@pytest.fixture(params=sorted(CASES))
def case(request):
    with restored(CASES[request.param].registry):
        yield CASES[request.param]


def test_every_registry_is_covered():
    assert sorted(case.registry.kind for case in CASES.values()) == sorted(CASES)


def test_duplicates_need_replace(case):
    first, second = case.make(NAME), case.make(NAME)
    case.register(NAME, first, False)
    for spelling in (NAME, NAME.upper()):
        with pytest.raises(case.error, match="already registered"):
            case.register(spelling, case.make(spelling), False)
    assert case.lookup(NAME) is first
    case.register(NAME, second, True)
    assert case.lookup(NAME) is second


def test_lookup_ignores_case_and_keeps_spelling(case):
    entry = case.make(NAME)
    case.register(NAME, entry, False)
    assert case.lookup(NAME.lower()) is entry
    assert case.lookup(NAME.upper()) is entry
    assert NAME in case.registry.names()


def test_unknown_name_is_typed_and_lists_known_names(case):
    case.register(NAME, case.make(NAME), False)
    with pytest.raises(case.error, match="unknown") as excinfo:
        case.lookup("no-such-entry")
    message = str(excinfo.value)
    assert all(name in message for name in case.registry.names())


@pytest.mark.parametrize("name", ["", "   "])
def test_empty_names_rejected(case, name):
    before = case.registry.names()
    with pytest.raises(case.error, match="declares no name"):
        case.register(name, case.make(name), False)
    assert case.registry.names() == before


def test_listing_is_sorted_and_entries_are_rows(case):
    case.register(NAME, case.make(NAME), False)
    names = case.registry.names()
    assert names == sorted(names, key=str.casefold)
    rows = case.registry.entries()
    assert [name for name, _ in rows] == names
    assert all(isinstance(text, str) for _, text in rows)


def test_descriptions_prefer_the_attribute_then_the_docstring():
    registry = Registry("thing")

    class Described:
        """Docstring first line.

        More detail."""

        description = "from the attribute"

    class Documented:
        """Docstring first line.

        More detail."""

    registry.register("described", Described)
    registry.register("documented", Documented)
    assert registry.entries() == [
        ("described", "from the attribute"),
        ("documented", "Docstring first line."),
    ]
