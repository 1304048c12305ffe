"""Scheduling framework: the pluggable policy interface and the five
policies the paper evaluates (HPF, EDF, EDF-VD, Apollo, HCPerf)."""

from typing import Callable, Dict

from .apollo import ApolloScheduler
from .base import Scheduler, SystemView
from .edf import EDFScheduler
from .edf_vd import EDFVDScheduler, virtual_deadline_factor
from .hcperf import HCPerfConfig, HCPerfScheduler
from .hpf import HPFScheduler

#: Factory registry keyed by the names used in the paper's tables.
SCHEDULERS: Dict[str, Callable[[], Scheduler]] = {
    "HPF": HPFScheduler,
    "EDF": EDFScheduler,
    "EDF-VD": EDFVDScheduler,
    "Apollo": ApolloScheduler,
    "HCPerf": HCPerfScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a policy by its paper-table name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}"
        ) from None
    return factory()


__all__ = [
    "Scheduler",
    "SystemView",
    "ApolloScheduler",
    "EDFScheduler",
    "EDFVDScheduler",
    "virtual_deadline_factor",
    "HCPerfConfig",
    "HCPerfScheduler",
    "HPFScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
