"""Memory scheduling: the command-issue engine of paper Fig. 9 with its
DMS and AMS units and the selector/arbiter registries under them."""

from repro.sched.ams import AMSUnit
from repro.sched.controller import MemoryController
from repro.sched.dms import DMSUnit
from repro.sched.overhead import (
    HardwareBudget,
    full_lazy_scheduler_overhead,
    scheduler_overhead,
)
from repro.sched.pending_queue import PendingQueue
from repro.sched.policies import CandidateSelector, selector_names

__all__ = [
    "AMSUnit",
    "CandidateSelector",
    "DMSUnit",
    "HardwareBudget",
    "MemoryController",
    "PendingQueue",
    "full_lazy_scheduler_overhead",
    "scheduler_overhead",
    "selector_names",
]
