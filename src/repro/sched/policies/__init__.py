"""The two scheduler-policy registries.

Importing this package registers the built-in policies:

* candidate selectors — ``frfcfs`` (paper baseline), ``fcfs``,
  ``frfcfs-cap``;
* multi-tenant arbiters — ``shared-frfcfs``, ``tenant-priority``,
  ``batch-fair``.

All six run one candidate fold,
:meth:`~repro.sched.policies.base.CandidateSelector.select`, and differ
only in data it reads: which banks must offer their oldest request, and
the per-tenant rank and gate arrays. The activation gate and the drop
stage have one implementation each, the paper's DMS and AMS units,
which the memory controller builds itself. See
:mod:`repro.sched.policies.base` for the fold, the candidate key and
the registration functions.
"""

from repro.sched.policies.arbiters import (
    BatchFairArbiter,
    SharedFRFCFSArbiter,
    TenantPriorityArbiter,
)
from repro.sched.policies.base import (
    COL_PRIORITY,
    SWITCH_PRIORITY,
    Candidate,
    CandidateSelector,
    arbiter_names,
    make_arbiter,
    make_selector,
    register_arbiter,
    register_selector,
    selector_names,
)
from repro.sched.policies.selectors import (
    FCFSSelector,
    FRFCFSCapSelector,
    FRFCFSSelector,
)

__all__ = [
    "BatchFairArbiter",
    "COL_PRIORITY",
    "Candidate",
    "CandidateSelector",
    "FCFSSelector",
    "FRFCFSCapSelector",
    "FRFCFSSelector",
    "SWITCH_PRIORITY",
    "SharedFRFCFSArbiter",
    "TenantPriorityArbiter",
    "arbiter_names",
    "make_arbiter",
    "make_selector",
    "register_arbiter",
    "register_selector",
    "selector_names",
]
