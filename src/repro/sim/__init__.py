"""Deterministic execution engine for simulated parallel processes.

The paper ran its applications on eight Alpha workstations connected by ATM.
We substitute a deterministic simulation: each simulated process runs on a
Python thread (pooled across runs), but a token-passing scheduler
guarantees that exactly one of them executes at a time and that every
interleaving decision is made by a seeded policy.  Runs are therefore
reproducible bit-for-bit.

Wall-clock performance is replaced by *virtual time*: each process owns a
:class:`~repro.sim.clock.VirtualClock` measured in cycles, advanced explicitly
by the DSM substrate and the instrumentation runtime according to a
:class:`~repro.sim.costmodel.CostModel`.  Every charge is tagged with an
overhead category so the harness can regenerate the paper's Figure 3
decomposition exactly.
"""

from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel
from repro.sim.policy import RandomPolicy, RoundRobinPolicy, make_policy
from repro.sim.scheduler import Scheduler, SimProcess

__all__ = [
    "CostCategory",
    "CostModel",
    "RandomPolicy",
    "RoundRobinPolicy",
    "Scheduler",
    "SimProcess",
    "VirtualClock",
    "make_policy",
]
