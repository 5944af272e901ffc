"""CVM-analogue distributed shared memory substrate.

This package reimplements, over the deterministic simulator, the parts of
the Coherent Virtual Machine (CVM) that the paper's race detector leverages:

* page-based shared memory with a global allocator and symbol table,
* lazy release consistency in both the single-writer protocol the paper's
  prototype used and the multi-writer (twin/diff) protocol its §6.5
  extension targets,
* *intervals* delimited by acquire/release operations, identified by vector
  timestamps and carrying write notices (and, with detection enabled, read
  notices),
* a lock manager and barrier master whose messages piggyback consistency
  information, exactly the channel the detector rides on.

The public entry point is :class:`repro.dsm.cvm.CVM`, which is wiring;
each responsibility lives in the module that owns its state — ``env``
(the access engine), ``sync`` (locks, events, the barrier, consistency
shipping), ``coordinator`` (the barrier-master role and the epoch's
detection pass), ``recovery`` (crashes, failover), ``checkpoint``
(snapshots, the checkpoint cut, resume), ``protocol`` (coherence).
"""

from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM, RunResult
from repro.dsm.env import Env
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock

__all__ = ["CVM", "DsmConfig", "Env", "Interval", "RunResult", "VectorClock"]
