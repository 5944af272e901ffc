"""Oracle detectors used to validate the LRC-leveraging detector.

The paper's claim is that the coherence metadata of an LRC DSM suffices to
find *all actual data races* of an execution (Definition 2).  We check that
claim mechanically: with access tracing enabled, a run yields a full shared
access trace, and

* :mod:`repro.core.baseline.hb_detector` runs an exact happens-before
  detector over the trace's word ranges (Definition 2 per word — the
  criterion of Dinning/Schonberg and FastTrack-style tools), and
* :mod:`repro.core.baseline.postmortem` reimplements Adve et al.'s
  post-mortem trace analysis, which the paper cites as its closest
  relative (§7): computation-event logs analyzed offline.

Tests assert that the online detector's racy (address, interval-pair) sets
match the oracles exactly.
"""

from repro.core.baseline.hb_detector import HappensBeforeDetector
from repro.core.baseline.postmortem import PostMortemAnalyzer
from repro.core.baseline.trace import TraceEvent

__all__ = ["HappensBeforeDetector", "PostMortemAnalyzer", "TraceEvent"]
