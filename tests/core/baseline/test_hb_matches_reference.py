"""The grouped, memoised oracle and the post-mortem analyzer against the
brute-force spec.

``HappensBeforeDetector.races`` analyses each distinct accessor set once
and decides each interval pair once; ``PostMortemAnalyzer.races`` walks
the concurrent interval pairs and merges their range lists.  Both read
the trace through one fold (``repro.core.baseline.trace.fold``), so
``pm == hb`` alone could not catch a slip in it: each is held to
``reference_hb.py`` — the word-by-word body the oracle replaced, which
expands every access itself and shares nothing with the fold.  They must
return its key set on every trace — seeded random programs, synthetic
range traces over hand-built vector-clock logs, every registered app and
the spine benchmark's oracle cells — and the corpus must be able to
tell: four plausible slips (a verdict memo that forgets the second
interval's index, a grouping that forgets ``is_write``, every range read
one word longer, a fold that closes each range one word late) have to
come out different.  The oracle is only a witness while it stays
independent, so its imports are pinned too.
"""

from __future__ import annotations

import ast
import random
import sys

import pytest

from benchmarks.spine.workloads import BY_NAME, spec_of
from tests.core.baseline.reference_hb import ReferenceHappensBeforeDetector
from tests.core.test_oracle_agreement import generate_program, run_program

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.core.baseline import hb_detector
from repro.core.baseline.hb_detector import HappensBeforeDetector
from repro.core.baseline.postmortem import PostMortemAnalyzer
from repro.core.baseline.trace import TraceEvent, fold
from repro.dsm.cvm import CVM
from repro.dsm.vector_clock import VectorClock

PROGRAM_SEEDS = range(210)
SYNTHETIC_SEEDS = range(60)
#: The two readers of the fold, each held to the reference on its own.
WITNESSES = (HappensBeforeDetector, PostMortemAnalyzer)


def program_case(seed: int):
    """One generated SPMD program under a random interleaving."""
    nprocs = 3 + seed % 3
    program = generate_program(seed, nprocs, phases=2 + seed % 2,
                               ops_per_phase=6)
    system, result = run_program(program, nprocs, seed * 7 + 1)
    return system.store.vc_log, result.access_trace


def synthetic_case(seed: int):
    """Range events over a hand-built vector-clock log.  Each new interval
    ticks its owner's entry and, half the time, first merges another
    process's current clock (an acquire); ranges start anywhere in 40
    words and run 1-8 long, so neighbouring words of one range end up in
    different accessor sets."""
    rng = random.Random(seed)
    nprocs = rng.randrange(2, 5)
    clocks = [VectorClock.zero(nprocs) for _ in range(nprocs)]
    vc_log, trace = {}, []
    for _ in range(rng.randrange(4, 16)):
        pid = rng.randrange(nprocs)
        if rng.random() < 0.5:
            clocks[pid].observe(clocks[rng.randrange(nprocs)])
        index = clocks[pid].tick(pid)
        vc_log[(pid, index)] = clocks[pid].copy()
        for _ in range(rng.randrange(4)):
            trace.append(TraceEvent(pid, index, rng.randrange(40),
                                    rng.randrange(1, 9), rng.random() < 0.4))
    return vc_log, trace


def app_case(name: str):
    spec = get_app(name)
    nprocs = 3 if name == "queue_racy" else 8  # the CLI's pin
    system = CVM(spec.config(nprocs=nprocs, track_access_trace=True))
    result = system.run(spec.func, spec.default_params)
    return system.store.vc_log, result.access_trace


@pytest.fixture(scope="module")
def corpus():
    return ([program_case(seed) for seed in PROGRAM_SEEDS]
            + [synthetic_case(seed) for seed in SYNTHETIC_SEEDS])


def disagreements(detector_class, cases):
    return [n for n, (vc_log, trace) in enumerate(cases)
            if detector_class(vc_log).races(trace)
            != ReferenceHappensBeforeDetector(vc_log).races(trace)]


def test_corpus_key_sets_equal_the_reference(corpus):
    for witness in WITNESSES:
        assert disagreements(witness, corpus) == [], witness
    # Not vacuously: the corpus has racy traces and multi-word ranges.
    assert sum(bool(HappensBeforeDetector(vc_log).races(trace))
               for vc_log, trace in corpus) > len(corpus) // 2
    assert any(event.count > 1 for _vc_log, trace in corpus
               for event in trace)


@pytest.mark.parametrize("name", sorted({**APPLICATIONS, **EXTRAS}))
def test_app_key_sets_equal_the_reference(name):
    case = app_case(name)
    for witness in WITNESSES:
        assert disagreements(witness, [case]) == [], witness


@pytest.mark.parametrize("workload", sorted(BY_NAME))
def test_spine_oracle_cells_equal_the_reference(workload, tmp_path):
    """The traces the benchmark's ``oracle_recall`` / ``oracle_precision``
    are computed from (loss + delta checkpoints, sharded detection,
    detect-offline; the record cell runs no detector)."""
    compared = []
    for cell in BY_NAME[workload].oracle:
        spec = spec_of(cell.app)
        system = CVM(spec.config(
            nprocs=cell.nprocs, track_access_trace=True,
            **cell.config_flags(0, str(tmp_path))))
        result = system.run(spec.func, cell.params or spec.default_params)
        if result.detector_stats is not None:
            compared.append((system.store.vc_log, result.access_trace))
    assert compared
    for witness in WITNESSES:
        assert disagreements(witness, compared) == [], witness


def test_partially_overlapping_ranges_split_accessor_sets():
    log = {(0, 1): VectorClock([1, 0]), (1, 1): VectorClock([0, 1])}
    trace = [TraceEvent(0, 1, addr=0, count=6, is_write=True),
             TraceEvent(1, 1, addr=4, count=6, is_write=False)]
    groups = HappensBeforeDetector.accessor_sets(trace)
    assert sorted(sorted(words) for words in groups.values()) == [
        [0, 1, 2, 3], [4, 5], [6, 7, 8, 9]]
    assert HappensBeforeDetector(log).racy_words(trace) == {4, 5}
    assert disagreements(HappensBeforeDetector, [(log, trace)]) == []


class MemoForgetsSecondIndex(HappensBeforeDetector):
    """Remembers a verdict per (interval, other *process*)."""

    def _concurrent_with(self, a, others, verdicts):
        decided, unordered = verdicts.setdefault(a, (set(), set()))
        for b in sorted(others):
            if b[0] not in decided:
                decided.add(b[0])
                if super()._concurrent_with(a, {b}, {}):
                    unordered.add(b[0])
        return {b for b in others if b[0] in unordered}


class GroupingForgetsIsWrite(HappensBeforeDetector):
    """Groups words by who touched them, not how."""

    @staticmethod
    def accessor_sets(trace):
        merged = {}
        for accessors, words in sorted(
                HappensBeforeDetector.accessor_sets(trace).items(),
                key=lambda item: min(item[1])):
            who = frozenset((pid, index) for pid, index, _w in accessors)
            merged.setdefault(who, (accessors, []))[1].extend(words)
        return dict(merged.values())


class SweepClosesLate(HappensBeforeDetector):
    """Reads every range one word longer: a change of the input, not of
    the sweep, so a per-word grouping fails it too.  It shows the corpus
    notices a range that ends one word late; every range it feeds the
    sweep is at least two words long."""

    @staticmethod
    def accessor_sets(trace):
        return HappensBeforeDetector.accessor_sets(
            event._replace(count=event.count + 1) for event in trace)


@pytest.mark.parametrize("mutant", [MemoForgetsSecondIndex,
                                    GroupingForgetsIsWrite,
                                    SweepClosesLate])
def test_a_broken_oracle_is_caught(mutant, corpus):
    assert disagreements(mutant, corpus)


def fold_closes_late(trace):
    """What a fold that closes every range it joins one word late
    returns: the input read right, the slip inside the fold.  The ranges
    it returns stay sorted and disjoint."""
    return {key: tuple([(start, end + 1) for start, end in ranges]
                       for ranges in sides)
            for key, sides in fold(trace).items()}


@pytest.mark.parametrize("witness", WITNESSES)
def test_a_broken_fold_is_caught_in_each_reader(witness, corpus,
                                                monkeypatch):
    monkeypatch.setattr(sys.modules[witness.__module__], "fold",
                        fold_closes_late)
    assert disagreements(witness, corpus)


def test_oracle_reads_only_the_trace_and_the_vector_clocks():
    """No pages, notices, check lists, epochs or window search can reach
    the oracle through an import."""
    with open(hb_detector.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            imported.add(node.module)
    repro = {name for name in imported if name.split(".")[0] == "repro"}
    assert repro == {"repro.core.baseline.trace", "repro.dsm.vector_clock"}
