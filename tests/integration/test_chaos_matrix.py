"""Combined chaos: node crashes and network faults injected together.

The crash-tolerance and lossy-network layers were each validated alone
(test_crash_recovery.py, the net suite); this matrix drives them
*simultaneously* across a seed sweep and asserts the composed guarantees:

* with checkpoints, the race report stays byte-identical to the clean
  run under any (crash_rate, loss_rate) cell of the sweep;
* recovery traffic rides the reliable channel — the recovery protocol
  must not bypass retransmission when the network is lossy;
* without checkpoints, degradation stays sound: lost-metadata pairs
  surface as explicit unverifiable entries, never silently vanish.
"""

import functools

import pytest

from repro.apps.registry import get_app
from repro.dsm.cvm import CVM
from repro.net.reliable import ReliableChannel

MATRIX = [(0.02, 0.0), (0.0, 0.05), (0.02, 0.05), (0.01, 0.1)]
SEEDS = [1, 2, 3]


def _report_lines(result):
    return sorted(str(r) for r in result.races)


@pytest.fixture(scope="module")
def tsp_free():
    return get_app("tsp").run(nprocs=4)


@functools.lru_cache(maxsize=None)
def _chaos_run(crash_rate, loss_rate, seed, **flags):
    """One checkpointed tsp@4 run of a matrix cell.  Runs are
    deterministic, so the tests that sweep the same (cell, seed, flags)
    share one execution."""
    return get_app("tsp").run(
        nprocs=4, crash_rate=crash_rate, crash_seed=seed,
        loss_rate=loss_rate, fault_seed=seed, checkpoint=True, **flags)


@pytest.mark.parametrize("crash_rate,loss_rate", MATRIX)
def test_chaos_cell_reports_byte_identical(crash_rate, loss_rate, tsp_free):
    for seed in SEEDS:
        res = _chaos_run(crash_rate, loss_rate, seed)
        assert _report_lines(res) == _report_lines(tsp_free), (
            f"report diverged at crash={crash_rate} loss={loss_rate} "
            f"seed={seed}")
        assert res.unverifiable == []


def test_matrix_exercises_both_fault_kinds():
    """The sweep must actually crash nodes AND drop datagrams somewhere —
    the composed guarantee is vacuous otherwise."""
    crashes = retransmits = 0
    for crash_rate, loss_rate in MATRIX:
        for seed in SEEDS:
            res = _chaos_run(crash_rate, loss_rate, seed)
            crashes += res.crash_stats.crashes
            retransmits += res.traffic.retransmits
    assert crashes > 0
    assert retransmits > 0


def _run_with_send_spy(**config_overrides):
    spec = get_app("tsp")
    cfg = spec.config(nprocs=4, **config_overrides)
    system = CVM(cfg)
    assert isinstance(system.net, ReliableChannel)
    tags = []
    original_send = system.net.send

    def spying_send(tag, *args, **kwargs):
        tags.append(tag)
        return original_send(tag, *args, **kwargs)

    system.net.send = spying_send
    result = system.run(spec.func, spec.default_params)
    return result, tags


def test_recovery_requests_ride_reliable_channel():
    """With faults on, the master's recovery orders must go through the
    reliable channel — a dropped order would strand the crashed node."""
    result, tags = _run_with_send_spy(
        crash_rate=0.02, crash_seed=2, loss_rate=0.05, fault_seed=2,
        checkpoint=True)
    assert result.crash_stats.crashes > 0
    assert "recovery_request" in tags


def test_recovery_pages_ride_reliable_channel():
    """Checkpoint-less recovery refetches page copies from their
    managers; those transfers must survive a lossy network too."""
    result, tags = _run_with_send_spy(
        crash_rate=0.02, crash_seed=2, loss_rate=0.05, fault_seed=2)
    assert result.crash_stats.recoveries_without_checkpoint > 0
    assert "recovery_request" in tags
    assert "recovery_page" in tags


def test_recovery_uses_bare_transport_without_faults():
    """Faults off: the channel is the bare transport (byte-identity with
    fault-free builds), recovery included."""
    spec = get_app("tsp")
    cfg = spec.config(nprocs=4, crash_rate=0.02, crash_seed=2,
                      checkpoint=True)
    system = CVM(cfg)
    assert not isinstance(system.net, ReliableChannel)
    assert system.net is system.transport


def test_combined_chaos_without_checkpoints_degrades_soundly():
    clean = get_app("water").run(nprocs=4)
    res = get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7,
                               loss_rate=0.05, fault_seed=7)
    cs, st = res.crash_stats, res.detector_stats
    assert cs.crashes > 0
    assert cs.intervals_lost > 0
    assert res.unverifiable
    assert st.unverifiable_pairs > 0
    # Surviving races are a subset of the clean report; anything missing
    # is covered by an unverifiable entry (soundness under double chaos).
    assert set(_report_lines(res)) <= set(_report_lines(clean))
    unverifiable_sides = {(e.a.pid, e.a.index) for e in res.unverifiable} \
        | {(e.b.pid, e.b.index) for e in res.unverifiable}
    found = {str(r) for r in res.races}
    for race in clean.races:
        if str(race) not in found:
            sides = {(race.a.pid, race.a.index),
                     (race.b.pid, race.b.index)}
            assert sides & unverifiable_sides, (
                f"race silently dropped under combined chaos: {race}")


def test_combined_chaos_deterministic():
    kwargs = dict(nprocs=4, crash_rate=0.02, crash_seed=5,
                  loss_rate=0.05, fault_seed=5, checkpoint=True)
    a = get_app("tsp").run(**kwargs)
    b = get_app("tsp").run(**kwargs)
    assert a.runtime_cycles == b.runtime_cycles
    assert _report_lines(a) == _report_lines(b)
    assert a.traffic.retransmits == b.traffic.retransmits
    assert a.crash_stats == b.crash_stats


# ---------------------------------------------------------------------- #
# Master crashes join the matrix: with failover enabled the coordinator
# is just another mortal process, and the composed guarantees must hold
# through an election + detection-state migration.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("crash_rate,loss_rate", MATRIX)
def test_chaos_cell_with_master_failover_byte_identical(crash_rate,
                                                        loss_rate,
                                                        tsp_free):
    for seed in SEEDS:
        res = _chaos_run(crash_rate, loss_rate, seed, master_failover=True)
        assert _report_lines(res) == _report_lines(tsp_free), (
            f"report diverged at crash={crash_rate} loss={loss_rate} "
            f"seed={seed} with master failover")
        assert res.unverifiable == []
        # Immunity is lifted: nothing on the master is ever suppressed.
        assert res.crash_stats.master_crashes_suppressed == 0


def test_failover_messages_ride_reliable_channel():
    """Election votes, the journal transfer and the re-solicitation round
    all go through the reliable channel — a dropped election message
    would strand the whole barrier."""
    result, tags = _run_with_send_spy(
        crash_at=((0, 1),), master_failover=True,
        loss_rate=0.05, fault_seed=2, checkpoint=True)
    assert result.failover_stats.elections_held == 1
    for tag in ("election_vote", "coordinator_announce",
                "coordinator_state", "resolicit_request",
                "resolicit_reply"):
        assert tag in tags, f"missing failover message {tag!r}"


def test_resolicitation_is_delta_encoded():
    """Each survivor resends only its *own* records past the winner's
    pre-election horizon — the reply payloads (record counts) must sum to
    exactly ``records_resolicited``, with no full-epoch re-shipment."""
    spec = get_app("tsp")
    cfg = spec.config(nprocs=4, crash_at=((0, 1),), master_failover=True,
                      checkpoint=True)
    system = CVM(cfg)
    replies = []
    original_send = system.net.send

    def spying_send(tag, src, dst, payload, *args, **kwargs):
        if tag == "resolicit_reply":
            replies.append((src, payload))
        return original_send(tag, src, dst, payload, *args, **kwargs)

    system.net.send = spying_send
    result = system.run(spec.func, spec.default_params)
    assert result.failover_stats.elections_held == 1
    assert replies, "no re-solicitation round observed"
    assert (sum(count for _, count in replies)
            == result.failover_stats.records_resolicited)
    # Delta encoding: every survivor replies once per election, with its
    # own records only — small counts, never the whole epoch's metadata.
    assert len(replies) == cfg.nprocs - 1


# ---------------------------------------------------------------------- #
# Resume across a coordinator election: a checkpointed run whose
# coordinator crashed and was replaced must be resumable, reproducing the
# election (same winner, same migrated state) and the race report
# byte-identically.
# ---------------------------------------------------------------------- #
def _failover_cell_kwargs(tmp_path=None, resume=False):
    kw = dict(nprocs=4, crash_at=((0, 1),), master_failover=True)
    if resume:
        kw["resume_from"] = str(tmp_path)
    else:
        kw["checkpoint_dir"] = str(tmp_path)
    return kw


def test_resume_past_coordinator_election(tmp_path):
    spec = get_app("tsp")
    original = spec.run(**_failover_cell_kwargs(tmp_path))
    assert original.failover_stats.elections_held == 1
    resumed = spec.run(**_failover_cell_kwargs(tmp_path, resume=True))
    assert resumed.failover_stats.elections_held == 1
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.detector_stats == original.detector_stats
    assert resumed.runtime_cycles == original.runtime_cycles


def test_resume_past_rate_driven_election(tmp_path):
    """Same coverage on the rate-driven schedule (crashes decided by the
    injector, not pinned), including the election."""
    spec = get_app("tsp")
    kwargs = dict(nprocs=4, crash_rate=0.02, crash_seed=11,
                  master_failover=True)
    original = spec.run(checkpoint_dir=str(tmp_path), **kwargs)
    assert original.failover_stats.elections_held > 0
    resumed = spec.run(resume_from=str(tmp_path), **kwargs)
    assert resumed.failover_stats.elections_held == \
        original.failover_stats.elections_held
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles


def test_resume_past_election_with_sharded_detection(tmp_path):
    """The stacked case: sharded detection stays byte-identical through a
    checkpoint, an election, and a resume of the whole history."""
    spec = get_app("tsp")
    original = spec.run(sharded_detection=True,
                        **_failover_cell_kwargs(tmp_path))
    assert original.failover_stats.elections_held == 1
    assert original.sharding_stats.epochs_sharded > 0
    resumed = spec.run(sharded_detection=True,
                       **_failover_cell_kwargs(tmp_path, resume=True))
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.detector_stats == original.detector_stats
    assert resumed.runtime_cycles == original.runtime_cycles


# ---------------------------------------------------------------------- #
# The two-level filter joins the matrix: under crashes, a lossy network
# and sharded detection simultaneously, filter-on reports must stay
# byte-identical to filter-off (the filter only skips comparisons the
# digests prove empty) — and to the clean run, checkpoints on.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("crash_rate,loss_rate", MATRIX)
def test_chaos_cell_coarse_filter_byte_identical(crash_rate, loss_rate,
                                                 tsp_free):
    for seed in SEEDS:
        on = _chaos_run(crash_rate, loss_rate, seed,
                        sharded_detection=True, coarse_filter=True)
        off = _chaos_run(crash_rate, loss_rate, seed,
                         sharded_detection=True, coarse_filter=False)
        assert _report_lines(on) == _report_lines(off) \
            == _report_lines(tsp_free), (
                f"filter changed the report at crash={crash_rate} "
                f"loss={loss_rate} seed={seed}")
        assert on.unverifiable == off.unverifiable == []


def test_chaos_filter_cells_exercise_the_filter():
    """The filter matrix is vacuous unless some cell actually filters
    pairs and some cell actually crashes/drops."""
    filtered = crashes = retransmits = 0
    for crash_rate, loss_rate in MATRIX:
        for seed in SEEDS:
            res = _chaos_run(crash_rate, loss_rate, seed,
                             sharded_detection=True, coarse_filter=True)
            filtered += res.detector_stats.pairs_filtered
            crashes += res.crash_stats.crashes
            retransmits += res.traffic.retransmits
    assert filtered > 0
    assert crashes > 0
    assert retransmits > 0


# ---------------------------------------------------------------------- #
# Journal durability: a torn coordinator-journal append must be detected
# on install and its tail filled in from the holder's checkpoint section —
# never installed as garbage, never fatal.
# ---------------------------------------------------------------------- #
def test_torn_journal_falls_back_to_checkpoint(monkeypatch, tsp_free):
    from repro.dsm.coordinator import CoordinatorRole

    install = CoordinatorRole.install_from_journal

    def torn_install(self, new_pid, section=None):
        # The dead coordinator's last append tore mid-record, and its
        # memory died with it: only the checkpoint can fill the tail in.
        self._journal = self._journal[:-10]
        self.detector.log = []
        return install(self, new_pid, section)

    monkeypatch.setattr(CoordinatorRole, "install_from_journal",
                        torn_install)
    res = get_app("tsp").run(nprocs=4, crash_at=((0, 1),),
                             master_failover=True, checkpoint=True)
    assert res.failover_stats.elections_held == 1
    assert res.failover_stats.journal_fallbacks == 1
    assert _report_lines(res) == _report_lines(tsp_free)
    assert res.unverifiable == []
    # The torn epoch-0 record came back: tsp races only in epoch 1, so
    # the report lines alone would not show its loss.
    assert res.detector_stats == tsp_free.detector_stats
