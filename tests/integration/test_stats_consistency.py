"""Stats counters are consistent under crashes and abandoned protocols.

Two accounting bugs are pinned here:

* ``ShardingStats`` counters used to be incremented *before* the scatter
  and reduce sends — a ``RetryExhaustedError`` mid-phase (a shard owner
  unreachable on a lossy network) abandoned the epoch to the centralized
  fallback but left ``shards_dispatched``/``records_shipped`` inflated
  for work whose results were thrown away.  The phases now accumulate
  into a staged ``ShardingStats`` merged only after the epoch commits.

* ``TrafficStats`` per-tag message counts must agree across a crash /
  no-crash pair for the synchronization-level tags (the crash layer adds
  only its own ``recovery_*``/``election_*`` traffic): counting happens
  at confirmed delivery inside the transport, never optimistically
  before a send that then dies with the sender.
"""

import pytest

from repro.apps.registry import get_app
from repro.net.faults import FaultPlan, FaultRates
from repro.replay.trace import SYNC_TAGS


def _sync_tag_counts(result):
    return {tag: result.traffic.messages_by_tag.get(tag, 0)
            for tag in SYNC_TAGS}


# ---------------------------------------------------------------------- #
# ShardingStats: abandoned epochs contribute nothing.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def all_shards_dropped():
    """Drop (nearly) every ``detect_shard`` scatter datagram with a tiny
    retry budget: every epoch's scatter exhausts its retries and falls
    back to centralized detection."""
    plan = FaultPlan(by_tag={"detect_shard": FaultRates(drop=0.95)}, seed=3)
    return get_app("sor").run(nprocs=4, sharded_detection=True,
                              fault_plan=plan, retry_budget=2)


def test_abandoned_shard_epochs_leave_no_counts(all_shards_dropped):
    sh = all_shards_dropped.sharding_stats
    assert sh.fallbacks_network > 0
    assert sh.epochs_sharded == 0
    # The regression: these used to read as if the abandoned scatters
    # had succeeded.
    assert sh.shards_dispatched == 0
    assert sh.records_shipped == 0
    assert sh.bytes_scattered == 0
    assert sh.bytes_reduced == 0


def test_abandoned_shard_epochs_still_detect(all_shards_dropped):
    """The fallback is sound: the centralized pass produces the same
    verdicts as a run that never sharded."""
    plain = get_app("sor").run(nprocs=4)
    assert ([str(r) for r in all_shards_dropped.races]
            == [str(r) for r in plain.races])
    assert all_shards_dropped.detector_stats == plain.detector_stats


def test_committed_epochs_count_exactly_once():
    """Fault-free sharding: dispatched shards match the per-epoch plan
    sizes — no double counting from the staged merge."""
    res = get_app("sor").run(nprocs=4, sharded_detection=True)
    sh = res.sharding_stats
    assert sh.epochs_sharded > 0
    assert sh.fallbacks_network == sh.fallbacks_owner_crash == 0
    assert sh.shards_dispatched > 0
    # A second identical run agrees counter for counter.
    again = get_app("sor").run(nprocs=4, sharded_detection=True)
    assert sh == again.sharding_stats


def test_partial_shard_loss_commits_only_surviving_epochs():
    """A milder drop rate lets some epochs commit and others fall back;
    committed counts must reflect only the committed epochs."""
    plan = FaultPlan(by_tag={"detect_shard": FaultRates(drop=0.6)}, seed=5)
    res = get_app("sor").run(nprocs=4, sharded_detection=True,
                             fault_plan=plan, retry_budget=2)
    sh = res.sharding_stats
    assert sh.epochs_sharded + sh.epochs_centralized > 0
    if sh.epochs_sharded == 0:
        assert sh.shards_dispatched == 0
    else:
        assert sh.shards_dispatched > 0
    # Fallbacks and commits partition the sharded attempts.
    assert sh.fallbacks_network > 0


# ---------------------------------------------------------------------- #
# TrafficStats: crash / no-crash pairs agree on synchronization traffic.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("crash_seed", [7, 11])
def test_sync_traffic_identical_across_crash_pair(crash_seed):
    spec = get_app("tsp")
    free = spec.run(nprocs=4)
    crashy = spec.run(nprocs=4, crash_rate=0.02, crash_seed=crash_seed,
                      checkpoint=True)
    assert crashy.crash_stats.crashes > 0
    assert _sync_tag_counts(crashy) == _sync_tag_counts(free)


def test_declared_death_adds_only_recovery_tags():
    """An explicit manager-killing crash (deaths declared, locks
    migrated) still leaves the synchronization-tag counts untouched;
    the crash layer's additions all carry their own tags."""
    spec = get_app("tsp")
    free = spec.run(nprocs=4)
    crashy = spec.run(nprocs=4, crash_at=((1, 1),), checkpoint=True)
    assert crashy.crash_stats.deaths_declared == 1
    assert _sync_tag_counts(crashy) == _sync_tag_counts(free)
    extra = {tag for tag, n in crashy.traffic.messages_by_tag.items()
             if n != free.traffic.messages_by_tag.get(tag, 0)}
    assert extra  # recovery is not free...
    assert not extra & SYNC_TAGS  # ...but never inflates sync counts
