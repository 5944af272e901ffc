"""DsmConfig flag-conflict matrix.

Every illegal flag combination must be rejected at construction with a
:class:`~repro.errors.ConfigError` whose message names the conflicting
flags — a user who composed two features that cannot compose should be
told *which two*, not handed a traceback from three layers down.  The
matrix axes: mode × crash injection × resume × trace-file × sharding ×
failover (plus the scalar guards the CLI exposes).
"""

import pytest

from repro.dsm.config import CONFLICTS, DsmConfig
from repro.errors import ConfigError

#: (description, config kwargs, rule) for every witness of every rule of
#: the one conflict table — the table ``DsmConfig.__post_init__`` walks.
WITNESSES = [(description, kwargs, rule)
             for rule in CONFLICTS
             for description, kwargs in rule.witnesses.items()]


@pytest.mark.parametrize(
    "kwargs,rule",
    [w[1:] for w in WITNESSES], ids=[w[0] for w in WITNESSES])
def test_conflicts_raise_config_error_naming_both_flags(kwargs, rule):
    with pytest.raises(ConfigError) as exc_info:
        DsmConfig(**kwargs)
    message = str(exc_info.value)
    mode = kwargs.get("mode", "online")
    assert message == rule.reason.format(mode=mode), \
        "an earlier rule of the table refused this witness"
    for flag in rule.flags:
        assert flag.format(mode=mode) in message, \
            f"error message {message!r} does not name {flag!r}"


@pytest.mark.parametrize(
    "kwargs,rule",
    [w[1:] for w in WITNESSES], ids=[w[0] for w in WITNESSES])
def test_conflicts_also_catchable_as_value_error(kwargs, rule):
    # ConfigError subclasses ValueError: broad validators keep working.
    with pytest.raises(ValueError):
        DsmConfig(**kwargs)


def test_every_rule_has_a_witness():
    assert all(rule.witnesses for rule in CONFLICTS)


LEGAL = [
    ("record with trace",
     dict(mode="record", trace_file="/tmp/t.log")),
    ("detect-offline with trace",
     dict(mode="detect-offline", trace_file="/tmp/t.log")),
    ("record over a lossy network",
     dict(mode="record", trace_file="/tmp/t.log", loss_rate=0.05)),
    ("record with sharding flags",
     dict(mode="record", trace_file="/tmp/t.log",
          sharded_detection=True)),
    ("detect-offline with failover",
     dict(mode="detect-offline", trace_file="/tmp/t.log",
          master_failover=True)),
    ("crashes with failover targeting master",
     dict(crash_at=((0, 1),), master_failover=True, nprocs=4)),
    ("online with deadline",
     dict(deadline_seconds=5.0)),
    ("record with checkpointing",
     dict(mode="record", trace_file="/tmp/t.log", checkpoint=True)),
]


@pytest.mark.parametrize(
    "kwargs", [c[1] for c in LEGAL], ids=[c[0] for c in LEGAL])
def test_legal_compositions_construct(kwargs):
    cfg = DsmConfig(**kwargs)
    assert cfg.nprocs >= 1


def test_record_mode_forces_detection_off():
    cfg = DsmConfig(mode="record", trace_file="/tmp/t.log",
                    detection=True)
    assert cfg.detection is False


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_deadline_must_be_positive(bad):
    with pytest.raises(ValueError, match="--deadline"):
        DsmConfig(deadline_seconds=bad)
