"""DsmConfig validation."""

import pytest

from repro.dsm.config import DsmConfig


def test_defaults_valid():
    cfg = DsmConfig()
    assert cfg.nprocs == 8
    assert cfg.num_pages == cfg.segment_words // cfg.page_size_words
    assert cfg.detection


@pytest.mark.parametrize("kw", [
    {"nprocs": 0},
    {"page_size_words": 0},
    {"page_size_words": 12},                      # not a multiple of 8
    {"segment_words": 100, "page_size_words": 64},  # not page multiple
    {"protocol": "mesi"},
    {"protocol": "sw", "diff_write_detection": True},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ValueError):
        DsmConfig(**kw)


def test_single_process_allowed():
    cfg = DsmConfig(nprocs=1, segment_words=64, page_size_words=64)
    assert cfg.num_pages == 1


def test_cost_model_not_shared_between_instances():
    a, b = DsmConfig(), DsmConfig()
    a.cost_model.proc_call = 1.0
    assert b.cost_model.proc_call != 1.0


def test_policy_strings_accepted_lazily():
    # Policy strings are resolved by the CVM constructor, not the config.
    cfg = DsmConfig(policy="random", seed=7)
    assert cfg.policy == "random" and cfg.seed == 7


@pytest.mark.parametrize("retired", [
    "access_fast_path", "detection_shards", "trace_messages",
    "election_timeout", "max_datagram"])
def test_retired_fields_are_gone(retired):
    with pytest.raises(TypeError, match=retired):
        DsmConfig(**{retired: False})
