"""Shared pytest fixtures (importable helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest

from tests.dsm.reference_env import ReferenceEnv, reference_engine
from tests.helpers import small_config


@pytest.fixture
def config():
    return small_config()


@pytest.fixture
def reference_env():
    """Every CVM the test runs uses the per-word spec of the access
    engine (tests/dsm/reference_env.py) in place of ``Env``."""
    with reference_engine():
        yield ReferenceEnv


@pytest.fixture(params=["production", "reference"])
def engine(request):
    """Run the test once per access engine: ``Env``, then its spec."""
    if request.param == "reference":
        request.getfixturevalue("reference_env")
    return request.param
