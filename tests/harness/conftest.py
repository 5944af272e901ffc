"""One small full-experiment run, shared by the harness and export tests."""

import pytest

from repro.harness.context import ExperimentContext
from repro.harness.experiments import run_all_experiments


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext()


@pytest.fixture(scope="session")
def results(ctx):
    return run_all_experiments(ctx, sweep=(2, 4))
