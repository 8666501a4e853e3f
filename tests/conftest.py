"""Shared fixtures for the test suite.

The reusable builders (``make_random_tree``, ``make_random_dag``,
``random_distribution``) live in :mod:`repro.testing` so test modules and
benchmarks import them from the package instead of from a ``conftest``
module (which is ambiguous when several directories define one).  The
``src/`` layout is put on ``sys.path`` by the ``pythonpath`` setting in
``pyproject.toml`` — no path surgery here.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.engine import close_sweep_executor
from repro import testing


@pytest.fixture(autouse=True, scope="session")
def assert_no_worker_outlives_the_session():
    """Fail the session if any worker process outlives the tests.

    ``simulate_noisy(jobs=N)`` keeps its executor warm across sweeps, and
    the engine's ``atexit`` hook shuts it down — but ``atexit`` runs
    *after* pytest, so a leaked worker would go unnoticed.  This fixture
    finalizes after every test: it closes the warm executor (which, under
    ``REPRO_SANITIZE=1``, raises if a worker it started survives) and
    asserts that no child process of the test session is left alive.
    """
    yield
    close_sweep_executor()
    leaked = multiprocessing.active_children()
    assert not leaked, (
        f"worker processes outlived the test session: {leaked}; every "
        "executor and process a test starts must be shut down"
    )


@pytest.fixture
def vehicle_hierarchy() -> Hierarchy:
    return testing.vehicle_hierarchy()


@pytest.fixture
def vehicle_distribution() -> TargetDistribution:
    return testing.vehicle_distribution()


@pytest.fixture
def diamond_dag() -> Hierarchy:
    """Smallest interesting DAG: two paths sharing a descendant."""
    return Hierarchy(
        [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
