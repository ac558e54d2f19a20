"""Shared fixtures and the tiered-suite wiring for the test suite.

Fixtures provide small, footnote-1-compliant datasets so individual tests
stay fast; anything needing paper-scale data builds it explicitly.

The suite is organized in verification tiers (see :mod:`repro.verify`):

* **tier 1** — the fast conformance gate.  Everything unmarked plus
  ``tier1``-marked tests; this is what a bare ``pytest`` run executes.
* **tier 2** — statistical audits (empirical privacy measurements,
  injected-bug detection).  Included in the default run; selectable alone
  with ``-m tier2``.
* **tier 3** — the golden-oracle execution matrix.  Opt-in only
  (``--run-tier3`` or ``REPRO_TIER3=1``): it runs ~50 figure pipelines and
  compares committed digests, which is a CI-job-sized workload.

``slow`` is retained as an orthogonal duration hint; long-running tests
carry both a tier and ``slow``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-tier3",
        action="store_true",
        default=False,
        help="run tier-3 golden-oracle matrix tests (also: REPRO_TIER3=1)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
    config.addinivalue_line(
        "markers", "tier1: fast conformance gate (part of the default run)"
    )
    config.addinivalue_line(
        "markers",
        "tier2: statistical audits (part of the default run; `-m tier2` selects)",
    )
    config.addinivalue_line(
        "markers",
        "tier3: golden-oracle matrix (opt-in via --run-tier3 or REPRO_TIER3=1)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-tier3") or os.environ.get("REPRO_TIER3") == "1":
        return
    skip_tier3 = pytest.mark.skip(
        reason="tier3 golden matrix: opt in with --run-tier3 or REPRO_TIER3=1"
    )
    for item in items:
        if "tier3" in item.keywords:
            item.add_marker(skip_tier3)


@pytest.fixture(autouse=True)
def _ambient_slots_restored():
    """Fail the test that leaves a process-global ambient slot changed.

    The active recorder, fault injector and array backend are module
    globals (worker threads must see them), so a test that installs one
    without restoring it would silently leak into every later test and
    fail there instead.  The guard restores the slots before failing, so
    only the leaking test is reported.
    """
    import repro.faults.injector as injector_module
    import repro.obs as obs_module
    import repro.runtime.backend as backend_module

    slots = (
        ("active recorder", obs_module, obs_module.NULL_RECORDER),
        ("active fault injector", injector_module, injector_module._ACTIVE),
        ("active array backend", backend_module, backend_module._ACTIVE),
    )
    yield
    leaked = []
    for label, module, expected in slots:
        if module._ACTIVE is not expected:
            leaked.append(f"{label} {module._ACTIVE!r} (expected {expected!r})")
            module._ACTIVE = expected
    if leaked:
        pytest.fail("test left ambient state installed: " + "; ".join(leaked))


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def linear_data(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, w_true): normalized features, targets in [-1, 1]."""
    d = 4
    X = rng.uniform(0.0, 1.0 / np.sqrt(d), size=(3000, d))
    w_true = np.array([0.8, -0.5, 0.3, 0.15])
    y = np.clip(X @ w_true + rng.normal(0.0, 0.05, 3000), -1.0, 1.0)
    return X, y, w_true


@pytest.fixture
def logistic_data(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, w_true): normalized features, boolean labels."""
    d = 4
    X = rng.uniform(0.0, 1.0 / np.sqrt(d), size=(3000, d))
    w_true = np.array([0.9, -0.6, 0.4, 0.2])
    z = X @ w_true
    probs = 1.0 / (1.0 + np.exp(-10.0 * (z - z.mean())))
    y = (rng.uniform(size=3000) < probs).astype(float)
    return X, y, w_true


@pytest.fixture
def figure2_example() -> tuple[np.ndarray, np.ndarray]:
    """The paper's Section-4.2 example database (1-d, three tuples)."""
    return np.array([[1.0], [0.9], [-0.5]]), np.array([0.4, 0.3, -1.0])


@pytest.fixture
def figure3_example() -> tuple[np.ndarray, np.ndarray]:
    """The paper's Section-5.2 example database for logistic regression."""
    return np.array([[-0.5], [0.0], [1.0]]), np.array([1.0, 0.0, 1.0])
