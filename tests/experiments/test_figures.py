"""Tests for the per-figure experiment drivers (sweeps through the Session)."""

import numpy as np
import pytest

from repro.data.census import load_us
from repro.experiments.config import SMOKE
from repro.experiments.figures import (
    FIGURE2_DATABASE,
    FIGURE3_DATABASE,
    figure2_objective_example,
    figure3_approximation_example,
)
from repro.session import ExecutionPolicy, Session

SESSION = Session(ExecutionPolicy())


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


class TestFigure2:
    def test_exact_coefficients_match_paper(self):
        curve = figure2_objective_example(rng=0)
        a, b, c = curve.exact_coefficients
        assert a == pytest.approx(2.06)
        assert b == pytest.approx(-2.34)
        assert c == pytest.approx(1.25)

    def test_exact_minimizer(self):
        curve = figure2_objective_example(rng=0)
        assert curve.minimizers[0] == pytest.approx(117.0 / 206.0, abs=0.005)

    def test_perturbed_differs(self):
        curve = figure2_objective_example(epsilon=1.0, rng=1)
        assert curve.perturbed_coefficients != curve.exact_coefficients

    def test_high_epsilon_approaches_exact(self):
        curve = figure2_objective_example(epsilon=1e7, rng=2)
        a, b, c = curve.perturbed_coefficients
        assert a == pytest.approx(2.06, abs=1e-3)
        assert abs(curve.minimizers[0] - curve.minimizers[1]) <= 0.01

    def test_example_database_is_footnote_compliant(self):
        X, y = FIGURE2_DATABASE
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0)
        assert np.all(np.abs(y) <= 1.0)

    def test_custom_grid(self):
        grid = np.linspace(0.4, 0.8, 11)
        curve = figure2_objective_example(rng=0, grid=grid)
        assert curve.omega_grid.shape == (11,)
        assert curve.exact.shape == (11,)


class TestFigure3:
    def test_approximation_close(self):
        curve = figure3_approximation_example()
        # Figure 3's y-axis spans ~1.9-2.3; the curves nearly overlap.
        assert np.max(np.abs(curve.exact - curve.perturbed)) < 0.15

    def test_minimizers_close(self):
        curve = figure3_approximation_example()
        assert abs(curve.minimizers[0] - curve.minimizers[1]) < 0.2

    def test_example_database(self):
        X, y = FIGURE3_DATABASE
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0)


class TestSweeps:
    def test_figure4_structure(self, us):
        result = SESSION.figure("figure4", us, "linear", preset=SMOKE, seed=4)
        assert result.values == (5, 8, 11, 14)
        assert set(result.series) == {"FM", "DPME", "FP", "NoPrivacy"}
        assert len(result.metric_series("FM")) == 4

    def test_figure4_logistic_includes_truncated(self, us):
        result = SESSION.figure("figure4", us, "logistic", preset=SMOKE, seed=4)
        assert "Truncated" in result.series

    def test_figure5_values_are_rates(self, us):
        result = SESSION.figure(
            "figure5", us, "linear", preset=SMOKE, seed=5, values=(0.5, 1.0)
        )
        assert result.values == (0.5, 1.0)
        assert result.series["NoPrivacy"][0].n_train < result.series["NoPrivacy"][1].n_train

    def test_figure6_noprivacy_flat(self, us):
        result = SESSION.figure("figure6", us, "linear", preset=SMOKE, seed=6)
        series = result.metric_series("NoPrivacy")
        # NoPrivacy ignores epsilon: identical data + seeds per sweep point
        # still vary by fold shuffling, but the spread must be tiny compared
        # to FM's.
        fm = result.metric_series("FM")
        assert np.std(series) < np.std(fm) + 1e-9

    def test_figure6_fm_improves_with_budget(self, us):
        result = SESSION.figure("figure6", us, "linear", preset=SMOKE, seed=6)
        fm = dict(zip(result.values, result.metric_series("FM")))
        assert fm[3.2] < fm[0.1]

    def test_timing_views(self, us):
        result = SESSION.figure("figure7", us, preset=SMOKE, seed=7)
        assert result.task == "logistic"
        times = result.time_series("FM")
        assert all(t > 0 for t in times)

    def test_panel_naming(self, us):
        result = SESSION.sweep(
            us, "linear", "epsilon", (0.8,), figure="figure6", preset=SMOKE
        )
        assert result.panel == "US-Linear"
