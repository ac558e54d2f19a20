"""Tests for the high-level FM estimators."""

import numpy as np
import pytest

from repro.core.models import FMLinearRegression, FMLogisticRegression
from repro.exceptions import DataError, DomainError, NotFittedError
from repro.privacy.budget import PrivacyBudget
from repro.regression.linear import LinearRegression
from repro.regression.logistic import LogisticRegressionModel


class TestFMLinearRegression:
    def test_fit_predict_shapes(self, linear_data):
        X, y, _ = linear_data
        model = FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)
        assert model.coef_.shape == (X.shape[1],)
        assert model.predict(X).shape == (X.shape[0],)

    def test_accuracy_approaches_ols_at_high_epsilon(self, linear_data):
        X, y, _ = linear_data
        ols = LinearRegression().fit(X, y)
        fm = FMLinearRegression(epsilon=1e7, rng=0).fit(X, y)
        np.testing.assert_allclose(fm.coef_, ols.coef_, atol=1e-3)

    def test_noise_decreases_with_epsilon(self, linear_data):
        X, y, _ = linear_data
        ols = LinearRegression().fit(X, y)
        errors = {}
        for epsilon in (0.1, 100.0):
            dists = [
                np.linalg.norm(
                    FMLinearRegression(epsilon=epsilon, rng=seed).fit(X, y).coef_
                    - ols.coef_
                )
                for seed in range(10)
            ]
            errors[epsilon] = np.mean(dists)
        assert errors[100.0] < errors[0.1]

    def test_seeded_determinism(self, linear_data):
        X, y, _ = linear_data
        a = FMLinearRegression(epsilon=1.0, rng=5).fit(X, y)
        b = FMLinearRegression(epsilon=1.0, rng=5).fit(X, y)
        np.testing.assert_allclose(a.coef_, b.coef_)

    def test_different_seeds_differ(self, linear_data):
        X, y, _ = linear_data
        a = FMLinearRegression(epsilon=1.0, rng=5).fit(X, y)
        b = FMLinearRegression(epsilon=1.0, rng=6).fit(X, y)
        assert not np.allclose(a.coef_, b.coef_)

    def test_record_exposes_paper_sensitivity(self, linear_data):
        X, y, _ = linear_data
        d = X.shape[1]
        model = FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)
        assert model.record_.sensitivity == pytest.approx(2.0 * (d + 1) ** 2)

    def test_tight_sensitivity_option(self, linear_data):
        X, y, _ = linear_data
        d = X.shape[1]
        model = FMLinearRegression(epsilon=1.0, rng=0, tight_sensitivity=True).fit(X, y)
        assert model.record_.sensitivity == pytest.approx(2.0 * (1 + np.sqrt(d)) ** 2)

    def test_unnormalized_features_rejected(self, rng):
        X = rng.uniform(0.0, 2.0, size=(50, 3))
        y = rng.uniform(-1, 1, size=50)
        with pytest.raises(DomainError):
            FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)

    def test_target_out_of_range_rejected(self, rng):
        X = rng.uniform(0.0, 0.5, size=(50, 3))
        y = rng.uniform(-5, 5, size=50)
        with pytest.raises(DomainError):
            FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            FMLinearRegression(epsilon=1.0).fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            FMLinearRegression(epsilon=1.0).predict(np.zeros((1, 2)))

    def test_budget_charged_once(self, linear_data):
        X, y, _ = linear_data
        budget = PrivacyBudget(1.0)
        FMLinearRegression(epsilon=0.7, rng=0, budget=budget).fit(X, y)
        assert budget.spent == pytest.approx(0.7)

    def test_rerun_strategy_charges_double(self, linear_data):
        X, y, _ = linear_data
        budget = PrivacyBudget(5.0)
        model = FMLinearRegression(
            epsilon=1.0, rng=0, budget=budget, post_processing="rerun"
        ).fit(X, y)
        assert budget.spent == pytest.approx(2.0)
        assert model.effective_epsilon == pytest.approx(2.0)

    def test_effective_epsilon_default(self, linear_data):
        X, y, _ = linear_data
        model = FMLinearRegression(epsilon=0.5, rng=0).fit(X, y)
        assert model.effective_epsilon == pytest.approx(0.5)

    def test_ridge_lambda_shrinks_solution(self, linear_data):
        X, y, _ = linear_data
        plain = FMLinearRegression(epsilon=10.0, rng=1).fit(X, y)
        ridged = FMLinearRegression(epsilon=10.0, rng=1, ridge_lambda=1e4).fit(X, y)
        assert np.linalg.norm(ridged.coef_) < np.linalg.norm(plain.coef_)

    def test_score_mse(self, linear_data):
        X, y, _ = linear_data
        model = FMLinearRegression(epsilon=5.0, rng=0).fit(X, y)
        assert model.score_mse(X, y) >= 0.0

    def test_wrong_predict_width_raises(self, linear_data):
        X, y, _ = linear_data
        model = FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)
        with pytest.raises(DataError):
            model.predict(np.zeros((3, X.shape[1] + 1)))


class TestFMLogisticRegression:
    def test_fit_predict_shapes(self, logistic_data):
        X, y, _ = logistic_data
        model = FMLogisticRegression(epsilon=1.0, rng=0).fit(X, y)
        assert model.coef_.shape == (X.shape[1],)
        proba = model.predict_proba(X)
        assert proba.shape == (X.shape[0],)
        assert np.all((proba >= 0) & (proba <= 1))
        labels = model.predict(X)
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_approaches_truncated_solution_at_high_epsilon(self, logistic_data):
        X, y, _ = logistic_data
        obj_free = FMLogisticRegression(epsilon=1e8, rng=0).fit(X, y)
        # The truncated (noise-free) optimum:
        from repro.baselines.truncated import Truncated

        truncated = Truncated(task="logistic").fit(X, y)
        np.testing.assert_allclose(obj_free.coef_, truncated.coef_, atol=1e-3)

    def test_paper_sensitivity(self, logistic_data):
        X, y, _ = logistic_data
        d = X.shape[1]
        model = FMLogisticRegression(epsilon=1.0, rng=0).fit(X, y)
        assert model.record_.sensitivity == pytest.approx(d**2 / 4 + 3 * d)

    def test_non_boolean_labels_rejected(self, linear_data):
        X, y, _ = linear_data  # continuous targets
        with pytest.raises(DomainError):
            FMLogisticRegression(epsilon=1.0, rng=0).fit(X, y)

    def test_chebyshev_variant_fits(self, logistic_data):
        X, y, _ = logistic_data
        model = FMLogisticRegression(
            epsilon=2.0, rng=0, approximation="chebyshev"
        ).fit(X, y)
        assert model.score_misclassification(X, y) <= 0.5

    def test_higher_order_fits(self, logistic_data):
        X, y, _ = logistic_data
        model = FMLogisticRegression(epsilon=8.0, rng=0, order=4).fit(X, y)
        assert model.coef_.shape == (X.shape[1],)
        assert np.linalg.norm(model.coef_) <= model.search_radius + 1e-9
        assert model.postprocess_.strategy == "projected-ball"

    def test_better_than_chance_at_moderate_epsilon(self, logistic_data):
        X, y, _ = logistic_data
        scores = [
            FMLogisticRegression(epsilon=3.2, rng=s).fit(X, y).score_misclassification(X, y)
            for s in range(5)
        ]
        assert np.mean(scores) < 0.5

    def test_seeded_determinism(self, logistic_data):
        X, y, _ = logistic_data
        a = FMLogisticRegression(epsilon=1.0, rng=9).fit(X, y)
        b = FMLogisticRegression(epsilon=1.0, rng=9).fit(X, y)
        np.testing.assert_allclose(a.coef_, b.coef_)

    def test_decision_function_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            FMLogisticRegression(epsilon=1.0).decision_function(np.zeros((1, 2)))

    def test_effective_epsilon(self, logistic_data):
        X, y, _ = logistic_data
        model = FMLogisticRegression(epsilon=0.8, rng=0).fit(X, y)
        assert model.effective_epsilon == pytest.approx(0.8)


class TestFitStatistics:
    """``fit`` ends in ``fit_statistics``: one solve path for rows and statistics."""

    @staticmethod
    def _snapshot(X, y):
        from repro.engine.accumulator import MomentAccumulator

        return MomentAccumulator(X.shape[1]).update(X, y).snapshot()

    @pytest.mark.parametrize("cls", [FMLinearRegression, FMLogisticRegression])
    def test_snapshot_fit_equals_form_fit(self, cls, linear_data, logistic_data):
        X, y, _ = linear_data if cls is FMLinearRegression else logistic_data
        snapshot = self._snapshot(X, y)
        objective = cls(epsilon=1.0).fit(X, y).objective_
        from_snapshot = cls(epsilon=1.0, rng=3).fit_statistics(snapshot)
        from_form = cls(epsilon=1.0, rng=3).fit_statistics(
            snapshot.quadratic_form(objective)
        )
        assert from_snapshot.coef_.tobytes() == from_form.coef_.tobytes()
        # The rows path aggregates by GEMM instead: equal up to rounding.
        from_rows = cls(epsilon=1.0, rng=3).fit(X, y)
        np.testing.assert_allclose(from_rows.coef_, from_snapshot.coef_, rtol=1e-6)

    def test_higher_order_logistic_needs_rows(self, logistic_data):
        from repro.exceptions import DegreeError

        X, y, _ = logistic_data
        with pytest.raises(DegreeError):
            FMLogisticRegression(epsilon=1.0, order=4).fit_statistics(self._snapshot(X, y))

    def test_ols_statistics_fallback_gathers_rows_only_when_singular(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]) / 8.0
        y = np.array([0.25, 0.5, 0.75])
        calls = []

        def rows():
            calls.append(1)
            return X, y

        fitted = LinearRegression().fit_statistics(self._snapshot(X, y), rows)
        expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(fitted.coef_, expected, atol=1e-12)
        assert calls == [1]
        well_posed = np.array([[0.5, 0.1], [0.1, 0.5], [0.3, 0.3]])
        LinearRegression().fit_statistics(self._snapshot(well_posed, y), rows)
        assert calls == [1]


@pytest.fixture
def rng():
    return np.random.default_rng(17)
