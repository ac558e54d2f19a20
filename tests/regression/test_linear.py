"""Tests for the from-scratch linear/ridge regression."""

import numpy as np
import pytest

from repro.exceptions import DataError, NotFittedError
from repro.regression.linear import LinearRegression, RidgeRegression


class TestLinearRegression:
    def test_exact_recovery_noise_free(self, rng):
        X = rng.normal(size=(100, 3))
        w = np.array([1.5, -2.0, 0.5])
        model = LinearRegression().fit(X, X @ w)
        np.testing.assert_allclose(model.coef_, w, atol=1e-10)

    def test_residual_orthogonality(self, rng):
        # OLS normal equations: X^T (y - X w) = 0.
        X = rng.normal(size=(200, 4))
        y = X @ np.array([1.0, 0.0, -1.0, 2.0]) + rng.normal(0, 0.1, 200)
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(X.T @ (y - model.predict(X)), 0.0, atol=1e-8)

    def test_intercept_variant(self, rng):
        X = rng.normal(size=(500, 2))
        y = X @ np.array([2.0, -1.0]) + 3.0 + rng.normal(0, 0.01, 500)
        model = LinearRegression(fit_intercept=True).fit(X, y)
        assert model.intercept_ == pytest.approx(3.0, abs=0.05)
        np.testing.assert_allclose(model.coef_, [2.0, -1.0], atol=0.05)

    def test_no_intercept_by_default(self, rng):
        X = rng.normal(size=(50, 2))
        model = LinearRegression().fit(X, X.sum(axis=1))
        assert model.intercept_ == 0.0

    def test_singular_design_falls_back_to_lstsq(self):
        # Duplicated column: normal equations singular; lstsq must resolve.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_sample_weight_equivalent_to_replication(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        weights = rng.integers(1, 4, size=20).astype(float)
        weighted = LinearRegression().fit(X, y, sample_weight=weights)
        X_rep = np.repeat(X, weights.astype(int), axis=0)
        y_rep = np.repeat(y, weights.astype(int))
        replicated = LinearRegression().fit(X_rep, y_rep)
        np.testing.assert_allclose(weighted.coef_, replicated.coef_, atol=1e-8)

    def test_zero_weights_ignored(self, rng):
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, 2.0])
        y_corrupted = y.copy()
        y_corrupted[:10] += 100.0
        weights = np.ones(30)
        weights[:10] = 0.0
        model = LinearRegression().fit(X, y_corrupted, sample_weight=weights)
        np.testing.assert_allclose(model.coef_, [1.0, 2.0], atol=1e-8)

    def test_rejects_bad_weights(self, rng):
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        with pytest.raises(DataError):
            LinearRegression().fit(X, y, sample_weight=np.ones(4))
        with pytest.raises(DataError):
            LinearRegression().fit(X, y, sample_weight=-np.ones(5))
        with pytest.raises(DataError):
            LinearRegression().fit(X, y, sample_weight=np.zeros(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((2, 2)))

    def test_shape_validation(self, rng):
        with pytest.raises(DataError):
            LinearRegression().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(DataError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(DataError):
            LinearRegression().fit(np.full((3, 2), np.nan), np.zeros(3))

    def test_predict_width_validation(self, rng):
        model = LinearRegression().fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(DataError):
            model.predict(np.zeros((2, 3)))

    def test_score_mse(self, rng):
        X = rng.normal(size=(50, 2))
        y = X @ np.array([1.0, 1.0])
        model = LinearRegression().fit(X, y)
        assert model.score_mse(X, y) == pytest.approx(0.0, abs=1e-16)


class TestRidgeRegression:
    def test_zero_lambda_matches_ols(self, rng):
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(lam=0.0).fit(X, y)
        np.testing.assert_allclose(ridge.coef_, ols.coef_, atol=1e-10)

    def test_shrinkage_monotone(self, rng):
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        norms = [
            np.linalg.norm(RidgeRegression(lam=lam).fit(X, y).coef_)
            for lam in (0.0, 1.0, 10.0, 100.0)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_closed_form(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        lam = 2.5
        ridge = RidgeRegression(lam=lam).fit(X, y)
        expected = np.linalg.solve(X.T @ X + lam * np.eye(2), X.T @ y)
        np.testing.assert_allclose(ridge.coef_, expected, atol=1e-10)

    def test_intercept_not_penalized(self, rng):
        X = rng.normal(size=(2000, 2))
        y = X @ np.array([0.5, 0.5]) + 10.0 + rng.normal(0, 0.01, 2000)
        model = RidgeRegression(lam=1e4, fit_intercept=True).fit(X, y)
        # Slopes shrink hard, intercept must absorb the mean.
        assert model.intercept_ == pytest.approx(y.mean(), abs=0.3)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            RidgeRegression(lam=-1.0)

    def test_handles_singular_design(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 1.0])
        model = RidgeRegression(lam=0.5).fit(X, y)
        assert np.all(np.isfinite(model.coef_))


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestSolveNormalEquations:
    """The shared solve-with-fallback helper behind OLS and ridge."""

    def test_well_posed_matches_direct_solve(self, rng):
        from repro.regression.linear import _solve_normal_equations

        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        gram, moment = X.T @ X, X.T @ y
        weights = _solve_normal_equations(gram, moment, lambda: (X, y))
        np.testing.assert_array_equal(weights, np.linalg.solve(gram, moment))

    def test_singular_gram_falls_back_to_lstsq(self):
        from repro.regression.linear import _solve_normal_equations

        # Duplicated column: the Gram matrix is exactly rank 1.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        weights = _solve_normal_equations(X.T @ X, X.T @ y, lambda: (X, y))
        expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_array_equal(weights, expected)
        np.testing.assert_allclose(X @ weights, y, atol=1e-10)

    def test_nonfinite_solution_falls_back_to_lstsq(self):
        from repro.regression.linear import _solve_normal_equations

        # A Gram matrix that LAPACK does not flag singular but that yields
        # non-finite weights: inf entries survive the solve.
        gram = np.array([[1.0, 0.0], [0.0, 1.0]])
        moment = np.array([np.inf, 0.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        weights = _solve_normal_equations(gram, moment, lambda: (X, y))
        expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_array_equal(weights, expected)

    def test_ridge_shares_the_fallback(self):
        # lam=0 ridge on a singular design goes through the same helper.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        y = np.array([1.0, 2.0, 5.0])
        model = RidgeRegression(lam=0.0).fit(X, y)
        expected, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(model.coef_, expected, atol=1e-12)

    def test_weighted_singular_design(self):
        # The histogram baselines hit the fallback with sample weights.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 2.0, 1.0, 0.5])
        model = LinearRegression().fit(X, y, sample_weight=w)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-10)
