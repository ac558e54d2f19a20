"""Reproducibility and metamorphic properties of the full stack.

Determinism is a stated design goal (DESIGN.md #6): seeded runs are
bit-identical, and experiment cells are keyed by position so results do not
depend on which other algorithms happen to run in the same sweep.
Metamorphic checks exploit structure the mechanism must respect: row order
cannot matter (the objective is a sum over tuples), and the constant
coefficient cannot influence the released parameter (argmin is shift-
invariant).
"""

import numpy as np
import pytest

from repro.core.mechanism import FunctionalMechanism
from repro.core.models import FMLinearRegression
from repro.core.objectives import LinearRegressionObjective
from repro.core.polynomial import QuadraticForm
from repro.data.census import load_us
from repro.experiments.config import SMOKE
from repro.session import ExecutionPolicy, Session


class TestSeededDeterminism:
    def test_sweep_bit_identical(self):
        us = load_us(5000)
        a = Session(ExecutionPolicy()).figure("figure4", us, "linear", preset=SMOKE, seed=7)
        b = Session(ExecutionPolicy()).figure("figure4", us, "linear", preset=SMOKE, seed=7)
        for name in a.series:
            assert [r.mean_score for r in a.series[name]] == [
                r.mean_score for r in b.series[name]
            ]

    def test_cell_results_independent_of_cohort(self):
        # FM evaluated alone must equal FM evaluated alongside others:
        # substreams are keyed by (algorithm, repetition, fold), not by
        # execution order.
        us = load_us(5000)
        session = Session(ExecutionPolicy())
        alone = session.evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=11
        )
        for other in ("NoPrivacy", "DPME"):
            session.evaluate(
                other, us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=11
            )
        again = session.evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=11
        )
        assert alone.mean_score == again.mean_score


class TestMetamorphicProperties:
    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 0.5, size=(500, 3))
        y = np.clip(X @ np.array([0.5, -0.2, 0.1]), -1, 1)
        permutation = rng.permutation(500)
        a = FMLinearRegression(epsilon=1.0, rng=42).fit(X, y)
        b = FMLinearRegression(epsilon=1.0, rng=42).fit(X[permutation], y[permutation])
        np.testing.assert_allclose(a.coef_, b.coef_)

    def test_constant_coefficient_does_not_move_argmin(self):
        # Shift beta by an arbitrary constant: identical noise stream =>
        # identical minimizer (the argmin ignores the constant term).
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3))
        base = QuadraticForm(
            M=A.T @ A + 10.0 * np.eye(3), alpha=rng.normal(size=3), beta=0.0
        )
        shifted = QuadraticForm(M=base.M.copy(), alpha=base.alpha.copy(), beta=123.0)
        noisy_a, _ = FunctionalMechanism(1.0, rng=5).perturb_quadratic(base, 0.5)
        noisy_b, _ = FunctionalMechanism(1.0, rng=5).perturb_quadratic(shifted, 0.5)
        np.testing.assert_allclose(noisy_a.minimize(), noisy_b.minimize())

    def test_duplicated_dataset_doubles_coefficients(self):
        # f_{D + D}(w) = 2 f_D(w): aggregation is additive over tuples.
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 0.5, size=(100, 2))
        y = rng.uniform(-1, 1, size=100)
        obj = LinearRegressionObjective(2)
        single = obj.aggregate_quadratic(X, y)
        double = obj.aggregate_quadratic(
            np.vstack([X, X]), np.concatenate([y, y])
        )
        np.testing.assert_allclose(double.M, 2 * single.M, rtol=1e-12)
        np.testing.assert_allclose(double.alpha, 2 * single.alpha, rtol=1e-12)
        assert double.beta == pytest.approx(2 * single.beta)

    def test_duplication_leaves_exact_minimizer_unchanged(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 0.5, size=(200, 2))
        y = np.clip(X @ np.array([0.7, -0.3]) + rng.normal(0, 0.01, 200), -1, 1)
        obj = LinearRegressionObjective(2)
        w1 = obj.aggregate_quadratic(X, y).minimize()
        w2 = obj.aggregate_quadratic(np.vstack([X, X]), np.concatenate([y, y])).minimize()
        np.testing.assert_allclose(w1, w2, atol=1e-10)
