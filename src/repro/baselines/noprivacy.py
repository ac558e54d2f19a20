"""NoPrivacy and FM adapters for the evaluation harness.

``NoPrivacy`` is Section 7's non-private reference line: plain OLS / plain
logistic MLE on the raw (normalized) data.  ``FM`` wraps the library's
estimators behind the same :class:`~repro.baselines.base.BaselineRegressor`
interface so experiment configs can name all algorithms uniformly.
"""

from __future__ import annotations

import numpy as np

from ..core.models import FMLinearRegression, FMLogisticRegression
from ..privacy.rng import RngLike
from ..regression.linear import LinearRegression
from ..regression.logistic import LogisticRegressionModel
from .base import BaselineRegressor, Task, register_algorithm

__all__ = ["NoPrivacy", "FMBaseline"]


@register_algorithm("NoPrivacy")
class NoPrivacy(BaselineRegressor):
    """Exact (non-private) regression: the paper's accuracy ceiling."""

    is_private = False

    def __init__(self, task: Task) -> None:
        super().__init__(task)
        self._model: LinearRegression | LogisticRegressionModel | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NoPrivacy":
        if self.task == "linear":
            self._model = LinearRegression().fit(X, y)
        else:
            self._model = LogisticRegressionModel().fit(X, y)
        self.coef_ = self._model.coef_
        return self

    def fit_statistics(self, statistics, rows=None) -> "NoPrivacy":
        """OLS from a moment snapshot (linear task only)."""
        if self.task != "linear":
            raise NotImplementedError("logistic NoPrivacy fits from rows only")
        self._model = LinearRegression().fit_statistics(statistics, rows)
        self.coef_ = self._model.coef_
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        assert self._model is not None
        return self._model.predict(X)


@register_algorithm("FM")
class FMBaseline(BaselineRegressor):
    """The Functional Mechanism behind the uniform harness interface.

    Extra keyword arguments (``post_processing``, ``tight_sensitivity``,
    ``approximation``, ``order`` ...) are forwarded to the underlying
    estimator, which makes the ablation benches one-liners.
    """

    is_private = True

    def __init__(
        self,
        task: Task,
        epsilon: float,
        rng: RngLike = None,
        **estimator_kwargs,
    ) -> None:
        super().__init__(task)
        self.epsilon = float(epsilon)
        if task == "linear":
            self._model = FMLinearRegression(epsilon=epsilon, rng=rng, **estimator_kwargs)
        else:
            self._model = FMLogisticRegression(epsilon=epsilon, rng=rng, **estimator_kwargs)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FMBaseline":
        self._model.fit(X, y)
        self.coef_ = self._model.coef_
        return self

    def fit_statistics(self, statistics, rows=None) -> "FMBaseline":
        self._model.fit_statistics(statistics)
        self.coef_ = self._model.coef_
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._model.predict(X)
