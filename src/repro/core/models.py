"""High-level differentially private estimators built on Algorithm 1/2.

:class:`FMLinearRegression` and :class:`FMLogisticRegression` package the
full pipeline of the paper — objective construction, sensitivity analysis,
coefficient perturbation, Section-6 repair, and minimization — behind a
``fit`` / ``predict`` interface mirroring the non-private models in
:mod:`repro.regression`, so the experiment harness can treat private and
non-private algorithms uniformly.

Inputs must already satisfy the paper's normalization (``||x||_2 <= 1`` and
target range); :class:`~repro.regression.preprocessing.FeatureScaler` /
``TargetScaler`` perform it.  ``fit`` validates and raises
:class:`~repro.exceptions.DomainError` otherwise — silently clipping inside
the estimator would hide a privacy bug, since the sensitivity bound assumes
the normalized domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional

import numpy as np

from ..exceptions import DataError, DegreeError, NotFittedError
from ..privacy.budget import PrivacyBudget
from ..privacy.rng import RngLike, ensure_rng
from ..regression.logistic import sigmoid
from ..regression.metrics import mean_squared_error, misclassification_rate
from .mechanism import FunctionalMechanism, PerturbationRecord
from .objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
)
from .polynomial import Polynomial, QuadraticForm
from .postprocess import (
    PostProcessResult,
    PostProcessingStrategy,
    get_strategy,
)

if TYPE_CHECKING:  # pragma: no cover - engine imports core: a runtime cycle
    from ..engine.accumulator import MomentSnapshot

__all__ = ["FMLinearRegression", "FMLogisticRegression"]


def _augment_intercept(X: np.ndarray) -> np.ndarray:
    """Footnote-2 augmentation ``x -> (x, 1)/sqrt(2)``.

    If ``||x||_2 <= 1`` then ``||(x, 1)/sqrt(2)||_2 <= 1``, so the augmented
    matrix satisfies footnote 1 at dimensionality ``d + 1`` and the standard
    sensitivity bounds apply unchanged.
    """
    n = X.shape[0]
    return np.hstack([X, np.ones((n, 1))]) / math.sqrt(2.0)


def _fit_quadratic_private(
    form: QuadraticForm,
    sensitivity: float,
    epsilon: float,
    strategy: PostProcessingStrategy,
    rng: np.random.Generator,
    budget: Optional[PrivacyBudget],
    ridge_lambda: float,
) -> tuple[np.ndarray, PerturbationRecord, PostProcessResult]:
    """Shared degree-2 pipeline: perturb, optionally ridge, repair, minimize."""
    mechanism = FunctionalMechanism(epsilon, rng=rng, budget=budget)
    noisy, record = mechanism.perturb_quadratic(form, sensitivity)
    # A renoise callable for the Lemma-5 strategy.  Budget handling: Lemma 5
    # prices the *whole* rerun loop at 2 epsilon, so redraws must not each
    # charge the accountant — they go through a budget-less mechanism and the
    # surcharge is applied once below.
    renoise_mechanism = FunctionalMechanism(epsilon, rng=rng, budget=None)

    def renoise() -> QuadraticForm:
        redrawn, _ = renoise_mechanism.perturb_quadratic(form, sensitivity)
        return redrawn.with_ridge(ridge_lambda) if ridge_lambda else redrawn

    if ridge_lambda:
        # A data-independent ridge term joins the objective after noise;
        # it is post-processing and costs nothing.
        noisy = noisy.with_ridge(ridge_lambda)
    result = strategy.solve(noisy, record.noise_std, renoise=renoise)
    if result.privacy_cost_factor > 1.0 and budget is not None:
        budget.spend(
            epsilon * (result.privacy_cost_factor - 1.0),
            note="Lemma-5 rerun surcharge",
        )
    return result.omega, record, result


def _fit_statistics(model, statistics, objective):
    """Shared ``fit_statistics`` body: release, repair, minimize and record.

    ``statistics`` is an aggregated :class:`QuadraticForm` or anything
    projecting onto ``objective`` through ``quadratic_form`` (a moment
    snapshot or accumulator).
    """
    if isinstance(statistics, QuadraticForm):
        form = statistics
    else:
        form = statistics.quadratic_form(objective)
    omega, record, result = _fit_quadratic_private(
        form=form,
        sensitivity=objective.sensitivity(tight=model.tight_sensitivity),
        epsilon=model.epsilon,
        strategy=get_strategy(model.post_processing),
        rng=ensure_rng(model.rng),
        budget=model.budget,
        ridge_lambda=model.ridge_lambda,
    )
    _store_fit(model, omega, record, result, objective)
    return model


def _store_fit(model, omega, record, result, objective) -> None:
    """Record a release on ``model``, undoing the footnote-2 augmentation."""
    if model.fit_intercept:
        model.coef_ = omega[:-1] / math.sqrt(2.0)
        model.intercept_ = float(omega[-1]) / math.sqrt(2.0)
    else:
        model.coef_ = omega
        model.intercept_ = 0.0
    model.record_ = record
    model.postprocess_ = result
    model.objective_ = objective


@dataclass
class FMLinearRegression:
    """Differentially private linear regression (Sections 4.2 and 6).

    Parameters
    ----------
    epsilon:
        Privacy budget.  The release satisfies ``epsilon``-DP, except with
        ``post_processing="rerun"`` where Lemma 5 gives ``2 epsilon``-DP.
    post_processing:
        ``"spectral"`` (default, Section 6.2), ``"regularize"`` (6.1),
        ``"rerun"`` (Lemma 5) or ``"none"`` — or a constructed strategy.
    tight_sensitivity:
        Use the ``(1 + sqrt(d))^2`` bound instead of the paper's
        ``(1 + d)^2`` (both valid under footnote-1 normalization; the tight
        bound injects less noise).  Default False = paper-faithful.
    ridge_lambda:
        Optional extra data-independent ridge term added to the *noisy*
        objective (free post-processing).  This implements the FM-ridge
        extension; 0 reproduces the paper.
    fit_intercept:
        Footnote-2 extension: learn ``y ~ x^T w + b`` by augmenting each
        feature vector to ``(x, 1)/sqrt(2)`` (which keeps ``||x'||_2 <= 1``,
        so the Lemma-1 bound applies at dimensionality ``d + 1``).  The
        paper's Definition 1 (no intercept) is the default.
    budget:
        Optional accountant charged on ``fit``.
    rng:
        Seed or generator.

    Examples
    --------
    >>> rng = np.random.default_rng(7)
    >>> X = rng.uniform(0, 0.5, size=(2000, 2)); w = np.array([0.8, -0.4])
    >>> y = np.clip(X @ w + rng.normal(0, 0.05, 2000), -1, 1)
    >>> model = FMLinearRegression(epsilon=2.0, rng=0).fit(X, y)
    >>> model.coef_.shape
    (2,)
    """

    epsilon: float
    post_processing: str | PostProcessingStrategy = "spectral"
    tight_sensitivity: bool = False
    ridge_lambda: float = 0.0
    fit_intercept: bool = False
    budget: Optional[PrivacyBudget] = None
    rng: RngLike = None
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)
    record_: Optional[PerturbationRecord] = field(default=None, init=False)
    postprocess_: Optional[PostProcessResult] = field(default=None, init=False)
    objective_: Optional[LinearRegressionObjective] = field(default=None, init=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FMLinearRegression":
        """Fit privately on normalized data (``||x|| <= 1``, ``y in [-1,1]``)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        # Validate the caller's normalization *before* any augmentation so
        # the error message refers to the user's feature space.
        LinearRegressionObjective(X.shape[1]).validate(X, y)
        X_fit = _augment_intercept(X) if self.fit_intercept else X
        objective = LinearRegressionObjective(X_fit.shape[1])
        return self.fit_statistics(objective.aggregate_quadratic(X_fit, y))

    def fit_statistics(
        self, statistics: "MomentSnapshot | QuadraticForm"
    ) -> "FMLinearRegression":
        """Fit privately from the training rows' aggregated statistics.

        ``statistics`` is a :class:`~repro.engine.accumulator.MomentSnapshot`
        of the rows (the batched runtime's fold statistics) or their
        aggregated :class:`QuadraticForm` (what :meth:`fit` passes) — of
        the footnote-2 augmented rows when ``fit_intercept`` is set.  The
        caller owns the domain check :meth:`fit` applies to raw rows.
        """
        return _fit_statistics(self, statistics, LinearRegressionObjective(statistics.dim))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict ``x^T w + b`` for each row."""
        if self.coef_ is None:
            raise NotFittedError(type(self).__name__)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise DataError(
                f"X must be 2-d with {self.coef_.shape[0]} columns, got shape {X.shape}"
            )
        return X @ self.coef_ + self.intercept_

    def score_mse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean square error (the paper's linear metric)."""
        return mean_squared_error(y, self.predict(X))

    @property
    def effective_epsilon(self) -> float:
        """Budget actually consumed by the fit (doubles under Lemma-5 rerun)."""
        if self.postprocess_ is None:
            raise NotFittedError(type(self).__name__)
        return self.epsilon * self.postprocess_.privacy_cost_factor


@dataclass
class FMLogisticRegression:
    """Differentially private logistic regression (Sections 5 and 6).

    Parameters
    ----------
    epsilon:
        Privacy budget (see :class:`FMLinearRegression` for the rerun
        exception).
    approximation:
        ``"taylor"`` — the paper's degree-2 expansion at 0 — or
        ``"chebyshev"`` — the Section-8 alternative on ``[-radius, radius]``.
    order:
        Even truncation order; 2 (default) is the paper.  Orders above 2
        use the general polynomial path: perturbation over the full basis
        ``Phi_0..Phi_J`` and projected-gradient minimization over a compact
        ball (a data-independent feasible set, hence free post-processing)
        because the Section-6 spectral repair only applies to quadratics.
    radius:
        Chebyshev interval half-width (ignored for Taylor).
    search_radius:
        Ball radius for the ``order > 2`` projected solver.
    """

    epsilon: float
    approximation: Literal["taylor", "chebyshev"] = "taylor"
    order: int = 2
    radius: float = 1.0
    post_processing: str | PostProcessingStrategy = "spectral"
    tight_sensitivity: bool = False
    ridge_lambda: float = 0.0
    fit_intercept: bool = False
    search_radius: float = 10.0
    budget: Optional[PrivacyBudget] = None
    rng: RngLike = None
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)
    record_: Optional[PerturbationRecord] = field(default=None, init=False)
    postprocess_: Optional[PostProcessResult] = field(default=None, init=False)
    objective_: Optional[LogisticRegressionObjective] = field(default=None, init=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FMLogisticRegression":
        """Fit privately on normalized features and boolean labels."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        LogisticRegressionObjective(X.shape[1]).validate(X, y)
        X_fit = _augment_intercept(X) if self.fit_intercept else X
        objective = self._objective(X_fit.shape[1])
        if self.order == 2:
            return self.fit_statistics(objective.aggregate_quadratic(X_fit, y))
        generator = ensure_rng(self.rng)
        mechanism = FunctionalMechanism(self.epsilon, rng=generator, budget=self.budget)
        noisy, record = mechanism.perturb_polynomial(
            objective.aggregate_polynomial(X_fit, y),
            objective.sensitivity(tight=self.tight_sensitivity),
        )
        omega = self._minimize_on_ball(noisy, generator)
        result = PostProcessResult(omega=omega, strategy="projected-ball")
        _store_fit(self, omega, record, result, objective)
        return self

    def fit_statistics(
        self, statistics: "MomentSnapshot | QuadraticForm"
    ) -> "FMLogisticRegression":
        """Fit privately (``order=2`` only) from aggregated statistics.

        The statistics contract is :meth:`FMLinearRegression.fit_statistics`'s;
        a :class:`~repro.engine.accumulator.MomentSnapshot` is projected
        onto this estimator's approximation.
        """
        if self.order != 2:
            raise DegreeError(
                f"order-{self.order} objectives are not quadratic; fit the rows"
            )
        return _fit_statistics(self, statistics, self._objective(statistics.dim))

    def _objective(self, dim: int) -> LogisticRegressionObjective:
        return LogisticRegressionObjective(
            dim,
            approximation=self.approximation,
            order=self.order,
            radius=self.radius,
        )

    def _minimize_on_ball(
        self, poly: Polynomial, generator: np.random.Generator
    ) -> np.ndarray:
        """Projected gradient descent over ``||w|| <= search_radius``.

        A noisy degree->2 polynomial may be unbounded below on R^d, but it is
        continuous on the (data-independent) closed ball, so a minimizer
        exists there.  Multi-start from the origin and a few random interior
        points guards against bad local minima.  Evaluation is vectorized
        over the (exponent-matrix, coefficient-vector) representation: the
        sparse Polynomial's per-term Python loops are too slow for the
        hundreds of monomials a degree-4 basis carries.
        """
        exponents = []
        coefficients = []
        for exps, coeff in poly.terms():
            exponents.append(exps)
            coefficients.append(coeff)
        E = np.asarray(exponents, dtype=float)          # (T, d)
        c = np.asarray(coefficients, dtype=float)        # (T,)

        def value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
            # powers[t, j] = w_j ** E[t, j]; term values are row products.
            with np.errstate(divide="ignore", invalid="ignore"):
                powers = np.where(E > 0, w[None, :] ** E, 1.0)
            term_values = powers.prod(axis=1)
            value = float(c @ term_values)
            grad = np.zeros(poly.dim)
            for j in range(poly.dim):
                mask = E[:, j] > 0
                if not mask.any():
                    continue
                # d/dw_j of term t: coeff * E[t,j] * w_j^(E-1) * rest.
                rest = term_values[mask]
                wj = w[j]
                if wj != 0.0:
                    partial = rest / wj * E[mask, j]
                else:
                    # Recompute exactly for the w_j = 0 boundary.
                    reduced = powers[mask].copy()
                    expo = E[mask, j] - 1.0
                    reduced[:, j] = np.where(expo > 0, 0.0, 1.0)
                    partial = reduced.prod(axis=1) * E[mask, j]
                grad[j] = float(c[mask] @ partial)
            return value, grad

        radius = float(self.search_radius)
        starts = [np.zeros(poly.dim)]
        starts.extend(
            generator.uniform(-radius / 4, radius / 4, size=poly.dim) for _ in range(3)
        )
        best_w: np.ndarray | None = None
        best_f = math.inf
        for start in starts:
            w = start.copy()
            fw, grad = value_and_grad(w)
            step = 0.1
            for _ in range(500):
                grad_norm = float(np.linalg.norm(grad))
                if grad_norm < 1e-10:
                    break
                improved = False
                while step > 1e-12:
                    candidate = w - step * grad
                    norm = float(np.linalg.norm(candidate))
                    if norm > radius:
                        candidate = candidate * (radius / norm)
                    f_candidate, g_candidate = value_and_grad(candidate)
                    if f_candidate < fw - 1e-12:
                        w, fw, grad = candidate, f_candidate, g_candidate
                        step = min(step * 2.0, 1.0)
                        improved = True
                        break
                    step *= 0.5
                if not improved:
                    break
            if fw < best_f:
                best_w, best_f = w, fw
        assert best_w is not None
        return best_w

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw scores ``x^T w + b``."""
        if self.coef_ is None:
            raise NotFittedError(type(self).__name__)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise DataError(
                f"X must be 2-d with {self.coef_.shape[0]} columns, got shape {X.shape}"
            )
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """``Pr[y = 1 | x]`` under the released parameter."""
        return sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard labels at the paper's 0.5 threshold."""
        return (self.predict_proba(X) > 0.5).astype(float)

    def score_misclassification(self, X: np.ndarray, y: np.ndarray) -> float:
        """Misclassification rate (the paper's logistic metric)."""
        return misclassification_rate(y, self.predict(X))

    @property
    def effective_epsilon(self) -> float:
        """Budget actually consumed by the fit."""
        if self.postprocess_ is None:
            raise NotFittedError(type(self).__name__)
        return self.epsilon * self.postprocess_.privacy_cost_factor
