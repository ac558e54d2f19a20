"""Non-private linear regression (the NoPrivacy baseline for Definition 1).

Ordinary least squares solved through the normal equations
``(X^T X) w = X^T y`` with an SVD least-squares fallback when the Gram
matrix is singular (e.g. duplicated attributes after subsetting).  Ridge
regression is included both as a baseline in its own right and because the
Section-6.1 regularization of the Functional Mechanism is exactly a ridge
term on the noisy quadratic objective.

The paper's Definition 1 omits the intercept (footnote 2 notes the extension
is mechanical); ``fit_intercept=True`` implements that extension by
augmenting the feature matrix with a constant column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..exceptions import DataError, NotFittedError
from .metrics import mean_squared_error

__all__ = ["LinearRegression", "RidgeRegression"]


class _NormalEquations(NamedTuple):
    """The Gram ``S2 = X^T X`` and moment ``Sxy = X^T y`` of a design."""

    S2: np.ndarray
    Sxy: np.ndarray


def _solve_normal_equations(
    gram: np.ndarray,
    moment: np.ndarray,
    rows: Callable[[], tuple[np.ndarray, np.ndarray]] | None,
    finite_fallback: bool = True,
) -> np.ndarray:
    """Solve ``gram @ w = moment`` with an SVD least-squares fallback.

    The fallback fires when the (possibly regularized) Gram matrix is
    exactly singular — LAPACK raises — or, with ``finite_fallback``, when
    the solve produced non-finite weights from a numerically degenerate
    system; either way the minimum-norm least-squares solution on the
    original design matrix — ``rows()`` returns ``(design, target)``,
    materialized only here — is the answer OLS theory prescribes.  Ridge
    disables the non-finite rescue: ``lstsq(design, target)`` drops the
    penalty, so substituting it for a penalized solve would silently
    change the estimator.
    """
    from ..runtime.backend import active_backend

    def lstsq() -> np.ndarray:
        if rows is None:
            raise DataError(
                "the normal equations are degenerate and no design rows were "
                "given for the least-squares fallback"
            )
        weights, *_ = np.linalg.lstsq(*rows(), rcond=None)
        return weights

    try:
        # Backends translate their failures to LinAlgError, so the
        # fallback ladder below is engine-independent.
        weights = active_backend().solve(gram, moment)
    except np.linalg.LinAlgError:
        return lstsq()
    if finite_fallback and not np.all(np.isfinite(weights)):
        return lstsq()
    return weights


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got ndim={X.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("X and y must be finite")
    return X, y


def _validate_weights(sample_weight: np.ndarray | None, n: int) -> np.ndarray | None:
    """Check a sample-weight vector: non-negative, finite, positive mass."""
    if sample_weight is None:
        return None
    w = np.asarray(sample_weight, dtype=float).ravel()
    if w.shape[0] != n:
        raise DataError(f"sample_weight has length {w.shape[0]}, expected {n}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("sample_weight must be finite and non-negative")
    if float(w.sum()) <= 0.0:
        raise DataError("sample_weight must have positive total mass")
    return w


@dataclass
class LinearRegression:
    """Ordinary least squares, ``w* = argmin sum_i (y_i - x_i^T w)^2``.

    Attributes
    ----------
    coef_:
        Fitted weight vector (length ``d``), available after :meth:`fit`.
    intercept_:
        Fitted intercept (0.0 when ``fit_intercept=False``).

    Examples
    --------
    >>> X = np.array([[0.0], [1.0], [2.0]])
    >>> model = LinearRegression().fit(X, np.array([0.0, 2.0, 4.0]))
    >>> bool(np.allclose(model.predict(np.array([[3.0]])), [6.0]))
    True
    """

    fit_intercept: bool = False
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LinearRegression":
        """Fit by normal equations (SVD fallback on singular Gram matrices).

        ``sample_weight`` fits weighted least squares — used by the
        histogram baselines, which regress on cell centers weighted by
        noisy counts instead of materializing replicated synthetic rows.
        """
        X, y = _validate_xy(X, y)
        w = _validate_weights(sample_weight, X.shape[0])
        design = self._design(X)
        if w is not None:
            root = np.sqrt(w)
            design = design * root[:, None]
            y = y * root
        return self.fit_statistics(
            _NormalEquations(design.T @ design, design.T @ y), lambda: (design, y)
        )

    def fit_statistics(
        self,
        statistics,
        rows: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> "LinearRegression":
        """Fit from the design's Gram ``statistics.S2`` and moment ``statistics.Sxy``.

        ``statistics`` is a :class:`~repro.engine.accumulator.MomentSnapshot`
        (the batched runtime's fold statistics) or the normal equations
        :meth:`fit` forms — of the intercept-augmented design when
        ``fit_intercept`` is set.  ``rows`` returns ``(design, target)``
        for the least-squares fallback and is called only if that fires.
        """
        self._unpack(self._solve(statistics.S2, statistics.Sxy, rows))
        return self

    def _solve(self, gram: np.ndarray, moment: np.ndarray, rows) -> np.ndarray:
        return _solve_normal_equations(gram, moment, rows)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X``."""
        if self.coef_ is None:
            raise NotFittedError(type(self).__name__)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise DataError(
                f"X must be 2-d with {self.coef_.shape[0]} columns, got shape {X.shape}"
            )
        return X @ self.coef_ + self.intercept_

    def score_mse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean square error on ``(X, y)`` — the paper's accuracy measure."""
        return mean_squared_error(y, self.predict(X))

    def _design(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.hstack([X, np.ones((X.shape[0], 1))])
        return X

    def _unpack(self, weights: np.ndarray) -> None:
        if self.fit_intercept:
            self.coef_ = weights[:-1]
            self.intercept_ = float(weights[-1])
        else:
            self.coef_ = weights
            self.intercept_ = 0.0


@dataclass
class RidgeRegression(LinearRegression):
    """L2-regularized least squares, ``argmin ||y - Xw||^2 + lam ||w||^2``.

    ``lam`` must be non-negative; ``lam = 0`` recovers OLS exactly.  The
    intercept column, when present, is *not* penalized (standard practice:
    shrinking the intercept has no regularizing interpretation).
    """

    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.lam < 0.0 or not np.isfinite(self.lam):
            raise ValueError(f"lam must be non-negative and finite, got {self.lam!r}")

    def _solve(self, gram: np.ndarray, moment: np.ndarray, rows) -> np.ndarray:
        penalty = self.lam * np.eye(gram.shape[0])
        if self.fit_intercept:
            penalty[-1, -1] = 0.0  # do not shrink the intercept
        return _solve_normal_equations(
            gram + penalty, moment, rows, finite_fallback=False
        )
