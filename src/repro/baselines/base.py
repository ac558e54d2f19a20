"""Common interface for all regression algorithms in the evaluation.

Section 7 compares five algorithms — FM, DPME, FP, NoPrivacy, Truncated —
on two tasks.  The harness treats them uniformly through
:class:`BaselineRegressor`: construct with a task (``"linear"`` or
``"logistic"``), call :meth:`fit`, and score with the task's paper metric
(MSE or misclassification rate).  A string registry
(:func:`make_algorithm`) lets experiment configs name algorithms
declaratively.
"""

from __future__ import annotations

import abc
from typing import Literal

import numpy as np

from ..exceptions import ExperimentError, NotFittedError
from ..privacy.rng import RngLike
from ..regression.metrics import mean_squared_error, misclassification_rate

__all__ = [
    "Task",
    "BaselineRegressor",
    "register_algorithm",
    "make_algorithm",
    "algorithm_names",
    "algorithm_is_private",
    "canonical_algorithm_name",
]

Task = Literal["linear", "logistic"]

_VALID_TASKS = ("linear", "logistic")


class BaselineRegressor(abc.ABC):
    """A regression algorithm usable by the Section-7 harness.

    Subclasses set :attr:`name` and :attr:`is_private` as class attributes
    and implement :meth:`fit` / :meth:`predict`.  ``predict`` returns target
    predictions for the linear task and hard {0, 1} labels for the logistic
    task, so :meth:`score` can apply the paper's metric uniformly.
    """

    #: Display name used in reports (e.g. "FM", "DPME").
    name: str = "abstract"
    #: Whether the algorithm enforces epsilon-differential privacy.
    is_private: bool = False

    def __init__(self, task: Task) -> None:
        if task not in _VALID_TASKS:
            raise ExperimentError(f"task must be one of {_VALID_TASKS}, got {task!r}")
        self.task: Task = task
        self.coef_: np.ndarray | None = None

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaselineRegressor":
        """Fit on normalized data (footnote-1 features, task target domain)."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets (linear) or hard labels (logistic)."""

    def fit_statistics(self, statistics, rows=None) -> "BaselineRegressor":
        """Fit from a training split's moment snapshot instead of its rows.

        Implemented by the algorithms the runtime batches as closed-form
        quadratic solves; the per-cell oracle fits them this way from the
        same fold statistics the batched kernels use.  ``rows`` is a
        zero-argument callable returning the split's ``(X, y)``, called
        only by an estimator whose fallback needs the raw rows.  The
        caller owns the input gate :meth:`fit` applies.
        """
        raise NotImplementedError(f"{type(self).__name__} fits from rows only")

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """The paper's accuracy metric: MSE (linear) / misclassification (logistic)."""
        predictions = self.predict(X)
        if self.task == "linear":
            return mean_squared_error(y, predictions)
        return misclassification_rate(y, predictions)

    def _require_fitted(self) -> np.ndarray:
        if self.coef_ is None:
            raise NotFittedError(type(self).__name__)
        return self.coef_


_REGISTRY: dict[str, type] = {}


def register_algorithm(name: str):
    """Class decorator adding a baseline to the string registry."""

    def decorator(cls: type) -> type:
        key = name.lower()
        if key in _REGISTRY:
            raise ExperimentError(f"algorithm {name!r} is already registered")
        _REGISTRY[key] = cls
        cls.name = name
        return cls

    return decorator


def _lookup(name: str) -> type:
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def make_algorithm(
    name: str,
    task: Task,
    epsilon: float | None = None,
    rng: RngLike = None,
    **kwargs,
) -> BaselineRegressor:
    """Instantiate a registered algorithm by name.

    Private algorithms receive ``epsilon`` and ``rng``; non-private ones
    ignore them (passing a budget to NoPrivacy is not an error — the harness
    sweeps epsilon uniformly and the paper's Figures 6 show NoPrivacy as a
    flat line).
    """
    cls = _lookup(name)
    if cls.is_private:
        if epsilon is None:
            raise ExperimentError(f"algorithm {name!r} is private and requires epsilon")
        return cls(task=task, epsilon=epsilon, rng=rng, **kwargs)
    return cls(task=task, **kwargs)


def algorithm_names() -> list[str]:
    """Registered algorithm names (lower-case keys)."""
    return sorted(_REGISTRY)


def algorithm_is_private(name: str) -> bool:
    """Whether a registered algorithm claims epsilon-differential privacy.

    Used by the conformance auditor (:mod:`repro.verify.conformance`) to
    enumerate which registry entries carry a guarantee worth auditing.
    """
    return bool(_lookup(name).is_private)


def canonical_algorithm_name(name: str) -> str:
    """The display-cased registry name (e.g. ``"fm" -> "FM"``)."""
    return _lookup(name).name
