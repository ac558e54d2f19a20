"""One driver per figure of the paper's evaluation (Figures 2-9).

Each driver returns a structured result that the reporting module renders as
the same rows/series the paper plots.  The accuracy sweeps (Figures 4-6) and
timing sweeps (Figures 7-9) share machinery: the harness measures both the
held-out metric and the fit wall-time, so a timing figure is the time-view
of the corresponding accuracy sweep restricted to the logistic task (as in
the paper: "we only report the results for logistic regression").

What each sweep figure (4-9) runs is declared once in
:data:`repro.session.registry.FIGURE_SPECS` and executed through
:meth:`repro.session.Session.figure`; the private ``_accuracy_sweep`` /
``_budget_sweep`` bodies here are the sweep machinery it dispatches to.
Figures 2-3 (the worked examples) take no execution knobs and are plain
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..baselines.base import Task
from ..core.mechanism import FunctionalMechanism
from ..core.objectives import LinearRegressionObjective, LogisticRegressionObjective
from ..data.datasets import CensusDataset
from ..privacy.rng import RngLike, ensure_rng
from .config import (
    DEFAULT,
    DEFAULT_DIMENSIONALITY,
    DEFAULT_EPSILON,
    LINEAR_ALGORITHMS,
    LOGISTIC_ALGORITHMS,
    PRIVACY_BUDGETS,
    ScalePreset,
)
from .harness import EvaluationResult, _evaluate_panel, _fm_budget_sweep

__all__ = [
    "ObjectiveCurve",
    "figure2_objective_example",
    "figure3_approximation_example",
    "SweepResult",
]


# ----------------------------------------------------------------------
# Figures 2-3: the illustrative single-dimension examples
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveCurve:
    """A pair of 1-d objective curves over a grid of ``omega`` values.

    For Figure 2 the pair is (exact objective, FM-noisy objective); for
    Figure 3 it is (exact logistic objective, degree-2 approximation).
    ``minimizers`` holds the argmin of each curve over the grid.
    """

    omega_grid: np.ndarray
    exact: np.ndarray
    perturbed: np.ndarray
    exact_coefficients: tuple[float, ...]
    perturbed_coefficients: tuple[float, ...]
    minimizers: tuple[float, float]


#: The paper's running example database (Section 4.2 / Figure 2):
#: three 1-d tuples whose exact objective is 2.06 w^2 - 2.34 w + 1.25.
FIGURE2_DATABASE = (
    np.array([[1.0], [0.9], [-0.5]]),
    np.array([0.4, 0.3, -1.0]),
)

#: The Figure-3 example database (Section 5.2): three 1-d tuples for
#: logistic regression.
FIGURE3_DATABASE = (
    np.array([[-0.5], [0.0], [1.0]]),
    np.array([1.0, 0.0, 1.0]),
)


def figure2_objective_example(
    epsilon: float = 1.0,
    rng: RngLike = 0,
    grid: np.ndarray | None = None,
) -> ObjectiveCurve:
    """Figure 2: the linear-regression objective and its FM-noisy version.

    Reproduces the paper's example: ``f_D(w) = 2.06 w^2 - 2.34 w + 1.25``
    with ``Delta = 2 (d+1)^2 = 8``, perturbed by ``Lap(Delta/epsilon)`` per
    coefficient.
    """
    X, y = FIGURE2_DATABASE
    objective = LinearRegressionObjective(dim=1)
    exact = objective.aggregate_quadratic(X, y)
    mechanism = FunctionalMechanism(epsilon, rng=ensure_rng(rng))
    noisy, _ = mechanism.perturb_quadratic(exact, objective.sensitivity())
    omega = np.linspace(0.0, 1.0, 201) if grid is None else np.asarray(grid, float)
    exact_vals = np.array([exact.evaluate(np.array([w])) for w in omega])
    noisy_vals = np.array([noisy.evaluate(np.array([w])) for w in omega])
    return ObjectiveCurve(
        omega_grid=omega,
        exact=exact_vals,
        perturbed=noisy_vals,
        exact_coefficients=(float(exact.M[0, 0]), float(exact.alpha[0]), exact.beta),
        perturbed_coefficients=(float(noisy.M[0, 0]), float(noisy.alpha[0]), noisy.beta),
        minimizers=(float(omega[np.argmin(exact_vals)]), float(omega[np.argmin(noisy_vals)])),
    )


def figure3_approximation_example(grid: np.ndarray | None = None) -> ObjectiveCurve:
    """Figure 3: exact logistic objective vs its degree-2 approximation.

    No noise is involved — the figure isolates the Section-5 truncation
    error on the 3-tuple example database.
    """
    X, y = FIGURE3_DATABASE
    objective = LogisticRegressionObjective(dim=1)
    omega = np.linspace(0.0, 2.0, 201) if grid is None else np.asarray(grid, float)
    exact_vals = np.array([objective.true_loss(np.array([w]), X, y) for w in omega])
    approx_vals = np.array(
        [objective.approximate_loss(np.array([w]), X, y) for w in omega]
    )
    form = objective.aggregate_quadratic(X, y)
    return ObjectiveCurve(
        omega_grid=omega,
        exact=exact_vals,
        perturbed=approx_vals,
        exact_coefficients=(),
        perturbed_coefficients=(float(form.M[0, 0]), float(form.alpha[0]), form.beta),
        minimizers=(float(omega[np.argmin(exact_vals)]), float(omega[np.argmin(approx_vals)])),
    )


# ----------------------------------------------------------------------
# Figures 4-9: the parameter sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepResult:
    """One panel of a sweep figure.

    ``series`` maps algorithm name -> list of :class:`EvaluationResult`,
    one per sweep value, in ``values`` order.
    """

    figure: str
    panel: str
    task: Task
    parameter: str
    values: tuple
    series: dict[str, tuple[EvaluationResult, ...]]

    def metric_series(self, algorithm: str) -> list[float]:
        """The accuracy metric across the sweep for one algorithm."""
        return [r.mean_score for r in self.series[algorithm]]

    def time_series(self, algorithm: str) -> list[float]:
        """Mean fit seconds across the sweep for one algorithm."""
        return [r.mean_fit_seconds for r in self.series[algorithm]]


def _algorithms_for(task: Task) -> tuple[str, ...]:
    return LINEAR_ALGORITHMS if task == "linear" else LOGISTIC_ALGORITHMS


def _accuracy_sweep(
    dataset: CensusDataset,
    task: Task,
    parameter: Literal["dimensionality", "sampling_rate", "epsilon"],
    values: Sequence,
    figure: str,
    preset: ScalePreset = DEFAULT,
    algorithms: Sequence[str] | None = None,
    seed: int = 0,
    runtime: str = "batched",
    executor="serial",
    tile_size: int | None = None,
    stream_version: int = 1,
    prepared_cache=None,
) -> SweepResult:
    """The sweep machinery behind every accuracy/timing figure.

    Non-swept parameters sit at their Table-2 defaults; each sweep point
    evaluates its whole algorithm panel as one grouped run, sharing
    prepared data and merging same-kernel-class solves.  Scores are
    bitwise identical across runtimes, executors and tilings.

    ``prepared_cache`` may span the whole sweep (a session's persistent
    cache): identity-case task arrays are shared across points (they are
    materialized at planning time, outside the fit clock), while
    fold accumulators can never collide across points — they are keyed
    by the identity of each plan's own fold index vectors — so the timing
    figures' reported fit times stay attributed to their own point.
    """
    algorithms = tuple(algorithms or _algorithms_for(task))
    series: dict[str, list[EvaluationResult]] = {name: [] for name in algorithms}
    for i, value in enumerate(values):
        dims = value if parameter == "dimensionality" else DEFAULT_DIMENSIONALITY
        rate = value if parameter == "sampling_rate" else 1.0
        epsilon = value if parameter == "epsilon" else DEFAULT_EPSILON
        point = _evaluate_panel(
            algorithms,
            dataset,
            task,
            dims=int(dims),
            epsilon=float(epsilon),
            preset=preset,
            sampling_rate=float(rate),
            seed=seed + 1000 * i,
            runtime=runtime,
            executor=executor,
            tile_size=tile_size,
            stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
        for name in algorithms:
            series[name].append(point[name])
    return SweepResult(
        figure=figure,
        panel=f"{dataset.country.upper()}-{task.capitalize()}",
        task=task,
        parameter=parameter,
        values=tuple(values),
        series={name: tuple(results) for name, results in series.items()},
    )


def _budget_sweep(
    dataset: CensusDataset,
    task: Task,
    figure: str,
    preset: ScalePreset,
    seed: int,
    engine: bool,
    runtime: str = "batched",
    executor="serial",
    tile_size: int | None = None,
    stream_version: int = 1,
    prepared_cache=None,
) -> SweepResult:
    """Shared machinery for the budget-sweep figures (6 and 9).

    With ``engine=True`` the FM series routes through the one-pass
    budget sweep: one aggregation per (repetition, fold) refit at every
    budget, so FM's share of the sweep costs one data pass instead of one
    per epsilon — and under the default batched runtime all of those
    refits are one stacked solve.  The other algorithms keep the
    per-point loop (their fits genuinely depend on epsilon-specific
    passes), batched per sweep point.
    """
    algorithms = _algorithms_for(task)
    if not engine:
        return _accuracy_sweep(
            dataset, task, "epsilon", PRIVACY_BUDGETS, figure=figure,
            preset=preset, seed=seed, runtime=runtime, executor=executor,
            tile_size=tile_size, stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
    others = _accuracy_sweep(
        dataset, task, "epsilon", PRIVACY_BUDGETS, figure=figure,
        preset=preset, seed=seed, runtime=runtime, executor=executor,
        tile_size=tile_size, stream_version=stream_version,
        algorithms=[name for name in algorithms if name != "FM"],
        prepared_cache=prepared_cache,
    )
    fm = _fm_budget_sweep(
        dataset, task, dims=DEFAULT_DIMENSIONALITY, epsilons=PRIVACY_BUDGETS,
        preset=preset, seed=seed, runtime=runtime, executor=executor,
        tile_size=tile_size, stream_version=stream_version,
        prepared_cache=prepared_cache,
    )
    series: dict[str, tuple[EvaluationResult, ...]] = {}
    for name in algorithms:  # preserve the paper's legend order
        if name == "FM":
            series[name] = tuple(fm[value] for value in PRIVACY_BUDGETS)
        else:
            series[name] = others.series[name]
    return SweepResult(
        figure=figure,
        panel=others.panel,
        task=task,
        parameter="epsilon",
        values=tuple(PRIVACY_BUDGETS),
        series=series,
    )
