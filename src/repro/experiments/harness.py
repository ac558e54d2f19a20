"""The Section-7 evaluation protocol: repeated k-fold cross-validation.

"In each experiment, we perform 5-fold cross-validation 50 times for each
algorithm, and we report the average results."  This module implements that
protocol over the uniform :class:`~repro.baselines.base.BaselineRegressor`
interface: every (repetition, fold) trains the algorithm on the training
split, scores the paper's metric on the held-out fold, and also records the
fit wall-time (feeding Figures 7-9).

Execution routes through :mod:`repro.runtime`: the protocol's cells are
enumerated into a :class:`~repro.runtime.plan.CellPlan` (eager) or — with
``tile_size`` set — a lazily materializing
:class:`~repro.runtime.plan.TiledPlan` that bounds resident memory to a few
repetitions at a time, and run either through the batched tensor kernels
(default — all closed-form cells in one stacked LAPACK call, logistic cells
through the masked batched Newton) or cell by cell as the reference oracle.
All paths produce bitwise-identical scores at any tiling and on any
executor; ``runtime="percell"`` exists to prove it and to time the
baseline.  A panel (:meth:`~repro.session.Session.evaluate_panel`) runs
every algorithm as one group — shared prepared-data cache, merged
cross-algorithm stacked solves — still bit-identical to evaluating each
algorithm alone.

Randomness plumbing: each (repetition, fold, algorithm) cell derives its own
RNG substream keyed by position, so results are reproducible and algorithms
see independent noise across cells regardless of execution order — or of
which runtime path executes them.

Budget sweeps (:meth:`~repro.session.Session.budget_sweep`) are one
multi-budget plan over the same cell enumeration: because FM's
database-level coefficients do not depend on epsilon, the batched runtime
aggregates each (repetition, fold) training split **once** and refits
every budget in one stacked solve — O(1 data pass + n_eps solves) instead
of O(n_eps) passes — bitwise identical to the per-cell oracle.

The entry points are :class:`repro.session.Session` methods, which read
the execution knobs (runtime, executor, tiling, stream version) from the
session's policy and call the private protocol bodies below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..baselines.base import Task
from ..core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
)
from ..data.datasets import CensusDataset
from ..exceptions import ExperimentError
from ..regression.metrics import mean_squared_error, misclassification_rate
from ..runtime import (
    CellExecutor,
    PlanResult,
    PreparedDataCache,
    plan_cells,
    plan_cells_tiled,
    run_plan,
    run_plan_group,
)
from .config import DEFAULT, ScalePreset

__all__ = [
    "EvaluationResult",
    "objective_for",
    "score_from_scores",
]


def objective_for(task: Task, dim: int):
    """The degree-2 objective matching a harness task."""
    if task == "linear":
        return LinearRegressionObjective(dim)
    return LogisticRegressionObjective(dim)


def score_from_scores(task: Task, y_true: np.ndarray, z: np.ndarray) -> float:
    """The paper's metric from raw scores ``z = X @ omega``.

    For logistic, ``z > 0`` is exactly the sigmoid(z) > 0.5 threshold.
    """
    if task == "linear":
        return mean_squared_error(y_true, z)
    return misclassification_rate(y_true, (z > 0.0).astype(float))


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregated cross-validated performance of one algorithm.

    Attributes
    ----------
    algorithm:
        Registry name (e.g. ``"FM"``).
    task:
        ``"linear"`` or ``"logistic"``.
    mean_score:
        Average held-out metric over all (repetition, fold) cells — MSE for
        linear, misclassification rate for logistic (lower is better).
    std_score:
        Standard deviation over cells.
    mean_fit_seconds:
        Average wall-clock time of ``fit`` (the paper's "computation
        time").  Batched-runtime cells report an equal share of their
        kernel's fit time (held-out scoring excluded, as in the per-cell
        clock); per-cell execution reports individual fits.
    cells:
        Number of (repetition, fold) measurements aggregated.
    n_train:
        Training-set size of each fold.
    """

    algorithm: str
    task: str
    mean_score: float
    std_score: float
    mean_fit_seconds: float
    cells: int
    n_train: int


def _result_for_epsilon(
    outcome: PlanResult, algorithm: str, task: Task, epsilon: float
) -> EvaluationResult:
    """Aggregate one epsilon's cells into the harness result type."""
    scores = outcome.scores[epsilon]
    return EvaluationResult(
        algorithm=algorithm,
        task=task,
        mean_score=float(np.mean(scores)),
        std_score=float(np.std(scores)),
        mean_fit_seconds=float(np.mean(outcome.fit_seconds[epsilon])),
        cells=len(scores),
        n_train=outcome.n_train,
    )


def _evaluate_algorithm(
    algorithm: str,
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilon: float,
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    algorithm_kwargs: Mapping | None = None,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    stream_version: int = 1,
    prepared_cache: PreparedDataCache | None = None,
) -> EvaluationResult:
    """Run the full repeated-CV protocol for one algorithm at one sweep point.

    The body of :meth:`repro.session.Session.evaluate`.

    Parameters
    ----------
    algorithm:
        Registry name; private algorithms receive ``epsilon``.
    dataset:
        The raw census dataset (sampling and normalization happen here).
    dims:
        Table-2 dimensionality (selects the paper's attribute subset).
    epsilon:
        Privacy budget per fit.
    preset:
        Compute scale (records cap, folds, repetitions).
    sampling_rate:
        Table-2 sampling rate, applied to the preset-capped cardinality.
    seed:
        Base seed; all cell substreams derive from it.
    algorithm_kwargs:
        Extra constructor arguments (ablation benches use this).
    runtime:
        ``"batched"`` executes supported algorithms through the stacked
        runtime kernels; ``"percell"`` forces the per-cell reference path.
        Scores are bitwise identical either way.
    executor:
        Where parallel work runs (see :func:`~repro.runtime.run_plan`).
    tile_size:
        ``None`` plans eagerly; an integer bounds the resident set to that
        many repetitions per tile.  Scores are bitwise identical at every
        tiling.
    stream_version:
        :func:`~repro.privacy.rng.derive_substream` format.
    prepared_cache:
        Cross-call prepared-data reuse (a session passes its persistent
        cache).
    """
    if tile_size is None:
        plan = plan_cells(
            algorithm,
            dataset,
            task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=algorithm_kwargs,
            stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
    else:
        plan = plan_cells_tiled(
            algorithm,
            dataset,
            task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=algorithm_kwargs,
            tile_size=tile_size,
            stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
    outcome = run_plan(plan, mode=runtime, executor=executor)
    return _result_for_epsilon(outcome, algorithm, task, float(epsilon))


def _fm_budget_sweep(
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilons: Sequence[float],
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    post_processing: str = "spectral",
    tight_sensitivity: bool = False,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    stream_version: int = 1,
    prepared_cache: PreparedDataCache | None = None,
) -> dict[float, EvaluationResult]:
    """Run FM's repeated-CV protocol at *all* budgets with one pass per cell.

    The body of :meth:`repro.session.Session.budget_sweep`.  Each
    (repetition, fold) training split's statistics are formed exactly once
    (from the fold complement, see :func:`~repro.runtime.fold_statistics`)
    and refit at every epsilon from the finalized coefficients, so all
    epsilons share each repetition's folds — which is what makes one pass
    possible; the paper's protocol averages over folds either way.

    Parameters mirror :func:`_evaluate_algorithm`; additionally:

    post_processing / tight_sensitivity:
        Mechanism configuration, as the FM estimator kwargs would be.
        They are ordinary plan options: the spectral repair runs on the
        one-pass stacked kernel, the other repairs on the generic kernel
        (one fit per cell, i.e. the per-cell oracle).
    """
    epsilon_values = [float(e) for e in epsilons]
    if not epsilon_values:
        raise ExperimentError("epsilons must be non-empty")
    fm_kwargs = {
        "post_processing": post_processing,
        "tight_sensitivity": tight_sensitivity,
    }
    if tile_size is None:
        plan = plan_cells(
            "FM",
            dataset,
            task,
            dims=dims,
            epsilons=epsilon_values,
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=fm_kwargs,
            stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
    else:
        plan = plan_cells_tiled(
            "FM",
            dataset,
            task,
            dims=dims,
            epsilons=epsilon_values,
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            algorithm_kwargs=fm_kwargs,
            tile_size=tile_size,
            stream_version=stream_version,
            prepared_cache=prepared_cache,
        )
    outcome = run_plan(plan, mode=runtime, executor=executor)
    return {
        e: _result_for_epsilon(outcome, "FM", task, e) for e in epsilon_values
    }


def _evaluate_panel(
    algorithms: Sequence[str],
    dataset: CensusDataset,
    task: Task,
    dims: int,
    epsilon: float,
    preset: ScalePreset = DEFAULT,
    sampling_rate: float = 1.0,
    seed: int = 0,
    runtime: str = "batched",
    executor: str | CellExecutor = "serial",
    tile_size: int | None = None,
    stream_version: int = 1,
    prepared_cache: PreparedDataCache | None = None,
) -> dict[str, EvaluationResult]:
    """Evaluate several algorithms at one sweep point; keyed by name.

    The body of :meth:`repro.session.Session.evaluate_panel`.  All
    algorithms plan over one shared
    :class:`~repro.runtime.PreparedDataCache` — each repetition's prepared
    arrays materialize once for the whole panel — and execute as one
    :func:`~repro.runtime.run_plan_group`, which merges the quadratic
    algorithms' closed-form solves into one stacked LAPACK call.  Results
    are bitwise identical to evaluating each name alone.

    The grouped path always plans **tiled**: a group holds every
    algorithm's plan at once, so eager planning would multiply the peak
    resident set by the panel size.  ``tile_size=None`` bounds residency
    at one repetition per algorithm.  ``prepared_cache`` defaults to a
    fresh per-call cache.
    """
    cache = PreparedDataCache() if prepared_cache is None else prepared_cache
    plans = [
        plan_cells_tiled(
            name,
            dataset,
            task=task,
            dims=dims,
            epsilons=[epsilon],
            preset=preset,
            sampling_rate=sampling_rate,
            seed=seed,
            tile_size=1 if tile_size is None else tile_size,
            stream_version=stream_version,
            prepared_cache=cache,
        )
        for name in algorithms
    ]
    outcomes = run_plan_group(plans, mode=runtime, executor=executor)
    return {
        name: _result_for_epsilon(outcome, name, task, float(epsilon))
        for name, outcome in zip(algorithms, outcomes)
    }
