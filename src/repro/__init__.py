"""repro — Functional Mechanism: Regression Analysis under Differential Privacy.

A full reproduction of Zhang et al., VLDB 2012 (PVLDB 5(11):1364-1375):
differentially private linear and logistic regression by perturbing the
polynomial coefficients of the objective function, plus every substrate and
baseline the paper's evaluation depends on.

Quickstart
----------
>>> import numpy as np
>>> from repro import FMLinearRegression, FeatureScaler, TargetScaler
>>> rng = np.random.default_rng(0)
>>> raw_X = rng.uniform(0, 100, size=(5000, 3))
>>> raw_y = raw_X @ np.array([0.02, -0.01, 0.005]) + rng.normal(0, 0.3, 5000)
>>> X = FeatureScaler(lower=np.zeros(3), upper=np.full(3, 100.0)).transform(raw_X)
>>> y = TargetScaler(lower=raw_y.min(), upper=raw_y.max()).transform(raw_y)
>>> model = FMLinearRegression(epsilon=1.0, rng=0).fit(X, y)
>>> model.coef_.shape
(3,)

Package map
-----------
``repro.core``
    The Functional Mechanism itself (Algorithms 1-2, Section 6 repairs).
``repro.privacy``
    DP primitives: Laplace/exponential/geometric mechanisms, budget
    accounting, empirical auditing.
``repro.regression``
    From-scratch non-private regression engine (the NoPrivacy baseline).
``repro.baselines``
    DPME, Filter-Priority, output/objective perturbation, Truncated.
``repro.data``
    Synthetic IPUMS-like census data (US/Brazil substitution).
``repro.engine``
    Streaming, shardable sufficient-statistics engine: chunked/merged
    moment accumulation, N-way parallel ingestion, one-pass multi-epsilon
    sweeps, and a content-addressed accumulator cache
    (``python -m repro engine`` is the CLI entry point).
``repro.runtime``
    Batched cell-solver runtime for the repeated-CV protocol: up-front
    (rep, fold, epsilon) cell planning, stacked LAPACK kernels and a
    masked batched Newton with bitwise-identical scores, plus pluggable
    serial/thread/process executors for the non-batchable baselines.
``repro.session``
    The unified Session/ExecutionPolicy API: one frozen, validated,
    JSON-serializable policy object for every execution knob (layered
    resolution over ``REPRO_*`` environment variables and policy files)
    and a Session facade owning cross-call state — prepared-data cache,
    reusable executor pool, dataset registry.  The entry points for
    every evaluation.
``repro.experiments``
    Table-2 parameter grid, cross-validation harness, per-figure drivers.
``repro.verify``
    DP conformance and golden-oracle verification (tiers 1-3).
``repro.analysis``
    Theorem-2 convergence and Lemma-3/4 approximation-error studies.
"""

from .core import (
    FMLinearRegression,
    FMLogisticRegression,
    FunctionalMechanism,
    LinearRegressionObjective,
    LogisticRegressionObjective,
    Polynomial,
    QuadraticForm,
)
from .engine import (
    AccumulatorCache,
    EpsilonSweepEngine,
    MomentAccumulator,
    MomentSnapshot,
    ShardedAccumulator,
)
from .exceptions import (
    BudgetExhaustedError,
    DataError,
    DomainError,
    NotFittedError,
    PrivacyError,
    ReproError,
    UnboundedObjectiveError,
)
from .privacy import LaplaceMechanism, PrivacyBudget
from .runtime import CellPlan, plan_cells, run_plan
from .session import ExecutionPolicy, Session
from .regression import (
    FeatureScaler,
    KFold,
    LinearRegression,
    LogisticRegressionModel,
    RidgeRegression,
    TargetScaler,
    binarize_labels,
    mean_squared_error,
    misclassification_rate,
)

__version__ = "2.0.0"

__all__ = [
    "FMLinearRegression",
    "FMLogisticRegression",
    "FunctionalMechanism",
    "LinearRegressionObjective",
    "LogisticRegressionObjective",
    "Polynomial",
    "QuadraticForm",
    "AccumulatorCache",
    "EpsilonSweepEngine",
    "MomentAccumulator",
    "MomentSnapshot",
    "ShardedAccumulator",
    "CellPlan",
    "plan_cells",
    "run_plan",
    "ExecutionPolicy",
    "Session",
    "BudgetExhaustedError",
    "DataError",
    "DomainError",
    "NotFittedError",
    "PrivacyError",
    "ReproError",
    "UnboundedObjectiveError",
    "LaplaceMechanism",
    "PrivacyBudget",
    "FeatureScaler",
    "KFold",
    "LinearRegression",
    "LogisticRegressionModel",
    "RidgeRegression",
    "TargetScaler",
    "binarize_labels",
    "mean_squared_error",
    "misclassification_rate",
    "__version__",
]
