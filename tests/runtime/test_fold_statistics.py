"""Fold-complement statistics against the plain-GEMM reference.

The batched kernels and the per-cell oracle both fit from
:func:`repro.runtime.fold_statistics`, so their bitwise agreement cannot
catch a wrong statistic on its own.  These tests give the oracle
independent teeth: every fold's complement snapshot is compared with
``aggregate_quadratic`` on the gathered training rows, within an explicit
rounding bound, and the statistics must not depend on the BLAS thread
count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.objectives import LinearRegressionObjective, LogisticRegressionObjective
from repro.data.census import load_us
from repro.engine.accumulator import DEFAULT_BLOCK_SIZE
from repro.experiments.config import ScalePreset
from repro.runtime import fold_statistics, plan_cells

EPS = np.finfo(float).eps

OBJECTIVES = {
    "linear": ("linear", {}),
    "logistic-taylor": ("logistic", {"approximation": "taylor"}),
    "logistic-chebyshev": ("logistic", {"approximation": "chebyshev"}),
}


def _objective(task, kwargs, dim):
    if task == "linear":
        return LinearRegressionObjective(dim)
    return LogisticRegressionObjective(dim, approximation=kwargs["approximation"])


def _bound(objective, X, y, rows):
    """Entry-wise rounding bound between two summations of the same terms.

    Any summation of ``m`` terms is within ``(m - 1) u sum|t|`` of the
    exact sum (``u = eps / 2``); a blocked sum is within ``B u sum|t|`` of
    it plus one rounding of the fsum of the partials.  So the two results
    differ by at most ``(m + B + 4) eps sum|t|`` per entry, the ``+ 4``
    covering the coefficient scaling and the form's symmetrization.
    """
    ax, ay = np.abs(X), np.abs(y)
    if isinstance(objective, LinearRegressionObjective):
        magnitude = (ax.T @ ax, 2.0 * ax.T @ ay, float(ay @ ay))
    else:
        a0, a1, a2 = (abs(c) for c in objective.softplus_coefficients)
        magnitude = (a2 * (ax.T @ ax), a1 * ax.sum(axis=0) + ax.T @ ay, a0 * rows)
    factor = (rows + DEFAULT_BLOCK_SIZE + 4) * EPS
    return tuple(factor * m for m in magnitude)


@pytest.mark.parametrize("objective_id", sorted(OBJECTIVES))
@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize(
    "n",
    [
        700,  # every fold is smaller than one canonical block
        9001,  # not a multiple of the block size: partial tail blocks
    ],
)
def test_complement_matches_plain_gemm_within_rounding(objective_id, folds, n):
    task, kwargs = OBJECTIVES[objective_id]
    preset = ScalePreset(name="fold-stats", max_records=None, folds=folds, repetitions=1)
    plan = plan_cells(
        "FM", load_us(n, rng=3), task, dims=8, epsilons=(1.0,), preset=preset,
        seed=4, algorithm_kwargs=kwargs,
    )
    objective = _objective(task, kwargs, plan.dim)
    for index, fold in enumerate(plan.folds):
        snapshot = fold_statistics(plan, index)
        X_train, y_train = fold.train_arrays()
        assert snapshot.n == X_train.shape[0]
        got = snapshot.quadratic_form(objective)
        want = objective.aggregate_quadratic(X_train, y_train)
        bound_M, bound_alpha, bound_beta = _bound(
            objective, X_train, y_train, X_train.shape[0]
        )
        assert np.all(np.abs(got.M - want.M) <= bound_M)
        assert np.all(np.abs(got.alpha - want.alpha) <= bound_alpha)
        assert abs(got.beta - want.beta) <= bound_beta


def test_bound_catches_one_missing_row():
    """The bound is tight enough that losing a single row exceeds it."""
    preset = ScalePreset(name="fold-stats", max_records=None, folds=3, repetitions=1)
    plan = plan_cells(
        "FM", load_us(9001, rng=3), "linear", dims=8, epsilons=(1.0,),
        preset=preset, seed=4,
    )
    objective = LinearRegressionObjective(plan.dim)
    X_train, y_train = plan.folds[0].train_arrays()
    full = fold_statistics(plan, 0).quadratic_form(objective)
    short = objective.aggregate_quadratic(X_train[1:], y_train[1:])
    bound_M, _, _ = _bound(objective, X_train, y_train, X_train.shape[0])
    assert np.any(np.abs(full.M - short.M) > bound_M)


_DIGEST_SCRIPT = """
import json
from repro.data.census import load_us
from repro.experiments.config import ScalePreset
from repro.session import ExecutionPolicy, Session

us = load_us(120_000, rng=5)
preset = ScalePreset(name="threads", max_records=None, folds=5, repetitions=1)
out = {}
with Session(ExecutionPolicy(seed=11)) as session:
    for task in ("linear", "logistic"):
        sweep = session.budget_sweep(us, task, 14, [0.1, 0.8, 3.2], preset=preset)
        for eps, result in sorted(sweep.items()):
            out[f"FM-{task}-{eps}"] = [result.mean_score.hex(), result.std_score.hex()]
    for name, task in (("NoPrivacy", "linear"), ("Truncated", "logistic")):
        result = session.evaluate(name, us, task, 14, 1.0, preset=preset)
        out[f"{name}-{task}"] = [result.mean_score.hex(), result.std_score.hex()]
print(json.dumps(out, sort_keys=True))
"""


def test_digests_are_blas_thread_invariant():
    """FM, NoPrivacy-linear and Truncated digests at 1, 2 and 4 BLAS threads.

    At 120k rows the former per-split GEMM statistics digested differently
    at 1 and 2 OpenBLAS threads; the blocked-fsum complement must not.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    digests = {}
    for threads in ("1", "2", "4"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests[threads] = json.loads(done.stdout)
    assert len(digests["1"]) == 8
    assert digests["1"] == digests["2"] == digests["4"]
