"""Execute cell plans — batched, tiled, grouped, or per cell.

Two execution modes over the same cells:

``"percell"``
    The reference oracle.  Every cell constructs its algorithm through the
    registry, fits on its fold and scores the held-out split — a faithful
    transliteration of the historical harness loop, kept as the ground
    truth the batched path is asserted against.  Quadratic-kernel cells
    fit through the estimator's ``fit_statistics`` step from
    :func:`fold_statistics`, the statistics the batched path uses.
``"batched"``
    Cells are grouped by kernel class and executed as stacked tensor
    solves: one fold-complement statistics snapshot (:func:`fold_statistics`)
    feeds all epsilon cells of a fold, all
    d x d solves of the plan go through one LAPACK invocation, and logistic
    cells iterate through the masked batched Newton.  Scores are **bitwise
    identical** to the per-cell mode (see :mod:`repro.runtime.kernels` for
    why); only the timing attribution differs — batched cells report an
    equal share of their kernel's fit time (aggregation + noise + solves,
    held-out scoring excluded, matching the per-cell fit-only clock)
    instead of an individual fit time.

Three plan shapes feed those modes:

* a :class:`~repro.runtime.plan.CellPlan` runs through :func:`run_plan`
  exactly as in the eager runtime;
* a :class:`~repro.runtime.plan.TiledPlan` materializes bounded repetition
  tiles on demand — each tile executes as its own stacked batch, and with a
  thread/process executor whole tiles are dispatched in parallel (each
  worker materializes its own tile from the raw dataset, so the parent
  never holds more than its own tile).  Tile results
  reduce in tile order, which makes any tiling and any executor bitwise
  identical to the untiled serial run;
* :func:`run_plan_group` executes several algorithms' plans as one group:
  plans share a :class:`~repro.runtime.plan.PreparedDataCache`, and the
  quadratic-kernel plans' final closed-form solves are **merged into one
  stacked LAPACK call across algorithms** — bit-safe because the ``solve``
  gufunc factors each stacked matrix independently, so a cell's solution
  does not depend on which other cells share its batch.

Plans whose kernel class is ``generic`` (DPME, FP, ...) run per cell in
either mode, optionally spread over a :mod:`~repro.runtime.executor`
(serial / thread / process).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines.base import make_algorithm
from ..core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
    RegressionObjective,
)
from ..engine.accumulator import MomentAccumulator, MomentSnapshot
from ..exceptions import ExecutorBrokenError, ExperimentError
from ..obs import active_recorder
from ..regression.linear import _validate_xy as _validate_linear_xy
from ..regression.logistic import _validate_xy as _validate_logistic_xy
from ..regression.logistic import sigmoid
from ..regression.metrics import mean_squared_error, misclassification_rate
from .backend import active_backend
from .executor import CellExecutor, SerialExecutor, ThreadExecutor, get_executor
from .kernels import (
    fm_noise_stack,
    newton_logistic_stack,
    posdef_split_stack,
    spectral_trim_stack,
)
from .plan import (
    KERNEL_GENERIC,
    KERNEL_NEWTON,
    KERNEL_QUADRATIC,
    CellPlan,
    PlannedFold,
    TiledPlan,
)

__all__ = ["PlanResult", "fold_statistics", "run_plan", "run_plan_group"]

#: Upper bound on the bytes a single stacked Newton chunk may hold; chunking
#: only bounds memory — it cannot change any cell's arithmetic.
_NEWTON_CHUNK_BYTES = 1 << 28


@dataclass(frozen=True)
class PlanResult:
    """Per-cell scores and fit times of one plan execution.

    ``scores[epsilon]`` and ``fit_seconds[epsilon]`` list the plan's folds
    in order (for a tiled plan: protocol repetition order — tile reduction
    preserves it); aggregation into the harness's ``EvaluationResult``
    happens in :mod:`repro.experiments.harness` (which owns that type).
    """

    plan: "CellPlan | TiledPlan"
    mode: str
    scores: dict[float, list[float]]
    fit_seconds: dict[float, list[float]]
    last_n_train: int = field(default=-1)

    @property
    def n_train(self) -> int:
        """Training size of the last fold (the harness's reported value)."""
        return self.last_n_train if self.last_n_train >= 0 else self.plan.n_train


def _validate_plan_inputs(plan: CellPlan, validate) -> None:
    """Apply a per-cell input gate once per repetition instead of per cell.

    Folds of a repetition share its prepared arrays (by identity), and
    k-fold splitting puts every row into some training split, so validating
    the repetition's full ``(X, y)`` accepts/rejects exactly the datasets
    the per-cell gate would — at one O(n d) pass per repetition instead of
    one per cell.  (With a shared prepared-data cache, repetitions sharing
    one array validate once total — still the same accept/reject.)
    """
    seen: set[int] = set()
    for fold in plan.folds:
        if id(fold.X) in seen:
            continue
        seen.add(id(fold.X))
        validate(fold.X, fold.y)


def _objective_for_plan(plan: CellPlan) -> RegressionObjective:
    """The degree-2 objective an FM/Truncated cell of this plan builds."""
    kwargs = plan.algorithm_kwargs
    if plan.task == "linear":
        return LinearRegressionObjective(plan.dim)
    return LogisticRegressionObjective(
        plan.dim,
        approximation=kwargs.get("approximation", "taylor"),
        order=int(kwargs.get("order", 2)),
        radius=float(kwargs.get("radius", 1.0)),
    )


def _input_gate(plan: CellPlan) -> Callable:
    """The input check a quadratic plan's estimator applies in ``fit``."""
    if plan.algorithm.lower() == "noprivacy":
        return _validate_linear_xy
    return _objective_for_plan(plan).validate


def _fold_accumulators(folds: Sequence[PlannedFold], dim: int) -> tuple:
    """One sealed accumulator per fold, over its held-out rows in order.

    Domain validation is the plan-level gate's job (``validate=False``
    skips only that duplicate pass; finiteness is still checked).
    """
    recorder = active_recorder()
    accumulators = []
    for fold in folds:
        X_test, y_test = fold.test_arrays()
        recorder.counter("runtime.fold_stat_rows", X_test.shape[0])
        accumulators.append(
            MomentAccumulator(dim, validate=False).update(X_test, y_test).seal()
        )
    return tuple(accumulators)


def fold_statistics(plan: CellPlan, index: int) -> MomentSnapshot:
    """Training statistics of ``plan.folds[index]``, from its complement.

    The objective is a sum over tuples, so a fold's training statistics
    are the merge of the *other* folds' held-out accumulators.  Each
    repetition builds its accumulators once (shared through the plan's
    :class:`~repro.runtime.plan.PreparedDataCache`), so every row is
    aggregated once per repetition rather than once per training split
    containing it.  The snapshot's :func:`math.fsum` reduction depends
    only on the multiset of block partials: the result is independent of
    merge order, tiling, executor and BLAS thread count.

    The batched quadratic preparers and the per-cell oracle both call
    this, so the two paths fit from bitwise identical statistics.
    """
    fold = plan.folds[index]
    with active_recorder().span("runtime.fold_statistics", rep=fold.rep, fold=fold.fold):
        rep_folds = [f for f in plan.folds if f.rep == fold.rep]

        def build() -> tuple:
            return _fold_accumulators(rep_folds, plan.dim)

        parts = build() if plan.cache is None else plan.cache.fold_accumulators(
            rep_folds, build
        )
        merged = MomentAccumulator(plan.dim, validate=False)
        for k, part in enumerate(parts):
            if k != fold.fold:
                merged.merge(part)
        return merged.snapshot()


def _score_linear(y_test: np.ndarray, z: np.ndarray) -> float:
    """The linear metric from raw scores, as the per-cell models compute it."""
    return mean_squared_error(y_test, z)


def _score_logistic(y_test: np.ndarray, z: np.ndarray) -> float:
    """The logistic metric via the 0.5 sigmoid threshold (not ``z > 0``).

    The per-cell models predict ``sigmoid(z) > 0.5``; for subnormal
    positive ``z`` this differs from ``z > 0`` at the last bit, and the
    batched path mirrors the models exactly.
    """
    return misclassification_rate(y_test, (sigmoid(z) > 0.5).astype(float))


def _scores_for_fold(
    plan: CellPlan, X_test: np.ndarray, y_test: np.ndarray, omegas: np.ndarray
) -> list[float]:
    """Score one fold's E released parameters against its held-out split.

    The broadcastified matmul runs one GEMV per parameter on the shared
    test matrix — bitwise equal to the per-cell ``X_test @ omega``.
    """
    z = np.matmul(X_test[None, :, :], omegas[:, :, None])[:, :, 0]
    score = _score_linear if plan.task == "linear" else _score_logistic
    return [score(y_test, z[e]) for e in range(omegas.shape[0])]


def _mapped(executor: CellExecutor, work, items) -> list:
    """``executor.map`` with graceful process → thread → serial degradation.

    When a self-healing process executor exhausts its retries under
    ``failure_mode="fallback"``, the raised
    :class:`~repro.exceptions.ExecutorBrokenError` carries the completed
    prefix; only the pending items re-run, first on a thread pool, then
    — should that fail too — serially.  Every landing spot produces
    bitwise-identical results (cell substreams are keyed by
    ``(seed, tag)``, never by executor), so degradation changes where
    work runs, not what it computes.  ``failure_mode="raise"`` (the
    default) propagates instead.
    """
    items = list(items)
    try:
        return executor.map(work, items)
    except ExecutorBrokenError as err:
        if err.failure_mode != "fallback":
            raise
        recorder = active_recorder()
        results: list = [None] * len(items)
        for i, result in err.completed.items():
            results[i] = result
        pending = list(err.pending)
        for stage_cls in (ThreadExecutor, SerialExecutor):
            recorder.counter("executor.fallbacks")
            with stage_cls() as stage, recorder.span(
                "executor.fallback", to=stage.name, pending=len(pending)
            ):
                try:
                    recovered = stage.map(work, [items[i] for i in pending])
                except Exception:
                    if stage.name == "serial":
                        raise  # serial is the floor: a failure here is real
                    continue
            for i, result in zip(pending, recovered):
                results[i] = result
            return results
        raise  # pragma: no cover - unreachable (serial returns or raises)


# ----------------------------------------------------------------------
# Reference oracle
# ----------------------------------------------------------------------
@dataclass
class _PercellFoldWork:
    """Fit/score one fold of the plan per call — the per-cell work unit.

    A module-level callable (not a closure) so persistent process pools
    can ship it by pickle; items are fold *indices*, which keeps the heavy
    plan pickled once per chunk rather than once per item.
    """

    plan: CellPlan

    def __call__(self, index: int) -> tuple[list[float], list[float]]:
        plan, fold = self.plan, self.plan.folds[index]
        recorder = active_recorder()  # looked up per call: never pickled
        gen = plan.substream(fold)
        if plan.kernel == KERNEL_QUADRATIC:
            # The estimator's own gate, then the batched path's statistics:
            # noise, repair and solve stay the estimator's code.
            with recorder.span("cell.statistics") as stats_span:
                _input_gate(plan)(fold.X, fold.y)
                statistics = fold_statistics(plan, index)
            stats_share = stats_span.seconds / len(plan.epsilons)

            def fit(model) -> None:
                model.fit_statistics(statistics, rows=fold.train_arrays)

        else:
            stats_share = 0.0
            X_train, y_train = fold.train_arrays()

            def fit(model) -> None:
                model.fit(X_train, y_train)

        X_test, y_test = fold.test_arrays()
        cell_scores, cell_times = [], []
        for epsilon in plan.epsilons:
            model = make_algorithm(
                plan.algorithm,
                plan.task,
                epsilon=epsilon,
                rng=gen,
                **plan.algorithm_kwargs,
            )
            with recorder.span(
                "cell.fit", algorithm=plan.algorithm, epsilon=epsilon
            ) as span:
                fit(model)
            cell_times.append(stats_share + span.seconds)
            cell_scores.append(model.score(X_test, y_test))
        return cell_scores, cell_times


def _run_percell(plan: CellPlan, executor: CellExecutor) -> PlanResult:
    """Fit and score every cell independently (the reference path).

    Each fold derives one generator, consumed sequentially across the
    epsilon axis — for a single-budget plan this is exactly the historical
    harness cell; for a multi-budget plan it matches the documented
    loop-equivalence of :meth:`repro.engine.EpsilonSweepEngine.sweep`.
    """
    outcomes = _mapped(executor, _PercellFoldWork(plan), range(len(plan.folds)))
    scores = {e: [] for e in plan.epsilons}
    fit_seconds = {e: [] for e in plan.epsilons}
    for cell_scores, cell_times in outcomes:
        for e, s, t in zip(plan.epsilons, cell_scores, cell_times):
            scores[e].append(s)
            fit_seconds[e].append(t)
    return PlanResult(plan=plan, mode="percell", scores=scores, fit_seconds=fit_seconds)


# ----------------------------------------------------------------------
# Quadratic kernels as mergeable solve requests
# ----------------------------------------------------------------------
#: (algorithm, kernel) -> quadratic request kind.
_QUAD_KINDS = {
    ("fm", KERNEL_QUADRATIC): "fm",
    ("noprivacy", KERNEL_QUADRATIC): "ols",
    ("truncated", KERNEL_QUADRATIC): "truncated",
}


@dataclass
class _QuadRequest:
    """One plan's quadratic cells, reduced to pending ``solve(A, b)`` rows.

    ``omega`` is the plan's full output buffer; cells resolved outside the
    closed-form solve (spectral-trimmed subspace preimages, pseudo-inverse
    fallbacks) are already written.  Rows listed in ``pending`` await
    ``np.linalg.solve(A, b)`` — either per plan or merged with other
    requests of the same dimension into one stacked LAPACK call, which is
    bitwise equivalent because the gufunc factors each matrix on its own.
    """

    plan: CellPlan
    kind: str
    omega: np.ndarray
    pending: np.ndarray
    A: np.ndarray
    b: np.ndarray
    prep_seconds: float = 0.0
    solve_seconds: float = 0.0


def _prepare_fm(plan: CellPlan) -> _QuadRequest:
    """All FM cells of one plan as a stacked perturb-repair request."""
    objective = _objective_for_plan(plan)
    sensitivity = objective.sensitivity(
        tight=bool(plan.algorithm_kwargs.get("tight_sensitivity", False))
    )
    ridge_lambda = float(plan.algorithm_kwargs.get("ridge_lambda", 0.0))
    d = plan.dim
    E = len(plan.epsilons)
    F = len(plan.folds)
    epsilons = np.asarray(plan.epsilons, dtype=float)
    scales = sensitivity / epsilons
    M_stack = np.empty((F * E, d, d))
    alpha_stack = np.empty((F * E, d))
    noise_std = np.empty(F * E)
    # The same domain gate the per-cell estimator applies: releasing FM
    # output on data violating the footnote-1 normalization would void the
    # sensitivity bound (checks only — no arithmetic, so bit-identity with
    # the per-cell path is unaffected).
    _validate_plan_inputs(plan, objective.validate)
    recorder = active_recorder()
    for f, fold in enumerate(plan.folds):
        form = fold_statistics(plan, f).quadratic_form(objective)
        raw = plan.substream(fold).laplace(0.0, 1.0, size=(E, 1 + d + d * d))
        recorder.counter("runner.laplace_draws", E * (1 + d + d * d))
        noisy_M, noisy_alpha = fm_noise_stack(form.M, form.alpha, raw, scales)
        if ridge_lambda:
            noisy_M = noisy_M + ridge_lambda * np.eye(d)
        M_stack[f * E : (f + 1) * E] = noisy_M
        alpha_stack[f * E : (f + 1) * E] = noisy_alpha
        noise_std[f * E : (f + 1) * E] = math.sqrt(2.0) * scales
    state = spectral_trim_stack(M_stack, alpha_stack, noise_std, compute_repaired=False)
    if recorder.recording:
        n_full = int(np.count_nonzero(state.full))
        recorder.counter("fm.cells_full", n_full)
        recorder.counter("fm.cells_trimmed", state.full.size - n_full)
    return _QuadRequest(
        plan=plan,
        kind="fm",
        omega=state.omega,
        pending=np.flatnonzero(state.full),
        A=2.0 * state.regularized[state.full],
        b=-alpha_stack[state.full],
    )


def _prepare_ols(plan: CellPlan) -> _QuadRequest:
    """All NoPrivacy-linear cells as a stacked normal-equations request."""
    d = plan.dim
    F = len(plan.folds)
    gram = np.empty((F, d, d))
    moment = np.empty((F, d))
    _validate_plan_inputs(plan, _validate_linear_xy)  # the per-cell input gate
    for f in range(F):
        statistics = fold_statistics(plan, f)
        gram[f], moment[f] = statistics.S2, statistics.Sxy
    return _QuadRequest(
        plan=plan,
        kind="ols",
        omega=np.empty((F, d)),
        pending=np.arange(F),
        A=gram,
        b=moment,
    )


def _prepare_truncated(plan: CellPlan) -> _QuadRequest:
    """All Truncated cells as a stacked closed-form request."""
    objective = _objective_for_plan(plan)
    d = plan.dim
    F = len(plan.folds)
    M_stack = np.empty((F, d, d))
    alpha_stack = np.empty((F, d))
    _validate_plan_inputs(plan, objective.validate)  # Truncated.fit's gate
    for f in range(F):
        form = fold_statistics(plan, f).quadratic_form(objective)
        M_stack[f] = form.M
        alpha_stack[f] = form.alpha
    omega, posdef = posdef_split_stack(M_stack, alpha_stack)
    recorder = active_recorder()
    if recorder.recording:
        n_posdef = int(np.count_nonzero(posdef))
        recorder.counter("truncated.cells_posdef", n_posdef)
        recorder.counter("truncated.cells_pinv", posdef.size - n_posdef)
    return _QuadRequest(
        plan=plan,
        kind="truncated",
        omega=omega,
        pending=np.flatnonzero(posdef),
        A=2.0 * M_stack[posdef],
        b=-alpha_stack[posdef],
    )


_QUAD_PREPARERS = {"fm": _prepare_fm, "ols": _prepare_ols, "truncated": _prepare_truncated}


def _ols_lstsq(plan: CellPlan, f: int) -> np.ndarray:
    """The reference path's singular-Gram fallback for one OLS fold."""
    design, target = plan.folds[f].train_arrays()
    weights, *_ = np.linalg.lstsq(design, target, rcond=None)
    return weights


def _apply_ols_fallback(request: _QuadRequest) -> None:
    """Replace non-finite OLS solutions by the per-fold lstsq fallback."""
    failed = ~np.all(np.isfinite(request.omega), axis=1)
    for f in np.flatnonzero(failed):
        request.omega[f] = _ols_lstsq(request.plan, f)


def _solve_request_alone(request: _QuadRequest) -> None:
    """One request's pending solve with its kind's own failure semantics."""
    if request.pending.size == 0:
        return
    backend = active_backend()
    if request.kind == "ols":
        # Replicates the reference OLS behaviour: try the whole stack, and
        # on a singular cell retry cell by cell (bitwise identical for the
        # non-singular cells either way), lstsq fallback afterwards.
        F = request.pending.size
        try:
            request.omega[:] = backend.solve(request.A, request.b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in range(F):
                try:
                    request.omega[i] = backend.solve(request.A[i], request.b[i])
                except np.linalg.LinAlgError:
                    request.omega[i] = np.nan
        _apply_ols_fallback(request)
        return
    # fm / truncated pending cells are positive definite by construction
    # (eigenvalue-checked), so a LinAlgError here propagates exactly as the
    # per-plan stacked kernels would propagate it (every backend translates
    # its singular-system error to np.linalg.LinAlgError).
    request.omega[request.pending] = backend.solve(
        request.A, request.b[..., None]
    )[..., 0]


def _solve_requests(requests: Sequence[_QuadRequest]) -> None:
    """Solve all requests' pending systems, merged per dimension.

    Requests sharing a feature dimension concatenate their ``(A, b)``
    stacks into **one** ``np.linalg.solve`` call — one LAPACK invocation
    for the whole algorithm panel.  If any cell in a merged stack is
    singular the gufunc raises without saying which, so the group falls
    back to per-request solves, each with its own reference semantics
    (non-singular requests are bitwise unaffected by the retry).
    """
    recorder = active_recorder()
    by_dim: dict[int, list[_QuadRequest]] = {}
    for request in requests:
        if request.pending.size:
            by_dim.setdefault(request.omega.shape[1], []).append(request)
    for group in by_dim.values():
        if len(group) == 1:
            with recorder.span(
                "kernel.solve", cells=int(group[0].pending.size)
            ) as span:
                _solve_request_alone(group[0])
            group[0].solve_seconds = span.seconds
            continue
        total = sum(r.pending.size for r in group)
        with recorder.span("kernel.solve", cells=int(total), merged=len(group)) as span:
            A = np.concatenate([r.A for r in group])
            b = np.concatenate([r.b for r in group])
            try:
                solved = active_backend().solve(A, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                solved = None
        if solved is None:
            for request in group:
                with recorder.span(
                    "kernel.solve", cells=int(request.pending.size)
                ) as solo:
                    _solve_request_alone(request)
                request.solve_seconds = solo.seconds
            continue
        offset = 0
        merged_seconds = span.seconds
        for request in group:
            request.omega[request.pending] = solved[
                offset : offset + request.pending.size
            ]
            offset += request.pending.size
            if request.kind == "ols":
                _apply_ols_fallback(request)
            # Attribute the merged call proportionally to contributed rows.
            request.solve_seconds = merged_seconds * request.pending.size / total


def _finalize_quadratic(request: _QuadRequest) -> dict[float, list[float]]:
    """Held-out scoring of one solved request (excluded from fit timing)."""
    plan = request.plan
    if request.kind != "fm":
        return _replicated_scores(plan, request.omega)
    E = len(plan.epsilons)
    scores = {e: [] for e in plan.epsilons}
    for f, fold in enumerate(plan.folds):
        X_test, y_test = fold.test_arrays()
        fold_scores = _scores_for_fold(
            plan, X_test, y_test, request.omega[f * E : (f + 1) * E]
        )
        for e, s in zip(plan.epsilons, fold_scores):
            scores[e].append(s)
    return scores


def _run_quadratic_plans(plans: Sequence[CellPlan]) -> list[PlanResult]:
    """Execute several quadratic-kernel plans with one merged solve pass."""
    recorder = active_recorder()
    requests: list[_QuadRequest] = []
    for plan in plans:
        kind = _QUAD_KINDS[(plan.algorithm.lower(), plan.kernel)]
        with recorder.span(
            "kernel.prepare", algorithm=plan.algorithm, kind=kind
        ) as span:
            request = _QUAD_PREPARERS[kind](plan)
        request.prep_seconds = span.seconds
        requests.append(request)
    _solve_requests(requests)
    results = []
    for request in requests:
        plan = request.plan
        scores = _finalize_quadratic(request)
        # Attribute an equal share of the plan's kernel time (aggregation +
        # noise + its share of the merged solve; scoring excluded, matching
        # the per-cell path's fit-only clock) to every cell.
        share = (request.prep_seconds + request.solve_seconds) / max(1, plan.n_cells)
        fit_seconds = {e: [share] * len(plan.folds) for e in plan.epsilons}
        results.append(
            PlanResult(plan=plan, mode="batched", scores=scores, fit_seconds=fit_seconds)
        )
    return results


# ----------------------------------------------------------------------
# Masked batched Newton
# ----------------------------------------------------------------------
def _run_newton_batched(plan: CellPlan) -> tuple[dict[float, list[float]], float]:
    """All NoPrivacy-logistic cells through the masked batched Newton.

    Folds are grouped by training size (stacking needs a shared ``n``) and
    chunked to bound the stacked copy's memory; neither regrouping nor
    chunking changes any cell's arithmetic.
    """
    recorder = active_recorder()
    with recorder.span("kernel.newton", folds=len(plan.folds)) as span:
        _validate_plan_inputs(plan, _validate_logistic_xy)  # label/shape gate
        coefs = np.empty((len(plan.folds), plan.dim))
        by_size: dict[int, list[int]] = {}
        for f, fold in enumerate(plan.folds):
            by_size.setdefault(fold.n_train, []).append(f)
        for n, fold_ids in by_size.items():
            chunk = max(1, _NEWTON_CHUNK_BYTES // max(1, n * plan.dim * 8))
            for start in range(0, len(fold_ids), chunk):
                batch = fold_ids[start : start + chunk]
                # Gather straight into the stack: np.take(..., out=) writes the
                # same rows a fancy-index copy would, without the intermediate.
                X_stack = np.empty((len(batch), n, plan.dim))
                y_stack = np.empty((len(batch), n))
                for j, f in enumerate(batch):
                    fold = plan.folds[f]
                    np.take(fold.X, fold.train_idx, axis=0, out=X_stack[j])
                    np.take(fold.y, fold.train_idx, axis=0, out=y_stack[j])
                # LogisticRegressionModel's solver settings (not NewtonSolver's
                # bare defaults): 100 iterations at tolerance 1e-8.
                result = newton_logistic_stack(
                    X_stack, y_stack, max_iterations=100, tolerance=1e-8
                )
                if recorder.recording:
                    recorder.counter("newton.cells", len(batch))
                    recorder.counter("newton.iterations", int(np.sum(result.iterations)))
                    recorder.counter("newton.converged", int(np.sum(result.converged)))
                    recorder.counter("newton.compaction_chunks")
                for j, f in enumerate(batch):
                    coefs[f] = result.x[j]
    return _replicated_scores(plan, coefs), span.seconds


def _replicated_scores(plan: CellPlan, coefs: np.ndarray) -> dict[float, list[float]]:
    """Score epsilon-independent fits, replicating across the budget axis.

    Non-private cells draw no noise, so every epsilon cell of a fold scores
    identically; the per-cell path recomputes the identical arithmetic and
    the batched path reuses the float.
    """
    scores = {e: [] for e in plan.epsilons}
    for f, fold in enumerate(plan.folds):
        X_test, y_test = fold.test_arrays()
        fold_scores = _scores_for_fold(plan, X_test, y_test, coefs[f : f + 1])
        for e in plan.epsilons:
            scores[e].append(fold_scores[0])
    return scores


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _run_batched_single(plan: CellPlan, executor: CellExecutor) -> PlanResult:
    """Batched-mode dispatch for one eager plan."""
    key = (plan.algorithm.lower(), plan.kernel)
    if key in _QUAD_KINDS:
        return _run_quadratic_plans([plan])[0]
    if plan.kernel == KERNEL_NEWTON and key == ("noprivacy", KERNEL_NEWTON):
        scores, kernel_fit_seconds = _run_newton_batched(plan)
        share = kernel_fit_seconds / max(1, plan.n_cells)
        fit_seconds = {e: [share] * len(plan.folds) for e in plan.epsilons}
        return PlanResult(
            plan=plan, mode="batched", scores=scores, fit_seconds=fit_seconds
        )
    return _run_percell(plan, executor)


def _owned(executor: str | CellExecutor):
    """``with`` scope for an executor argument.

    A name builds an executor that the scope closes on exit; a
    constructed executor belongs to its caller and stays open.
    """
    if isinstance(executor, CellExecutor):
        return contextlib.nullcontext(executor)
    return get_executor(executor)


def run_plan(
    plan: CellPlan | TiledPlan,
    mode: str = "batched",
    executor: str | CellExecutor = "serial",
) -> PlanResult:
    """Execute every cell of a plan.

    Parameters
    ----------
    plan:
        The enumerated cells — an eager :class:`CellPlan` or a lazily
        materializing :class:`TiledPlan` (whose tiles are executed in
        index order, or dispatched whole across a thread/process executor;
        results are bitwise identical either way).
    mode:
        ``"batched"`` routes supported kernels through the stacked tensor
        path (generic plans still run per cell on the executor);
        ``"percell"`` forces the reference oracle for every cell.
    executor:
        Where parallel work runs — ``"serial"``, ``"thread"``, ``"process"``
        or a constructed :class:`~repro.runtime.executor.CellExecutor`.
        For an eager plan this spreads per-cell work (non-batchable
        baselines, or everything under ``"percell"``); for a tiled plan
        with more than one tile it dispatches whole tiles.  An executor
        built from a name is closed before this returns; a constructed
        one stays open for its owner.
    """
    if isinstance(plan, TiledPlan):
        return run_plan_group([plan], mode=mode, executor=executor)[0]
    if mode not in ("batched", "percell"):
        raise ExperimentError(f"unknown runtime mode {mode!r}; use 'batched' or 'percell'")
    with _owned(executor) as resolved, active_recorder().span(
        "plan.run", mode=mode, algorithm=plan.algorithm, cells=plan.n_cells
    ):
        if mode == "percell":
            return _run_percell(plan, resolved)
        return _run_batched_single(plan, resolved)


def run_plan_group(
    plans: Sequence[CellPlan | TiledPlan],
    mode: str = "batched",
    executor: str | CellExecutor = "serial",
) -> list[PlanResult]:
    """Execute several algorithms' plans as one group, results in order.

    Grouping buys two things over looping :func:`run_plan`:

    * plans constructed over one shared
      :class:`~repro.runtime.plan.PreparedDataCache` reuse prepared arrays
      wherever their repetitions coincide, and
    * all quadratic-kernel plans' pending closed-form solves merge into one
      stacked LAPACK call per feature dimension (see
      :func:`_solve_requests`) — bitwise identical to solving each plan
      alone.

    Tiled plans must share their tiling (same repetitions and
    ``tile_size``); tile ``t`` of every plan executes together, and with a
    thread/process executor whole tiles run in parallel while results
    reduce in tile order, keeping output independent of scheduling.
    ``executor`` is resolved and closed as in :func:`run_plan`.
    """
    plans = list(plans)
    if not plans:
        return []
    if mode not in ("batched", "percell"):
        raise ExperimentError(f"unknown runtime mode {mode!r}; use 'batched' or 'percell'")
    with _owned(executor) as resolved, active_recorder().span(
        "plan.group", mode=mode, plans=len(plans)
    ):
        if all(isinstance(p, CellPlan) for p in plans):
            return _run_group_eager(plans, mode, resolved)
        if all(isinstance(p, TiledPlan) for p in plans):
            return _run_group_tiled(plans, mode, resolved)
        raise ExperimentError("cannot mix eager CellPlans and TiledPlans in one group")


def _run_group_eager(
    plans: list[CellPlan], mode: str, executor: CellExecutor
) -> list[PlanResult]:
    """Group execution over fully materialized plans."""
    if mode == "percell":
        return [_run_percell(plan, executor) for plan in plans]
    if mode != "batched":
        raise ExperimentError(f"unknown runtime mode {mode!r}; use 'batched' or 'percell'")
    results: list[PlanResult | None] = [None] * len(plans)
    quad_indices = [
        i
        for i, plan in enumerate(plans)
        if (plan.algorithm.lower(), plan.kernel) in _QUAD_KINDS
    ]
    if quad_indices:
        merged = _run_quadratic_plans([plans[i] for i in quad_indices])
        for i, outcome in zip(quad_indices, merged):
            results[i] = outcome
    for i, plan in enumerate(plans):
        if results[i] is None:
            results[i] = _run_batched_single(plan, executor)
    return results  # type: ignore[return-value]


@dataclass
class _TileGroupWork:
    """Materialize and execute one tile of every plan in the group.

    Module-level and picklable (plans pickle their datasets; a carried
    ``PreparedDataCache`` pickles as a fresh one) so a persistent process
    pool can ship whole tiles.  Only the lightweight score/time lists
    travel back.
    """

    plans: tuple[TiledPlan, ...]
    mode: str
    inner: CellExecutor

    def __call__(self, index: int) -> list[tuple[dict, dict, int]]:
        with active_recorder().span("plan.tile", tile=index):
            tile_plans = [plan.tile(index) for plan in self.plans]
            tile_results = _run_group_eager(tile_plans, self.mode, self.inner)
            return [
                (outcome.scores, outcome.fit_seconds, tile_plan.n_train)
                for outcome, tile_plan in zip(tile_results, tile_plans)
            ]


def _run_group_tiled(
    tiled: list[TiledPlan], mode: str, executor: CellExecutor
) -> list[PlanResult]:
    """Tile-by-tile group execution with deterministic tile-ordered reduction.

    Each tile materializes every plan's repetitions for that tile, executes
    them as an eager group (merged solves included) and returns only the
    lightweight score/time lists — the prepared arrays never leave the
    tile's scope (or, under the process executor, the worker).  With
    more than one tile, whole tiles dispatch across the executor: workers
    materialize their tiles from the raw dataset the work carries, so
    peak resident memory is ``min(n_tiles, workers)`` tiles rather than the
    whole protocol.  With a single tile, the executor instead spreads
    per-cell work inside the tile, preserving the eager path's cell-level
    parallelism.
    """
    boundaries = {(plan.n_reps, plan.tile_size) for plan in tiled}
    if len(boundaries) > 1:
        raise ExperimentError(
            f"grouped tiled plans must share their tiling, got {sorted(boundaries)}"
        )
    n_tiles = tiled[0].n_tiles
    inner = executor if n_tiles == 1 else SerialExecutor()
    tile_outcomes = _mapped(
        executor, _TileGroupWork(tuple(tiled), mode, inner), list(range(n_tiles))
    )
    scores: list[dict[float, list[float]]] = [
        {e: [] for e in plan.epsilons} for plan in tiled
    ]
    fit_seconds: list[dict[float, list[float]]] = [
        {e: [] for e in plan.epsilons} for plan in tiled
    ]
    last_n_train = [0] * len(tiled)
    for tile_outcome in tile_outcomes:  # executor.map preserves tile order
        for j, (tile_scores, tile_times, n_train) in enumerate(tile_outcome):
            for e in tiled[j].epsilons:
                scores[j][e].extend(tile_scores[e])
                fit_seconds[j][e].extend(tile_times[e])
            last_n_train[j] = n_train
    return [
        PlanResult(
            plan=plan,
            mode=mode,
            scores=scores[j],
            fit_seconds=fit_seconds[j],
            last_n_train=last_n_train[j],
        )
        for j, plan in enumerate(tiled)
    ]
