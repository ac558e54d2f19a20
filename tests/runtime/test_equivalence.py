"""The runtime's central guarantee: batched == per-cell, bit for bit.

Every test here compares full held-out score vectors with ``==`` — no
tolerances.  The batched path is only allowed to change *scheduling* (one
stacked LAPACK call instead of many scalar ones, one masked Newton loop
instead of many), never a floating-point operation, so any last-bit drift is
a bug.
"""

import numpy as np
import pytest

from repro.baselines.base import make_algorithm
from repro.engine.accumulator import MomentAccumulator
from repro.exceptions import DomainError, UnboundedObjectiveError
from repro.experiments.config import SMOKE
from repro.privacy.rng import derive_substream
from repro.regression.preprocessing import KFold
from repro.runtime import (
    CellPlan,
    PlannedFold,
    algorithm_stream_key,
    plan_cells,
    run_plan,
)
from repro.session import ExecutionPolicy, Session

EPSILONS = (0.1, 0.8, 3.2)


def _session(**fields) -> Session:
    """A fresh session over the class-default policy plus ``fields``."""
    return Session(ExecutionPolicy(**fields))


def run_both(us, algorithm, task, epsilons, seed=0, preset=SMOKE, kwargs=None):
    plan = plan_cells(
        algorithm, us, task, dims=5, epsilons=epsilons, preset=preset, seed=seed,
        algorithm_kwargs=kwargs,
    )
    batched = run_plan(plan, mode="batched")
    percell = run_plan(plan, mode="percell")
    return plan, batched, percell


class TestBatchedEqualsPercell:
    @pytest.mark.parametrize(
        "algorithm,task",
        [
            ("FM", "linear"),
            ("FM", "logistic"),
            ("NoPrivacy", "linear"),
            ("NoPrivacy", "logistic"),
            ("Truncated", "linear"),
            ("Truncated", "logistic"),
        ],
    )
    def test_single_budget(self, us, algorithm, task):
        plan, batched, percell = run_both(us, algorithm, task, epsilons=[0.8], seed=3)
        assert batched.scores[0.8] == percell.scores[0.8]
        assert batched.mode == "batched"
        assert percell.mode == "percell"

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_fm_multi_budget(self, us, task):
        """A figure-6-shaped plan: every epsilon shares its fold's stream."""
        plan, batched, percell = run_both(us, "FM", task, epsilons=EPSILONS, seed=6)
        for epsilon in EPSILONS:
            assert batched.scores[epsilon] == percell.scores[epsilon]

    def test_fm_kwargs_variants(self, us):
        for kwargs in (
            {"tight_sensitivity": True},
            {"ridge_lambda": 0.25},
            {"approximation": "chebyshev"},
        ):
            task = "logistic" if "approximation" in kwargs else "linear"
            plan, batched, percell = run_both(
                us, "FM", task, epsilons=[0.4], seed=1, kwargs=kwargs
            )
            assert batched.scores[0.4] == percell.scores[0.4], kwargs

    def test_invalid_kwarg_fails_identically_in_both_modes(self, us):
        """A kwarg the estimator rejects must not be silently swallowed."""
        plan = plan_cells(
            "FM", us, "linear", dims=5, epsilons=[0.8], preset=SMOKE,
            algorithm_kwargs={"approximation": "chebyshev"},  # logistic-only
        )
        assert plan.kernel == "generic"
        for mode in ("batched", "percell"):
            with pytest.raises(TypeError):
                run_plan(plan, mode=mode)

    @pytest.mark.parametrize("mode", ["batched", "percell"])
    def test_unnormalized_data_rejected_in_both_modes(self, mode):
        """Domain validation must gate the batched kernels too.

        Accepting ``||x||_2 > 1`` data on the batched path would release FM
        output calibrated to a sensitivity bound the data violates.
        """
        rng = np.random.default_rng(0)
        X = rng.uniform(2.0, 3.0, size=(60, 3))  # violates footnote 1
        y = np.clip(rng.normal(size=60), -1, 1)
        fold = PlannedFold(
            rep=0, fold=0, X=X, y=y,
            train_idx=np.arange(40), test_idx=np.arange(40, 60),
            stream_tag=(algorithm_stream_key("FM"), 0, 0),
        )
        plan = CellPlan(
            algorithm="FM", task="linear", dims=3, dim=3, epsilons=(0.8,),
            preset=SMOKE, sampling_rate=1.0, seed=0, algorithm_kwargs={},
            folds=(fold,), kernel="quadratic",
        )
        with pytest.raises(DomainError):
            run_plan(plan, mode=mode)

    def test_generic_plan_identical_by_construction(self, us, tiny_preset):
        """DPME has no batched kernel; both modes run the same per-cell path."""
        plan, batched, percell = run_both(
            us, "DPME", "linear", epsilons=[0.8], seed=0, preset=tiny_preset
        )
        assert plan.kernel == "generic"
        assert batched.scores[0.8] == percell.scores[0.8]


class TestHarnessBitCompatibility:
    """Session.evaluate must still equal the pre-runtime per-cell loop."""

    @staticmethod
    def historical_scores(
        algorithm, dataset, task, dims, epsilon, preset, seed, stream_version
    ):
        """The harness loop as it existed before the runtime rewiring.

        ``stream_version`` is threaded explicitly: the loop's *orchestration*
        (sampling, folding, per-cell fits) is the historical reference at
        either derivation format, so the comparison pins both the v2 default
        and the v1 legacy streams.

        Quadratic algorithms fit from the fold complement's statistics,
        built here directly on ``MomentAccumulator`` (one accumulator per
        fold's held-out rows, merged over the other folds) — the
        definition the runtime implements, written independently of it.
        """
        key = algorithm_stream_key(algorithm)
        base_n = preset.cardinality(dataset.n)
        quadratic = (algorithm, task) != ("NoPrivacy", "logistic")
        scores = []
        for rep in range(preset.repetitions):
            rep_rng = derive_substream(
                seed, [key, rep], stream_version=stream_version
            )
            working = dataset
            if base_n < dataset.n:
                working = working.take(
                    rep_rng.choice(dataset.n, size=base_n, replace=False)
                )
            prepared = working.regression_task(task, dims=dims)
            splits = list(KFold(n_splits=preset.folds, rng=rep_rng).split(prepared.n))
            held_out = [
                MomentAccumulator(prepared.dim).update(prepared.X[idx], prepared.y[idx])
                for _, idx in splits
            ]
            for fold_id, (train_idx, test_idx) in enumerate(splits):
                model = make_algorithm(
                    algorithm,
                    task,
                    epsilon=epsilon,
                    rng=derive_substream(
                        seed, [key, rep, fold_id], stream_version=stream_version
                    ),
                )
                if quadratic:
                    complement = MomentAccumulator(prepared.dim)
                    for other in held_out[fold_id + 1 :] + held_out[:fold_id]:
                        complement.merge(other)
                    model.fit_statistics(complement.snapshot())
                else:
                    model.fit(prepared.X[train_idx], prepared.y[train_idx])
                scores.append(model.score(prepared.X[test_idx], prepared.y[test_idx]))
        return scores

    @pytest.mark.parametrize("stream_version", [1, 2])
    @pytest.mark.parametrize(
        "algorithm,task",
        [
            ("FM", "linear"),
            ("FM", "logistic"),
            ("NoPrivacy", "linear"),
            ("NoPrivacy", "logistic"),
            ("Truncated", "logistic"),
        ],
    )
    def test_batched_runtime_matches_historical_loop(
        self, us, algorithm, task, stream_version
    ):
        reference = self.historical_scores(
            algorithm, us, task, 5, 0.8, SMOKE, seed=3, stream_version=stream_version
        )
        result = _session(stream_version=stream_version).evaluate(
            algorithm, us, task, dims=5, epsilon=0.8, preset=SMOKE, seed=3,
        )
        assert result.mean_score == float(np.mean(reference))
        assert result.std_score == float(np.std(reference))
        assert result.cells == len(reference)

    def test_default_stream_version_is_v2(self, us):
        """The PR-6 flip: an unpinned run derives v2 streams."""
        default = _session().evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3,
        )
        pinned_v2 = _session(stream_version=2).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3,
        )
        pinned_v1 = _session(stream_version=1).evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=3,
        )
        assert default.mean_score == pinned_v2.mean_score
        assert default.mean_score != pinned_v1.mean_score

    def test_runtime_modes_agree_end_to_end(self, us):
        a = _session().evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9,
        )
        b = _session(runtime="percell").evaluate(
            "FM", us, "linear", dims=5, epsilon=0.8, preset=SMOKE, seed=9,
        )
        assert a.mean_score == b.mean_score
        assert a.std_score == b.std_score


class TestBudgetSweepEquivalence:
    def test_batched_equals_percell(self, us):
        batched = _session().budget_sweep(
            us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=4,
        )
        percell = _session(runtime="percell").budget_sweep(
            us, "linear", dims=5, epsilons=EPSILONS, preset=SMOKE, seed=4,
        )
        for epsilon in EPSILONS:
            assert batched[epsilon].mean_score == percell[epsilon].mean_score

    @pytest.mark.parametrize("stream_version", [1, 2])
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("post_processing", ["rerun", "regularize"])
    def test_non_spectral_repair_equals_percell(
        self, us, post_processing, task, stream_version
    ):
        """A non-spectral repair is an ordinary plan option on the one path.

        The default policy must reproduce the per-cell oracle bit for bit
        at every budget.  The ridge repair may legitimately give up on an
        indefinite draw at a small budget; then both paths must give up on
        the same draw.
        """

        def outcome(**runtime):
            session = _session(stream_version=stream_version, **runtime)
            try:
                sweep = session.budget_sweep(
                    us, task, dims=5, epsilons=EPSILONS, preset=SMOKE, seed=4,
                    post_processing=post_processing,
                )
            except UnboundedObjectiveError as error:
                return str(error)
            return {
                e: (r.mean_score, r.std_score, r.cells) for e, r in sweep.items()
            }

        default = outcome()
        if post_processing == "rerun":
            assert isinstance(default, dict)
        assert default == outcome(runtime="percell")
