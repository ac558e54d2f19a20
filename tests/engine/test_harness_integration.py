"""Integration tests: the experiment stack routed through repro.engine."""

import numpy as np
import pytest

from repro.data.census import load_us
from repro.experiments.config import PRIVACY_BUDGETS, SMOKE
from repro.exceptions import ExperimentError
from repro.session import ExecutionPolicy, Session


def _session(**fields) -> Session:
    """A fresh serial session, so no call sees another's warm caches."""
    return Session(ExecutionPolicy(**fields))


@pytest.fixture(scope="module")
def us():
    return load_us(6000)


class TestEvaluateFmBudgetSweep:
    def test_returns_result_per_epsilon(self, us):
        results = _session().budget_sweep(
            us, "linear", dims=5, epsilons=(0.4, 0.8, 3.2), preset=SMOKE, seed=0
        )
        assert set(results) == {0.4, 0.8, 3.2}
        for result in results.values():
            assert result.algorithm == "FM"
            assert result.cells == SMOKE.folds * SMOKE.repetitions
            assert result.mean_fit_seconds > 0.0
            assert result.n_train > 0

    def test_seeded_reproducibility(self, us):
        a = _session().budget_sweep(
            us, "linear", dims=5, epsilons=(0.8, 3.2), preset=SMOKE, seed=3
        )
        b = _session().budget_sweep(
            us, "linear", dims=5, epsilons=(0.8, 3.2), preset=SMOKE, seed=3
        )
        assert a[0.8].mean_score == b[0.8].mean_score
        assert a[3.2].mean_score == b[3.2].mean_score

    def test_accuracy_improves_with_budget(self, us):
        results = _session().budget_sweep(
            us, "linear", dims=14, epsilons=PRIVACY_BUDGETS, preset=SMOKE, seed=6
        )
        assert results[3.2].mean_score < results[0.1].mean_score

    def test_statistically_consistent_with_loop_path(self, us):
        """Engine and loop are the same mechanism — scores must be comparable."""
        epsilon = 3.2
        engine_result = _session().budget_sweep(
            us, "linear", dims=5, epsilons=(epsilon,), preset=SMOKE, seed=0
        )[epsilon]
        loop_result = _session().evaluate(
            "FM", us, "linear", dims=5, epsilon=epsilon, preset=SMOKE, seed=0
        )
        # Independent noise draws, identical distribution: same order of
        # magnitude, far from degenerate.
        assert engine_result.mean_score < 10 * max(loop_result.mean_score, 1e-3)
        assert loop_result.mean_score < 10 * max(engine_result.mean_score, 1e-3)

    def test_logistic_task(self, us):
        results = _session().budget_sweep(
            us, "logistic", dims=5, epsilons=(0.8, 3.2), preset=SMOKE, seed=0
        )
        for result in results.values():
            assert 0.0 <= result.mean_score <= 1.0

    def test_invalid_args(self, us):
        with pytest.raises(ExperimentError):
            _session().budget_sweep(
                us, "linear", dims=5, epsilons=(), preset=SMOKE
            )
        with pytest.raises(ExperimentError):
            _session().budget_sweep(
                us, "linear", dims=5, epsilons=(0.8,), preset=SMOKE, sampling_rate=0.0
            )


class TestFigureDriversUseEngine:
    def test_figure6_engine_and_loop_paths_agree_structurally(self, us):
        fast = _session().figure("figure6", us, "linear", preset=SMOKE, seed=6, engine=True)
        slow = _session().figure("figure6", us, "linear", preset=SMOKE, seed=6, engine=False)
        assert fast.values == slow.values
        assert list(fast.series) == list(slow.series)  # legend order preserved
        assert all(len(v) == len(fast.values) for v in fast.series.values())

    def test_figure6_fm_series_from_engine_is_sane(self, us):
        result = _session().figure("figure6", us, "linear", preset=SMOKE, seed=6)
        fm = dict(zip(result.values, result.metric_series("FM")))
        assert fm[3.2] < fm[0.1]

    def test_figure9_times_positive(self, us):
        result = _session().figure("figure9", us, preset=SMOKE, seed=9)
        assert all(t > 0 for t in result.time_series("FM"))

    def test_engine_budget_sweep_is_faster_per_epsilon(self, us):
        """The engine's per-epsilon cost excludes repeated data passes."""
        engine_fig = _session().figure(
            "figure6", us, "linear", preset=SMOKE, seed=6, engine=True
        )
        loop_fig = _session().figure(
            "figure6", us, "linear", preset=SMOKE, seed=6, engine=False
        )
        engine_time = sum(engine_fig.time_series("FM"))
        loop_time = sum(loop_fig.time_series("FM"))
        # Generous bound: the engine must not be slower in aggregate (it
        # shares one pass across six budgets); timing noise gets headroom.
        assert engine_time < loop_time * 1.5
