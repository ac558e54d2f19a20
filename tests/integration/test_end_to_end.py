"""End-to-end pipeline tests: census data -> normalization -> all algorithms."""

import numpy as np
import pytest

from repro.baselines import make_algorithm
from repro.data import load_brazil, load_us
from repro.session import ExecutionPolicy, Session

SESSION = Session(ExecutionPolicy())


@pytest.fixture(scope="module")
def us():
    return load_us(50_000)


ALL_ALGORITHMS = [
    "NoPrivacy",
    "Truncated",
    "FM",
    "DPME",
    "FP",
    "OutputPerturbation",
    "ObjectivePerturbation",
]


class TestFullPipeline:
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_every_algorithm_runs_on_census(self, us, task, name):
        prepared = us.take(np.arange(8000)).regression_task(task, dims=8)
        model = make_algorithm(name, task, epsilon=0.8, rng=0)
        model.fit(prepared.X, prepared.y)
        score = model.score(prepared.X, prepared.y)
        assert np.isfinite(score)
        if task == "logistic":
            assert 0.0 <= score <= 1.0

    def test_brazil_pipeline(self):
        brazil = load_brazil(8000)
        prepared = brazil.regression_task("logistic", dims=11)
        model = make_algorithm("FM", "logistic", epsilon=1.6, rng=0)
        model.fit(prepared.X, prepared.y)
        assert model.score(prepared.X, prepared.y) <= 0.6

    def test_fm_tracks_noprivacy_at_scale(self, us):
        """FM approaches the NoPrivacy floor on linear regression when n is
        large — the core accuracy claim of Figures 4-5."""
        lin = SESSION.evaluate(
            "NoPrivacy", us, "linear", dims=8, epsilon=0.8,
            preset=_preset(40_000), seed=0,
        )
        fm = SESSION.evaluate(
            "FM", us, "linear", dims=8, epsilon=0.8,
            preset=_preset(40_000), seed=0,
        )
        assert fm.mean_score <= 2.5 * lin.mean_score

    def test_truncated_tracks_noprivacy_logistic(self, us):
        """Figure 4c-d: Truncated ~ NoPrivacy (the truncation is cheap)."""
        base = SESSION.evaluate(
            "NoPrivacy", us, "logistic", dims=8, epsilon=0.8,
            preset=_preset(20_000), seed=0,
        )
        trunc = SESSION.evaluate(
            "Truncated", us, "logistic", dims=8, epsilon=0.8,
            preset=_preset(20_000), seed=0,
        )
        assert trunc.mean_score <= base.mean_score + 0.03


def _preset(n):
    from repro.experiments.config import ScalePreset

    return ScalePreset(name="test", max_records=n, folds=3, repetitions=1)


@pytest.mark.slow
@pytest.mark.tier2
class TestPaperOrderings:
    """The headline orderings at a cardinality above the FM crossover."""

    def test_linear_figure4_orderings(self):
        us = load_us(150_000)
        preset = _preset(150_000)
        scores = {}
        for name in ("NoPrivacy", "FM", "DPME", "FP"):
            scores[name] = np.mean([
                SESSION.evaluate(
                    name, us, "linear", dims=dims, epsilon=0.8,
                    preset=preset, seed=dims,
                ).mean_score
                for dims in (11, 14)
            ])
        assert scores["NoPrivacy"] <= scores["FM"]
        assert scores["FM"] < scores["DPME"]
        assert scores["FM"] < scores["FP"]
