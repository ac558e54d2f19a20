"""Session entry points == the bare protocol bodies, bitwise.

A Session adds state — a persistent prepared-data cache, a pooled
executor, recorder/injector/backend scopes — around the protocol bodies
in :mod:`repro.experiments`.  None of it may change a result: a warm,
long-lived session must produce **bitwise-identical** scores to calling
the body directly with a serial executor and no shared cache, at both
stream versions, under every executor kind, with and without tiling.
Wall-clock fields (``mean_fit_seconds``) are measurements, not results,
and are excluded from comparison.
"""

import pytest

from repro.experiments.config import ScalePreset
from repro.experiments.figures import _accuracy_sweep
from repro.experiments.harness import (
    _evaluate_algorithm,
    _evaluate_panel,
    _fm_budget_sweep,
)
from repro.session import (
    DEFAULT_STREAM_VERSION,
    ExecutionPolicy,
    Session,
    run_figure,
)


def _scores(result):
    """The deterministic fields of an EvaluationResult (timings excluded)."""
    return (
        result.algorithm,
        result.task,
        result.mean_score,
        result.std_score,
        result.cells,
        result.n_train,
    )


def _sweep_scores(sweep):
    """The deterministic content of a SweepResult."""
    return (
        sweep.figure,
        sweep.panel,
        sweep.task,
        sweep.parameter,
        sweep.values,
        {
            name: tuple(_scores(point) for point in points)
            for name, points in sweep.series.items()
        },
    )


def _warm(call):
    """Run ``call`` twice on one session state; return the second result."""
    call()
    return call()


@pytest.mark.parametrize("stream_version", [1, 2])
class TestBitwiseEquivalence:
    def test_evaluate_algorithm(self, tiny_dataset, tiny_preset, stream_version):
        bare = _evaluate_algorithm(
            "FM", tiny_dataset, "linear", 5, 1.0, tiny_preset, seed=11,
            stream_version=stream_version,
        )
        session = Session(ExecutionPolicy(stream_version=stream_version, seed=11))
        warm = _warm(lambda: session.evaluate(
            "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset
        ))
        assert _scores(warm) == _scores(bare)

    def test_evaluate_algorithms(self, tiny_dataset, tiny_preset, stream_version):
        names = ["FM", "DPME", "NoPrivacy"]
        bare = _evaluate_panel(
            names, tiny_dataset, "linear", 5, 0.8, tiny_preset, seed=3,
            stream_version=stream_version,
        )
        session = Session(ExecutionPolicy(stream_version=stream_version))
        panel = _warm(lambda: session.evaluate_panel(
            names, tiny_dataset, "linear", 5, 0.8, preset=tiny_preset, seed=3
        ))
        assert {k: _scores(v) for k, v in panel.items()} == {
            k: _scores(v) for k, v in bare.items()
        }

    @pytest.mark.parametrize("runtime", ["batched", "percell"])
    def test_evaluate_fm_budget_sweep(
        self, tiny_dataset, tiny_preset, stream_version, runtime
    ):
        bare = _fm_budget_sweep(
            tiny_dataset, "linear", 5, [0.5, 2.0], tiny_preset, seed=5,
            runtime=runtime, stream_version=stream_version,
        )
        session = Session(
            ExecutionPolicy(runtime=runtime, stream_version=stream_version)
        )
        sweep = _warm(lambda: session.budget_sweep(
            tiny_dataset, "linear", 5, [0.5, 2.0], preset=tiny_preset, seed=5
        ))
        assert {e: _scores(r) for e, r in sweep.items()} == {
            e: _scores(r) for e, r in bare.items()
        }

    def test_accuracy_sweep(self, tiny_dataset, tiny_preset, stream_version):
        bare = _accuracy_sweep(
            tiny_dataset, "linear", "dimensionality", (5, 8), "figure4",
            tiny_preset, seed=2, stream_version=stream_version,
        )
        session = Session(ExecutionPolicy(stream_version=stream_version))
        sweep = _warm(lambda: session.sweep(
            tiny_dataset, "linear", "dimensionality", (5, 8), "figure4",
            preset=tiny_preset, seed=2,
        ))
        assert _sweep_scores(sweep) == _sweep_scores(bare)


class TestExecutorAndTilingEquivalence:
    """Session-held pools match the serial, eager bare body."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_executor_matches_serial(self, tiny_dataset, tiny_preset, executor):
        bare = _evaluate_algorithm(
            "FM", tiny_dataset, "linear", 5, 1.0, tiny_preset, seed=4,
            stream_version=DEFAULT_STREAM_VERSION,
        )
        policy = ExecutionPolicy(executor=executor, tile_size=1, max_workers=2)
        with Session(policy) as session:
            pooled = _warm(lambda: session.evaluate(
                "FM", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=4
            ))
        assert _scores(pooled) == _scores(bare)

    def test_percell_generic_through_pool(self, tiny_dataset, tiny_preset):
        bare = _evaluate_algorithm(
            "DPME", tiny_dataset, "linear", 5, 1.0, tiny_preset, seed=8,
            runtime="percell", stream_version=DEFAULT_STREAM_VERSION,
        )
        policy = ExecutionPolicy(runtime="percell", executor="process", max_workers=2)
        with Session(policy) as session:
            pooled = session.evaluate(
                "DPME", tiny_dataset, "linear", 5, 1.0, preset=tiny_preset, seed=8
            )
        assert _scores(pooled) == _scores(bare)


class TestFigureDispatch:
    """Session.figure == the registry's driver called bare, per figure."""

    def test_figure_drivers_match_session(self, tiny_dataset):
        preset = ScalePreset(name="micro", max_records=200, folds=2, repetitions=1)
        session = Session(ExecutionPolicy())
        cases = [
            ("figure4", "linear", None),
            ("figure5", "linear", (0.5, 1.0)),
            ("figure6", "linear", None),
            ("figure7", None, None),
            ("figure8", None, (1.0,)),
            ("figure9", None, None),
        ]
        for name, task, values in cases:
            bare = run_figure(
                name, tiny_dataset, task, preset=preset, seed=1,
                runtime="batched", executor="serial", tile_size=None,
                stream_version=DEFAULT_STREAM_VERSION, values=values,
            )
            new = session.figure(
                name, tiny_dataset, task, preset=preset, seed=1, values=values
            )
            assert _sweep_scores(new) == _sweep_scores(bare), name
