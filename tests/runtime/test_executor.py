"""Executors must change where cells run, never what they compute."""

import multiprocessing
import os
import threading

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ScalePreset
from repro.faults import RetryPolicy, make_injector, use_injector
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    plan_cells,
    plan_cells_tiled,
    run_plan,
)
from repro.runtime.executor import (
    PooledProcessExecutor,
    PooledThreadExecutor,
    default_max_workers,
)


class TestGetExecutor:
    def test_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)

    def test_passthrough(self):
        executor = ThreadExecutor(max_workers=2)
        assert get_executor(executor) is executor

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            get_executor("gpu")

    def test_pre_2_0_names_are_the_same_classes(self):
        assert PooledThreadExecutor is ThreadExecutor
        assert PooledProcessExecutor is ProcessExecutor


class TestExecutorMap:
    def test_serial_order(self):
        assert SerialExecutor().map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]

    def test_thread_preserves_order(self):
        items = list(range(32))
        with ThreadExecutor(max_workers=4) as executor:
            assert executor.map(lambda v: v * v, items) == [v * v for v in items]

    def test_process_preserves_order(self):
        items = list(range(8))
        with ProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, items) == [v * v for v in items]

    def test_single_item_short_circuits(self):
        executor = ProcessExecutor()
        assert executor.map(lambda v: v + 1, [41]) == [42]
        assert executor.pool is None  # no pool was forked for one item


def _square(v):
    return v * v


class TestPoolWidth:
    """The default width counts the CPUs this process may run on."""

    def test_affinity_mask_bounds_the_width(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_max_workers() == 2
        assert ThreadExecutor().max_workers == 2
        assert ProcessExecutor().max_workers == 2

    def test_capped_at_eight(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(32)), raising=False
        )
        assert default_max_workers() == 8

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_max_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_max_workers() == 1

    def test_explicit_width_wins(self):
        assert ThreadExecutor(max_workers=5).max_workers == 5


def _pool_threads() -> list[threading.Thread]:
    """Live thread-pool workers and process-pool manager threads."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("ThreadPoolExecutor")
        or type(thread).__name__ == "_ExecutorManagerThread"
    ]


class TestNoLeaks:
    """Whoever builds an executor closes it: nothing outlives a run."""

    @pytest.fixture(scope="class")
    def plan(self, us):
        """Three one-repetition tiles, so whole tiles reach the pool."""
        preset = ScalePreset(name="tiles", max_records=900, folds=3, repetitions=3)
        return plan_cells_tiled(
            "FM", us, "linear", dims=5, epsilons=[0.8], preset=preset,
            seed=2, tile_size=1,
        )

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_run_plan_closes_what_it_builds(self, plan, executor):
        serial = run_plan(plan, executor="serial")
        assert run_plan(plan, executor=executor).scores == serial.scores
        assert multiprocessing.active_children() == []
        assert _pool_threads() == []

    def test_forced_fallback_leaves_nothing_behind(self, plan, monkeypatch):
        spawned = []
        original = ThreadExecutor.__init__

        def tracking_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            spawned.append(self)

        monkeypatch.setattr(ThreadExecutor, "__init__", tracking_init)
        serial = run_plan(plan, executor="serial")
        retry = RetryPolicy(
            max_retries=0, backoff_seconds=0.01, failure_mode="fallback"
        )
        with ProcessExecutor(max_workers=2, retry=retry) as executor, use_injector(
            make_injector("seed=2;worker.crash=1.0x99")
        ):
            assert run_plan(plan, executor=executor).scores == serial.scores
        assert spawned  # the thread stage really ran
        assert all(stage.pool is None for stage in spawned)
        assert multiprocessing.active_children() == []
        assert _pool_threads() == []

    def test_closed_executor_rebuilds_on_next_map(self):
        executor = ProcessExecutor(max_workers=2)
        with executor:
            executor.map(_square, [1, 2, 3])
        assert executor.pool is None
        with executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert multiprocessing.active_children() == []


class TestExecutorScoreParity:
    @pytest.fixture(scope="class")
    def plan(self, us, tiny_preset):
        return plan_cells(
            "DPME", us, "linear", dims=5, epsilons=[0.8], preset=tiny_preset, seed=2
        )

    def test_thread_matches_serial(self, plan):
        serial = run_plan(plan, mode="percell", executor="serial")
        threaded = run_plan(plan, mode="percell", executor="thread")
        assert serial.scores[0.8] == threaded.scores[0.8]

    def test_process_matches_serial(self, plan):
        serial = run_plan(plan, mode="percell", executor="serial")
        forked = run_plan(plan, mode="percell", executor="process")
        assert serial.scores[0.8] == forked.scores[0.8]
