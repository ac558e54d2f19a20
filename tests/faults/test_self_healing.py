"""Self-healing executors: injected chaos must never change a result.

Every test here asserts the same contract from a different angle: a map
that survives worker crashes, hangs, corrupt result envelopes or a
genuinely killed pool returns *exactly* what the fault-free map returns
— recovery is invisible in the results, visible only in telemetry.
"""

import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutorBrokenError
from repro.faults import FaultPlan, RetryPolicy, make_injector, use_injector
from repro.obs import make_recorder, use_recorder
from repro.runtime import ProcessExecutor, SerialExecutor
from repro.runtime.runner import _mapped


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"genuine bug at {value}")


def _chaos(spec: str):
    """An injector context for one executor-level chaos scenario."""
    return use_injector(make_injector(spec))


class TestCrashRecovery:
    def test_one_shot_process_recovers_from_certain_crash(self):
        """An executor built for a single map (the lifecycle of
        ``run_plan(executor="process")``) heals within that map."""
        items = list(range(6))
        with ProcessExecutor(max_workers=2) as executor:
            with _chaos("seed=2;worker.crash=1.0x1"):
                assert executor.map(_square, items) == [v * v for v in items]

    def test_pooled_process_recovers_from_certain_crash(self):
        items = list(range(6))
        with ProcessExecutor(max_workers=2) as executor:
            with _chaos("seed=2;worker.crash=1.0x1"):
                assert executor.map(_square, items) == [v * v for v in items]
            # the rebuilt pool keeps serving fault-free maps
            assert executor.map(_square, items) == [v * v for v in items]

    def test_payload_corruption_detected_and_retried(self):
        items = list(range(5))
        recorder = make_recorder("summary")
        with ProcessExecutor(max_workers=2) as executor, use_recorder(
            recorder
        ), _chaos("seed=4;payload.corrupt=1.0x1"):
            assert executor.map(_square, items) == [v * v for v in items]
        counters = recorder.summary()["counters"]
        assert counters.get("executor.payload_corruptions", 0) >= 1
        assert counters.get("executor.retries", 0) >= 1

    def test_hung_tile_times_out_and_retries(self):
        items = list(range(3))
        retry = RetryPolicy(tile_timeout=0.5, backoff_seconds=0.01)
        with ProcessExecutor(max_workers=2, retry=retry) as executor, _chaos(
            "seed=6;hang=30.0;tile.hang=1.0x1"
        ):
            start = time.monotonic()
            assert executor.map(_square, items) == [v * v for v in items]
            # recovery must come from the timeout, not from waiting out the hang
            assert time.monotonic() - start < 25.0

    def test_hung_worker_that_ignores_sigterm_is_reaped(self):
        """Workers fork with the parent's signal handlers; the serving
        layer's asyncio loop makes SIGTERM a no-op, so a condemned pool's
        hung worker must be killed outright, not terminated and waited on."""
        retry = RetryPolicy(tile_timeout=0.5, backoff_seconds=0.01)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            start = time.monotonic()
            with ProcessExecutor(max_workers=2, retry=retry) as executor, _chaos(
                "seed=6;hang=30.0;tile.hang=1.0x1"
            ):
                assert executor.map(_square, [0, 1, 2]) == [0, 1, 4]
            assert time.monotonic() - start < 25.0
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert multiprocessing.active_children() == []

    def test_real_killed_pool_worker_recovers(self):
        """Not an injected crash: SIGKILL a live worker process and assert
        the pooled executor rebuilds and completes the next map."""
        items = list(range(4))
        with ProcessExecutor(max_workers=2) as executor:
            assert executor.map(_square, items) == [v * v for v in items]
            pool = executor.pool
            victim_pid, victim = next(iter(pool._processes.items()))
            os.kill(victim_pid, signal.SIGKILL)
            # Without these waits the second map can race the kill: the
            # surviving worker may drain every item before the pool's
            # manager notices the death, and no rebuild happens.
            victim.join(timeout=30)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken, "the pool never observed its killed worker"
            recorder = make_recorder("summary")
            with use_recorder(recorder):
                assert executor.map(_square, items) == [v * v for v in items]
            counters = recorder.summary()["counters"]
            assert counters.get("executor.pool_rebuilds", 0) >= 1


class TestRetryExhaustion:
    def test_raise_mode_surfaces_broken_error_with_progress(self):
        retry = RetryPolicy(max_retries=1, backoff_seconds=0.01)
        with ProcessExecutor(max_workers=2, retry=retry) as executor, _chaos(
            "seed=2;worker.crash=1.0x99"
        ):
            with pytest.raises(ExecutorBrokenError) as excinfo:
                executor.map(_square, list(range(4)))
        error = excinfo.value
        assert error.failure_mode == "raise"
        assert set(error.completed) | set(error.pending) == set(range(4))

    def test_fallback_mode_finishes_on_degraded_executor(self):
        retry = RetryPolicy(
            max_retries=0, backoff_seconds=0.01, failure_mode="fallback"
        )
        items = list(range(5))
        recorder = make_recorder("summary")
        with ProcessExecutor(max_workers=2, retry=retry) as executor, use_recorder(
            recorder
        ), _chaos("seed=2;worker.crash=1.0x99"):
            assert _mapped(executor, _square, items) == [v * v for v in items]
        counters = recorder.summary()["counters"]
        assert counters.get("executor.fallbacks", 0) >= 1

    def test_zero_retries_restores_fail_fast(self):
        retry = RetryPolicy(max_retries=0, backoff_seconds=0.01)
        with ProcessExecutor(max_workers=2, retry=retry) as executor, _chaos(
            "seed=2;worker.crash=1.0x99"
        ):
            with pytest.raises(ExecutorBrokenError):
                executor.map(_square, list(range(3)))


class TestGenuineExceptions:
    def test_work_exceptions_propagate_without_retry(self):
        """A deterministic bug must fail immediately — retrying it would
        only turn a wrong answer into a slow wrong answer."""
        recorder = make_recorder("summary")
        with ProcessExecutor(max_workers=2) as executor, use_recorder(recorder):
            with pytest.raises(ValueError, match="genuine bug"):
                executor.map(_boom, list(range(3)))
        assert recorder.summary()["counters"].get("executor.retries", 0) == 0

    def test_raising_work_leaves_no_worker_behind(self):
        """A raising work item must not strand pool workers once the
        executor closes — on the fast path and through a chaos fallback."""
        with ProcessExecutor(max_workers=2) as executor:
            for _ in range(2):
                with pytest.raises(ValueError):
                    executor.map(_boom, list(range(3)))
        assert multiprocessing.active_children() == []
        retry = RetryPolicy(
            max_retries=0, backoff_seconds=0.01, failure_mode="fallback"
        )
        with ProcessExecutor(max_workers=2, retry=retry) as chaotic, _chaos(
            "seed=2;worker.crash=1.0x99"
        ):
            _mapped(chaotic, _square, list(range(3)))
        assert multiprocessing.active_children() == []


class TestChaosNeutralityProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        site=st.sampled_from(["worker.crash", "payload.corrupt"]),
        seed=st.integers(min_value=0, max_value=2**16),
        n_items=st.integers(min_value=1, max_value=6),
        probability=st.sampled_from([0.5, 1.0]),
        warm=st.booleans(),
    )
    def test_recovered_map_equals_serial_map(
        self, site, seed, n_items, probability, warm
    ):
        items = list(range(n_items))
        expected = SerialExecutor().map(_square, items)
        retry = RetryPolicy(max_retries=3, backoff_seconds=0.01)
        plan = FaultPlan.parse(f"seed={seed};{site}={probability}x1")
        with ProcessExecutor(max_workers=2, retry=retry) as executor:
            if warm:  # a pool that already served a map heals the same way
                assert executor.map(_square, items) == expected
            with use_injector(make_injector(plan)):
                assert executor.map(_square, items) == expected
