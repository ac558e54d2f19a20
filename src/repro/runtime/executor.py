"""Pluggable executors for per-cell work and whole batched tiles.

DPME, FP and the other synthetic-data baselines cannot be expressed as
stacked tensor solves — each fit is its own pipeline of histogram building,
noisy sampling and iterative optimization.  The runtime therefore runs them
per cell through an executor.  Since the tiled runtime
(:class:`~repro.runtime.plan.TiledPlan`), the same executors also dispatch
**whole batched tiles**: the work item is then a tile index, the work
function materializes that tile's prepared arrays and runs its stacked
kernels, and only the lightweight per-cell score/time lists travel back.

There is one executor per kind:

``SerialExecutor``
    The reference: items run in submission order on the calling thread.
``ThreadExecutor``
    A thread pool.  NumPy releases the GIL inside BLAS/LAPACK and the
    random generators are derived per cell (never shared), so cells are
    data-race free.
``ProcessExecutor``
    A ``fork``-context process pool.  Its workers outlive any single
    call, so work reaches them **by pickle**: each ``map`` pickles the
    work callable (and its payload) about ``max_workers`` times.  The
    runner's work objects are picklable by design (module-level callables
    over picklable plans).  On platforms without ``fork`` the executor
    degrades to serial execution.

Lifecycle: the thread and process pools are created lazily by the first
``map`` that has more than one item, reused by every later ``map``, and
shut down by :meth:`CellExecutor.close` (a closed executor re-creates its
pool on next use).  Every executor is a context manager, and whoever
constructs one closes it: a :class:`repro.session.Session` holds one
across calls until :meth:`~repro.session.Session.close`,
:func:`~repro.runtime.run_plan` closes an executor it resolved from a
name, and the serving layer closes its per-request executor.  A closed
executor leaves no worker thread or process alive.  The default pool
width is :func:`default_max_workers`.

Determinism contract: executors only change *where* an item runs.  Each
cell's RNG substream is derived from its (seed, tag) key, results are
assigned by input position (``map`` output order == input order, which is
what makes the runner's tile-ordered reduction deterministic), and pickled
numpy arrays round-trip bit-exactly, so scores are bitwise identical
across executors, worker counts, and pool lifetimes.

Telemetry (:mod:`repro.obs`): thread and serial execution records into the
session's recorder directly — it is thread-safe and shared by address
space.  Process workers cannot (they mutate their own copy), so when a
recording recorder is active the process executor wraps the work in
:class:`_TelemetryWork`: each worker-side call runs under a fresh recorder
and ships ``(result, payload)`` home, and the parent merges the payloads
**in input order** — deterministic regardless of completion order, and
double-count-free because the wrapper swaps the worker's active recorder.
Merging happens outside the timed kernels and never touches results, so
the bitwise contract above is unaffected.

Self-healing (:mod:`repro.faults`): the process executor runs under a
:class:`~repro.faults.RetryPolicy`.  A ``BrokenProcessPool`` does not
kill the whole map: the completed prefix is kept, the pool is rebuilt
(bounded exponential backoff, ``max_retries`` rounds), and only the
unfinished items re-run — which is bitwise-safe because every cell's
substream is keyed by ``(seed, tag)``, never by where or when it
executes.  When a fault injector is active or a ``tile_timeout`` is set,
maps route through a per-item submit path that can additionally detect
hung workers (kill + rebuild + retry) and checksum-verify pickled result
envelopes (corrupt payloads retry like crashes).  Exhausted retries raise
:class:`~repro.exceptions.ExecutorBrokenError` carrying the completed
prefix, which the runner can turn into a thread/serial fallback.  Every
crash, timeout, rebuild, retry and corruption is counted on the active
recorder under ``executor.*``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..exceptions import ExecutorBrokenError, ExperimentError
from ..faults import FaultInjector, FaultPlan, RetryPolicy, active_injector
from ..obs import active_recorder, make_recorder, use_recorder

__all__ = [
    "CellExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PooledThreadExecutor",
    "PooledProcessExecutor",
    "default_max_workers",
    "get_executor",
]


def default_max_workers() -> int:
    """Default pool width: the CPUs this process may run on, at most 8.

    Counts the scheduler affinity mask, not the host's CPUs, so a
    container or ``taskset`` restricted to two cores gets two workers.
    Platforms without ``os.sched_getaffinity`` fall back to
    ``os.cpu_count()``.
    """
    try:
        visible = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        visible = os.cpu_count() or 1
    return min(8, visible)


class CellExecutor:
    """Interface: run ``work(item)`` for every item, results in input order.

    Executors are context managers; :meth:`close` releases whatever pool
    the executor holds (a no-op for executors that hold none).
    """

    name: str = "abstract"

    def map(self, work: Callable, items: Sequence) -> list:
        """Execute ``work`` over ``items``; result ``i`` is ``work(items[i])``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the executor's pool; the next ``map`` builds a fresh one."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _TelemetryWork:
    """Process-worker shim: run one item under a fresh recorder, ship it home.

    Picklable (plain attributes over a picklable work callable), so it
    crosses into pool workers by pickle.  Each call returns
    ``(result, payload)``; the parent unwraps via
    :func:`_merge_worker_results`.  Installing a fresh recorder per call
    is what keeps worker activity out of the worker's forked copy of the
    parent recorder — nothing is counted twice.
    """

    __slots__ = ("work", "mode")

    def __init__(self, work: Callable, mode: str) -> None:
        self.work = work
        self.mode = mode

    def __call__(self, item):
        recorder = make_recorder(self.mode)
        with use_recorder(recorder):
            result = self.work(item)
        return result, recorder.export()


def _merge_worker_results(wrapped_results: list, recorder) -> list:
    """Merge worker payloads into ``recorder`` (input order); unwrap results."""
    results = []
    for result, payload in wrapped_results:
        recorder.merge(payload)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Fault-injection plumbing (worker side)
# ----------------------------------------------------------------------
#: Exit status of an injected worker crash — ``os._exit``, so no Python
#: cleanup runs: from the parent's view the child died mid-item, which is
#: exactly the failure a production pool worker exhibits under OOM kills.
_CRASH_EXIT = 43

#: Marker heading a checksummed result envelope (submit path under an
#: active injector); collision with real results is not a concern — no
#: work item returns a 3-tuple led by this string.
_SEALED = "__repro_sealed__"


class _CorruptPayloadError(Exception):
    """Parent-side: a result envelope failed its checksum (retryable)."""


def _seal(result, injector: FaultInjector, index: int, attempt: int):
    """Wrap a worker result in a checksummed envelope (maybe corrupting it)."""
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    if injector.decide("payload.corrupt", index, attempt):
        blob = injector.corrupt_bytes(blob, "payload.corrupt", index)
    return (_SEALED, digest, blob)


def _maybe_unseal(result):
    """Verify + unwrap an envelope; raw (non-enveloped) results pass through."""
    if isinstance(result, tuple) and len(result) == 3 and result[0] == _SEALED:
        _, digest, blob = result
        if hashlib.sha256(blob).hexdigest() != digest:
            raise _CorruptPayloadError
        return pickle.loads(blob)
    return result


#: Injectors rebuilt from plan text inside pool workers, cached by text
#: (decisions are stateless, so sharing one per plan is safe).
_INJECTOR_CACHE: dict[str, FaultInjector] = {}


def _injector_for(plan_text: str) -> FaultInjector:
    injector = _INJECTOR_CACHE.get(plan_text)
    if injector is None:
        injector = _INJECTOR_CACHE[plan_text] = FaultInjector(FaultPlan.parse(plan_text))
    return injector


def _faulted_cell(work: Callable, plan_text: str, item, index: int, attempt: int):
    """Submit-path work unit: run one item under the executor fault sites.

    Runs in the worker.  The injector is rebuilt from its plan text (the
    pool's workers were forked before the map that carries the plan).
    """
    injector = _injector_for(plan_text)
    if not injector.executor_faults_active:
        return work(item)
    if injector.decide("worker.crash", index, attempt):
        os._exit(_CRASH_EXIT)
    if injector.decide("tile.hang", index, attempt):
        time.sleep(injector.plan.hang_seconds)
    return _seal(work(item), injector, index, attempt)


def _discard(pool) -> None:
    """Tear down a condemned process pool, leaving no worker alive.

    A crashed or hung pool is never reused, so its workers are killed
    rather than drained: a hung worker cannot be drained, and a forked
    worker may have inherited a handler that ignores ``SIGTERM`` (the
    serving layer installs one), so ``SIGKILL`` it is.  With every worker
    dead the shutdown returns promptly, and waiting on it reaps the
    workers and the pool's manager thread.  ``_processes`` is private to
    ``ProcessPoolExecutor`` but has been its worker registry since 3.2.
    """
    for worker in list((getattr(pool, "_processes", None) or {}).values()):
        worker.kill()
    pool.shutdown(wait=True, cancel_futures=True)


class SerialExecutor(CellExecutor):
    """Run every item on the calling thread (the reference executor).

    For tile dispatch this is also the minimal-memory schedule: tiles
    materialize strictly one at a time.
    """

    name = "serial"

    def map(self, work: Callable, items: Sequence) -> list:
        return [work(item) for item in items]


class ThreadExecutor(CellExecutor):
    """Run items on a lazily created, persistent thread pool.

    BLAS releases the GIL, so threads overlap the numeric work.  Tile
    dispatch note: concurrent tiles may consult a shared
    :class:`~repro.runtime.plan.PreparedDataCache`; its entries are
    idempotent (a racing rebuild stores the identical value), so the race
    is benign and scores stay deterministic.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or default_max_workers()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def pool(self):
        """The live pool, or ``None`` before first use / after close."""
        return self._pool

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        recorder = active_recorder()
        recorder.counter("pool.reused" if self._pool is not None else "pool.created")
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(self.max_workers)
        return list(self._pool.map(work, items))

    def close(self) -> None:
        """Shut the pool down, joining its threads.

        The pool reference is dropped *before* shutdown, so a failure
        mid-teardown can never leave a half-dead pool attached to the
        executor — the worst case is unreaped threads, never a reused
        broken pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor(CellExecutor):
    """Run items on a lazily created, persistent ``fork``-context process pool.

    Work reaches the workers **by pickle**, so work callables must be
    picklable (the runner's are); chunking pickles each callable about
    ``max_workers`` times per call rather than once per item.  Results
    are position-assigned (``map`` output order == input order), and
    numpy arrays survive pickling bit-exactly, so scores are bitwise
    identical to every other executor.  Results should stay lightweight —
    the tiled runner returns score/time lists, never prepared arrays.

    Self-healing: a dead worker does not poison the call — the carcass is
    dropped, a fresh pool forks, and only unfinished items re-run
    (bounded by ``retry.max_retries``; 0 restores fail-fast).  Chaos and
    timeout maps route through the per-item submit path, where work
    reaches workers as pickled ``(work, plan_text, item, index, attempt)``
    submissions and results come home in checksummed envelopes.
    """

    name = "process"

    def __init__(
        self, max_workers: int | None = None, retry: RetryPolicy | None = None
    ) -> None:
        self.max_workers = max_workers or default_max_workers()
        self.retry = retry if retry is not None else RetryPolicy()
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    @property
    def pool(self):
        """The live pool, or ``None`` before first use / after close."""
        return self._pool

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
        return self._pool

    def map(self, work: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [work(item) for item in items]
        had_pool = self._pool is not None
        try:
            self._ensure_pool()
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return SerialExecutor().map(work, items)
        recorder = active_recorder()
        if recorder.recording:
            recorder.counter("pool.reused" if had_pool else "pool.created")
            work = _TelemetryWork(work, recorder.mode)
            nbytes = len(pickle.dumps(work))
            recorder.counter("process.pickled_bytes", nbytes)
            recorder.gauge("process.pickled_bytes_per_call", nbytes)
        injector = active_injector()
        if injector.executor_faults_active or self.retry.tile_timeout is not None:
            results = self._map_submit(work, items, injector, recorder)
        else:
            results = self._map_fast(work, items, recorder)
        if recorder.recording:
            results = _merge_worker_results(results, recorder)
        return results

    def _map_fast(self, work: Callable, items: Sequence, recorder) -> list:
        """The fault-free path: chunked ``pool.map`` plus rebuild-and-resume."""
        n_items = len(items)
        results: list = [None] * n_items
        start = 0
        rebuilds = 0
        while start < n_items:
            pool = self._ensure_pool()
            chunksize = -(-(n_items - start) // self.max_workers)
            yielded = 0
            try:
                for result in pool.map(work, items[start:], chunksize=chunksize):
                    results[start + yielded] = result
                    yielded += 1
                start = n_items
            except BrokenProcessPool:
                # A dead worker poisons the whole pool.  Keep the in-order
                # completed prefix, drop the carcass, fork a fresh pool and
                # resume from the first unfinished item (bitwise-safe:
                # substreams are keyed, not positional).
                start += yielded
                self.close()
                recorder.counter("executor.worker_crashes")
                recorder.counter("executor.pool_rebuilds")
                if rebuilds >= self.retry.max_retries:
                    raise ExecutorBrokenError(
                        "process pool broke",
                        completed={i: results[i] for i in range(start)},
                        pending=tuple(range(start, n_items)),
                        failure_mode=self.retry.failure_mode,
                    ) from None
                recorder.counter("executor.retries")
                with recorder.span("executor.retry", pending=n_items - start):
                    time.sleep(self.retry.delay(rebuilds))
                rebuilds += 1
        return results

    def _map_submit(
        self, work: Callable, items: Sequence, injector: FaultInjector, recorder
    ) -> list:
        """The chaos path: per-item pickled submissions with fault hooks.

        Each round submits every unfinished item (with its attempt count) and
        collects results in input order.  Crashes (``BrokenProcessPool``),
        hangs (``tile_timeout`` exceeded) and corrupt result envelopes mark
        their items failed and — for the first two — condemn the pool, which
        :func:`_discard` tears down so the next round starts on a fresh fork.
        Genuine exceptions raised *by the work* propagate immediately: a
        deterministic bug would fail every retry identically, and masking it
        as an executor failure would turn a wrong answer into a slow wrong
        answer.

        ``retry.max_retries`` bounds consecutive rounds that complete zero
        items; a round with any progress keeps the loop alive, so a pool
        that crashes repeatedly while still advancing is drained rather than
        abandoned.  Exhaustion raises
        :class:`~repro.exceptions.ExecutorBrokenError` with the completed
        prefix and pending positions, letting callers resume elsewhere.
        """
        plan_text = injector.describe()
        n_items = len(items)
        results: list = [None] * n_items
        done = [False] * n_items
        attempts = [0] * n_items
        wasted_rounds = 0
        while not all(done):
            pending = [i for i in range(n_items) if not done[i]]
            pool = self._ensure_pool()
            futures: dict = {}
            broke = False
            try:
                for i in pending:
                    futures[i] = pool.submit(
                        _faulted_cell, work, plan_text, items[i], i, attempts[i]
                    )
            except BrokenProcessPool:
                # A fast crash can poison the pool while this round is still
                # being submitted, making submit() itself raise.  Items that
                # never got a future fail the round; the submitted ones are
                # harvested below like any other broken-pool round.
                recorder.counter("executor.worker_crashes")
                broke = True
            completed_this_round = 0
            failed: list[int] = [i for i in pending if i not in futures]
            hung = False
            for i in pending:
                future = futures.get(i)
                if future is None:
                    continue
                if broke:
                    # The pool is condemned; harvest items that finished
                    # before the break without blocking on the rest.
                    if not future.done():
                        failed.append(i)
                        continue
                try:
                    timeout = None if broke else self.retry.tile_timeout
                    results[i] = _maybe_unseal(future.result(timeout=timeout))
                    done[i] = True
                    completed_this_round += 1
                except concurrent.futures.TimeoutError:
                    recorder.counter("executor.timeouts")
                    failed.append(i)
                    hung = True
                except _CorruptPayloadError:
                    recorder.counter("executor.payload_corruptions")
                    failed.append(i)
                except BrokenProcessPool:
                    recorder.counter("executor.worker_crashes")
                    failed.append(i)
                    broke = True
            if broke or hung:
                condemned, self._pool = self._pool, None
                _discard(condemned)
                recorder.counter("executor.pool_rebuilds")
            if not failed:
                continue
            for i in failed:
                attempts[i] += 1
            if completed_this_round == 0:
                wasted_rounds += 1
                if wasted_rounds > self.retry.max_retries:
                    raise ExecutorBrokenError(
                        "hung worker" if hung else "worker crash or corrupt result",
                        completed={i: results[i] for i in range(n_items) if done[i]},
                        pending=tuple(i for i in range(n_items) if not done[i]),
                        failure_mode=self.retry.failure_mode,
                    )
            recorder.counter("executor.retries", len(failed))
            with recorder.span("executor.retry", pending=len(failed)):
                time.sleep(self.retry.delay(max(0, wasted_rounds - 1)))
        return results

    def close(self) -> None:
        """Shut the pool down, joining its workers.

        Defensive against a *broken* pool (the state a long-lived session
        closes from after :class:`~repro.exceptions.ExecutorBrokenError`):
        the reference is dropped before shutdown so failure mid-teardown
        cannot leave a half-dead pool attached, and if shutdown raises,
        surviving workers are terminated and reaped rather than leaked.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:
            try:
                _discard(pool)
            except Exception:  # pragma: no cover - teardown must not raise
                pass


#: The pre-2.0 names of the pooled executors, kept importable.
PooledThreadExecutor = ThreadExecutor
PooledProcessExecutor = ProcessExecutor


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(executor: str | CellExecutor) -> CellExecutor:
    """Resolve an executor by name (``serial|thread|process``) or pass through.

    An executor built here from a name belongs to the caller, who closes
    it (``with get_executor(name) as executor: ...``).
    """
    if isinstance(executor, CellExecutor):
        return executor
    try:
        return _EXECUTORS[executor]()
    except KeyError:
        raise ExperimentError(
            f"unknown executor {executor!r}; expected one of {sorted(_EXECUTORS)}"
        ) from None
