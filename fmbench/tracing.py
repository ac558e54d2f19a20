"""Per-layer timers installed from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` replaces public
functions at their import sites (``repro.baselines.dpme.histogram_counts``)
and public methods on their classes (``MomentAccumulator.update``) with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
Untraced runs never call :meth:`Tracer.install`, so their end-to-end
numbers come from the unmodified program.

Each wrapper records inclusive seconds and a call count under its layer
metric, plus any work counts (rows, cells, bytes) its ``count`` hook
derives from the call.  A wrapper that re-enters its own metric (a
subclass method calling the base, a kernel calling a kernel) is not
timed twice.  Recording takes no lock: every thread writes its own
:class:`_ThreadState`, registered once with an atomic ``list.append``,
so a process forked while another thread records (the serve executor)
never inherits a held lock.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class _ThreadState:
    __slots__ = ("stack", "active", "seconds", "counts")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # one [child_seconds] per open span
        self.active: set[str] = set()
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}


def _rows(index: int):
    """Count hook: the row count of positional argument ``index``."""
    return lambda args, result: len(args[index])


def _stack_cells(args, result) -> int:
    """Stacked batch size of a runtime kernel call."""
    first = args[0]
    if getattr(first, "ndim", 0) >= 3:
        return first.shape[0]
    return args[2].shape[0]  # fm_noise_stack: (M, alpha, raw[E, ...], scales)


def _bin_key(grid, counts) -> bytes:
    """Identity of one binning call's work: its grid and the counts it produced.

    Two calls that bin the same rows (in any order) onto the same grid
    produce the same counts, so only the first of them was useful.
    """
    h = hashlib.sha256()
    for part in (grid.lower, grid.upper, grid.bins_per_dim, counts):
        h.update(part.tobytes())
    return h.digest()


class Tracer:
    """Installs layer timers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._bin_keys: set[bytes] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a work counter."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def add_seconds(self, name: str, seconds: float) -> None:
        """Add time measured by the caller (client-side latencies)."""
        bucket = self._state().seconds
        bucket[name] = bucket.get(name, 0.0) + seconds

    def _enter(self, metric: str):
        state = self._state()
        if metric in state.active:
            return None
        state.active.add(metric)
        frame = [0.0]
        state.stack.append(frame)
        return state, frame, time.perf_counter()

    def _exit(self, metric: str, token) -> None:
        state, frame, t0 = token
        elapsed = time.perf_counter() - t0
        state.stack.pop()
        state.active.discard(metric)
        if state.stack:
            state.stack[-1][0] += elapsed
        state.seconds[metric] = state.seconds.get(metric, 0.0) + elapsed
        state.counts[metric + ".calls"] = state.counts.get(metric + ".calls", 0) + 1

    @contextmanager
    def span(self, metric: str):
        """Time a region under ``metric``; yields its ``[child_seconds]`` frame."""
        token = self._enter(metric)
        try:
            yield token[1] if token else [0.0]
        finally:
            if token:
                self._exit(metric, token)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed (seconds, counts) over every thread that recorded."""
        seconds: dict[str, float] = {}
        counts: dict[str, float] = {}
        for state in list(self._states):
            for key, value in list(state.seconds.items()):
                seconds[key] = seconds.get(key, 0.0) + value
            for key, value in list(state.counts.items()):
                counts[key] = counts.get(key, 0) + value
        counts["baselines.bin_distinct"] = len(self._bin_keys)
        return seconds, counts

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timed(self, metric: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer._enter(metric)
            if token is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(metric, token)
            if count is not None:
                for name, hook in count:
                    tracer.add(name, hook(args, result))
            return result

        return wrapper

    def _timed_enter(self, metric: str, factory):
        """Wrap a context-manager factory, timing only its ``__enter__``."""
        tracer = self

        class _Timed:
            def __init__(self, inner) -> None:
                self._inner = inner

            def __enter__(self):
                t0 = time.perf_counter()
                value = self._inner.__enter__()
                tracer.add_seconds(metric, time.perf_counter() - t0)
                tracer.add(metric + ".calls")
                return value

            def __exit__(self, *exc_info):
                return self._inner.__exit__(*exc_info)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _Timed(factory(*args, **kwargs))

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _bin_counter(self, args, result) -> int:
        self._bin_keys.add(_bin_key(args[0], result))
        return len(args[1])

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics read."""
        m = {
            name: importlib.import_module(f"repro.{name}")
            for name in (
                "baselines.dpme", "baselines.filter_priority", "baselines.base",
                "core.models", "core.objectives", "engine.accumulator",
                "engine.sweep", "experiments.harness", "federated.coordinator",
                "federated.party", "federated.wire", "privacy.budget",
                "regression.linear", "regression.logistic", "runtime.executor",
                "runtime.plan", "runtime.runner", "serve.app", "serve.state",
            )
        }

        def wrap(owner, name: str, metric: str, count=None) -> None:
            """Time ``owner.name``; ``owner`` is a module (an import site) or a class."""
            if isinstance(owner, str):
                owner = m[owner]
            self._patch(owner, name, self._timed(metric, owner.__dict__[name], count))

        # runtime: planning, fold gathering and aggregation, stacked
        # kernels, executors
        for name in ("plan_cells", "plan_cells_tiled"):
            wrap("experiments.harness", name, "runtime.plan")
        plan = m["runtime.plan"]
        wrap(plan.TiledPlan, "tile", "runtime.plan")
        for name in ("train_arrays", "test_arrays"):
            wrap(plan.PlannedFold, name, "runtime.gather")
        objectives = m["core.objectives"]
        for cls in (
            objectives.RegressionObjective,
            objectives.LinearRegressionObjective,
            objectives.LogisticRegressionObjective,
        ):
            wrap(cls, "aggregate_quadratic", "runtime.aggregate",
                   [("runtime.aggregate_rows", _rows(1))])
        kernel_count = [("runtime.kernel_cells", _stack_cells)]
        for name in ("fm_noise_stack", "newton_logistic_stack",
                     "posdef_split_stack", "spectral_trim_stack"):
            wrap("runtime.runner", name, "runtime.kernels", kernel_count)
        for name in ("fm_noise_stack", "spectral_solve_stack"):
            wrap("engine.sweep", name, "runtime.kernels", kernel_count)
        executor = m["runtime.executor"]
        for cls in (executor.ProcessExecutor, executor.PooledProcessExecutor,
                    executor.ThreadExecutor, executor.PooledThreadExecutor):
            wrap(cls, "__init__", "runtime.executor_create")
            wrap(cls, "map", "runtime.executor_map")

        # baselines: the two histogram fits and their stages
        wrap(m["baselines.dpme"].DPME, "fit", "baselines.dpme_fit")
        wrap(m["baselines.filter_priority"].FilterPriority, "fit",
               "baselines.fp_fit")
        for module in ("baselines.dpme", "baselines.filter_priority"):
            wrap(module, "histogram_counts", "baselines.bin",
                     [("baselines.bin_rows", self._bin_counter)])
            wrap(module, "synthesize_from_counts", "baselines.synth",
                     [("baselines.synth_rows", lambda a, r: len(r.X))])
            wrap(module, "fit_on_synthetic", "baselines.synth_fit")

        # regression: held-out scoring wherever the metrics are imported
        for module in ("runtime.runner", "baselines.base", "experiments.harness",
                       "core.models", "regression.linear"):
            wrap(module, "mean_squared_error", "regression.score")
        for module in ("runtime.runner", "baselines.base", "experiments.harness",
                       "core.models", "regression.logistic"):
            wrap(module, "misclassification_rate", "regression.score")

        # privacy: the durable write-ahead spend
        wrap(m["privacy.budget"].PrivacyBudget, "spend", "privacy.spend")

        # engine: streaming statistics, their codec and the sweep fit
        accumulator = m["engine.accumulator"].MomentAccumulator
        wrap(accumulator, "update", "engine.update",
               [("engine.update_rows", _rows(1))])
        wrap(accumulator, "merge", "engine.merge")
        wrap(accumulator, "snapshot", "engine.snapshot")
        for module in ("federated.wire", "serve.state"):
            wrap(module, "encode_entry", "engine.codec",
                     [("engine.codec_bytes", lambda a, r: len(r))])
            wrap(module, "decode_entry", "engine.codec",
                     [("engine.codec_bytes", lambda a, r: len(a[0]))])
        sweep = m["engine.sweep"].EpsilonSweepEngine
        wrap(sweep, "sweep", "engine.sweep_fit")
        wrap(sweep, "sweep_from_draws", "engine.sweep_fit")

        # serve: handlers, the tenant writer lock, durable snapshots
        app = m["serve.app"].ServeApp
        wrap(app, "ingest", "serve.ingest_handler")
        wrap(app, "fit", "serve.fit_handler")
        tenant = m["serve.state"].TenantState
        self._patch(tenant, "locked",
                    self._timed_enter("serve.lock_wait", tenant.__dict__["locked"]))
        wrap(tenant, "snapshot", "serve.snapshot",
               [("serve.snapshots", lambda a, r: r)])

        # federated: party side, wire codec, tree merge, coordinator fit
        wrap("federated.party", "run_party", "federated.party")
        wrap("federated.party", "encode_envelope", "federated.encode",
                 [("federated.wire_bytes", lambda a, r: len(r))])
        wrap("federated.coordinator", "decode_envelope", "federated.decode")
        wrap("federated.coordinator", "tree_merge", "federated.merge")
        wrap(m["federated.coordinator"].FederatedCoordinator, "fit",
               "federated.fit")
        return self

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
