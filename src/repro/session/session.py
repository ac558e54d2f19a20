"""The `Session` facade: process state + an `ExecutionPolicy`, one object.

A Session is the place for state that should outlive a single call.

* a persistent :class:`~repro.runtime.PreparedDataCache` — prepared
  arrays reuse across *calls*, not just across the algorithms of one
  panel (bit-exactly: the cache only ever shares identical values);
* a lazily created, **reusable executor pool** — one
  :class:`~repro.runtime.ThreadExecutor` /
  :class:`~repro.runtime.ProcessExecutor`, reused by every call until
  :meth:`Session.close`;
* a dataset registry — :meth:`Session.dataset` loads and caches the
  census tables at the policy's scale.

Every entry point reads its execution knobs from the session's frozen
:class:`~repro.session.ExecutionPolicy` instead of a threaded kwarg blob;
protocol-level arguments (which algorithm, which dataset, which epsilon)
stay per-call.  The session's state never changes a result: scores are
bitwise identical to the bare protocol bodies at every policy — asserted
by ``tests/session/``.

Usage::

    from repro.session import ExecutionPolicy, Session

    with Session(ExecutionPolicy(executor="process", tile_size=1)) as s:
        us = s.dataset("us")
        point = s.evaluate("FM", us, "linear", dims=14, epsilon=0.8)
        panel = s.evaluate_panel(["FM", "DPME"], us, "linear", dims=14,
                                 epsilon=0.8)
        sweep = s.figure("figure6", us, task="linear")

``Session()`` with no arguments resolves its policy from the environment
(:meth:`ExecutionPolicy.resolve`), which is how ``REPRO_*`` variables
configure an unmodified CLI invocation end to end.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Mapping, Sequence

from ..baselines.base import Task
from ..data.census import load_brazil, load_us
from ..data.datasets import CensusDataset
from ..exceptions import ExperimentError
from ..faults import RetryPolicy, make_injector, use_injector
from ..obs import make_recorder, use_recorder
from ..experiments.config import DEFAULT_DIMENSIONALITY, ScalePreset
from ..experiments.figures import SweepResult, _accuracy_sweep
from ..experiments.harness import (
    EvaluationResult,
    _evaluate_algorithm,
    _evaluate_panel,
    _fm_budget_sweep,
)
from ..runtime import (
    CellExecutor,
    PreparedDataCache,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_backend,
    use_backend,
)
from .policy import ExecutionPolicy
from .registry import run_figure

__all__ = ["Session"]

_COUNTRY_LOADERS = {"us": load_us, "brazil": load_brazil}

#: Sentinel distinguishing "argument omitted" from an explicit ``None``.
_UNSET = object()


class Session:
    """A long-lived execution context over one :class:`ExecutionPolicy`.

    Parameters
    ----------
    policy:
        The execution policy; ``None`` resolves one from the environment
        (``REPRO_*`` variables / ``REPRO_POLICY_FILE``) over the class
        defaults.
    **overrides:
        Policy fields to :meth:`~ExecutionPolicy.derive` over ``policy``
        (``Session(executor="thread", tile_size=1)`` is shorthand).
    """

    def __init__(self, policy: ExecutionPolicy | None = None, **overrides) -> None:
        base = ExecutionPolicy.resolve() if policy is None else policy
        self.policy = base.derive(**overrides) if overrides else base
        self._prepared_cache = PreparedDataCache()
        self._executor: CellExecutor | None = None
        self._datasets: dict[tuple[str, int | None], CensusDataset] = {}
        self._recorder = make_recorder(self.policy.telemetry)
        self._injector = make_injector(self.policy.faults)
        # Resolved eagerly so a missing optional backend (torch) fails at
        # construction, not mid-sweep.
        self._backend = get_backend(self.policy.backend)
        # Resources registered via adopt(), torn down LIFO by close().
        self._adopted: list = []

    # ------------------------------------------------------------------
    # Owned process state
    # ------------------------------------------------------------------
    @property
    def prepared_cache(self) -> PreparedDataCache:
        """The session-lifetime prepared-data cache."""
        return self._prepared_cache

    @property
    def recorder(self):
        """The session's telemetry recorder (no-op when telemetry is off).

        Recording accumulates across calls for the session's lifetime —
        one recorder observes every entry point, which is what makes
        cross-call effects (cache reuse, pool reuse) visible in the
        counters.
        """
        return self._recorder

    def telemetry_summary(self) -> dict:
        """Aggregated counters/gauges/span stats recorded so far."""
        return self._recorder.summary()

    def write_trace(self, path: str | Path) -> Path:
        """Serialize the recorded trace to a JSONL file (see ``repro.obs``).

        Requires ``telemetry`` of ``"summary"`` (aggregates only) or
        ``"trace"`` (full span events); the meta line embeds the canonical
        policy so a trace is self-describing.
        """
        if not self._recorder.recording:
            raise ExperimentError(
                "telemetry is 'off'; construct the Session with "
                "telemetry='summary' or 'trace' to record a trace"
            )
        return self._recorder.write_jsonl(path, meta={"policy": self.policy.to_dict()})

    @property
    def injector(self):
        """The session's fault injector (the shared no-op when unconfigured)."""
        return self._injector

    @property
    def backend(self):
        """The session's resolved array backend (``policy.backend``)."""
        return self._backend

    def executor(self) -> CellExecutor:
        """The session's executor (created lazily, reused across calls)."""
        if self._executor is None:
            kind = self.policy.executor
            workers = self.policy.max_workers
            if kind == "serial":
                self._executor = SerialExecutor()
            elif kind == "thread":
                self._executor = ThreadExecutor(workers)
            else:
                retry = RetryPolicy(
                    max_retries=self.policy.max_retries,
                    tile_timeout=self.policy.tile_timeout,
                    failure_mode=self.policy.failure_mode,
                )
                self._executor = ProcessExecutor(workers, retry=retry)
        return self._executor

    def dataset(
        self, country: str, max_records: int | None = _UNSET
    ) -> CensusDataset:
        """Load (and cache) a census table at the policy's scale.

        ``max_records`` overrides the policy preset's cardinality cap;
        pass ``None`` explicitly for the paper's full table.
        """
        try:
            loader = _COUNTRY_LOADERS[country]
        except KeyError:
            raise ExperimentError(
                f"unknown country {country!r}; expected one of "
                f"{sorted(_COUNTRY_LOADERS)}"
            ) from None
        records = (
            self.policy.preset.max_records if max_records is _UNSET else max_records
        )
        key = (country, records)
        if key not in self._datasets:
            self._datasets[key] = loader(records) if records is not None else loader()
        return self._datasets[key]

    def clear_caches(self) -> None:
        """Drop the prepared-data cache and dataset registry contents."""
        self._prepared_cache = PreparedDataCache()
        self._datasets.clear()

    def adopt(self, resource):
        """Register a closeable resource for teardown by :meth:`close`.

        Long-lived owners (the serving layer, notebooks) hang journal
        handles, registries and caches off one session; adopting them
        means a single ``close()`` — or the context-manager exit, even an
        exceptional one — releases everything, LIFO, without each call
        site re-implementing teardown ordering.  Returns the resource.
        """
        self._adopted.append(resource)
        return resource

    def close(self) -> None:
        """Shut down the held executor pool and adopted resources (idempotent).

        Teardown is unconditional and never raises: the executor
        reference is cleared *before* its ``close()`` runs, so a pool
        broken by :class:`~repro.exceptions.ExecutorBrokenError` cannot
        stay attached when its shutdown fails, and every adopted resource
        is closed (LIFO) regardless of earlier failures.  Failures are
        counted (``session.close_errors``) instead of propagated — a
        teardown error must never mask the exception that triggered the
        context-manager exit.

        The session stays usable — the next call lazily rebuilds the
        pool — so ``close()`` is a resource release, not a lifecycle end.
        """
        executor, self._executor = self._executor, None
        adopted, self._adopted = self._adopted, []
        failures = 0
        if executor is not None:
            try:
                executor.close()
            except Exception:
                failures += 1
        for resource in reversed(adopted):
            closer = getattr(resource, "close", None)
            if closer is None:
                continue
            try:
                closer()
            except Exception:
                failures += 1
        if failures:
            self._recorder.counter("session.close_errors", failures)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Policy plumbing
    # ------------------------------------------------------------------
    def _resolved(self, preset, sampling_rate, seed):
        """Fill protocol arguments from the policy where omitted."""
        return (
            self.policy.preset if preset is None else preset,
            self.policy.sampling_rate if sampling_rate is None else sampling_rate,
            self.policy.seed if seed is None else seed,
        )

    def _warn_inapplicable(self, entry: str) -> None:
        """Warn when a non-default policy field cannot reach this entry.

        The sweep/figure protocols pin every non-swept Table-2 parameter
        at its paper default (sampling rate 1.0 unless it *is* the swept
        axis) — silently ignoring a field the user set in the policy
        would misrepresent what ran.
        """
        if self.policy.sampling_rate != 1.0:
            warnings.warn(
                f"{entry} pins non-swept Table-2 parameters at their paper "
                f"defaults; policy sampling_rate="
                f"{self.policy.sampling_rate!r} does not apply here",
                UserWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def evaluate(
        self,
        algorithm: str,
        dataset: CensusDataset,
        task: Task,
        dims: int = DEFAULT_DIMENSIONALITY,
        epsilon: float = 1.0,
        *,
        preset: ScalePreset | None = None,
        sampling_rate: float | None = None,
        seed: int | None = None,
        algorithm_kwargs: Mapping | None = None,
        executor: str | CellExecutor | None = None,
    ) -> EvaluationResult:
        """Run the repeated-CV protocol for one algorithm at one point.

        Execution comes from the policy (and the session's cache/pool);
        protocol arguments stay per-call with policy-backed defaults.
        """
        with use_recorder(self._recorder), use_injector(self._injector), use_backend(
            self._backend
        ), self._recorder.span(
            "session.evaluate", algorithm=algorithm, task=task
        ):
            return _evaluate_algorithm(
                algorithm,
                dataset,
                task,
                dims,
                epsilon,
                *self._resolved(preset, sampling_rate, seed),
                algorithm_kwargs=algorithm_kwargs,
                runtime=self.policy.runtime,
                executor=self.executor() if executor is None else executor,
                tile_size=self.policy.tile_size,
                stream_version=self.policy.stream_version,
                prepared_cache=self._prepared_cache,
            )

    def evaluate_panel(
        self,
        algorithms: Sequence[str],
        dataset: CensusDataset,
        task: Task,
        dims: int = DEFAULT_DIMENSIONALITY,
        epsilon: float = 1.0,
        *,
        preset: ScalePreset | None = None,
        sampling_rate: float | None = None,
        seed: int | None = None,
        executor: str | CellExecutor | None = None,
    ) -> dict[str, EvaluationResult]:
        """Evaluate an algorithm panel as one grouped run (keyed by name)."""
        with use_recorder(self._recorder), use_injector(self._injector), use_backend(
            self._backend
        ), self._recorder.span(
            "session.evaluate_panel", algorithms=list(algorithms), task=task
        ):
            return _evaluate_panel(
                algorithms,
                dataset,
                task,
                dims,
                epsilon,
                *self._resolved(preset, sampling_rate, seed),
                runtime=self.policy.runtime,
                executor=self.executor() if executor is None else executor,
                tile_size=self.policy.tile_size,
                stream_version=self.policy.stream_version,
                prepared_cache=self._prepared_cache,
            )

    def budget_sweep(
        self,
        dataset: CensusDataset,
        task: Task,
        dims: int = DEFAULT_DIMENSIONALITY,
        epsilons: Sequence[float] = (),
        *,
        preset: ScalePreset | None = None,
        sampling_rate: float | None = None,
        seed: int | None = None,
        post_processing: str = "spectral",
        tight_sensitivity: bool = False,
        runtime: str | None = None,
        executor: str | CellExecutor | None = None,
    ) -> dict[float, EvaluationResult]:
        """FM's one-pass multi-budget protocol run (keyed by epsilon).

        ``runtime`` overrides the policy for this call.  Every
        ``post_processing`` repair runs through the same plan and is
        bitwise identical under ``"batched"`` and ``"percell"``.
        """
        with use_recorder(self._recorder), use_injector(self._injector), use_backend(
            self._backend
        ), self._recorder.span(
            "session.budget_sweep", task=task, points=len(epsilons)
        ):
            return _fm_budget_sweep(
                dataset,
                task,
                dims,
                epsilons,
                *self._resolved(preset, sampling_rate, seed),
                post_processing=post_processing,
                tight_sensitivity=tight_sensitivity,
                runtime=self.policy.runtime if runtime is None else runtime,
                executor=self.executor() if executor is None else executor,
                tile_size=self.policy.tile_size,
                stream_version=self.policy.stream_version,
                prepared_cache=self._prepared_cache,
            )

    def sweep(
        self,
        dataset: CensusDataset,
        task: Task,
        parameter: str,
        values: Sequence,
        figure: str,
        *,
        preset: ScalePreset | None = None,
        algorithms: Sequence[str] | None = None,
        seed: int | None = None,
        executor: str | CellExecutor | None = None,
    ) -> SweepResult:
        """Evaluate a panel across one Table-2 parameter sweep.

        Non-swept parameters sit at their paper defaults; a policy
        ``sampling_rate`` cannot apply here and triggers a
        :class:`UserWarning` when set.
        """
        self._warn_inapplicable("Session.sweep")
        preset, _, seed = self._resolved(preset, None, seed)
        with use_recorder(self._recorder), use_injector(self._injector), use_backend(
            self._backend
        ), self._recorder.span(
            "session.sweep", parameter=parameter, figure=figure
        ):
            return _accuracy_sweep(
                dataset,
                task,
                parameter,
                tuple(values),
                figure=figure,
                preset=preset,
                algorithms=algorithms,
                seed=seed,
                runtime=self.policy.runtime,
                executor=self.executor() if executor is None else executor,
                tile_size=self.policy.tile_size,
                stream_version=self.policy.stream_version,
                prepared_cache=self._prepared_cache,
            )

    def figure(
        self,
        name: str,
        dataset: CensusDataset,
        task: Task | None = None,
        *,
        preset: ScalePreset | None = None,
        seed: int | None = None,
        values: Sequence | None = None,
        engine: bool | None = None,
        executor: str | CellExecutor | None = None,
    ) -> SweepResult:
        """Run one registered sweep figure (figures 4-9) under the policy.

        Dispatches through :mod:`repro.session.registry`, the single
        figure driver path.  ``engine`` selects the budget figures' (6, 9)
        one-pass FM series (default on; ``engine=False`` times FM per
        fit).  A policy ``sampling_rate`` cannot apply here and triggers a
        :class:`UserWarning` when set.
        """
        self._warn_inapplicable(f"Session.figure({name!r})")
        preset, _, seed = self._resolved(preset, None, seed)
        with use_recorder(self._recorder), use_injector(self._injector), use_backend(
            self._backend
        ), self._recorder.span(
            "session.figure", figure=name
        ):
            return run_figure(
                name,
                dataset,
                task,
                preset=preset,
                seed=seed,
                runtime=self.policy.runtime,
                executor=self.executor() if executor is None else executor,
                tile_size=self.policy.tile_size,
                stream_version=self.policy.stream_version,
                values=values,
                engine=engine,
                prepared_cache=self._prepared_cache,
            )
