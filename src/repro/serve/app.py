"""The transport-independent core of the DP serving layer.

:class:`ServeApp` is everything the service does, minus sockets: tenant
lifecycle, row ingestion, budgeted fits, snapshots, health.  The HTTP
layer (:mod:`repro.serve.http`) is a thin adapter that parses requests
into these synchronous calls; tests drive the app directly, so every
robustness property is testable without a port.

Fit lifecycle and the spend barrier
-----------------------------------
A fit request has exactly one irreversible step: the durable budget
spend.  Everything before it — validation, the statistics snapshot,
deadline checks — can fail *retryably*; everything after it runs to
completion, whatever the executors do:

1. snapshot the tenant's ``MomentAccumulator`` under the tenant lock
   (immutable view; the lock is released before any heavy work);
2. if the request's deadline already expired, reject retryably — the
   ledger is untouched;
3. ``budget.spend(sum(epsilons))`` against the tenant's write-ahead
   journal — over-spend is refused with a non-retryable 409, a crash
   inside the spend replays conservatively as spent;
4. fit one model per epsilon through the session's configured executor
   family, with the remaining deadline propagated into ``tile_timeout``
   and ``failure_mode="fallback"`` degrading process → thread → serial,
   so a committed spend always yields a released model.

Determinism: each epsilon's noise stream is
``derive_substream(seed, [_SERVE_STREAM_TAG, index])`` — a pure function
of the request, independent of executor, concurrency, retries and
injected faults — so a fit's :func:`~repro.serve.protocol.fit_digest`
under chaos equals the clean offline recomputation from the same rows.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from ..engine.sweep import EpsilonSweepEngine
from ..exceptions import BudgetExhaustedError, DataError
from ..experiments.harness import objective_for
from ..faults import RetryPolicy, use_injector
from ..obs import use_recorder
from ..privacy.rng import derive_substream
from ..runtime import ProcessExecutor, SerialExecutor, ThreadExecutor, use_backend
from ..runtime.runner import _mapped
from ..session import Session
from .protocol import (
    BadRequestError,
    BudgetRefusedError,
    Deadline,
    DeadlineExceededError,
    NotReadyError,
    fit_digest,
    parse_fit_request,
    parse_ingest_request,
    parse_tenant_request,
)
from .state import TenantRegistry, TenantState

__all__ = ["ServeApp"]

#: Domain tag for serve fit substreams (``b"SRVE"`` as an integer): keyed
#: per (request seed, epsilon index), never by execution order.
_SERVE_STREAM_TAG = 0x53525645

#: Floor for a propagated tile timeout: a deadline that expires mid-fit
#: still leaves the executor a beat to finish before degradation kicks in.
_MIN_TILE_TIMEOUT = 0.05


def _partition_site(partition: str | None) -> int | None:
    """A stable integer substream key for a partition name.

    Partitioned fits must not share noise draws with each other (or with
    the unpartitioned fit) under the same request seed: the partitions
    hold *disjoint* data, so bitwise-shared noise would cancel under
    subtraction of two releases.  Folding a hash of the name into the
    substream path keeps every partition's stream independent while
    leaving unpartitioned fits bitwise identical to before.
    """
    if partition is None:
        return None
    return int(hashlib.sha256(partition.encode()).hexdigest()[:8], 16)


class _FitWork:
    """One epsilon's Functional-Mechanism release; items are ``(index, eps)``.

    Module-level and built only from picklable state (task name, dims,
    the snapshot's :class:`~repro.core.polynomial.QuadraticForm`), so
    process pools can ship it.  Each item derives its own keyed noise
    substream — executor-independent by construction.
    """

    def __init__(
        self,
        task: str,
        dims: int,
        form,
        seed: int,
        stream_version: int,
        partition_site: int | None = None,
    ) -> None:
        self.task = task
        self.dims = dims
        self.form = form
        self.seed = seed
        self.stream_version = stream_version
        self.partition_site = partition_site

    def __call__(self, item: tuple[int, float]) -> np.ndarray:
        index, epsilon = item
        objective = objective_for(self.task, self.dims)
        engine = EpsilonSweepEngine(objective, self.form)
        path = [_SERVE_STREAM_TAG, index]
        if self.partition_site is not None:
            path = [_SERVE_STREAM_TAG, self.partition_site, index]
        rng = derive_substream(
            self.seed, path, stream_version=self.stream_version
        )
        return engine.sweep([epsilon], rng=rng).coefficients[0]


class ServeApp:
    """The serving layer's application core over one persistent session.

    Parameters
    ----------
    data_dir:
        Root of all durable tenant state (ledgers, snapshots, metadata).
        Restored on construction: existing budget journals replay via
        ``PrivacyBudget.restore`` and accumulator snapshots reload from
        their checksummed containers.
    session:
        The :class:`~repro.session.Session` supplying the execution
        policy, recorder and fault injector; the app adopts its tenant
        registry into the session so one ``close()`` tears everything
        down.  ``None`` builds a session from the environment.
    max_resident_tenants / tenant_idle_ttl:
        Tenant-cache bounds forwarded to :class:`TenantRegistry`: an LRU
        cap on in-memory tenants and a seconds-since-last-touch TTL.
        Evicted tenants are snapshotted first and transparently reloaded
        on the next touch.  ``None`` (the default) keeps the historical
        keep-everything behavior.
    """

    def __init__(
        self,
        data_dir: str | Path,
        session: Session | None = None,
        max_resident_tenants: int | None = None,
        tenant_idle_ttl: float | None = None,
    ) -> None:
        self.session = session if session is not None else Session()
        self.registry = TenantRegistry(
            data_dir,
            max_resident=max_resident_tenants,
            idle_ttl=tenant_idle_ttl,
        )
        self._started_at = time.monotonic()
        self._closed = False
        self._close_lock = threading.Lock()
        # The ambient recorder/injector slots are module globals shared by
        # every thread — by design, so forked pool workers inherit them.
        # Entering/exiting them per request on concurrent handler threads
        # would race the save/restore (and could leak the fault injector
        # past the app's life), so the service installs its session's
        # ambience exactly once, for its whole lifetime.
        self._ambience = ExitStack()
        self._ambience.enter_context(use_recorder(self.session.recorder))
        self._ambience.enter_context(use_injector(self.session.injector))
        self._ambience.enter_context(use_backend(self.session.backend))
        try:
            with self._scope("serve.restore"):
                self.restored_tenants = self.registry.restore_all()
        except BaseException:
            self._ambience.close()
            raise
        self.session.adopt(self.registry)
        self._ready = True

    # ------------------------------------------------------------------
    @contextmanager
    def _scope(self, span: str, **attrs):
        """Time one request span on the session's (thread-safe) recorder."""
        recorder = self.session.recorder
        with recorder.span(span, **attrs):
            yield recorder

    def _check_ready(self) -> None:
        if self._closed or not getattr(self, "_ready", False):
            raise NotReadyError("service is starting or draining")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def create_tenant(self, body: dict) -> dict:
        name, total = parse_tenant_request(body)
        self._check_ready()
        with self._scope("serve.create_tenant", tenant=name):
            tenant = self.registry.create(name, total)
            with tenant.locked():
                return tenant.status()

    def ingest(self, body: dict) -> dict:
        name, task, dims, partition, X, y, durable = parse_ingest_request(body)
        self._check_ready()
        # Leases pin the tenant resident for the request's whole extent so
        # the idle/LRU evictor can never close its journal mid-flight.
        with self.registry.lease(name) as tenant, self._scope(
            "serve.ingest", tenant=name, rows=len(X)
        ) as recorder:
            with tenant.locked():
                try:
                    n_rows = tenant.ingest(task, dims, X, y, partition=partition)
                except DataError as exc:
                    raise BadRequestError(str(exc)) from None
            if durable:
                tenant.snapshot()
            recorder.counter("serve.rows_ingested", len(X))
            response = {
                "tenant": name,
                "task": task,
                "dims": dims,
                "rows_accepted": int(len(X)),
                "n_rows": int(n_rows),
                "durable": durable,
            }
            if partition is not None:
                response["partition"] = partition
            return response

    def fit(self, body: dict, deadline: Deadline | None = None) -> dict:
        name, task, dims, partition, epsilons, seed = parse_fit_request(body)
        self._check_ready()
        with self.registry.lease(name) as tenant, self._scope(
            "serve.fit", tenant=name, points=len(epsilons)
        ) as recorder:
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "deadline expired before fit started", tenant=name
                )
            with tenant.locked():
                key = TenantState.acc_key(task, dims, partition)
                acc = tenant._accumulators.get(key)
                if acc is None or acc.n_rows == 0:
                    where = f"{task} d={dims}" + (
                        f" partition={partition!r}" if partition else ""
                    )
                    raise BadRequestError(
                        f"tenant {name!r} has no rows for {where}; "
                        f"ingest before fitting"
                    )
                statistics = acc.snapshot()
                n_rows = acc.n_rows
            # Last retryable exit: past this point the spend is durable and
            # the fit runs to completion (the fallback chain floors at
            # serial execution in this very process).
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "deadline expired before budget spend", tenant=name
                )
            requested = math.fsum(epsilons)
            note = f"serve fit {task}-d{dims} seed={seed} k={len(epsilons)}"
            try:
                if partition is None:
                    # Sequential composition: the full cost hits the ledger.
                    tenant.budget.spend(requested, note=note)
                    charged = requested
                else:
                    # Parallel composition over disjoint partitions: only
                    # the increase of the running maximum hits the ledger
                    # (possibly nothing — recorded durably either way).
                    charged = tenant.charge_partitioned(partition, requested, note)
            except BudgetExhaustedError as exc:
                recorder.counter("serve.budget_refusals")
                raise BudgetRefusedError(
                    str(exc),
                    tenant=name,
                    requested=exc.requested,
                    remaining=exc.remaining,
                ) from None
            omegas = self._execute_fit(
                task, dims, statistics, epsilons, seed, deadline,
                partition=partition,
            )
            digest = fit_digest(task, dims, epsilons, seed, n_rows, omegas)
            recorder.counter("serve.fits")
            recorder.counter("serve.fit_models", len(epsilons))
            response = {
                "tenant": name,
                "task": task,
                "dims": dims,
                "epsilons": list(epsilons),
                "seed": seed,
                "n_rows": int(n_rows),
                "spent_epsilon": charged,
                "remaining_epsilon": tenant.budget.remaining,
                "omegas": [list(map(float, row)) for row in omegas],
                "digest": digest,
            }
            if partition is not None:
                response["partition"] = partition
                response["partition_epsilon"] = requested
            return response

    def _fit_executor(self, deadline: Deadline | None):
        """A per-request executor honoring policy + the remaining deadline.

        Fresh per request (and closed by the caller) on purpose:
        concurrent fits must not share one pool's rebuild state, and
        ``tile_timeout`` is a per-request value (the deadline's
        remainder), which a shared pool cannot carry.
        Timeout enforcement is a process-executor capability; serial and
        thread fits run to completion (and are the fallback floor anyway).
        """
        policy = self.session.policy
        if policy.executor == "thread":
            return ThreadExecutor(policy.max_workers)
        if policy.executor == "serial":
            return SerialExecutor()
        timeout = policy.tile_timeout
        if deadline is not None:
            remaining = max(deadline.remaining(), _MIN_TILE_TIMEOUT)
            timeout = remaining if timeout is None else min(timeout, remaining)
        retry = RetryPolicy(
            max_retries=policy.max_retries,
            tile_timeout=timeout,
            failure_mode=policy.failure_mode,
        )
        return ProcessExecutor(policy.max_workers, retry=retry)

    def _execute_fit(
        self,
        task: str,
        dims: int,
        statistics,
        epsilons: tuple[float, ...],
        seed: int,
        deadline: Deadline | None,
        partition: str | None = None,
    ) -> np.ndarray:
        """Release one model per epsilon; completion is unconditional.

        ``_mapped`` supplies the graceful-degradation chain: a process
        executor broken past its retries under ``failure_mode="fallback"``
        re-runs only the pending epsilons on a thread pool, then serially
        — bitwise-identically, since every epsilon's stream is keyed, not
        positional.
        """
        objective = objective_for(task, dims)
        form = statistics.quadratic_form(objective)
        work = _FitWork(
            task, dims, form, seed, self.session.policy.stream_version,
            partition_site=_partition_site(partition),
        )
        items = [(i, eps) for i, eps in enumerate(epsilons)]
        with self._fit_executor(deadline) as executor:
            rows = _mapped(executor, work, items)
        return np.asarray(rows, dtype=float)

    def status(self, name: str) -> dict:
        with self.registry.lease(name) as tenant, self._scope(
            "serve.status", tenant=name
        ):
            with tenant.locked():
                return tenant.status()

    def snapshot(self) -> dict:
        """Force a durable snapshot of every tenant (admin endpoint)."""
        with self._scope("serve.snapshot"):
            written = self.registry.snapshot_all(force=True)
            return {"snapshots_written": int(written)}

    def periodic_snapshot(self) -> int:
        """One background snapshot + eviction cycle; never raises."""
        try:
            with self._scope("serve.snapshot", periodic=True):
                written = self.registry.snapshot_all()
                self.registry.evict_idle()
                return written
        except Exception:
            self.session.recorder.counter("serve.snapshot_failures")
            return 0

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness: the process is up and handling requests."""
        return {
            "status": "ok" if not self._closed else "closed",
            "uptime_seconds": time.monotonic() - self._started_at,
            "tenants": len(self.registry.names()),
        }

    def readyz(self, extra: dict | None = None) -> dict:
        """Readiness: serving traffic (transport merges admission gauges)."""
        ready = not self._closed and getattr(self, "_ready", False)
        body = {
            "ready": ready,
            "tenants": len(self.registry.names()),
            "restored_tenants": self.restored_tenants,
        }
        if extra:
            body.update(extra)
        if not ready:
            raise NotReadyError("service is starting or draining", **body)
        return body

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain: final forced snapshot, then release every resource.

        Idempotent.  The final snapshot is best-effort (a disk failure
        must not block shutdown); the session close beneath it never
        raises and tears down the registry's journal handles LIFO.
        """
        with self._close_lock:
            if self._closed:
                return
            self._ready = False
            self._closed = True
        try:
            with self._scope("serve.shutdown"):
                self.registry.snapshot_all(force=True)
        except Exception:
            self.session.recorder.counter("serve.snapshot_failures")
        finally:
            self._ambience.close()
        self.session.close()

    def __enter__(self) -> "ServeApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
