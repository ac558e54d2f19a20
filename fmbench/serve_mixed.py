"""serve-mixed: two tenants writing and reading one in-process DP service.

An in-process ``ServeHTTP`` on an ephemeral port runs with the README's
production flags: process executor (two workers) with fallback, the
fsync'd budget journal every fit writes, and 0.5 s periodic snapshots.
Two closed-loop clients, one thread and one connection each, alternate a
500-row d=14 ingest with a budgeted 3-budget fit on the rows sent so
far.  One operation is one fit; latency is client-side, from the call
that encodes and sends the request to the parsed response, with any
retryable 503s counted against it.
"""

from __future__ import annotations

import math
import shutil
import threading
import time

from common import Phase

DIMS = 14
EPSILONS = (0.2, 0.8, 3.2)
ROWS = {"full": 500, "tiny": 50}
#: Batches each tenant ingests during set-up, so the first timed fit
#: already has data and set-up is CPU work rather than one journal flush.
SETUP_BATCHES = 10


class ServeMixed:
    name = "serve-mixed"
    tenants = 2

    def __init__(self, seed: int, scale: str, workdir) -> None:
        self.seed = seed
        self.rows = ROWS[scale]
        self.workdir = workdir
        self.load_seconds: list[float] = []
        self.fits: list[list[dict]] = [[] for _ in range(self.tenants)]
        self.failures = 0
        self.requests = 0
        self._setups = 0
        self._http = None

    def tenant_name(self, index: int) -> str:
        return f"bench-{self.seed}-{index}"

    def setup(self) -> None:
        from repro.serve.app import ServeApp
        from repro.serve.client import ServeClient
        from repro.serve.http import ServeHTTP
        from repro.session import ExecutionPolicy, Session

        self._setups += 1
        self.data_dir = self.workdir / f"serve-{self._setups}"
        policy = ExecutionPolicy(executor="process", max_workers=2,
                                 failure_mode="fallback")
        app = ServeApp(self.data_dir, Session(policy))
        self.stream_version = policy.stream_version
        self._http = ServeHTTP(app, port=0, snapshot_interval=0.5)
        self._thread = self._http.start_background()
        with ServeClient("127.0.0.1", self._http.bound_port) as client:
            for index in range(self.tenants):
                name = self.tenant_name(index)
                client.create_tenant(name, 1.0e9)
                for batch in range(SETUP_BATCHES):
                    X, y = self._batch(index, batch)
                    client.ingest(name, "linear", DIMS, X.tolist(), y.tolist())
        self._batches = [SETUP_BATCHES] * self.tenants

    def stop(self) -> None:
        """Graceful drain: final snapshots, journals closed, thread joined."""
        if self._http is None:
            return
        self._http.request_stop()
        self._thread.join(60.0)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop")
        self._http = None

    def teardown(self) -> None:
        self.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def warmup(self) -> None:
        self.measure(0.3, None)

    def _batch(self, tenant: int, batch: int):
        from repro.serve.loadgen import synthetic_batch

        return synthetic_batch(self.seed, tenant, batch, self.rows, DIMS)

    def _client_loop(self, tenant: int, deadline: float, phase: Phase, lock, tracer):
        from repro.serve.client import ServeClient, ServeResponseError
        from repro.serve.loadgen import fit_seed

        name = self.tenant_name(tenant)
        latencies, requests, request_seconds, rows = [], 0, 0.0, 0
        rejected = failures = 0

        def call(fn):
            def counted():
                nonlocal rejected
                try:
                    return fn()
                except ServeResponseError as err:
                    rejected += err.retryable
                    raise

            return client.with_retries(counted)

        with ServeClient("127.0.0.1", self._http.bound_port) as client:
            while time.perf_counter() < deadline:
                batch = self._batches[tenant]
                if tracer is None:
                    X, y = self._batch(tenant, batch)
                else:
                    with tracer.span("data.load"):
                        X, y = self._batch(tenant, batch)
                X, y = X.tolist(), y.tolist()
                seed = fit_seed(self.seed, tenant, batch)
                try:
                    t0 = time.perf_counter()
                    call(lambda: client.ingest(name, "linear", DIMS, X, y))
                    t1 = time.perf_counter()
                    self._batches[tenant] = batch + 1
                    rows += len(X)
                    response = call(lambda: client.fit(name, "linear", DIMS,
                                                       EPSILONS, seed))
                    t2 = time.perf_counter()
                except ServeResponseError:
                    failures += 1
                    continue
                finally:
                    requests += 2
                latencies.append(t2 - t1)
                request_seconds += t2 - t0
                self.fits[tenant].append({
                    "seed": seed, "n_rows": response["n_rows"],
                    "epsilons": tuple(response["epsilons"]),
                    "spent": response["spent_epsilon"], "digest": response["digest"],
                })
        with lock:
            phase.latencies.extend(latencies)
            phase.cells += len(EPSILONS) * len(latencies)
            phase.rows += rows
            phase.requests += requests
            phase.request_seconds += request_seconds
            self.failures += failures
        if tracer is not None:
            tracer.add("serve.rejected", rejected)

    def measure(self, seconds: float, tracer) -> Phase:
        phase, lock = Phase(), threading.Lock()
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client_loop, name=f"bench-client-{t}",
                             args=(t, started + seconds, phase, lock, tracer))
            for t in range(self.tenants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - started
        self.requests += phase.requests
        return phase

    def verify(self) -> tuple[int, int]:
        """Strict ledgers, and every digest recomputed from its batch prefix.

        ``repro.serve.check.verify_report`` rebuilds each tenant's rows as
        if all ingest came before any fit; here fits interleave with
        ingest, so each fit is recomputed offline from exactly the
        batches its ``n_rows`` says it saw, with the same keyed noise
        streams the service used and no service or executor.
        """
        from repro.engine.accumulator import MomentAccumulator
        from repro.experiments.harness import objective_for
        from repro.privacy.budget import PrivacyBudget
        from repro.serve.app import _FitWork
        from repro.serve.protocol import fit_digest

        self.stop()
        objective = objective_for("linear", DIMS)
        failed = self.failures
        for tenant, fits in enumerate(self.fits):
            journal = self.data_dir / "tenants" / self.tenant_name(tenant) / "budget.journal"
            budget = PrivacyBudget.restore(journal)
            try:
                accepted = math.fsum(fit["spent"] for fit in fits)
                slack = max(1e-9, 64.0 * math.ulp(budget.total))
                failed += abs(budget.spent - accepted) > slack
            finally:
                budget.close()
            accumulator, batches = MomentAccumulator(dim=DIMS), 0
            for fit in sorted(fits, key=lambda f: f["n_rows"]):
                while accumulator.n_rows < fit["n_rows"]:
                    accumulator.update(*self._batch(tenant, batches))
                    batches += 1
                form = accumulator.snapshot().quadratic_form(objective)
                work = _FitWork("linear", DIMS, form, fit["seed"], self.stream_version)
                omegas = [work((i, eps)) for i, eps in enumerate(fit["epsilons"])]
                expected = fit_digest("linear", DIMS, fit["epsilons"], fit["seed"],
                                      accumulator.n_rows, omegas)
                failed += (accumulator.n_rows != fit["n_rows"]
                           or expected != fit["digest"])
        return self.requests + self.tenants, failed
