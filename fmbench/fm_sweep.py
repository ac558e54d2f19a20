"""fm-sweep: FM alone over Table 2's six budgets on the full US census draw.

One operation is a ``Session.budget_sweep`` pair on the 370k-row set — a
linear call, then a logistic one — in one long-lived default-policy
session, each call with a fresh seed so its fold statistics are never
served from an earlier call's prepared-data cache.  No baseline runs:
fold aggregation and the stacked FM kernels are the whole cost.
"""

from __future__ import annotations

import math
import time

from common import count_cache_lookups, op_seed, sequential_phase

ROWS = {"full": None, "tiny": 4_000}
TASKS = ("linear", "logistic")


class FMSweep:
    name = "fm-sweep"

    def __init__(self, seed: int, scale: str, workdir) -> None:
        from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset

        self.seed = seed
        self.rows = ROWS[scale]
        self.epsilons = PRIVACY_BUDGETS
        self.preset = ScalePreset(name="bench-fm-sweep", max_records=None,
                                  folds=5 if scale == "full" else 3, repetitions=2)
        self.load_seconds: list[float] = []
        self.records: list[dict] = []
        self._next = 0

    def setup(self) -> None:
        from repro.data.census import load_us

        t0 = time.perf_counter()
        self.dataset = load_us(self.rows, rng=self.seed)
        self.load_seconds.append(time.perf_counter() - t0)

    def teardown(self) -> None:
        self.dataset = None

    def _session(self, telemetry: str = "off"):
        from repro.session import ExecutionPolicy, Session

        return Session(ExecutionPolicy(telemetry=telemetry))

    def warmup(self) -> None:
        from repro.data.census import load_us

        small = load_us(2_000, rng=self.seed)
        with self._session() as session:
            for task in TASKS:
                session.budget_sweep(small, task, 14, self.epsilons,
                                     preset=self.preset, seed=op_seed(self.seed, 10**6))

    def measure(self, seconds: float, tracer):
        session = self._session("off" if tracer is None else "summary")
        expected = len(self.epsilons) * self.preset.folds * self.preset.repetitions

        def op(index: int):
            seed = op_seed(self.seed, index)
            cells = 0
            for task in TASKS:
                sweep = session.budget_sweep(self.dataset, task, 14, self.epsilons,
                                             preset=self.preset, seed=seed)
                sane = sorted(sweep) == sorted(self.epsilons) and all(
                    math.isfinite(r.mean_score) for r in sweep.values())
                cells += sum(r.cells for r in sweep.values())
                self.records.append({"seed": seed, "task": task, "ok": sane})
            self.records[-1]["ok"] &= cells == 2 * expected
            return cells, 2 * self.dataset.n

        with session:
            phase = sequential_phase(op, seconds, tracer, self._next)
            if tracer is not None:
                count_cache_lookups(session, tracer)
        self._next += phase.ops
        return phase

    def verify(self) -> tuple[int, int]:
        """Every call sane; on one repetition batched == the percell oracle, bitwise."""
        from repro.experiments.config import ScalePreset

        failed = sum(1 for record in self.records if not record["ok"])
        one_rep = ScalePreset(name="bench-fm-oracle", max_records=None,
                              folds=self.preset.folds, repetitions=1)
        seed = self.records[0]["seed"]
        with self._session() as session:
            for task in TASKS:
                runs = [
                    session.budget_sweep(self.dataset, task, 14, self.epsilons,
                                         preset=one_rep, seed=seed, runtime=runtime)
                    for runtime in ("batched", "percell")
                ]
                failed += sweep_key(runs[0]) != sweep_key(runs[1])
        return len(self.records) + len(TASKS), failed


def sweep_key(sweep) -> list:
    """Bit patterns of every budget's aggregated score."""
    return [(eps, r.mean_score.hex(), r.std_score.hex(), r.cells)
            for eps, r in sorted(sweep.items())]
