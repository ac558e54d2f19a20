"""figure6-panel: the paper's Figure-6 linear panel as ``python -m repro figure6`` runs it.

One operation is one ``Session.figure("figure6", us, task="linear")`` call
in a fresh default-policy session (serial executor), as the CLI makes
one: 5 folds x 6 budgets x {FM, DPME, FP, NoPrivacy} = 120 cells on a
100k-row US census draw.  The paper's DEFAULT preset (200k rows, two
repetitions, ~24 s per call) does not fit a run; at 100k rows FM still
beats the histogram baselines at generous budgets, which at 40k rows it
no longer does.  Each call is one repetition with its own seed, so the
paper's ordering is checked on the run's pooled means (several
repetitions, as the paper averages over), and each call must at least
rank NoPrivacy best.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from common import count_cache_lookups, op_seed, sequential_phase

ROWS = {"full": 100_000, "tiny": 3_000}


class Figure6Panel:
    name = "figure6-panel"

    def __init__(self, seed: int, scale: str, workdir) -> None:
        from repro.experiments.config import ScalePreset

        self.seed = seed
        self.rows = ROWS[scale]
        self.preset = ScalePreset(name="bench-figure6", max_records=None,
                                  folds=5 if scale == "full" else 3, repetitions=1)
        # The FM-vs-histogram ordering is a large-sample claim; a tiny
        # self-test panel checks only that NoPrivacy is best.
        self.paper_ordering = scale == "full"
        self.results: list = []
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

    def _figure(self, seed: int, dataset, tracer=None):
        from repro.session import ExecutionPolicy, Session

        telemetry = "off" if tracer is None else "summary"
        with Session(ExecutionPolicy(telemetry=telemetry)) as session:
            result = session.figure("figure6", dataset, task="linear",
                                    preset=self.preset, seed=seed)
            if tracer is not None:
                count_cache_lookups(session, tracer)
        return result

    def warmup(self) -> None:
        from repro.data.census import load_us

        self._figure(op_seed(self.seed, 10**6), load_us(2_000, rng=self.seed))

    def measure(self, seconds: float, tracer):
        def op(index: int):
            seed = op_seed(self.seed, index)
            result = self._figure(seed, self.dataset, tracer)
            self.results.append(result)
            self.records.append({"seed": seed, "digest": score_digest(result)})
            cells = sum(r.cells for series in result.series.values() for r in series)
            return cells, self.dataset.n

        phase = sequential_phase(op, seconds, tracer, self._next)
        self._next += phase.ops
        return phase

    def verify(self) -> tuple[int, int]:
        """NoPrivacy best per call, the paper's ordering on the pooled
        means, and a re-run of call 0 reproducing its digest."""
        failed = sum(1 for result in self.results if not ordering_holds(result, False))
        failed += not ordering_holds(pooled(self.results), self.paper_ordering)
        first = self.records[0]
        rerun = score_digest(self._figure(first["seed"], self.dataset))
        failed += rerun != first["digest"]
        return len(self.records) + 2, failed


def score_digest(result) -> str:
    """SHA-256 over every (algorithm, budget) score and cell count."""
    h = hashlib.sha256()
    for name in sorted(result.series):
        for value, point in zip(result.values, result.series[name]):
            h.update(f"{name}:{value!r}:{point.mean_score.hex()}:"
                     f"{point.std_score.hex()}:{point.cells}\n".encode())
    return h.hexdigest()


def pooled(results):
    """One panel whose every point is the mean over ``results``' calls."""
    first = results[0]
    series = {
        name: tuple(
            dataclasses.replace(
                point,
                mean_score=float(np.mean([r.series[name][i].mean_score for r in results])),
                cells=sum(r.series[name][i].cells for r in results),
            )
            for i, point in enumerate(points)
        )
        for name, points in first.series.items()
    }
    return dataclasses.replace(first, series=series)


def ordering_holds(result, fm_vs_histograms: bool = True) -> bool:
    """NoPrivacy is best; FM <= 1.02x DPME and FP over the budgets >= 0.4.

    The same criteria ``benchmarks/bench_figure6_budget.py`` asserts for
    the linear panel.
    """
    from repro.experiments.reporting import summarize_ordering

    if not summarize_ordering(result)["noprivacy_best"]:
        return False
    if not fm_vs_histograms:
        return True
    generous = [i for i, value in enumerate(result.values) if value >= 0.4]

    def mean(name: str) -> float:
        series = result.metric_series(name)
        return float(np.mean([series[i] for i in generous]))

    fm = mean("FM")
    return fm <= mean("DPME") * 1.02 and fm <= mean("FP") * 1.02
