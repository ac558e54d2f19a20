"""Shared measurement plumbing: phases, percentiles, seeds, machine record."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: ``setup_s`` is the median of at least this many set-ups per run ...
MIN_SETUPS = 3
#: ... repeated until they took this long together (cheap set-ups repeat
#: more, so their median is not one disk flush's luck) ...
SETUP_SECONDS = 1.0
#: ... but never more than this many.
MAX_SETUPS = 15

#: A phase always measures at least this many operations, however long.
MIN_OPS = 2


@dataclass
class Phase:
    """What one measured phase did: operations, their latencies, their work.

    ``latencies`` holds one entry per operation (the workload's unit of
    user-visible work); ``request_seconds`` and ``requests`` cover every
    client-visible call, which for serve includes the ingests between fits.
    ``child_seconds`` is the time under layer spans directly inside the
    operations, recorded only when a tracer is installed.
    """

    latencies: list[float] = field(default_factory=list)
    cells: int = 0
    rows: int = 0
    elapsed: float = 0.0
    requests: int = 0
    request_seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def mean_request(self) -> float:
        return self.request_seconds / max(1, self.requests)


def op_seed(seed: int, index: int) -> int:
    """A fresh 32-bit program seed for operation ``index`` of a run."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def sequential_phase(op, seconds: float, tracer, first_index: int) -> Phase:
    """Run ``op(index) -> (cells, rows)`` back to back for about ``seconds``.

    A new operation starts only while the last one's duration still fits
    before the deadline, so a phase overruns ``seconds`` by at most one
    short operation instead of one long one.
    """
    phase = Phase()
    started = time.perf_counter()
    index = first_index
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            cells, rows = op(index)
        else:
            with tracer.span("session") as frame:
                cells, rows = op(index)
            phase.child_seconds += frame[0]
        latency = time.perf_counter() - t0
        phase.latencies.append(latency)
        phase.cells += cells
        phase.rows += rows
        index += 1
        elapsed = time.perf_counter() - started
        if phase.ops >= MIN_OPS and elapsed + latency > seconds:
            break
    phase.elapsed = time.perf_counter() - started
    phase.requests = phase.ops
    phase.request_seconds = float(sum(phase.latencies))
    return phase


def count_cache_lookups(session, tracer) -> None:
    """Add a summary-telemetry session's prepared-data cache counters to ``tracer``."""
    counters = session.telemetry_summary()["counters"]
    for kind in ("task", "moment"):
        hits = counters.get(f"prepared_cache.{kind}_hits", 0)
        misses = counters.get(f"prepared_cache.{kind}_misses", 0)
        tracer.add("runtime.cache_hits", hits)
        tracer.add("runtime.cache_lookups", hits + misses)


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1000.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record() -> dict:
    """The host facts a timing depends on (BLAS is read, never pinned)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "visible_cores": len(os.sched_getaffinity(0)),
        "blas_vendor": vendor,
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
