"""Shared fixtures for the benchmark suite.

Every figure bench follows the same pattern: run the figure once through
:func:`run_figure` (``benchmark.pedantic(..., rounds=1)``) at the
``DEFAULT`` scale preset,
print the paper-style table, persist it under ``benchmarks/results/`` so the
series survive output capturing, and assert the reproduction's ordering
flags.

Datasets are generated once per session and cached; the bench preset keeps
cardinality above the ~90k crossover where FM's advantage over the histogram
baselines opens up (see ``repro.experiments.config``).
"""

from __future__ import annotations

import ctypes
import glob
import os
import pathlib

import numpy as np
import pytest

from repro.data import load_brazil, load_us
from repro.experiments.config import DEFAULT, ScalePreset
from repro.session import ExecutionPolicy, Session

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Sweeps with many x-values (Figures 5 and 8 have ten sampling rates) use
#: this preset; two repetitions keep occasional unlucky noise draws (the
#: paper smooths them with 50) from dominating a sweep point while the
#: suite stays in the tens of minutes.
WIDE_SWEEP_PRESET = ScalePreset(
    name="default-wide", max_records=DEFAULT.max_records, folds=DEFAULT.folds,
    repetitions=2,
)


@pytest.fixture(scope="session")
def us_census():
    """US dataset at bench scale (200k of the paper's 370k records)."""
    return load_us(DEFAULT.max_records)


@pytest.fixture(scope="session")
def brazil_census():
    """Brazil dataset at bench scale (190k records, the paper's full size)."""
    return load_brazil()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it (visible with ``pytest -s``)."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def machine_record() -> dict:
    """The host facts a timing depends on, for a bench's committed entry:
    visible cores, the BLAS numpy was built with and its thread count
    (asked of the library itself), and the numpy version."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads = None
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if threads is None and hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = int(getter())
    return {
        "visible_cores": len(os.sched_getaffinity(0)),
        "blas_vendor": vendor,
        "blas_threads": threads,
        "numpy": np.__version__,
    }


def run_figure(name: str, dataset, task: str | None = None, **kwargs):
    """Run figure ``name`` through a fresh default-policy Session.

    Figure N runs at seed N, so each bench's tables reproduce run to run.
    """
    with Session(ExecutionPolicy()) as session:
        return session.figure(name, dataset, task, seed=int(name[-1]), **kwargs)
