"""Throughput of the stacked kernels per array backend.

The pluggable backend shim (``repro.runtime.backend``) routes the batched
solve/eigh/logdet calls through either numpy (the bit-identity reference)
or torch (optional, CUDA when present).  This bench records what that
routing costs — and what, if anything, torch-cpu buys — as cells/sec on a
FULL-shaped FM workload:

* ``numpy-serial``   — the shim's default path, serial executor;
* ``numpy-process``  — the same bits through a forked process pool, which
  inherits the ambient backend by COW (no per-task plumbing);
* ``torch-serial``   — torch on CPU, recorded only where torch is
  installed (not this repo's 1-CPU build box; the CI ``backend-smoke``
  job supplies the torch-cpu numbers).

Following ``bench_harness_scaling``, each configuration runs in a fresh
subprocess so BLAS/torch thread pools and page caches cannot contaminate
one another.  Children print wall time, a score digest and the raw score
series.

Assertions:

* the two numpy modes are **bitwise identical** (one digest) — backend
  dispatch and executor choice are scheduling knobs, not numerics;
* when torch is present, its scores conform to the numeric tier's
  certified tolerance (``repro.verify.numeric.DEFAULT_TOLERANCE``)
  against the numpy reference; when absent the row records
  ``available: false`` and the assertion is skipped.

Results merge into ``BENCH_harness.json`` under ``backend_throughput``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import save_and_print

from repro.runtime import backend_available

RECORDS = int(os.environ.get("BACKEND_BENCH_RECORDS", "100000"))
REPS = int(os.environ.get("BACKEND_BENCH_REPS", "8"))

#: ``<backend>-<executor>`` pairs; torch-serial is skipped (recorded as
#: unavailable) when torch is not importable.
CONFIGS = ("numpy-serial", "numpy-process", "torch-serial")

#: Runs one configuration; prints {seconds, cells, digest, scores}.  The
#: executor is constructed *inside* ``use_backend`` so a forked pool's
#: children inherit the ambient backend at fork time.
_CHILD = r"""
import hashlib, json, struct, sys, time
records, reps, config = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
backend, executor_kind = config.split("-")
from repro.data.census import load_us
from repro.experiments.config import PRIVACY_BUDGETS, ScalePreset
from repro.runtime import plan_cells_tiled, run_plan, use_backend
from repro.runtime.executor import ProcessExecutor, SerialExecutor

dataset = load_us(records)
preset = ScalePreset(name="backend", max_records=None, folds=5, repetitions=reps)
plan = plan_cells_tiled(
    "FM", dataset, "linear", dims=14, epsilons=PRIVACY_BUDGETS,
    preset=preset, seed=11, tile_size=1,
)
with use_backend(backend):
    executor = SerialExecutor() if executor_kind == "serial" else ProcessExecutor(1)
    with executor:
        started = time.perf_counter()
        outcome = run_plan(plan, mode="batched", executor=executor)
        seconds = time.perf_counter() - started
digest = hashlib.sha256()
scores = []
for epsilon in PRIVACY_BUDGETS:
    digest.update(struct.pack(f"<{len(outcome.scores[epsilon])}d", *outcome.scores[epsilon]))
    scores.extend(outcome.scores[epsilon])
print(json.dumps({
    "config": config,
    "backend": backend,
    "executor": executor_kind,
    "available": True,
    "seconds": seconds,
    "cells": plan.n_cells,
    "cells_per_sec": plan.n_cells / seconds,
    "score_digest": digest.hexdigest(),
    "scores": scores,
}))
"""


def _run_config(config: str) -> dict:
    backend = config.split("-")[0]
    if not backend_available(backend):
        return {"config": config, "backend": backend, "available": False}
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(RECORDS), str(REPS), config],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"{config} child failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def measurements(results_dir) -> dict[str, dict]:
    rows = {config: _run_config(config) for config in CONFIGS}
    reference = rows["numpy-serial"]
    lines = [
        f"array-backend throughput ({REPS} reps x 5 folds x 6 budgets = "
        f"{reference['cells']} cells, {RECORDS:,} records, "
        f"{len(os.sched_getaffinity(0))} cores visible)"
    ]
    for config, row in rows.items():
        if not row["available"]:
            lines.append(f"  {config:>14}: unavailable (torch not installed)")
            continue
        speedup = reference["seconds"] / row["seconds"]
        lines.append(
            f"  {config:>14}: {row['seconds']:.2f}s "
            f"({row['cells_per_sec']:,.1f} cells/sec, {speedup:.2f}x vs numpy-serial)"
        )
    save_and_print(results_dir, "backend_throughput", "\n".join(lines))
    payload = {
        "records": RECORDS,
        "repetitions": REPS,
        "cores_visible": len(os.sched_getaffinity(0)),
        "configs": {
            config: {k: v for k, v in row.items() if k != "scores"}
            for config, row in rows.items()
        },
    }
    (results_dir / "backend_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    return rows


def test_numpy_modes_bitwise_identical(measurements):
    """Backend shim + executor choice must not move a bit: one digest."""
    serial = measurements["numpy-serial"]
    pooled = measurements["numpy-process"]
    assert serial["score_digest"] == pooled["score_digest"], (
        serial["score_digest"], pooled["score_digest"],
    )


def test_torch_conforms_to_certified_tolerance(measurements):
    """torch-cpu may drift at reassociation scale, never beyond the
    numeric tier's certified bound."""
    row = measurements["torch-serial"]
    if not row["available"]:
        pytest.skip(
            "torch not installed on this box; the CI backend-smoke job "
            "records the torch-cpu measurement"
        )
    from repro.verify.numeric import DEFAULT_TOLERANCE

    reference = np.asarray(measurements["numpy-serial"]["scores"])
    candidate = np.asarray(row["scores"])
    assert DEFAULT_TOLERANCE.conforms(reference, candidate)
