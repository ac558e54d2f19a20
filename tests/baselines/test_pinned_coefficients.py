"""Pinned DPME / Filter-Priority coefficients, bit for bit.

The golden digest store covers the linear figure pipelines only; these
pins cover both tasks, both synthesis modes and a tight and a generous
budget, so any change to the histogram baselines' binning, noise,
synthesis or synthetic fit that moves a single released bit fails here.

The fits run in a subprocess with single-threaded BLAS: a multithreaded
GEMM sums the synthetic Gram matrix in a thread-count-dependent order,
which would make the pins a function of the host's core count.  Like the
golden store's committed digests, the pins gate only where the
environment fingerprint matches the one they were recorded under.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.verify.golden import environment_fingerprint

PINS = json.loads(Path(__file__).with_name("pinned_coefficients.json").read_text())

_FIT_SCRIPT = """
import json, sys
from repro.baselines import DPME, FilterPriority
from repro.data.census import load_us

us = load_us(4000, rng=7)
out = {}
for task in ("linear", "logistic"):
    data = us.regression_task(task, dims=14)
    for cls in (DPME, FilterPriority):
        for eps in (0.1, 3.2):
            for mode in ("points", "weighted"):
                model = cls(task, eps, rng=11, synthesis_mode=mode).fit(data.X, data.y)
                out[f"{cls.__name__}-{task}-{eps}-{mode}"] = [
                    float(c).hex() for c in model.coef_
                ]
json.dump(out, sys.stdout)
"""

_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def fitted():
    if PINS["environment"] != environment_fingerprint():
        pytest.skip(
            f"pins recorded under {PINS['environment']}, running under "
            f"{environment_fingerprint()}"
        )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, **_SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _FIT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_case_pinned(fitted):
    assert sorted(fitted) == sorted(PINS["coefficients"])


@pytest.mark.parametrize("case", sorted(PINS["coefficients"]))
def test_coefficients_match_pins(fitted, case):
    assert fitted[case] == PINS["coefficients"][case]
