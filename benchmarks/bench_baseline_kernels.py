"""Histogram-baseline kernels: DPME and Filter-Priority, stage by stage.

Figure 6's DPME and FP fits spend their time in three stages, each timed
here on its own at figure-6 shape (80k training rows x 13 features, the
linear task, epsilon in {0.1, 3.2}):

* ``bin`` — :func:`histogram_counts` over the joint ``(x, y)`` grid;
* ``synth`` — :func:`synthesize_from_counts`, which materializes every
  synthetic row (``points`` mode, uniform placement);
* ``synth_fit`` — :func:`fit_on_synthetic`, the regression on those rows.

Every measurement runs in a fresh subprocess with single-threaded BLAS,
so the released coefficients are a function of the code alone and are
asserted against the pins in
``tests/baselines/pinned_coefficients_figure6.json`` (recorded before the
vectorized grid binning and run-length synthesis landed; gated where the
environment fingerprint matches, as ``test_pinned_coefficients.py`` is).
Each (algorithm, budget) fit is timed ``BASELINE_KERNELS_REPEATS`` times
and keeps its best stage times.

The gate is machine-relative: synthesis must stay within ``SYNTH_CEILING``
(3x) of a bare ``gen.uniform(0, 1, size=(rows, dims))`` draw of the same
shape in the same process — the one step synthesis cannot avoid.

Results merge into ``BENCH_harness.json`` under ``baseline_kernels``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import save_and_print

from repro.verify.golden import environment_fingerprint

REPEATS = int(os.environ.get("BASELINE_KERNELS_REPEATS", "5"))
#: Synthesis time over a bare same-shape uniform draw, in one process.
SYNTH_CEILING = 3.0

PINS = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "baselines"
     / "pinned_coefficients_figure6.json").read_text()
)

_CHILD = r"""
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[2])
from conftest import machine_record
from repro.baselines import DPME, FilterPriority, dpme, filter_priority
from repro.data.census import load_us

repeats = int(sys.argv[1])
data = load_us(80_000, rng=6).regression_task("linear", dims=14)
STAGES = {"histogram_counts": "bin", "synthesize_from_counts": "synth",
          "fit_on_synthetic": "synth_fit"}


def timed_fit(cls, module, epsilon):
    seconds, shapes = {}, {}
    originals = {name: getattr(module, name) for name in STAGES}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds[STAGES[name]] = time.perf_counter() - started
            if name == "synthesize_from_counts":
                shapes["synth_rows"] = len(result.X)
            return result
        return timed

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        started = time.perf_counter()
        model = cls("linear", epsilon, rng=14).fit(data.X, data.y)
        seconds["fit"] = time.perf_counter() - started
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
    return model, seconds, shapes["synth_rows"]


def uniform_seconds(rows, dims):
    started = time.perf_counter()
    np.random.default_rng(0).uniform(0.0, 1.0, size=(rows, dims))
    return time.perf_counter() - started


cases = {}
for cls, module in ((DPME, dpme), (FilterPriority, filter_priority)):
    for epsilon in (0.1, 3.2):
        best, coef = {}, None
        for _ in range(repeats):
            model, seconds, rows = timed_fit(cls, module, epsilon)
            hexes = [float(c).hex() for c in model.coef_]
            assert coef is None or hexes == coef, "refit changed the coefficients"
            coef = hexes
            # Drawn right after each fit, so a load spike on a shared host
            # hits the draw and the synthesis it is compared with alike.
            seconds["uniform_draw"] = uniform_seconds(rows, data.X.shape[1] + 1)
            for stage, value in seconds.items():
                best[stage] = min(best.get(stage, value), value)
        cases[f"{cls.__name__}-{epsilon}"] = {
            "seconds": best,
            "synth_rows": rows,
            "uniform_draw_s": best.pop("uniform_draw"),
            "coef": coef,
        }
print(json.dumps({"machine": machine_record(), "cases": cases}))
"""

_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def measurements(results_dir) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(REPEATS), str(Path(__file__).resolve().parent)],
        env={**os.environ, **_SINGLE_THREAD},
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"kernel child failed:\n{result.stderr}"
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    lines = [
        f"histogram-baseline stages (80,000 x 13 linear, best of {REPEATS}, "
        f"{payload['machine']})"
    ]
    for case, row in payload["cases"].items():
        s = row["seconds"]
        lines.append(
            f"  {case:>18}: bin {s['bin'] * 1e3:6.1f}ms  synth {s['synth'] * 1e3:6.1f}ms "
            f"({s['synth'] / row['uniform_draw_s']:.2f}x uniform, {row['synth_rows']:,} rows)  "
            f"synth_fit {s['synth_fit'] * 1e3:6.1f}ms  fit {s['fit'] * 1e3:6.1f}ms"
        )
    save_and_print(results_dir, "baseline_kernels", "\n".join(lines))
    (results_dir / "baseline_kernels.json").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_coefficients_match_pins(measurements):
    """The timed fits release exactly the pinned coefficients."""
    if PINS["environment"] != environment_fingerprint():
        pytest.skip(
            f"pins recorded under {PINS['environment']}, running under "
            f"{environment_fingerprint()}"
        )
    coefs = {case: row["coef"] for case, row in measurements["cases"].items()}
    assert coefs == PINS["coefficients"]


def test_synthesis_within_ceiling_of_uniform_draw(measurements):
    """Synthesis costs at most a small multiple of its unavoidable draw."""
    for case, row in measurements["cases"].items():
        ratio = row["seconds"]["synth"] / row["uniform_draw_s"]
        assert ratio <= SYNTH_CEILING, (case, ratio, row)
