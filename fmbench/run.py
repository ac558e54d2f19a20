"""Benchmark of the Functional Mechanism reproduction: one workload per run.

Run from the root of a checkout::

    python3 fmbench/run.py --workload fm-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics; ``--trace 1`` measures half the time untraced, installs the
per-layer timers of :mod:`tracing`, measures the other half, and prints
the per-layer metrics (see :mod:`layers`).  Inputs derive from
``--seed`` alone.  Every run checks the program's outputs; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``, and the line before it records the machine.

The benchmark never sets BLAS threading: a program-side pin shows up as
a measured change, and ``blas_threads`` in the machine record says what
the run saw.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> (module, class); imported only once ``src/`` is on the path.
WORKLOADS = {
    "figure6-panel": ("figure6_panel", "Figure6Panel"),
    "fm-sweep": ("fm_sweep", "FMSweep"),
    "serve-mixed": ("serve_mixed", "ServeMixed"),
    "federated-rounds": ("federated_rounds", "FederatedRounds"),
}


def end_to_end(phase, setups: list[float], attempted: int, failed: int) -> dict:
    from common import peak_rss_mb, percentile_ms

    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "cells_per_s": (phase.cells / phase.elapsed, "1/s"),
        "rows_per_s": (phase.rows / phase.elapsed, "1/s"),
        "op_p50_ms": (percentile_ms(phase.latencies, 50), "ms"),
        "op_p90_ms": (percentile_ms(phase.latencies, 90), "ms"),
    }


def execute(name: str, seed: int, seconds: float, trace: bool, scale: str,
            workdir: Path) -> tuple[dict, int]:
    """Set up (several times), warm up, measure, verify, tear down.

    Returns the result object and the number of operations measured.
    """
    import importlib

    from common import MAX_SETUPS, MIN_SETUPS, SETUP_SECONDS
    from layers import PER_LAYER, layer_metrics
    from tracing import Tracer

    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(seed, scale, workdir)
    setups = []
    try:
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
        ):
            if setups:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        workload.warmup()
        if trace:
            untraced = workload.measure(seconds / 2, None)
            tracer = Tracer()
            with tracer:
                traced = workload.measure(seconds / 2, tracer)
        else:
            phase = workload.measure(seconds, None)
        attempted, failed = workload.verify()
    finally:
        workload.teardown()
    if trace:
        values = layer_metrics(tracer, traced, untraced, workload.load_seconds)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        ops = traced.ops
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(phase, setups, attempted, failed).items()}
        ops = phase.ops
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"fmbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".fmbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file the program or its pools create in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        from common import machine_record

        result, ops = execute(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale, workdir)
        for child in multiprocessing.active_children():
            child.join(30.0)
        print(json.dumps({"machine": machine_record(), "workload": args.workload,
                          "seed": args.seed, "trace": args.trace, "ops": ops}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
