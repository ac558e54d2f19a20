"""Self-tests of the benchmark (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest fmbench/selfcheck.py -q

They run every workload at a tiny size through the real command line,
check that every metric ``BENCHMARK.json`` names is reported, and check
that tampered outputs are counted as failures instead of passing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from common import Phase  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "fmbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_results():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            results[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return results


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layers.PER_LAYER
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in run.end_to_end(
        Phase(latencies=[1.0, 2.0], cells=1, rows=1, elapsed=1.0), [1.0], 1, 0
    ).items()} == e2e
    names = {name for name, _, _ in layers.PER_LAYER}
    for metric, moves in layers.MOVES.items():
        assert metric in names
        for target, workload in moves:
            assert target in e2e and workload in WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_tiny(tiny_results, workload):
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny_results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in tiny_results[workload, 0]["metrics"].values())


def test_layers_report_zero_where_not_called(tiny_results):
    def value(workload, name):
        return tiny_results[workload, 1]["metrics"][name]["value"]

    baseline_metrics = [n for n, _, _ in layers.PER_LAYER if n.startswith("baselines.")]
    assert all(value("fm-sweep", n) == 0 for n in baseline_metrics)
    assert value("figure6-panel", "baselines.fits") > 0
    assert value("figure6-panel", "runtime.executor_creates") == 0
    assert value("serve-mixed", "runtime.executor_creates") > 0
    assert value("serve-mixed", "privacy.spends") == 1
    assert value("federated-rounds", "federated.wire_bytes") > 0
    assert value("fm-sweep", "runtime.aggregate_rows") > 0


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "fmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fm-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_restores_every_original():
    from repro.engine.accumulator import MomentAccumulator
    from repro.serve.state import TenantState

    before = (MomentAccumulator.__dict__["update"], TenantState.__dict__["locked"])
    with Tracer():
        assert MomentAccumulator.__dict__["update"] is not before[0]
    assert (MomentAccumulator.__dict__["update"],
            TenantState.__dict__["locked"]) == before


def test_failures_lower_ok_ratio():
    phase = Phase(latencies=[1.0], cells=1, rows=1, elapsed=1.0)
    assert run.end_to_end(phase, [1.0], 4, 1)["ok_ratio"][0] == 0.75


def _measured(cls, tmp_path, seconds=0.5):
    workload = cls(5, "tiny", tmp_path)
    workload.setup()
    workload.measure(seconds, None)
    return workload


def test_tampered_digests_are_failures(tmp_path):
    from federated_rounds import FederatedRounds
    from figure6_panel import Figure6Panel

    for cls in (Figure6Panel, FederatedRounds):
        workload = _measured(cls, tmp_path)
        assert workload.verify()[1] == 0
        workload.records[0]["digest"] = "0" * 64
        assert workload.verify()[1] == 1


def test_figure6_ordering_is_checked_per_call_and_pooled(tmp_path):
    from figure6_panel import Figure6Panel

    workload = _measured(Figure6Panel, tmp_path)
    honest = list(workload.results)

    def edited(change):
        return [dataclasses.replace(r, series={**r.series, **change(r.series)})
                for r in honest]

    workload.results = edited(lambda s: {"NoPrivacy": s["DPME"], "DPME": s["NoPrivacy"]})
    assert workload.verify()[1] == len(honest) + 1  # every call, and the pool
    workload.paper_ordering = True
    workload.results = edited(lambda s: {"FM": tuple(
        dataclasses.replace(point, mean_score=10.0) for point in s["FM"])})
    assert workload.verify()[1] == 1  # only the pooled FM-vs-histogram ordering


def test_wrong_batched_scores_fail_the_percell_oracle(tmp_path, monkeypatch):
    from fm_sweep import FMSweep
    from repro.session import Session

    workload = _measured(FMSweep, tmp_path)
    assert workload.verify()[1] == 0
    honest = Session.budget_sweep

    def off_by_one_ulp(self, *args, runtime=None, **kwargs):
        out = honest(self, *args, runtime=runtime, **kwargs)
        if runtime == "batched":
            eps = min(out)
            score = math.nextafter(out[eps].mean_score, math.inf)
            out[eps] = dataclasses.replace(out[eps], mean_score=score)
        return out

    monkeypatch.setattr(Session, "budget_sweep", off_by_one_ulp)
    assert workload.verify()[1] == len(("linear", "logistic"))


def test_serve_tampered_digest_and_ledger_are_failures(tmp_path):
    from repro.privacy.budget import PrivacyBudget
    from serve_mixed import ServeMixed

    workload = _measured(ServeMixed, tmp_path)
    try:
        assert workload.verify()[1] == 0
        fit = workload.fits[0][0]
        real, fit["digest"] = fit["digest"], "0" * 64
        assert workload.verify()[1] == 1
        fit["digest"] = real
        journal = workload.data_dir / "tenants" / workload.tenant_name(1) / "budget.journal"
        with PrivacyBudget.restore(journal) as budget:
            budget.spend(0.5, note="spend the service never released")
        assert workload.verify()[1] == 1
    finally:
        workload.teardown()
