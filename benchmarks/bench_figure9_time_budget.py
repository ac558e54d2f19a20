"""Figure 9: computation time vs privacy budget (logistic task).

Epsilon affects only the noise magnitude, not the problem size, so the
paper observes a negligible effect on running time; the FM-vs-NoPrivacy
speedup persists at every budget.
"""

import numpy as np
import pytest
from conftest import run_figure, save_and_print

from repro.experiments.config import DEFAULT
from repro.experiments.reporting import format_time_table


@pytest.mark.parametrize("country", ["us", "brazil"])
def test_figure9_time(benchmark, results_dir, country, us_census, brazil_census):
    dataset = us_census if country == "us" else brazil_census
    result = benchmark.pedantic(
        run_figure,
        args=("figure9", dataset),
        kwargs={"preset": DEFAULT},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure9_{country}_time", format_time_table(result))

    fm = result.time_series("FM")
    noprivacy = result.time_series("NoPrivacy")
    for fm_t, np_t in zip(fm, noprivacy):
        assert fm_t * 5.0 < np_t
    # Budget has no systematic effect on FM's time: max/min within ~5x
    # (wall-clock jitter dominates at these durations).
    assert max(fm) <= 5.0 * min(fm) + 0.05
