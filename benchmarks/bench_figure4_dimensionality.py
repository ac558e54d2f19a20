"""Figure 4: regression accuracy vs dataset dimensionality (four panels).

Sweeps dimensionality over Table 2's {5, 8, 11, 14} at the default sampling
rate and budget, for both datasets and both tasks.  Reproduction criteria
(Section 7.1):

* FM consistently outperforms FP and DPME on linear regression, with
  accuracy close to NoPrivacy;
* DPME/FP error grows markedly with dimensionality;
* on logistic regression Truncated tracks NoPrivacy (the truncation is
  cheap) and FM stays between Truncated and the synthetic-data baselines.
"""

import pytest
from conftest import run_figure, save_and_print

from repro.experiments.config import DEFAULT
from repro.experiments.reporting import format_sweep_table, summarize_ordering


@pytest.mark.parametrize("country", ["us", "brazil"])
def test_figure4_linear(benchmark, results_dir, country, us_census, brazil_census):
    dataset = us_census if country == "us" else brazil_census
    result = benchmark.pedantic(
        run_figure,
        args=("figure4", dataset, "linear"),
        kwargs={"preset": DEFAULT},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure4_{country}_linear", format_sweep_table(result))
    flags = summarize_ordering(result)
    assert flags["noprivacy_best"]
    assert flags["fm_beats_dpme"], "FM must beat DPME on linear regression"
    assert flags["fm_beats_fp"], "FM must beat FP on linear regression"
    # DPME's dimensionality curse: its *excess over the NoPrivacy floor*
    # grows with dimensionality (the floor itself moves across attribute
    # subsets, so raw errors are not comparable between dims values).
    dpme = result.metric_series("DPME")
    noprivacy = result.metric_series("NoPrivacy")
    assert (dpme[-1] - noprivacy[-1]) > (dpme[0] - noprivacy[0])


@pytest.mark.parametrize("country", ["us", "brazil"])
def test_figure4_logistic(benchmark, results_dir, country, us_census, brazil_census):
    dataset = us_census if country == "us" else brazil_census
    result = benchmark.pedantic(
        run_figure,
        args=("figure4", dataset, "logistic"),
        kwargs={"preset": DEFAULT},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure4_{country}_logistic", format_sweep_table(result))
    flags = summarize_ordering(result)
    assert flags["noprivacy_best"]
    # Truncated ~ NoPrivacy (Figure 4c-d's key observation).
    truncated = result.metric_series("Truncated")
    noprivacy = result.metric_series("NoPrivacy")
    for t, n in zip(truncated, noprivacy):
        assert t <= n + 0.03
    # All private algorithms stay on the meaningful side of chance.
    for name in ("FM", "DPME", "FP"):
        assert max(result.metric_series(name)) <= 0.5
