"""Tests for synthetic-data regeneration from noisy counts."""

import numpy as np
import pytest

from repro.baselines.histogram import Grid
from repro.baselines.synthesize import SyntheticData, synthesize_from_counts
from repro.exceptions import DataError


@pytest.fixture
def joint_grid():
    # 2 feature dims + 1 target dim.
    return Grid(
        lower=np.array([0.0, 0.0, -1.0]),
        upper=np.array([1.0, 1.0, 1.0]),
        bins_per_dim=np.array([2, 2, 2]),
    )


class TestWeightedMode:
    def test_shapes(self, joint_grid):
        counts = np.arange(8, dtype=float)
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.X.shape[1] == 2
        assert synth.y.shape[0] == synth.X.shape[0] == synth.weights.shape[0]

    def test_negative_counts_clamped(self, joint_grid):
        counts = np.full(8, -5.0)
        counts[3] = 4.0
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.effective_size == 4.0
        assert synth.X.shape[0] == 1

    def test_fractional_counts_rounded(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 2.6
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.weights[0] == 3.0

    def test_all_zero_counts_degenerate(self, joint_grid):
        synth = synthesize_from_counts(joint_grid, np.zeros(8), mode="weighted")
        assert synth.effective_size == 0.0
        assert synth.X.shape[0] == 1  # placeholder row with zero weight

    def test_y_is_last_dimension(self, joint_grid):
        counts = np.zeros(8)
        counts[1] = 1.0  # cell (0, 0, 1): last dim bin 1 -> y center 0.5
        synth = synthesize_from_counts(joint_grid, counts, mode="weighted")
        assert synth.y[0] == pytest.approx(0.5)
        np.testing.assert_allclose(synth.X[0], [0.25, 0.25])


class TestPointsMode:
    def test_row_counts(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 3.0
        counts[7] = 2.0
        synth = synthesize_from_counts(joint_grid, counts, mode="points")
        assert synth.X.shape[0] == 5
        assert np.all(synth.weights == 1.0)

    def test_center_placement_matches_weighted_moments(self, joint_grid, rng):
        counts = rng.integers(0, 5, size=8).astype(float)
        weighted = synthesize_from_counts(joint_grid, counts, mode="weighted")
        points = synthesize_from_counts(
            joint_grid, counts, mode="points", placement="center"
        )
        # First moments must agree exactly.
        w_mean = (weighted.X * weighted.weights[:, None]).sum(0) / weighted.effective_size
        np.testing.assert_allclose(points.X.mean(axis=0), w_mean, atol=1e-12)

    def test_uniform_placement_within_cells(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 200.0
        synth = synthesize_from_counts(
            joint_grid, counts, mode="points", placement="uniform", rng=0
        )
        assert np.all(synth.X >= 0.0) and np.all(synth.X <= 0.5)
        assert np.all(synth.y >= -1.0) and np.all(synth.y <= 0.0)
        # Spread within the cell, not collapsed to the center.
        assert synth.X[:, 0].std() > 0.05

    @pytest.mark.parametrize("placement", ["center", "uniform"])
    def test_rows_bitwise_equal_expanded_indices(self, joint_grid, rng, placement):
        # Expanding the counts into one flat index per row is the original
        # construction; the run-length path must reproduce it bit for bit.
        counts = rng.laplace(2.0, 3.0, size=8)
        synth = synthesize_from_counts(
            joint_grid, counts, mode="points", placement=placement, rng=5
        )
        rounded = np.round(np.maximum(counts, 0.0)).astype(np.int64)
        flat = np.repeat(np.arange(8), rounded)
        if placement == "center":
            rows = joint_grid.cell_center(flat)
        else:
            rows = joint_grid.sample_in_cells(flat, rng=5)
        for got, want in ((synth.X, rows[:, :-1]), (synth.y, rows[:, -1])):
            assert np.array_equal(
                np.ascontiguousarray(got).view(np.uint64),
                np.ascontiguousarray(want).view(np.uint64),
            )

    def test_row_cap_enforced(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 6_000_000.0
        with pytest.raises(DataError):
            synthesize_from_counts(joint_grid, counts, mode="points")

    def test_invalid_mode(self, joint_grid):
        with pytest.raises(ValueError):
            synthesize_from_counts(joint_grid, np.zeros(8), mode="bootstrap")

    def test_invalid_placement(self, joint_grid):
        counts = np.zeros(8)
        counts[0] = 1.0
        with pytest.raises(ValueError):
            synthesize_from_counts(joint_grid, counts, mode="points", placement="corner")

    def test_wrong_count_length(self, joint_grid):
        with pytest.raises(DataError):
            synthesize_from_counts(joint_grid, np.zeros(7))


@pytest.fixture
def rng():
    return np.random.default_rng(13)
