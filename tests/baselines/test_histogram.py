"""Tests for the multi-dimensional grid histogram substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.histogram import (
    Grid,
    choose_bins_per_dim,
    histogram_counts,
)
from repro.exceptions import DataError, DomainError


@pytest.fixture
def unit_grid():
    return Grid(lower=np.zeros(2), upper=np.ones(2), bins_per_dim=np.array([4, 4]))


class TestGrid:
    def test_total_cells(self, unit_grid):
        assert unit_grid.total_cells == 16

    def test_cell_widths(self, unit_grid):
        np.testing.assert_allclose(unit_grid.cell_widths, 0.25)

    def test_cell_indices_corners(self, unit_grid):
        idx = unit_grid.cell_indices(np.array([[0.0, 0.0], [0.99, 0.99]]))
        assert idx[0] == 0
        assert idx[1] == 15

    def test_upper_boundary_in_last_bin(self, unit_grid):
        idx = unit_grid.cell_indices(np.array([[1.0, 1.0]]))
        assert idx[0] == 15

    def test_out_of_box_raises(self, unit_grid):
        with pytest.raises(DomainError):
            unit_grid.cell_indices(np.array([[1.5, 0.5]]))
        with pytest.raises(DomainError):
            unit_grid.cell_indices(np.array([[-0.1, 0.5]]))

    def test_cell_center_roundtrip(self, unit_grid):
        for flat in range(unit_grid.total_cells):
            center = unit_grid.cell_center(flat)
            back = unit_grid.cell_indices(center[None, :])
            assert back[0] == flat

    def test_cell_center_vectorized(self, unit_grid):
        centers = unit_grid.cell_center(np.arange(unit_grid.total_cells))
        assert centers.shape == (16, 2)

    def test_cell_center_out_of_range(self, unit_grid):
        with pytest.raises(DataError):
            unit_grid.cell_center(16)

    def test_sample_in_cells_out_of_range(self, unit_grid):
        for flats in ([0, 16], [-1], [3, 99, 2]):
            with pytest.raises(DataError):
                unit_grid.sample_in_cells(np.array(flats), rng=0)

    def test_sample_in_cells_scalar(self, unit_grid):
        point = unit_grid.sample_in_cells(5, rng=0)
        assert point.shape == (2,)
        assert unit_grid.cell_indices(point[None, :])[0] == 5

    def test_sample_in_cells_stays_inside(self, unit_grid):
        flats = np.array([0, 5, 15])
        points = unit_grid.sample_in_cells(flats, rng=0)
        back = unit_grid.cell_indices(points)
        np.testing.assert_array_equal(back, flats)

    def test_asymmetric_bins(self):
        grid = Grid(lower=np.zeros(2), upper=np.ones(2), bins_per_dim=np.array([2, 3]))
        assert grid.total_cells == 6
        idx = grid.cell_indices(np.array([[0.9, 0.9]]))
        assert idx[0] == 5

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            Grid(lower=np.ones(2), upper=np.zeros(2), bins_per_dim=np.array([2, 2]))
        with pytest.raises(DataError):
            Grid(lower=np.zeros(2), upper=np.ones(2), bins_per_dim=np.array([0, 2]))
        with pytest.raises(DataError):
            Grid(lower=np.zeros(2), upper=np.ones(3), bins_per_dim=np.array([2, 2]))

    def test_too_many_cells_to_index(self):
        grid = Grid(lower=np.zeros(64), upper=np.ones(64), bins_per_dim=np.full(64, 2))
        with pytest.raises(DataError):
            grid.cell_indices(np.full((1, 64), 0.5))

    def test_wrong_point_width(self, unit_grid):
        with pytest.raises(DataError):
            unit_grid.cell_indices(np.zeros((2, 3)))


class TestJointBinning:
    def test_target_column_is_last_dimension(self, unit_grid):
        points = np.array([[0.1, 0.9], [0.6, 0.3], [1.0, 0.0]])
        np.testing.assert_array_equal(
            unit_grid.cell_indices(points[:, :1], points[:, 1]),
            unit_grid.cell_indices(points),
        )

    def test_target_shape_checked(self, unit_grid):
        with pytest.raises(DataError):
            unit_grid.cell_indices(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(DataError):
            unit_grid.cell_indices(np.zeros((3, 2)), np.zeros(3))

    def test_target_out_of_box_raises(self, unit_grid):
        with pytest.raises(DomainError):
            histogram_counts(unit_grid, np.full((2, 1), 0.5), np.array([0.5, 1.1]))


class TestHistogramCounts:
    def test_total_mass_preserved(self, unit_grid, rng):
        points = rng.uniform(0, 1, size=(500, 2))
        counts = histogram_counts(unit_grid, points)
        assert counts.sum() == 500
        assert counts.shape == (16,)

    def test_known_placement(self, unit_grid):
        points = np.array([[0.1, 0.1], [0.1, 0.1], [0.9, 0.9]])
        counts = histogram_counts(unit_grid, points)
        assert counts[0] == 2
        assert counts[15] == 1

    def test_replace_one_changes_l1_by_at_most_two(self, unit_grid, rng):
        # The sensitivity claim behind Lap(2/eps) count noise.
        points = rng.uniform(0, 1, size=(100, 2))
        counts_before = histogram_counts(unit_grid, points)
        modified = points.copy()
        modified[0] = rng.uniform(0, 1, size=2)
        counts_after = histogram_counts(unit_grid, modified)
        assert np.abs(counts_before - counts_after).sum() <= 2


class TestChooseBins:
    def test_more_data_finer_bins(self):
        coarse = choose_bins_per_dim(1000, 3)
        fine = choose_bins_per_dim(1_000_000, 3)
        assert fine[0] >= coarse[0]

    def test_higher_dims_coarser_bins(self):
        low_d = choose_bins_per_dim(100_000, 3)
        high_d = choose_bins_per_dim(100_000, 14)
        assert high_d[0] <= low_d[0]

    def test_binary_dims_pinned_to_two(self):
        mask = np.array([False, False, True])
        bins = choose_bins_per_dim(100_000, 3, binary_dims=mask)
        assert bins[2] == 2
        assert bins[0] == bins[1] >= 2

    def test_cell_budget_respected(self):
        bins = choose_bins_per_dim(10_000_000, 10, cell_budget=1024)
        assert int(np.prod(bins.astype(object))) <= 1024

    def test_minimum_two_bins_when_budget_allows(self):
        bins = choose_bins_per_dim(100, 4)
        assert np.all(bins >= 2)

    def test_mask_length_checked(self):
        with pytest.raises(DataError):
            choose_bins_per_dim(100, 3, binary_dims=np.array([True]))

    def test_rejects_bad_args(self):
        with pytest.raises(DataError):
            choose_bins_per_dim(0, 3)
        with pytest.raises(DataError):
            choose_bins_per_dim(10, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


# ----------------------------------------------------------------------
# Bitwise oracle: the original per-row implementation, kept verbatim as
# the reference the vectorized grid must match bit for bit.
# ----------------------------------------------------------------------
def reference_cell_indices(grid, points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != grid.dims:
        raise DataError(
            f"points must be 2-d with {grid.dims} columns, got shape {points.shape}"
        )
    tol = 1e-9
    below = points < grid.lower - tol
    above = points > grid.upper + tol
    if below.any() or above.any():
        raise DomainError("points fall outside the declared grid box")
    fractions = (points - grid.lower) / (grid.upper - grid.lower)
    per_dim = np.minimum(
        (fractions * grid.bins_per_dim).astype(int), grid.bins_per_dim - 1
    )
    per_dim = np.maximum(per_dim, 0)
    return np.ravel_multi_index(per_dim.T, tuple(grid.bins_per_dim))


def reference_sample_in_cells(grid, flat_indices, rng):
    gen = np.random.default_rng(rng)
    flat = np.asarray(flat_indices, dtype=int)
    per_dim = np.array(np.unravel_index(flat, tuple(grid.bins_per_dim))).T
    offsets = gen.uniform(0.0, 1.0, size=per_dim.shape)
    return grid.lower + (per_dim + offsets) * grid.cell_widths


def reference_joint_counts(grid, X, y):
    indices = reference_cell_indices(grid, np.hstack([X, y[:, None]]))
    return np.bincount(indices, minlength=grid.total_cells).astype(np.int64)


def _outcome(fn, *args):
    """``fn``'s result, or the exception type it raised."""
    try:
        return fn(*args)
    except (DataError, DomainError) as error:
        return type(error)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@st.composite
def grids_with_points(draw):
    """A random grid and points aimed at its edges and tolerance band.

    1-15 dimensions with mixed bin counts; the last dimension is often a
    binary ``[0, 1]`` target.  Entries land in the interior, exactly on
    interior bin edges, on either face of the box, inside the ``1e-9``
    tolerance band or exactly on its boundary, and, when ``outside`` is
    drawn, just beyond it.
    """
    dims = draw(st.integers(1, 15))
    bins = np.array(draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-2.0, 1.0, size=dims)
    upper = lower + rng.choice([1.0 / np.sqrt(max(dims - 1, 1)), 0.3, 1.0, 2.5], size=dims)
    if draw(st.booleans()):
        bins[-1], lower[-1], upper[-1] = 2, 0.0, 1.0
    grid = Grid(lower=lower, upper=upper, bins_per_dim=bins)
    n = draw(st.integers(0, 40))
    outside = draw(st.booleans())
    tol = 1e-9
    edges = lower + rng.integers(0, bins + 1, size=(n, dims)) * grid.cell_widths
    candidates = [
        rng.uniform(lower, upper, size=(n, dims)),
        edges,
        np.broadcast_to(upper, (n, dims)),
        np.broadcast_to(lower, (n, dims)),
        np.broadcast_to(lower - tol, (n, dims)),
        np.broadcast_to(upper + tol, (n, dims)),
        np.broadcast_to(lower - 0.5 * tol, (n, dims)),
        np.broadcast_to(upper + 0.5 * tol, (n, dims)),
    ]
    if outside:
        candidates += [
            np.broadcast_to(np.nextafter(lower - tol, -np.inf), (n, dims)),
            np.broadcast_to(np.nextafter(upper + tol, np.inf), (n, dims)),
            np.broadcast_to(lower - 2 * tol, (n, dims)),
        ]
    # Mostly interior and edges, so most examples stay inside the box.
    weights = np.ones(len(candidates))
    weights[:2] = 8.0 * len(candidates)
    kind = rng.choice(len(candidates), size=(n, dims), p=weights / weights.sum())
    points = np.choose(kind, candidates)
    return grid, points


class TestBitwiseOracle:
    @given(grids_with_points())
    @settings(max_examples=300, deadline=None)
    def test_cell_indices_match_reference(self, case):
        grid, points = case
        expected = _outcome(reference_cell_indices, grid, points)
        actual = _outcome(grid.cell_indices, points)
        if isinstance(expected, type):
            assert actual is expected
        else:
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected)

    @given(grids_with_points())
    @settings(max_examples=300, deadline=None)
    def test_joint_binning_matches_hstack_reference(self, case):
        grid, points = case
        X, y = points[:, :-1], points[:, -1]
        expected = _outcome(reference_cell_indices, grid, np.hstack([X, y[:, None]]))
        actual = _outcome(grid.cell_indices, X, y)
        if isinstance(expected, type):
            assert actual is expected
            return
        np.testing.assert_array_equal(actual, expected)
        if grid.total_cells <= 1 << 16:  # keep the dense count vectors small
            np.testing.assert_array_equal(
                histogram_counts(grid, X, y), reference_joint_counts(grid, X, y)
            )

    @given(grids_with_points(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sampling_matches_reference_bits(self, case, seed):
        grid, _ = case
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 30))
        unsorted = rng.integers(0, grid.total_cells, size=size)
        repeated = np.repeat(unsorted[: max(1, size // 3)], rng.integers(1, 5, size=max(1, size // 3)))
        for flats in (np.sort(unsorted), unsorted, repeated, rng.permutation(repeated),
                      np.array([], dtype=int)):
            expected = reference_sample_in_cells(grid, flats, seed)
            assert _same_bits(grid.sample_in_cells(flats, rng=seed), expected)

    def test_nan_passes_the_box_check_as_before(self, unit_grid):
        points = np.array([[np.nan, 0.5], [0.2, np.nan]])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                unit_grid.cell_indices(points), reference_cell_indices(unit_grid, points)
            )
        for outside in (2.0, -1.0):
            with pytest.raises(DomainError):
                unit_grid.cell_indices(np.array([[np.nan, 0.5], [outside, np.nan]]))

    def test_sampling_consumes_the_same_stream(self, unit_grid):
        flats = np.array([3, 3, 0, 15, 3])
        gen_new, gen_ref = np.random.default_rng(4), np.random.default_rng(4)
        assert _same_bits(
            unit_grid.sample_in_cells(flats, rng=gen_new),
            reference_sample_in_cells(unit_grid, flats, gen_ref),
        )
        assert gen_new.random() == gen_ref.random()
