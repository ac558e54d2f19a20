"""Equi-width multi-dimensional grid histograms.

The two synthetic-data baselines (DPME, Filter-Priority) both discretize the
joint ``(x, y)`` domain into a grid, release noisy cell counts, and
regenerate data.  This module is their shared substrate:

* :class:`Grid` — an equi-width partition of a box ``[lower, upper]^dims``
  with per-dimension bin counts, supporting point->cell indexing, cell
  centers, and uniform sampling within cells;
* :func:`histogram_counts` — exact counts per cell;
* :func:`choose_bins_per_dim` — Lei-style granularity rule with a global
  cell-budget cap.  The rule coarsens as dimensionality grows, which is
  precisely the effect the paper blames for DPME's poor accuracy at
  ``d = 11, 14`` (Figure 4).

Counts use the *replace-one* neighbor convention of the paper: replacing a
tuple moves one unit of count between (at most) two cells, so the L1
sensitivity of the full count vector is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError, DomainError
from ..privacy.rng import RngLike, ensure_rng

__all__ = [
    "Grid",
    "histogram_counts",
    "choose_bins_per_dim",
    "COUNT_SENSITIVITY",
]

#: L1 sensitivity of a cell-count vector under replace-one neighbors.
COUNT_SENSITIVITY = 2.0

#: Default upper bound on the total number of grid cells.
DEFAULT_CELL_BUDGET = 1 << 17


@dataclass(frozen=True)
class Grid:
    """An equi-width grid over the box ``prod_j [lower_j, upper_j]``.

    Parameters
    ----------
    lower, upper:
        Box bounds per dimension (upper strictly greater than lower).
    bins_per_dim:
        Number of equal-width bins in each dimension (>= 1).
    """

    lower: np.ndarray
    upper: np.ndarray
    bins_per_dim: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float).ravel())
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float).ravel())
        object.__setattr__(
            self, "bins_per_dim", np.asarray(self.bins_per_dim, dtype=int).ravel()
        )
        if not (self.lower.shape == self.upper.shape == self.bins_per_dim.shape):
            raise DataError("lower, upper and bins_per_dim must have equal length")
        if np.any(self.upper <= self.lower):
            raise DomainError("grid requires upper > lower in every dimension")
        if np.any(self.bins_per_dim < 1):
            raise DataError("bins_per_dim must be >= 1 everywhere")

    @property
    def dims(self) -> int:
        """Number of grid dimensions."""
        return self.lower.shape[0]

    @property
    def total_cells(self) -> int:
        """Total number of cells ``prod_j bins_j``."""
        return int(np.prod(self.bins_per_dim.astype(object)))

    @property
    def cell_widths(self) -> np.ndarray:
        """Per-dimension cell width."""
        return (self.upper - self.lower) / self.bins_per_dim

    def cell_indices(
        self, points: np.ndarray, target: np.ndarray | None = None
    ) -> np.ndarray:
        """Flat cell index (C-order) for each row of ``points``.

        With ``target`` given, ``points`` holds every dimension but the last
        and ``target`` is the last one's column: the joint ``(x, y)`` index
        the histogram baselines need, without stacking ``x`` and ``y`` into
        one matrix first.

        Points on the upper boundary fall into the last bin; points outside
        the box raise :class:`~repro.exceptions.DomainError` (baselines
        operate on normalized data whose domain is declared up front, so an
        out-of-box point is a pipeline bug, not something to clip silently).
        """
        points = np.asarray(points, dtype=float)
        width = self.dims if target is None else self.dims - 1
        if points.ndim != 2 or points.shape[1] != width:
            raise DataError(
                f"points must be 2-d with {width} columns, got shape {points.shape}"
            )
        parts = [(points, slice(0, width))]
        if target is not None:
            target = np.asarray(target, dtype=float).reshape(-1, 1)
            if target.shape[0] != points.shape[0]:
                raise DataError(
                    f"target has {target.shape[0]} entries for {points.shape[0]} points"
                )
            parts.append((target, slice(width, None)))
        for part, cols in parts:
            _check_box(part, self.lower[cols], self.upper[cols])
        if self.total_cells > np.iinfo(np.intp).max:
            raise DataError(f"grid has {self.total_cells} cells, too many to index")
        span = self.upper - self.lower
        strides = np.ones(self.dims, dtype=np.intp)
        strides[:-1] = np.cumprod(self.bins_per_dim[:0:-1])[::-1]
        return sum(
            _flat_offsets(
                part, self.lower[cols], span[cols], self.bins_per_dim[cols], strides[cols]
            )
            for part, cols in parts
        )

    def cell_center(self, flat_index: np.ndarray | int) -> np.ndarray:
        """Center coordinates of one or many flat cell indices."""
        flat = np.atleast_1d(np.asarray(flat_index, dtype=int))
        self._check_flat(flat)
        per_dim = np.array(np.unravel_index(flat, tuple(self.bins_per_dim))).T
        centers = self.lower + (per_dim + 0.5) * self.cell_widths
        return centers if np.ndim(flat_index) else centers[0]

    def sample_in_cells(
        self, flat_indices: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Draw one uniform point inside each given cell.

        Indices may come in any order and repeat: each is a run of one
        for :meth:`sample_runs`.
        """
        flat = np.asarray(flat_indices, dtype=int)
        if flat.ndim > 1:
            raise DataError(f"flat_indices must be 0-d or 1-d, got shape {flat.shape}")
        sequence = np.atleast_1d(flat)
        rows = self.sample_runs(sequence, np.ones(sequence.size, dtype=int), rng=rng)
        return rows if flat.ndim else rows[0]

    def sample_runs(
        self, cells: np.ndarray, runs: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Draw ``runs[i]`` uniform points inside cell ``cells[i]``, in order.

        Row for row this is one point per entry of ``np.repeat(cells,
        runs)``: one ``uniform(0, 1)`` block, finished as
        ``lower + (bin + u) * width`` per element, but only the distinct
        cells are unraveled and the arithmetic runs in place.
        """
        gen = ensure_rng(rng)
        cells = np.asarray(cells, dtype=int)
        self._check_flat(cells)
        coords = np.array(np.unravel_index(cells, tuple(self.bins_per_dim)), dtype=float)
        rows = gen.uniform(0.0, 1.0, size=(int(np.sum(runs)), self.dims))
        rows += np.repeat(coords.T, runs, axis=0)
        rows *= self.cell_widths
        rows += self.lower
        return rows

    def _check_flat(self, flat: np.ndarray) -> None:
        if flat.size and (flat.min() < 0 or flat.max() >= self.total_cells):
            raise DataError("flat cell index out of range")


#: Tolerance of the box-membership test in :meth:`Grid.cell_indices`.
_BOX_TOLERANCE = 1e-9

#: Rows binned per block; the block's float and integer scratch stay in cache.
_BIN_BLOCK_ROWS = 4096


def _check_box(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """Raise :class:`DomainError` if any entry of ``values`` leaves its box.

    Exactly the elementwise ``v < lower - tol or v > upper + tol`` test
    (NaN passes, as it does there), decided from column extremes.
    """
    if values.size == 0:
        return
    low, high = lower - _BOX_TOLERANCE, upper + _BOX_TOLERANCE
    # One pass over the whole block settles the usual case, where every
    # entry clears every column's bounds; NaN fails it and falls through.
    if values.min() >= low.max() and values.max() <= high.min():
        return
    if np.any(np.fmin.reduce(values, axis=0) < low) or np.any(
        np.fmax.reduce(values, axis=0) > high
    ):
        raise DomainError("points fall outside the declared grid box")


def _flat_offsets(
    values: np.ndarray,
    lower: np.ndarray,
    span: np.ndarray,
    bins: np.ndarray,
    strides: np.ndarray,
) -> np.ndarray:
    """Per row, the sum over columns of ``bin * stride``.

    Each bin is ``clip(int(((v - lower) / span) * bins), 0, bins - 1)``,
    evaluated in that order so it matches elementwise evaluation bit for
    bit; a block of rows at a time, in place.
    """
    n = values.shape[0]
    out = np.empty(n, dtype=np.intp)
    scaled = np.empty((min(n, _BIN_BLOCK_ROWS), values.shape[1]))
    index = np.empty(scaled.shape, dtype=np.intp)
    # ``fractions * bins`` converts the int bins to float first; doing it
    # once here keeps the conversion out of the loop.
    top, bins = bins - 1, bins.astype(float)
    for start in range(0, n, _BIN_BLOCK_ROWS):
        stop = min(start + _BIN_BLOCK_ROWS, n)
        block, bin_index = scaled[: stop - start], index[: stop - start]
        np.subtract(values[start:stop], lower, out=block)
        block /= span
        block *= bins
        np.copyto(bin_index, block, casting="unsafe")
        np.minimum(bin_index, top, out=bin_index)
        np.maximum(bin_index, 0, out=bin_index)
        np.matmul(bin_index, strides, out=out[start:stop])
    return out


def histogram_counts(
    grid: Grid, points: np.ndarray, target: np.ndarray | None = None
) -> np.ndarray:
    """Exact per-cell counts of ``points`` as a flat int64 vector.

    ``target``, if given, is the grid's last dimension (see
    :meth:`Grid.cell_indices`).
    """
    indices = grid.cell_indices(points, target)
    return np.bincount(indices, minlength=grid.total_cells).astype(np.int64)


def choose_bins_per_dim(
    n: int,
    dims: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    binary_dims: np.ndarray | None = None,
) -> np.ndarray:
    """Lei-style histogram granularity with a global cell cap.

    The DPME paper picks a bandwidth shrinking like ``(log n / n)^(1/(d+2))``;
    in bin terms we use ``m = round((n / log n)^(1/(dims + 2)))`` bins per
    continuous dimension, then repeatedly halve ``m`` until the total cell
    count fits the budget.  ``binary_dims`` marks dimensions (e.g. a boolean
    target or 0/1 attributes) that always get exactly 2 bins.

    The net effect reproduced here: with ``n`` fixed, growing ``dims`` forces
    coarser bins — the histogram's resolution collapses and the synthetic
    data (and thus DPME's regression accuracy) degrades, as in Figure 4.
    """
    n = int(n)
    dims = int(dims)
    if n < 1 or dims < 1:
        raise DataError(f"need n >= 1 and dims >= 1, got n={n}, dims={dims}")
    mask = np.zeros(dims, dtype=bool)
    if binary_dims is not None:
        mask = np.asarray(binary_dims, dtype=bool).ravel()
        if mask.shape[0] != dims:
            raise DataError("binary_dims must have one flag per dimension")
    m = max(2, int(round((n / max(math.log(n), 1.0)) ** (1.0 / (dims + 2)))))
    while True:
        bins = np.where(mask, 2, m)
        total = int(np.prod(bins.astype(object)))
        if total <= cell_budget or m == 1:
            break
        m = max(1, m // 2)
    if total > cell_budget:
        # Pathological dims: drop binary dims to 1 bin as a last resort.
        bins = np.ones(dims, dtype=int)
    return bins.astype(int)
