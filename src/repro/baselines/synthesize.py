"""Regenerating data from noisy histogram counts.

Both DPME and Filter-Priority end with the same move: a vector of noisy cell
counts over the joint ``(x, y)`` grid is turned back into a dataset that any
(non-private) regression can consume.  Two equivalent materializations are
offered:

``points``
    Explicit rows: each retained cell emits ``count`` points, either at the
    cell center or uniformly within the cell.  DPME and Filter-Priority
    default to this mode with ``uniform`` placement: it materializes the
    synthetic dataset row by row as the original methods do.

``weighted``
    One representative point per retained cell — its center — with the
    rounded noisy count as a sample weight.  Mathematically identical to
    replicating the center ``count`` times for both weighted least squares
    and weighted logistic MLE, but O(cells) instead of O(sum of counts);
    this mirrors how Lei's M-estimator consumes the histogram directly.
    It is this function's default and the fast choice for test runs.

Negative noisy counts are clamped to zero and fractional counts are rounded
— standard post-processing that costs no privacy budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..exceptions import DataError
from ..privacy.rng import RngLike, ensure_rng
from .histogram import Grid

__all__ = ["SyntheticData", "synthesize_from_counts"]

#: Hard cap on materialized synthetic rows (mode="points"); prevents a
#: pathological noise draw from exhausting memory.
_MAX_POINTS = 5_000_000


@dataclass(frozen=True)
class SyntheticData:
    """A synthetic dataset in split ``(X, y, weight)`` form.

    ``X`` holds the feature columns, ``y`` the target column (the last grid
    dimension), ``weights`` the per-row multiplicity (all ones in
    ``points`` mode).
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @property
    def effective_size(self) -> float:
        """Total synthetic mass ``sum(weights)``."""
        return float(self.weights.sum())


def synthesize_from_counts(
    grid: Grid,
    noisy_counts: np.ndarray,
    mode: Literal["weighted", "points"] = "weighted",
    placement: Literal["center", "uniform"] = "center",
    rng: RngLike = None,
) -> SyntheticData:
    """Turn noisy counts over a joint ``(x, y)`` grid into a dataset.

    Parameters
    ----------
    grid:
        The joint grid; its **last dimension is the target** ``y``.
    noisy_counts:
        Flat count vector (length ``grid.total_cells``); negatives are
        clamped, fractions rounded to the nearest integer.
    mode:
        ``"weighted"`` or ``"points"`` (see module docstring).
    placement:
        Where points land inside their cell (``points`` mode only).
    """
    if mode not in ("weighted", "points"):
        raise ValueError(f"mode must be 'weighted' or 'points', got {mode!r}")
    if placement not in ("center", "uniform"):
        raise ValueError(f"placement must be 'center' or 'uniform', got {placement!r}")
    counts = np.asarray(noisy_counts, dtype=float).ravel()
    if counts.shape[0] != grid.total_cells:
        raise DataError(
            f"count vector has length {counts.shape[0]}; grid has "
            f"{grid.total_cells} cells"
        )
    counts = np.round(np.maximum(counts, 0.0)).astype(np.int64)
    occupied = np.nonzero(counts)[0]
    if occupied.size == 0:
        # Degenerate release: no mass anywhere.  Return a single zero-weight
        # row at the grid center so downstream shape logic survives; callers
        # check effective_size before fitting.
        center = grid.cell_center(grid.total_cells // 2)
        return SyntheticData(
            X=center[None, :-1], y=center[None, -1].ravel(), weights=np.zeros(1)
        )
    if mode == "weighted":
        centers = grid.cell_center(occupied)
        return SyntheticData(
            X=centers[:, :-1],
            y=centers[:, -1],
            weights=counts[occupied].astype(float),
        )
    runs = counts[occupied]
    total = int(runs.sum())
    if total > _MAX_POINTS:
        raise DataError(
            f"synthetic dataset would have {total} rows (cap {_MAX_POINTS}); "
            f"use mode='weighted'"
        )
    # Each occupied cell is unraveled once and its coordinates repeated by
    # count: row for row what expanding the counts into flat indices gives.
    if placement == "center":
        rows = np.repeat(grid.cell_center(occupied), runs, axis=0)
    else:
        rows = grid.sample_runs(occupied, runs, rng=ensure_rng(rng))
    return SyntheticData(
        X=rows[:, :-1], y=rows[:, -1], weights=np.ones(rows.shape[0])
    )
