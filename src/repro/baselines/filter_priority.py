"""FP — Filter-Priority publication of sparse data (Cormode et al., ICDT 2012).

The second private competitor in Section 7.  Where DPME noises *every* grid
cell, FP exploits sparsity: most cells of a high-dimensional histogram are
empty, and materializing noise for all of them is both slow and utility-
destroying.  FP publishes a *compact* noisy summary:

1. **Filter.**  Add ``Lap(2/epsilon)`` to each non-empty cell; keep the
   noisy value only if it clears a threshold ``theta``.
2. **Empty-cell simulation.**  Cells that are empty would pass the filter
   only if their (never materialized) noise exceeded ``theta``; the number
   of such cells is ``Binomial(n_empty, p)`` with
   ``p = Pr[Lap(b) >= theta] = 0.5 exp(-theta/b)``, and each passing cell's
   value is ``theta`` plus an ``Exp(b)`` overshoot (the memoryless Laplace
   tail).  Sampling this directly is distribution-identical to noising all
   empty cells and filtering — the trick that makes FP output-sensitive.
3. **Priority.**  Keep the ``m`` largest noisy counts, fixing the output
   size.

The released summary is then synthesized into data and fitted exactly like
DPME.  Accuracy degrades with dimensionality for the same structural reason
(coarser grids, thinner cells), which is the behaviour Figure 4 reports.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import DataError
from ..privacy.laplace import laplace_noise, laplace_scale
from ..privacy.rng import RngLike, ensure_rng
from ..regression.logistic import sigmoid
from .base import BaselineRegressor, Task, register_algorithm
from .dpme import build_joint_grid, fit_on_synthetic
from .histogram import COUNT_SENSITIVITY, DEFAULT_CELL_BUDGET, Grid, histogram_counts
from .synthesize import synthesize_from_counts

__all__ = ["FilterPriority"]


@register_algorithm("FP")
class FilterPriority(BaselineRegressor):
    """Cormode et al. (2012): filtered, priority-sampled noisy histogram.

    Parameters
    ----------
    task:
        ``"linear"`` or ``"logistic"``.
    epsilon:
        Privacy budget; spent on the (conceptual) noisy histogram release.
    output_factor:
        Output size as a multiple of the number of non-empty cells
        (the priority step keeps ``m = output_factor * n_nonempty`` cells).
    theta:
        Filter threshold.  ``None`` (default) picks the threshold at which
        the *expected* number of spurious empty cells passing equals ``m``
        — beyond that the output would be mostly noise cells.
    cell_budget:
        Global cap on grid cells (shared with DPME for comparability).
    """

    is_private = True

    def __init__(
        self,
        task: Task,
        epsilon: float,
        rng: RngLike = None,
        output_factor: float = 1.0,
        theta: float | None = None,
        cell_budget: int = DEFAULT_CELL_BUDGET,
        synthesis_mode: str = "points",
        placement: str = "uniform",
    ) -> None:
        super().__init__(task)
        self.epsilon = float(epsilon)
        if output_factor <= 0.0 or not math.isfinite(output_factor):
            raise ValueError(f"output_factor must be positive, got {output_factor!r}")
        self.output_factor = float(output_factor)
        self.theta = theta
        self.cell_budget = int(cell_budget)
        self.synthesis_mode = synthesis_mode
        self.placement = placement
        self._rng = ensure_rng(rng)
        self.grid_: Grid | None = None
        self.published_cells_: int | None = None

    # ------------------------------------------------------------------
    def _choose_theta(self, scale: float, n_empty: int, m: int) -> float:
        """Threshold with expected spurious passes ~= m.

        Solving ``n_empty * 0.5 exp(-theta/scale) = m`` for ``theta``;
        clamped at 0 (a negative threshold would admit *more* noise-only
        cells than the all-cells baseline).
        """
        if n_empty <= 0 or m <= 0:
            return 0.0
        ratio = n_empty / (2.0 * m)
        if ratio <= 1.0:
            return 0.0
        return scale * math.log(ratio)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FilterPriority":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
        n, d = X.shape
        grid = build_joint_grid(n, d, self.task, cell_budget=self.cell_budget)
        counts = histogram_counts(grid, X, y)
        scale = laplace_scale(COUNT_SENSITIVITY, self.epsilon)
        nonzero = np.nonzero(counts)[0]
        empty_count = grid.total_cells - nonzero.size
        m = max(1, int(round(self.output_factor * max(nonzero.size, 1))))
        theta = (
            self._choose_theta(scale, empty_count, m)
            if self.theta is None
            else float(self.theta)
        )

        # Step 1: filter the materialized (non-empty) cells.
        noisy_nonzero = counts[nonzero] + laplace_noise(
            COUNT_SENSITIVITY, self.epsilon, size=nonzero.size, rng=self._rng
        )
        keep = noisy_nonzero >= theta
        kept_indices = list(nonzero[keep])
        kept_values = list(noisy_nonzero[keep])

        # Step 2: simulate the empty cells' filtered noise without
        # materializing them.
        if empty_count > 0 and scale > 0.0:
            p_pass = 0.5 * math.exp(-max(theta, 0.0) / scale)
            passing = int(self._rng.binomial(empty_count, min(p_pass, 1.0)))
            if passing > 0:
                # Sample distinct empty cells.  For tractability sample flat
                # indices uniformly and reject collisions with non-empty
                # cells (sparse regime: collisions are rare).
                nonzero_set = set(int(i) for i in nonzero)
                chosen: set[int] = set()
                attempts = 0
                while len(chosen) < passing and attempts < 20 * passing + 100:
                    candidates = self._rng.integers(
                        0, grid.total_cells, size=passing - len(chosen)
                    )
                    for c in candidates:
                        c = int(c)
                        if c not in nonzero_set and c not in chosen:
                            chosen.add(c)
                    attempts += passing
                overshoot = self._rng.exponential(scale, size=len(chosen))
                kept_indices.extend(chosen)
                kept_values.extend(max(theta, 0.0) + overshoot)

        # Step 3: priority — keep the m largest noisy counts.
        published = np.zeros(grid.total_cells)
        if kept_indices:
            idx = np.asarray(kept_indices, dtype=int)
            vals = np.asarray(kept_values, dtype=float)
            if idx.size > m:
                top = np.argsort(vals)[-m:]
                idx, vals = idx[top], vals[top]
            published[idx] = vals
        synthetic = synthesize_from_counts(
            grid, published, mode=self.synthesis_mode, placement=self.placement, rng=self._rng
        )
        self.coef_ = fit_on_synthetic(synthetic, self.task, d)
        self.grid_ = grid
        self.published_cells_ = int(np.count_nonzero(published))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        coef = self._require_fitted()
        X = np.asarray(X, dtype=float)
        scores = X @ coef
        if self.task == "linear":
            return scores
        return (sigmoid(scores) > 0.5).astype(float)
