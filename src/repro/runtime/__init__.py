"""Batched cell-solver runtime for the repeated-CV evaluation protocol.

The paper's Section-7 protocol measures every algorithm over hundreds of
(repetition, fold, epsilon) cells.  This subsystem turns that per-cell loop
into a three-stage pipeline:

1. :mod:`~repro.runtime.plan` enumerates every cell with its deterministic
   RNG substream — eagerly (a :class:`CellPlan`) or lazily in bounded
   repetition tiles (a :class:`TiledPlan`), with a shared
   :class:`PreparedDataCache` reusing prepared arrays across algorithms,
   repetitions and budgets, and each repetition's per-fold accumulators
   (:func:`fold_statistics`) across its folds,
2. :mod:`~repro.runtime.kernels` executes all batchable cells as stacked
   ``(B, d, d)`` LAPACK solves and a masked batched Newton — bitwise
   identical to the scalar per-cell solves on the default numpy backend,
   with the stacked linear algebra dispatching through a pluggable
   :mod:`~repro.runtime.backend` shim (numpy default; torch optional,
   certified numerically conforming by ``repro.verify --tier numeric``),
3. :mod:`~repro.runtime.executor` spreads the residual non-batchable
   baselines — and, for tiled plans, whole batched tiles — over serial /
   thread / forked-process executors.

:func:`run_plan` ties the stages together (and provides the per-cell
reference oracle the equivalence tests assert against);
:func:`run_plan_group` executes several algorithms' plans with merged
cross-algorithm stacked solves.
"""

from .backend import (
    BACKEND_NAMES,
    ArrayBackend,
    NumpyBackend,
    TorchBackend,
    active_backend,
    available_backends,
    backend_available,
    canonical_array,
    get_backend,
    use_backend,
)
from .executor import (
    CellExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)
from .kernels import (
    NewtonBatchResult,
    SpectralBatchResult,
    SpectralTrimState,
    fm_noise_stack,
    newton_logistic_stack,
    normal_equations_solve_stack,
    posdef_or_pinv_solve_stack,
    posdef_split_stack,
    spectral_solve_stack,
    spectral_trim_stack,
)
from .plan import (
    KERNEL_GENERIC,
    KERNEL_NEWTON,
    KERNEL_QUADRATIC,
    CellPlan,
    PlannedFold,
    PreparedDataCache,
    TiledPlan,
    algorithm_stream_key,
    classify_kernel,
    plan_cells,
    plan_cells_tiled,
)
from .runner import PlanResult, fold_statistics, run_plan, run_plan_group

__all__ = [
    "BACKEND_NAMES",
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "active_backend",
    "available_backends",
    "backend_available",
    "canonical_array",
    "get_backend",
    "use_backend",
    "CellExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "NewtonBatchResult",
    "SpectralBatchResult",
    "SpectralTrimState",
    "fm_noise_stack",
    "newton_logistic_stack",
    "normal_equations_solve_stack",
    "posdef_or_pinv_solve_stack",
    "posdef_split_stack",
    "spectral_solve_stack",
    "spectral_trim_stack",
    "KERNEL_GENERIC",
    "KERNEL_NEWTON",
    "KERNEL_QUADRATIC",
    "CellPlan",
    "PlannedFold",
    "PreparedDataCache",
    "TiledPlan",
    "algorithm_stream_key",
    "classify_kernel",
    "plan_cells",
    "plan_cells_tiled",
    "fold_statistics",
    "PlanResult",
    "run_plan",
    "run_plan_group",
]
