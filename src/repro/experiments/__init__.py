"""Section-7 experiment harness: Table-2 config, CV protocol, figure machinery.

Run the protocol through :class:`repro.session.Session`.
"""

from .config import (
    DEFAULT,
    DEFAULT_DIMENSIONALITY,
    DEFAULT_EPSILON,
    DEFAULT_SAMPLING_RATE,
    DIMENSIONALITIES,
    FULL,
    LINEAR_ALGORITHMS,
    LOGISTIC_ALGORITHMS,
    PRIVACY_BUDGETS,
    SAMPLING_RATES,
    SMOKE,
    ScalePreset,
)
from .figures import (
    ObjectiveCurve,
    SweepResult,
    figure2_objective_example,
    figure3_approximation_example,
)
from .harness import EvaluationResult
from .reporting import (
    format_objective_curve,
    format_sweep_table,
    format_time_table,
    summarize_ordering,
)
from .timing import FitTiming, fm_speedup_over, time_fit

__all__ = [
    "DEFAULT",
    "DEFAULT_DIMENSIONALITY",
    "DEFAULT_EPSILON",
    "DEFAULT_SAMPLING_RATE",
    "DIMENSIONALITIES",
    "FULL",
    "LINEAR_ALGORITHMS",
    "LOGISTIC_ALGORITHMS",
    "PRIVACY_BUDGETS",
    "SAMPLING_RATES",
    "SMOKE",
    "ScalePreset",
    "ObjectiveCurve",
    "SweepResult",
    "figure2_objective_example",
    "figure3_approximation_example",
    "EvaluationResult",
    "format_objective_curve",
    "format_sweep_table",
    "format_time_table",
    "summarize_ordering",
    "FitTiming",
    "fm_speedup_over",
    "time_fit",
]
