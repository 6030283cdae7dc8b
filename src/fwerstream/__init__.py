"""Online familywise-error-rate control for streaming hypothesis tests.

Stateful schedulers assign each incoming p-value a test level that
depends only on the past, guaranteeing FWER control over the whole
stream; power solvers pick the allocation hyperparameters; a Monte-Carlo
harness estimates error rates and power over simulated Gaussian streams.
"""

import importlib

from .addis import (
    AdaptiveSpending,
    AddisLocalSpending,
    AddisSpending,
    DiscardSpending,
    LagSchedule,
    kfwer_wrap,
)
from .audit import AuditReport, audit_trace
from .config import PROCEDURES, ProcedureConfig
from .core import (
    AlphaSpending,
    Decision,
    ExplicitWeights,
    FallbackWeights,
    LaggedSeriesWeights,
    OneStepWeights,
    OnlineFallback,
    OnlineProcedure,
    OnlineSidak,
)
from .errors import AuditError, BudgetError, ConfigError, StreamError
from .fast import StreamResult, make_runner, run_stream
from .series import ExplicitSeries, LogQSeries, QSeries, WeightSeries, series_from_config
from .variants import AdaptiveSidak, AddisSidak, DiscardFallback, DiscardSidak

# The power solvers and the simulator load scipy, most of a command's
# start-up; their names are imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(("GaussianMixModel", "cstar_threshold", "expected_true_discoveries", "mixture_cdf",
                     "optimal_gamma_varying", "optimal_q"), "power"),
    **dict.fromkeys(("MetricsReport", "SimConfig", "Stream", "clustered_pi", "estimate_metrics",
                     "estimate_metrics_many", "gen_stream"), "sim"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AdaptiveSidak",
    "AdaptiveSpending",
    "AddisLocalSpending",
    "AddisSidak",
    "AddisSpending",
    "AlphaSpending",
    "AuditError",
    "AuditReport",
    "BudgetError",
    "ConfigError",
    "Decision",
    "DiscardFallback",
    "DiscardSidak",
    "DiscardSpending",
    "ExplicitSeries",
    "ExplicitWeights",
    "FallbackWeights",
    "GaussianMixModel",
    "LagSchedule",
    "LaggedSeriesWeights",
    "LogQSeries",
    "MetricsReport",
    "OneStepWeights",
    "OnlineFallback",
    "OnlineProcedure",
    "OnlineSidak",
    "PROCEDURES",
    "ProcedureConfig",
    "QSeries",
    "SimConfig",
    "Stream",
    "StreamError",
    "StreamResult",
    "WeightSeries",
    "audit_trace",
    "clustered_pi",
    "cstar_threshold",
    "estimate_metrics",
    "estimate_metrics_many",
    "expected_true_discoveries",
    "gen_stream",
    "kfwer_wrap",
    "make_runner",
    "mixture_cdf",
    "optimal_gamma_varying",
    "optimal_q",
    "run_stream",
    "series_from_config",
]
