"""Online familywise-error-rate control for streaming hypothesis tests.

Stateful schedulers assign each incoming p-value a test level that
depends only on the past, guaranteeing FWER control over the whole
stream; power solvers pick the allocation hyperparameters; a Monte-Carlo
harness estimates error rates and power over simulated Gaussian streams.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name imports its
# module on first access (PEP 562), so ``import fwerstream`` loads no
# submodule, numpy or scipy until a name is used.
_HOMES = {
    **dict.fromkeys(("AuditReport", "audit_trace"), "audit"),
    **dict.fromkeys(("ProcedureConfig", "kfwer_wrap"), "config"),
    **dict.fromkeys(("AdaptiveSidak", "AdaptiveSpending", "AddisLocalSpending", "AddisSidak", "AddisSpending",
                     "AlphaSpending", "Decision", "DiscardFallback", "DiscardSidak", "DiscardSpending",
                     "ExplicitWeights", "FallbackWeights", "LagSchedule", "LaggedSeriesWeights", "OneStepWeights",
                     "OnlineFallback", "OnlineFallback1", "OnlineProcedure", "OnlineSidak"), "core"),
    **dict.fromkeys(("AuditError", "BudgetError", "ConfigError", "StreamError"), "errors"),
    **dict.fromkeys(("StreamResult", "make_runner", "run_stream"), "fast"),
    **dict.fromkeys(("GaussianMixModel", "cstar_threshold", "expected_true_discoveries", "mixture_cdf",
                     "optimal_gamma_varying", "optimal_q"), "power"),
    **dict.fromkeys(("ExplicitSeries", "LogQSeries", "QSeries", "WeightSeries", "series_from_config"), "series"),
    **dict.fromkeys(("MetricsReport", "SimConfig", "Stream", "clustered_pi", "estimate_metrics",
                     "estimate_metrics_many", "gen_stream"), "sim"),
    "PROCEDURES": "spec",
}
_MODULES = frozenset(_HOMES.values())

# every scheduler class resolves here; OnlineFallback1 stays out of the star-import set it was never in
__all__ = sorted(_HOMES.keys() - {"OnlineFallback1"})


def __getattr__(name: str):
    module = name if name in _MODULES else _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binds the submodule here; unlike importlib.import_module, it shows in ``python -X importtime``
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOMES) | _MODULES)
