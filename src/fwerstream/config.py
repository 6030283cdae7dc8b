"""Procedure configuration: a plain, serializable description of a scheduler.

A :class:`ProcedureConfig` mirrors the CLI flags / JSON config keys and
knows how to build the concrete scheduler.  Procedure names are the rows of
:data:`fwerstream.spec.SPECS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import BATCH_KIND, SCHEDULERS, lags_from_config
from .errors import ConfigError
from .series import config_object, series_from_config
from .spec import PROCEDURES


def _default_series() -> dict:
    return {"kind": "log-q", "q": 2.0}


@dataclass(frozen=True)
class ProcedureConfig:
    """Everything needed to instantiate one scheduler."""

    procedure: str
    alpha: float
    series: object = field(default_factory=_default_series)
    tau: object = None
    lam: object = None
    lags: object = None
    weights: object = None
    k: int = 1

    def __post_init__(self):
        if self.procedure not in PROCEDURES:  # a row name, spelled exactly as in the table
            raise ConfigError(f"unknown procedure {self.procedure!r}; known: {', '.join(PROCEDURES)}")

    def build(self, batch_ids=None):
        """Instantiate the scheduler; ``batch_ids`` give lags of the from-batch-ids kind (none yet, if not
        given).  The class refuses an option its row does not take (:attr:`~fwerstream.spec.ProcedureSpec.options`).
        """
        lags = lags_from_config(self.lags, batch_ids) if self.wants_batch_lags() else self.lags
        return SCHEDULERS[self.procedure](self.alpha, self.series, tau=self.tau, lam=self.lam, lags=lags,
                                          weights=self.weights, k=self.k)

    def wants_batch_lags(self) -> bool:
        """True when the lags come from the stream's batch ids."""
        return isinstance(self.lags, dict) and self.lags.get("kind") == BATCH_KIND

    def validate(self) -> list[str]:
        """Return a list of human-readable findings; empty means valid."""
        findings: list[str] = []
        try:
            series = series_from_config(self.series)
        except (ConfigError, ValueError) as exc:
            findings.append(f"series: {exc}")
            series = _default_series()  # reported once; check the other options against a valid series
        try:
            replace(self, series=series).build()
        except (ConfigError, ValueError) as exc:
            findings.append(str(exc))
        return findings

    def to_dict(self) -> dict:
        out = {"procedure": self.procedure, "alpha": self.alpha}
        series = self.series
        out["series"] = series.config() if hasattr(series, "config") else series
        if self.tau is not None:
            out["tau"] = self.tau
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.lags is not None:
            out["lags"] = self.lags.config() if hasattr(self.lags, "config") else self.lags
        if self.weights is not None:
            out["weights"] = self.weights.config() if hasattr(self.weights, "config") else self.weights
        if self.k != 1:
            out["k"] = self.k
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ProcedureConfig":
        config_object(d, "procedure config", ("procedure", "alpha", "series", "tau", "lambda", "lags", "weights", "k"))
        if "procedure" not in d:
            raise ConfigError("procedure config needs a 'procedure' key")
        if "alpha" not in d:
            raise ConfigError("procedure config needs an 'alpha' key")
        # the scheduler checks every value when it is built
        return cls(procedure=d["procedure"], alpha=d["alpha"], series=d.get("series", _default_series()),
                   tau=d.get("tau"), lam=d.get("lambda"), lags=d.get("lags"), weights=d.get("weights"),
                   k=d.get("k", 1))


def kfwer_wrap(config: ProcedureConfig, k: int) -> ProcedureConfig:
    """Return ``config`` with its level budget inflated to k * alpha.

    The wrapped procedure guarantees P(at least k false rejections) <= alpha
    by Markov's inequality on the PFER, so only spending-family procedures
    qualify.  k = 1 is the identity.
    """
    wrapped = replace(config, k=k)
    wrapped.build()  # the scheduler checks k, by the one rule of level_budget, and every other setting
    return wrapped
