"""Procedure configuration: a plain, serializable description of a scheduler.

A :class:`ProcedureConfig` mirrors the CLI flags / JSON config keys and
knows how to build the concrete scheduler.  Procedure names are the rows of
:data:`fwerstream.spec.SPECS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .core import BATCH_KIND, SCHEDULERS, LagSchedule, lags_from_config
from .errors import ConfigError
from .series import config_object, series_from_config
from .spec import PROCEDURES


def _default_series() -> dict:
    return {"kind": "log-q", "q": 2.0}


# each key of a procedure config, in the order to_dict writes them, and the field that holds it
_KEYS = {"procedure": "procedure", "alpha": "alpha", "series": "series", "tau": "tau", "lambda": "lam",
         "lags": "lags", "weights": "weights", "k": "k"}


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
        """True when the lags come from the stream's batch ids: the from-batch-ids kind, or the fed schedule."""
        lags = self.lags.config() if isinstance(self.lags, LagSchedule) and self.lags.seq == [] else self.lags
        return isinstance(lags, dict) and lags.get("kind") == BATCH_KIND

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
        """The config as :meth:`from_dict` reads it: an option at its default, None or k = 1, is left out."""
        defaults = {f.name: f.default for f in fields(self)}
        out = {}
        for key, name in _KEYS.items():
            value = getattr(self, name)
            if not (value is None and defaults[name] is None or name == "k" and value == 1):
                out[key] = value.config() if hasattr(value, "config") else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ProcedureConfig":
        config_object(d, "procedure config", tuple(_KEYS))
        if missing := [key for key in ("procedure", "alpha") if key not in d]:
            raise ConfigError(f"procedure config needs {', '.join(map(repr, missing))}")
        # a missing key takes its field's default; the scheduler checks every value when it is built
        return cls(**{_KEYS[key]: value for key, value in d.items()})


def kfwer_wrap(config: ProcedureConfig, k: int) -> ProcedureConfig:
    """Return ``config`` with its level budget inflated to k * alpha.

    The wrapped procedure guarantees P(at least k false rejections) <= alpha
    by Markov's inequality on the PFER, so only spending-family procedures
    qualify.  k = 1 is the identity.
    """
    wrapped = replace(config, k=k)
    wrapped.build()  # the scheduler checks k, by the one rule of level_budget, and every other setting
    return wrapped
