"""Procedure configuration: a plain, serializable description of a scheduler.

A :class:`ProcedureConfig` mirrors the CLI flags / JSON config keys and
knows how to build the concrete scheduler.  Canonical procedure names are
the rows of :data:`fwerstream.spec.SPECS`, with the short aliases below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .addis import BATCH_KINDS, AdaptiveSpending, AddisLocalSpending, AddisSpending, DiscardSpending, lags_from_config
from .core import AlphaSpending, OnlineFallback, OnlineFallback1, OnlineSidak
from .errors import ConfigError
from .series import series_from_config
from .spec import PROCEDURES, SPECS
from .variants import AdaptiveSidak, AddisSidak, DiscardFallback, DiscardSidak

_SCHEDULERS = {cls.kind: cls for cls in (
    AlphaSpending, OnlineSidak, OnlineFallback, OnlineFallback1, DiscardSpending, AdaptiveSpending, AddisSpending,
    AddisLocalSpending, DiscardSidak, AdaptiveSidak, AddisSidak, DiscardFallback)}

_ALIASES = {
    "discard": "discard-spending",
    "adaptive": "adaptive-spending",
    "addis": "addis-spending",
    "addis-local": "addis-spending-local",
    "fallback": "online-fallback",
    "fallback-1": "online-fallback-1",
    "sidak": "online-sidak",
    "spending": "alpha-spending",
}


def canonical_name(name: str) -> str:
    n = str(name).strip().lower()
    n = _ALIASES.get(n, n)
    if n not in PROCEDURES:
        raise ConfigError(f"unknown procedure {name!r}; known: {', '.join(PROCEDURES)}")
    return n


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
        object.__setattr__(self, "procedure", canonical_name(self.procedure))

    def build(self, batch_ids=None):
        """Instantiate the scheduler; ``batch_ids`` resolves stream-derived lags.

        Options the procedure's row does not use are ignored.
        """
        spec = SPECS[self.procedure]
        options = {"k": self.k}
        if spec.discards:
            options["tau"] = self.tau
        if spec.adapts:
            options["lam"] = self.lam
        if spec.lagged:
            options["lags"] = lags_from_config(self.lags, batch_ids)
        if spec.family == "fallback":
            options["weights"] = self.weights
        return _SCHEDULERS[self.procedure](self.alpha, series_from_config(self.series), **options)

    def wants_batch_lags(self) -> bool:
        """True when the lags come from the stream's batch ids, not the config's."""
        cfg = self.lags
        return isinstance(cfg, dict) and str(cfg.get("kind", "")).lower() in BATCH_KINDS and "batch_ids" not in cfg

    def validate(self) -> list[str]:
        """Return a list of human-readable findings; empty means valid."""
        findings: list[str] = []
        try:
            series = series_from_config(self.series)
            z_lo, z_hi = series.normalizer_bracket()
            if z_hi - z_lo > 2e-12 * max(z_lo, 1e-300):
                findings.append(f"series normalizer bracket too wide: [{z_lo}, {z_hi}]")
        except (ConfigError, ValueError) as exc:
            findings.append(f"series: {exc}")
            series = _default_series()  # reported once; check the other options against a valid series
        try:
            replace(self, series=series).build(batch_ids=[])
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
        if not isinstance(d, dict):
            raise ConfigError(f"procedure config must be a dict, got {d!r}")
        if "procedure" not in d:
            raise ConfigError("procedure config needs a 'procedure' key")
        if "alpha" not in d:
            raise ConfigError("procedure config needs an 'alpha' key")
        known = {"procedure", "alpha", "series", "tau", "lambda", "lam", "lags", "weights", "fallback_weights", "k"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown procedure config keys: {sorted(unknown)}")
        alpha = d["alpha"]
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise ConfigError(f"alpha must be a number, got {alpha!r}")
        k = d.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ConfigError(f"k must be an integer, got {k!r}")
        return cls(
            procedure=d["procedure"],
            alpha=float(alpha),
            series=d.get("series", _default_series()),
            tau=d.get("tau"),
            lam=d.get("lambda", d.get("lam")),
            lags=d.get("lags"),
            weights=d.get("weights", d.get("fallback_weights")),
            k=k,
        )
