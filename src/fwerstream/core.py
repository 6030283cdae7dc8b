"""Non-adaptive online FWER schedulers: alpha-spending, online Sidak, online fallback.

Each procedure is a stateful scheduler: feed p-values one at a time via
``step`` and receive one :class:`Decision` per hypothesis.  The level
assigned at step i depends only on the trace strictly before i, so the
decision stream is a valid online procedure by construction.

A scheduler is strictly sequential (step t must complete before t+1);
distinct scheduler instances are independent and can run in parallel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, StreamError
from .series import WeightSeries, series_from_config

_JUST_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome record for one hypothesis.

    ``alpha`` is the test level assigned before the p-value was seen;
    ``rejected`` is the inclusive comparison p <= alpha (levels of exactly
    zero never reject).  ``selected``/``candidate`` are the discarding and
    adaptivity indicators; non-adaptive procedures report selected=True,
    candidate=False.  ``tau``/``lam`` record the thresholds in force at
    this step so completed traces can be audited.
    """

    index: int
    p: float
    alpha: float
    rejected: bool
    selected: bool = True
    candidate: bool = False
    tau: float = 1.0
    lam: float = 0.0


def _check_p(p) -> float:
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise StreamError(f"p-value must be a real number, got {p!r}") from None
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise StreamError(f"p-value must lie in [0, 1], got {p}")
    return p


def sidak_level(budget: float, g: float) -> float:
    """1 - (1-budget)^g, stable for g as small as ~1e-300.

    Evaluated in the log domain so tiny exponents do not round the level
    to zero.  The endpoints g=0 and g=1 are returned exactly.
    """
    if g <= 0.0:
        return 0.0
    if g >= 1.0:
        return budget
    return -math.expm1(g * math.log1p(-budget))


class Schedule:
    """A per-step hyperparameter: constant, explicit sequence, or callable.

    Callables receive only the visible trace prefix (decisions the current
    step is allowed to depend on), which enforces predictability by
    construction rather than trust.
    """

    __slots__ = ("name", "_const", "_seq", "_fn", "_lo", "_hi", "_lo_open", "_hi_open")

    def __init__(self, spec, name, lo, hi, lo_open, hi_open):
        self.name = name
        self._lo, self._hi = lo, hi
        self._lo_open, self._hi_open = lo_open, hi_open
        self._const = self._seq = self._fn = None
        if callable(spec):
            self._fn = spec
        elif isinstance(spec, (int, float)):
            self._const = self._validate(float(spec))
        else:
            try:
                values = [float(v) for v in spec]
            except TypeError:
                raise ConfigError(
                    f"{name} must be a number, a sequence, or a callable, got {spec!r}"
                ) from None
            self._seq = [self._validate(v) for v in values]

    def _validate(self, v: float) -> float:
        lo_ok = v > self._lo if self._lo_open else v >= self._lo
        hi_ok = v < self._hi if self._hi_open else v <= self._hi
        if not (math.isfinite(v) and lo_ok and hi_ok):
            lo_b = "(" if self._lo_open else "["
            hi_b = ")" if self._hi_open else "]"
            raise ConfigError(f"{self.name} must lie in {lo_b}{self._lo}, {self._hi}{hi_b}, got {v}")
        return v

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    @property
    def constant(self) -> float:
        return self._const

    def needs_prefix(self) -> bool:
        return self._fn is not None

    def value(self, i: int, visible_prefix) -> float:
        if self._const is not None:
            return self._const
        if self._seq is not None:
            if i > len(self._seq):
                raise ConfigError(f"{self.name} schedule has {len(self._seq)} entries; step {i} requested")
            return self._seq[i - 1]
        return self._validate(float(self._fn(visible_prefix)))


class OnlineProcedure:
    """Base scheduler: level budget, weight series, append-only trace."""

    kind = "base"
    pfer_budgeted = False  # spending-family procedures may be k-FWER wrapped

    def __init__(self, alpha: float, series, *, k: int = 1):
        if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not (isinstance(k, int) and k >= 1):
            raise ConfigError(f"k must be a positive integer, got {k!r}")
        if k > 1 and not self.pfer_budgeted:
            raise ConfigError(
                f"{self.kind} does not control PFER; k-FWER wrapping is only valid "
                "for spending-family procedures"
            )
        self.alpha = float(alpha)
        self.k = int(k)
        self.budget = self.k * self.alpha
        self._saturating = self.budget >= 1.0
        if self._saturating:
            warnings.warn(
                f"k*alpha = {self.budget} >= 1: test levels may saturate and will be "
                "clamped below tau_i and 1",
                stacklevel=2,
            )
        self.series: WeightSeries = series_from_config(series)
        self.trace: list[Decision] = []

    @property
    def t(self) -> int:
        """Number of hypotheses processed so far."""
        return len(self.trace)

    def step(self, p) -> Decision:
        p = _check_p(p)
        decision = self._step(len(self.trace) + 1, p)
        self.trace.append(decision)
        return decision

    def run(self, pvalues) -> list[Decision]:
        return [self.step(p) for p in pvalues]

    def _step(self, i: int, p: float) -> Decision:
        raise NotImplementedError

    def _finalize(self, a: float, tau: float = 1.0) -> float:
        # levels must stay strictly below min(tau, 1); only a saturating
        # k-FWER budget is allowed to clamp instead of fail
        cap = tau if tau < 1.0 else 1.0
        if a < cap:
            return a
        if self._saturating:
            return math.nextafter(cap, 0.0)
        raise BudgetError(
            f"{self.kind}: level {a} >= min(tau={tau}, 1) at step {self.t + 1}; "
            "the schedule violates alpha_i < tau_i"
        )

    @staticmethod
    def _rejects(p: float, a: float) -> bool:
        return p <= a and a > 0.0


class AlphaSpending(OnlineProcedure):
    """Online Bonferroni: test H_i at level alpha * gamma_i."""

    kind = "alpha-spending"
    pfer_budgeted = True

    def _step(self, i: int, p: float) -> Decision:
        a = self._finalize(self.budget * self.series.weight(i))
        return Decision(i, p, a, self._rejects(p, a))


class OnlineSidak(OnlineProcedure):
    """Test H_i at level 1 - (1-alpha)^gamma_i (requires independent nulls)."""

    kind = "online-sidak"

    def _step(self, i: int, p: float) -> Decision:
        a = self._finalize(sidak_level(self.budget, self.series.weight(i)))
        return Decision(i, p, a, self._rejects(p, a))


class FallbackWeights:
    """Transfer weights w[k, i]: how much of a rejected level at step k is
    recycled to step i > k.  Rows are nonnegative with sum at most one."""

    kind = "base"

    def weight(self, k: int, i: int) -> float:
        raise NotImplementedError

    def row(self, k: int, horizon: int) -> np.ndarray:
        """w[k, k+1 .. horizon] as an array (used by every recycling path)."""
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


class OneStepWeights(FallbackWeights):
    """w[k, i] = 1 if i == k+1 else 0: recycle everything to the next test."""

    kind = "one-step"

    def weight(self, k: int, i: int) -> float:
        return 1.0 if i == k + 1 else 0.0

    def row(self, k: int, horizon: int) -> np.ndarray:
        out = np.zeros(max(horizon - k, 0), dtype=np.float64)
        if out.size:
            out[0] = 1.0
        return out

    def config(self) -> dict:
        return {"kind": "one-step"}


class LaggedSeriesWeights(FallbackWeights):
    """w[k, i] = gamma_{i-k} for a weight series gamma (row sums <= 1)."""

    kind = "lagged-gamma"

    def __init__(self, series):
        self.series = series_from_config(series)

    def weight(self, k: int, i: int) -> float:
        return self.series.weight(i - k)

    def row(self, k: int, horizon: int) -> np.ndarray:
        return self.series.weights_upto(max(horizon - k, 0))

    def config(self) -> dict:
        return {"kind": "lagged-gamma"}


class ExplicitWeights(FallbackWeights):
    """Upper-triangular generator given as finite rows.

    ``rows[k-1]`` lists w[k, k+1], w[k, k+2], ...; missing rows or entries
    are zero (no transfer), which keeps every row sum at most one.
    """

    kind = "explicit"

    def __init__(self, rows):
        self._rows = []
        for k, row in enumerate(rows, start=1):
            arr = np.asarray(list(row), dtype=np.float64)
            if arr.ndim != 1:
                raise ConfigError("each fallback weight row must be a flat list")
            if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
                raise ConfigError(f"fallback weight row {k} has negative or non-finite entries")
            total = math.fsum(arr.tolist())
            if total > 1.0 + 1e-12:
                raise ConfigError(f"fallback weight row {k} sums to {total} > 1")
            arr.flags.writeable = False
            self._rows.append(arr)

    def weight(self, k: int, i: int) -> float:
        if 1 <= k <= len(self._rows):
            row = self._rows[k - 1]
            j = i - k - 1
            if 0 <= j < row.size:
                return float(row[j])
        return 0.0

    def row(self, k: int, horizon: int) -> np.ndarray:
        out = np.zeros(max(horizon - k, 0), dtype=np.float64)
        if 1 <= k <= len(self._rows):
            row = self._rows[k - 1]
            n = min(row.size, out.size)
            out[:n] = row[:n]
        return out

    def config(self) -> dict:
        return {"kind": "explicit", "rows": [[float(x) for x in r] for r in self._rows]}


def weights_from_config(cfg, series) -> FallbackWeights:
    """Build transfer weights; ``series`` backs the lagged-gamma kind."""
    if isinstance(cfg, FallbackWeights):
        return cfg
    if cfg is None:
        return LaggedSeriesWeights(series)
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"fallback weights config must be a dict with a 'kind', got {cfg!r}")
    kind = str(cfg["kind"]).lower()
    if kind == "one-step":
        return OneStepWeights()
    if kind in ("lagged-gamma", "lagged"):
        return LaggedSeriesWeights(series)
    if kind == "explicit":
        if "rows" not in cfg:
            raise ConfigError("explicit fallback weights config needs 'rows'")
        return ExplicitWeights(cfg["rows"])
    raise ConfigError(f"unknown fallback weights kind {cfg['kind']!r}")


class RecycleBuffer:
    """Recycled level addressed to each later index of one scheduler.

    ``reject(k, a)`` records a rejection at index k with realized level a;
    ``mass(i)`` returns the sum of w[k, i] * a_k over the rejections k < i.
    One-step weights keep only the latest rejection as a carry.  Other
    weights keep a float64 array of the mass addressed to every index below
    its capacity: a rejection adds its whole weight row in one numpy
    operation, and doubling the capacity fills the new half from the kept
    rejections in ascending k before any later rejection adds to it.  Each
    cell therefore sums its terms in ascending k, the order of the
    vectorized runners in :mod:`fwerstream.fast`, so both paths stay
    bit-identical.
    """

    FIRST_CAPACITY = 1024

    def __init__(self, weights: FallbackWeights):
        self._weights = weights
        self._one_step = isinstance(weights, OneStepWeights)
        self._last = 0  # one-step: index of the latest rejection ...
        self._carry = 0.0  # ... and its level
        self._kept: list[tuple[int, float]] = []  # (k, a) of every rejection
        self._buf = np.zeros(0 if self._one_step else self.FIRST_CAPACITY)

    def mass(self, i: int) -> float:
        if self._one_step:
            return self._carry if i == self._last + 1 else 0.0
        if i >= self._buf.size:
            self._grow(i)
        return float(self._buf[i])

    def reject(self, k: int, a: float) -> None:
        if self._one_step:
            self._last, self._carry = k, a
            return
        if k >= self._buf.size:
            self._grow(k)
        self._kept.append((k, a))
        self._buf[k + 1 :] += a * self._weights.row(k, self._buf.size - 1)

    def _grow(self, i: int) -> None:
        old = self._buf.size
        cap = old
        while cap <= i:
            cap *= 2
        buf = np.zeros(cap)
        buf[:old] = self._buf
        for k, a in self._kept:
            buf[old:] += a * self._weights.row(k, cap - 1)[old - k - 1 :]
        self._buf = buf


class OnlineFallback(OnlineProcedure):
    """Alpha-spending plus recycling: a rejected level alpha_k is transferred
    to later tests through the weights w[k, i].

    The recycled mass is the full realized level alpha_k, including any
    mass it had itself received, so recycling chains indefinitely.

    Cost: O(1) time per step and O(1) memory with one-step weights; other
    weights add one vectorized pass over the :class:`RecycleBuffer` per
    rejection and hold O(stream length) float64.
    """

    kind = "online-fallback"

    def __init__(self, alpha, series, weights=None, *, k=1):
        super().__init__(alpha, series, k=k)
        self.weights = weights_from_config(weights, self.series)
        self._recycled = RecycleBuffer(self.weights)

    def _step(self, i: int, p: float) -> Decision:
        a = self._finalize(self.budget * self.series.weight(i) + self._recycled.mass(i))
        rejected = self._rejects(p, a)
        if rejected:
            self._recycled.reject(i, a)
        return Decision(i, p, a, rejected)
