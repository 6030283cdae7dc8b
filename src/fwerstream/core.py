"""The online FWER scheduler, its per-step schedules and its recycling weights.

:class:`OnlineProcedure` steps every row of :data:`fwerstream.spec.SPECS`;
the public classes (alpha-spending, online Sidak and online fallback here,
the others in :mod:`fwerstream.addis` and :mod:`fwerstream.variants`) only
name their row.  Feed p-values one at a time via ``step`` and receive one
:class:`Decision` per hypothesis.  The level assigned at step i depends only on the trace strictly before i, so the
decision stream is a valid online procedure by construction.

A scheduler is strictly sequential (step t must complete before t+1);
distinct scheduler instances are independent and can run in parallel.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, StreamError
from .series import WeightSeries, series_from_config, weight_vector
from .spec import DEFAULT_TAU, SPECS, level_budget, level_map


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


class TracePrefix(Sequence):
    """Read-only view of the first ``n`` decisions of an append-only trace.

    Indices, negative ones and slices included, stay inside the view, so a
    kept view reads the same decisions however far the trace grows.
    """

    __slots__ = ("_trace", "_n")

    def __init__(self, trace: list, n: int):
        self._trace, self._n = trace, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self._trace[m] for m in range(self._n)[j])
        return self._trace[range(self._n)[j]]


class Schedule:
    """A per-step hyperparameter: constant, explicit sequence, or callable.

    Callables receive only the visible trace prefix (decisions the current
    step is allowed to depend on) as a :class:`TracePrefix`, which enforces
    predictability by construction rather than trust.
    """

    __slots__ = ("name", "_const", "_seq", "_fn", "_lo", "_hi", "_lo_open", "_hi_open")

    def __init__(self, spec, name, lo, hi, lo_open, hi_open):
        self.name = name
        self._lo, self._hi = lo, hi
        self._lo_open, self._hi_open = lo_open, hi_open
        self._const = self._seq = self._fn = None
        if callable(spec):
            self._fn = spec
        elif isinstance(spec, (int, float)) and not isinstance(spec, bool):
            self._const = self._validate(float(spec))
        else:
            try:
                values = list(spec)
                if isinstance(spec, str) or any(isinstance(v, bool) for v in values):
                    raise TypeError
                values = [float(v) for v in values]
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{name} must be a number, a sequence of numbers, or a callable, got {spec!r}"
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


class StreamState:
    """The running state of one scheduler over one stream.

    The scalar step (:meth:`OnlineProcedure.step`), the runners of
    :func:`fwerstream.fast.make_runner` and the chunked audit
    (:func:`fwerstream.audit.audit_trace`) all advance this one object, so a
    stream can be decided a step or a chunk at a time, by either path, from
    where the last one stopped.  It holds the number of steps taken, the
    number of them counted (selected and not candidates), for lagged rows the
    counted prefix over the lag window, the :class:`RecycleBuffer` of fallback
    rows and the audit's running prefix sum.
    """

    __slots__ = ("i", "counted", "window", "window_start", "recycled", "audit_sum")

    def __init__(self, lagged: bool, recycled=None):
        self.i = 0  # steps taken: the next step has index i + 1
        self.counted = 0
        # lagged rows: window[j] = counted steps among the first window_start + j
        self.window = [0] if lagged else None
        self.window_start = 0
        self.recycled = recycled
        self.audit_sum = 0.0

    def counted_before(self, visible: int) -> int:
        """Counted steps among the first ``visible``, for a lagged row.

        Lag schedules are admissible (L_{i+1} <= L_i + 1), so no later step
        sees fewer steps; the prefix before ``visible`` is dropped once it is
        half the window, which keeps the window within twice the lag.
        """
        j = visible - self.window_start
        if j and 2 * j >= len(self.window):
            del self.window[:j]
            self.window_start, j = visible, 0
        return self.window[j]

    def advance(self, count: bool) -> None:
        """Record one more step, counted or not."""
        self.i += 1
        self.counted += count
        if self.window is not None:
            self.window.append(self.counted)


class OnlineProcedure:
    """Scheduler for the row of :data:`fwerstream.spec.SPECS` named by ``kind``.

    Holds the level budget, the weight series, the tau/lambda schedules, the
    running :class:`StreamState` (index counter, lag window, recycling buffer)
    and the append-only trace.  Subclasses only fix ``kind`` and a public
    constructor signature.
    """

    kind = "base"

    def __init__(self, alpha: float, series, tau=None, lam=None, *, lags=None, weights=None, k: int = 1):
        self.spec = spec = SPECS[self.kind]
        if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
        self.alpha = float(alpha)
        self.budget = level_budget(self.kind, self.alpha, k)
        self.k = k
        self.series: WeightSeries = series_from_config(series)
        self.trace: list[Decision] = []

        tau = (DEFAULT_TAU if tau is None else tau) if spec.discards else 1.0
        lam = (spec.lam if lam is None else lam) if spec.adapts else 0.0
        self._tau = Schedule(tau, "tau", 0.0, 1.0, lo_open=True, hi_open=False)
        self._lam = Schedule(lam, "lambda", 0.0, 1.0, lo_open=False, hi_open=True)
        self._needs_prefix = self._tau.needs_prefix() or self._lam.needs_prefix()
        self.thresholds = None  # (tau, lambda) when both are constant
        if self._tau.is_constant and self._lam.is_constant:
            self.thresholds = self._check(self._tau.constant, self._lam.constant)
        elif self._tau.is_constant:
            self._check(self._tau.constant)

        self.lags = lags if spec.lagged else None
        self.weights = recycled = None
        if spec.family == "fallback":
            if spec.one_step:
                if weights is not None:
                    raise ConfigError(f"{self.kind} fixes one-step weights; do not pass 'weights'")
                weights = OneStepWeights()
            self.weights = weights_from_config(weights, self.series)
            recycled = RecycleBuffer(self.weights)  # indexed by t
        self.state = StreamState(self.lags is not None, recycled)
        self._adapts = spec.adapts

    def _check(self, tau: float, lam: float = 0.0) -> tuple[float, float]:
        if lam >= tau:
            raise ConfigError(f"lambda must be < tau, got lambda={lam} >= tau={tau}")
        if self.spec.family != "spending" and tau < self.alpha:
            raise ConfigError(f"{self.kind} requires tau >= alpha, got tau={tau} < alpha={self.alpha}")
        return tau, lam

    def _thresholds(self, i: int, visible: int) -> tuple[float, float]:
        prefix = TracePrefix(self.trace, visible) if self._needs_prefix else None
        return self._check(self._tau.value(i, prefix), self._lam.value(i, prefix))

    @property
    def t(self) -> int:
        """Number of hypotheses processed so far."""
        return self.state.i

    def step(self, p) -> Decision:
        p = _check_p(p)
        decision = self._step(self.state.i + 1, p)
        self.trace.append(decision)
        return decision

    def run(self, pvalues) -> list[Decision]:
        return [self.step(p) for p in pvalues]

    def _step(self, i: int, p: float) -> Decision:
        lags, state = self.lags, self.state
        if lags is None:
            visible = i - 1
            t = 1 + state.counted
        else:
            lag = lags.lag(i)
            visible = max(0, i - 1 - lag)
            t = 1 + min(lag, i - 1) + state.counted_before(visible)
        tau, lam = self.thresholds or self._thresholds(i, visible)
        a = level_map(self.spec.family, self.budget, tau, lam, self.series.weight(t))
        if state.recycled is not None:
            a = tau * (a + state.recycled.mass(t))
        if a >= tau or a >= 1.0:
            a = self._finalize(a, tau)
        selected = p <= tau
        candidate = self._adapts and p <= lam
        rejected = p <= a and a > 0.0
        if rejected and state.recycled is not None:
            state.recycled.reject(t, a)
        state.advance(selected and not candidate)
        return Decision(i, p, a, rejected, selected, candidate, tau, lam)

    def _finalize(self, a: float, tau: float = 1.0) -> float:
        # levels must stay strictly below min(tau, 1); level_map clamps a
        # saturating k-FWER budget, so only a faulty schedule gets here
        if a < (tau if tau < 1.0 else 1.0):
            return a
        raise BudgetError(
            f"{self.kind}: level {a} >= min(tau={tau}, 1) at step {self.t + 1}; "
            "the schedule violates alpha_i < tau_i"
        )


class AlphaSpending(OnlineProcedure):
    """Online Bonferroni: test H_i at level alpha * gamma_i."""

    kind = "alpha-spending"

    def __init__(self, alpha, series, *, k=1):
        super().__init__(alpha, series, k=k)


class OnlineSidak(OnlineProcedure):
    """Test H_i at level 1 - (1-alpha)^gamma_i (requires independent nulls)."""

    kind = "online-sidak"

    def __init__(self, alpha, series, *, k=1):
        super().__init__(alpha, series, k=k)


class FallbackWeights:
    """Transfer weights w[k, i]: how much of a rejected level at step k is
    recycled to step i > k.  Rows are nonnegative with sum at most one."""

    kind = "base"

    def weight(self, k: int, i: int) -> float:
        raise NotImplementedError

    def span(self, k: int, horizon: int) -> np.ndarray:
        """w[k, k+1 ..] up to the last possibly nonzero entry, capped at the
        horizon: the slice every recycling path adds a rejected level to."""
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


class OneStepWeights(FallbackWeights):
    """w[k, i] = 1 if i == k+1 else 0: recycle everything to the next test."""

    kind = "one-step"
    _ONE = np.ones(1)

    def weight(self, k: int, i: int) -> float:
        return 1.0 if i == k + 1 else 0.0

    def span(self, k: int, horizon: int) -> np.ndarray:
        return self._ONE[: max(horizon - k, 0)]

    def config(self) -> dict:
        return {"kind": "one-step"}


class LaggedSeriesWeights(FallbackWeights):
    """w[k, i] = gamma_{i-k} for a weight series gamma (row sums <= 1)."""

    kind = "lagged-gamma"

    def __init__(self, series):
        self.series = series_from_config(series)

    def weight(self, k: int, i: int) -> float:
        return self.series.weight(i - k)

    def span(self, k: int, horizon: int) -> np.ndarray:
        return self.series.weights_upto(max(horizon - k, 0))

    def config(self) -> dict:
        return {"kind": "lagged-gamma"}


class ExplicitWeights(FallbackWeights):
    """Upper-triangular generator given as finite rows.

    ``rows[k-1]`` lists w[k, k+1], w[k, k+2], ...; missing rows or entries
    are zero (no transfer), which keeps every row sum at most one.
    """

    kind = "explicit"
    _EMPTY = np.empty(0)

    def __init__(self, rows):
        self._rows = [weight_vector(row, f"fallback weight row {k}")[0] for k, row in enumerate(rows, start=1)]

    def weight(self, k: int, i: int) -> float:
        if 1 <= k <= len(self._rows):
            row = self._rows[k - 1]
            j = i - k - 1
            if 0 <= j < row.size:
                return float(row[j])
        return 0.0

    def span(self, k: int, horizon: int) -> np.ndarray:
        if 1 <= k <= len(self._rows):
            return self._rows[k - 1][: max(horizon - k, 0)]
        return self._EMPTY

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
        if not isinstance(cfg.get("rows"), list):
            raise ConfigError("explicit fallback weights config needs a list of 'rows'")
        return ExplicitWeights(cfg["rows"])
    raise ConfigError(f"unknown fallback weights kind {cfg['kind']!r}")


class RecycleBuffer:
    """Recycled level addressed to each later index of one scheduler.

    ``reject(k, a)`` records a rejection at index k with realized level a;
    ``mass(i)`` returns the sum of w[k, i] * a_k over the rejections k < i.
    One-step weights keep only the latest rejection as a carry.  Other
    weights keep a float64 array of the mass addressed to every index below
    its capacity: a rejection adds its weight span in one numpy operation,
    and doubling the capacity fills the new half from the rejections whose
    span reached the old capacity, in ascending k, before any later
    rejection adds to it.  Each cell therefore sums its terms in ascending
    k, the order of the vectorized runners in :mod:`fwerstream.fast`, so
    both paths stay bit-identical.
    """

    FIRST_CAPACITY = 1024

    def __init__(self, weights: FallbackWeights):
        self._weights = weights
        self._one_step = isinstance(weights, OneStepWeights)
        self._last = 0  # one-step: index of the latest rejection ...
        self._carry = 0.0  # ... and its level
        self._kept: list[tuple[int, float]] = []  # (k, a) of rejections reaching the capacity
        self._buf = np.zeros(0 if self._one_step else self.FIRST_CAPACITY)

    def mass(self, i: int) -> float:
        if self._one_step:
            return self._carry if i == self._last + 1 else 0.0
        if i >= self._buf.size:
            self._grow(i)
        return float(self._buf[i])

    def masses(self, lo: int, hi: int) -> np.ndarray:
        """``mass(i)`` for lo <= i < hi, as a new array."""
        if self._one_step:
            out = np.zeros(hi - lo)
            if lo <= self._last + 1 < hi:
                out[self._last + 1 - lo] = self._carry
            return out
        if hi > self._buf.size:
            self._grow(hi - 1)
        return self._buf[lo:hi].copy()

    def reject(self, k: int, a: float) -> None:
        if self._one_step:
            self._last, self._carry = k, a
            return
        if k >= self._buf.size:
            self._grow(k)
        span = self._weights.span(k, self._buf.size - 1)
        self._buf[k + 1 : k + 1 + span.size] += a * span
        if k + 1 + span.size == self._buf.size:  # the row may reach past the capacity
            self._kept.append((k, a))

    def _grow(self, i: int) -> None:
        old = self._buf.size
        cap = old
        while cap <= i:
            cap *= 2
        buf = np.zeros(cap)
        buf[:old] = self._buf
        kept = []
        for k, a in self._kept:
            span = self._weights.span(k, cap - 1)[old - k - 1 :]
            buf[old : old + span.size] += a * span
            if old + span.size == cap:
                kept.append((k, a))
        self._buf, self._kept = buf, kept


class OnlineFallback(OnlineProcedure):
    """Alpha-spending plus recycling: a rejected level alpha_k is transferred
    to later tests through the weights w[k, i].

    The recycled mass is the full realized level alpha_k, including any
    mass it had itself received, so recycling chains indefinitely.

    Cost: O(1) time per step and O(1) memory with one-step weights; other
    weights add one vectorized pass over the weight span of each rejection
    in the :class:`RecycleBuffer`, which holds O(stream length) float64.
    """

    kind = "online-fallback"

    def __init__(self, alpha, series, weights=None, *, k=1):
        super().__init__(alpha, series, weights=weights, k=k)


class OnlineFallback1(OnlineFallback):
    """online-fallback with its weights fixed to one-step recycling."""

    kind = "online-fallback-1"

