"""The online FWER scheduler, its per-step schedules and its recycling weights.

:class:`OnlineProcedure` steps every row of :data:`fwerstream.spec.SPECS`;
:data:`SCHEDULERS` builds one public class per row, which only names it.
Feed p-values one at a time via ``step`` and receive one
:class:`Decision` per hypothesis.  The level assigned at step i depends only on the trace strictly before i, so the
decision stream is a valid online procedure by construction.

A scheduler is strictly sequential (step t must complete before t+1);
distinct scheduler instances are independent and can run in parallel.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, StreamError
from .series import WeightSeries, from_kind, real, series_from_config, weight_vector
from .spec import DEFAULT_TAU, SPECS, SUM_TOL, level_budget, level_map


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
    except (OverflowError, TypeError, ValueError):  # OverflowError: an integer too large for a float
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
    """A per-step value: the thresholds tau_i and lambda_i, and the lags L_i.

    It holds a constant (``const``), a sequence (``seq``, step i reads entry
    i) or, for tau and lambda only, a callable (``fn``).  A callable receives
    only the visible trace prefix (decisions the current step is allowed to
    depend on) as a :class:`TracePrefix`, which enforces predictability by
    construction rather than trust.  A sequence ends: a step past its end is
    a :class:`ConfigError`, found when that step is reached.
    """

    __slots__ = ("name", "const", "seq", "fn")

    def __init__(self, name: str, const=None, seq: list | None = None, fn=None):
        self.name, self.const, self.seq, self.fn = name, const, seq, fn

    def value(self, i: int, prefix=None):
        """The value at step i; ``prefix`` is what a callable sees."""
        if self.const is not None:
            return self.const
        if self.seq is None:
            return self.fn(prefix)
        if i > len(self.seq):
            raise ConfigError(f"{self.name} schedule has {len(self.seq)} entries; step {i} requested")
        return self.seq[i - 1]

    def values(self, start: int, stop: int) -> list:
        """The values of steps start+1, ..., stop (not for a callable)."""
        if self.const is not None:
            return [self.const] * (stop - start)
        if stop > len(self.seq):
            self.value(max(start, len(self.seq)) + 1)  # raises: the first step past the end
        return self.seq[start:stop]


def threshold_schedule(spec, name: str, inside, bounds: str) -> Schedule:
    """The tau or lambda schedule of ``spec``, a number, a nonempty sequence
    of numbers or a callable, each value one that ``inside`` accepts (the
    interval ``bounds``, as the message writes it); a callable's values are
    checked as it returns them."""

    def check(v: float) -> float:
        if not inside(v):  # NaN is inside no interval
            raise ConfigError(f"{name} must lie in {bounds}, got {v}")
        return v

    if callable(spec):
        return Schedule(name, fn=lambda prefix: check(float(spec(prefix))))
    const = isinstance(spec, (int, float)) and not isinstance(spec, bool)
    try:
        values = [spec] if const else list(spec)
        if isinstance(spec, str) or not values or any(isinstance(v, bool) for v in values):
            raise TypeError
        values = [float(v) for v in values]
    except (OverflowError, TypeError, ValueError):  # OverflowError: an integer too large for a float
        raise ConfigError(f"{name} must be a number, a nonempty sequence of numbers, or a callable, "
                          f"got {spec!r}") from None
    values = [check(v) for v in values]
    return Schedule(name, const=values[0]) if const else Schedule(name, seq=values)


BATCH_KIND = "from-batch-ids"  # the lags kind read from the stream's batch ids


class LagSchedule(Schedule):
    """Lags L_i: step i may depend on decisions with index < i - L_i only.

    It holds one ``constant`` lag or a nonempty list of ``values``, each an
    integer in [0, ``sys.maxsize``] (a larger lag would see nothing on any
    stream, and no runner can index it), and a list must be admissible:
    L_{i+1} <= L_i + 1 (the observable past never shrinks).  The constructor
    refuses any other schedule.  :meth:`from_batch_ids` gives each item a
    lag equal to the number of earlier items in its batch, admissible by
    construction, so a whole batch depends only on pre-batch information.
    Built from no batch ids, it is the fed schedule: it holds no lag, and
    :func:`fwerstream.fast.decide` reads each chunk's lags from its batch ids.
    """

    __slots__ = ()

    def __init__(self, constant: int | None = None, values: list[int] | None = None):
        if (constant is None) == (values is None):
            raise ConfigError(f"a lag schedule takes exactly one of constant and values, "
                              f"got constant={constant!r}, values={values!r}")
        lags = [constant] if values is None else values
        if not (isinstance(lags, (list, tuple)) and lags):
            raise ConfigError(f"lag 'values' must be a nonempty list, got {values!r}")
        for i, lag in enumerate(lags, start=1):
            if not (isinstance(lag, int) and not isinstance(lag, bool) and 0 <= lag <= sys.maxsize):
                what = "constant lag" if values is None else f"lag L_{i}"
                raise ConfigError(f"{what} must be an integer in [0, {sys.maxsize}], got {lag!r}")
            if i > 1 and lag > lags[i - 2] + 1:
                raise ConfigError(f"inadmissible lags: L_{i} = {lag} > L_{i-1} + 1 = {lags[i - 2] + 1}")
        super().__init__("lag", const=constant, seq=None if values is None else list(values))

    @classmethod
    def from_batch_ids(cls, batch_ids) -> "LagSchedule":
        lags, error = StreamState().batch_lags(batch_ids)
        if error is not None:
            raise ConfigError(str(error))
        schedule = cls.__new__(cls)  # batch lags are admissible by construction: no per-lag check
        Schedule.__init__(schedule, "lag", seq=lags)
        return schedule

    def config(self) -> dict:
        if self.const is not None:
            return {"kind": "constant", "value": self.const}
        return {"kind": "list", "values": list(self.seq)} if self.seq else {"kind": BATCH_KIND}


def lags_from_config(cfg, batch_ids=None) -> LagSchedule:
    """Build a lag schedule (None: constant lag 0); the from-batch-ids kind, and the fed schedule, which is
    read as that kind, take the stream's ``batch_ids``."""
    if isinstance(cfg, LagSchedule):
        if cfg.seq != []:
            return cfg
        cfg = cfg.config()
    if cfg is None:
        return LagSchedule(constant=0)
    return from_kind(cfg, "lags", {
        "constant": (LagSchedule, ("value",)), "list": (lambda values: LagSchedule(values=values), ("values",)),
        BATCH_KIND: (lambda: LagSchedule.from_batch_ids([] if batch_ids is None else batch_ids), ())})


class StreamState:
    """The running state of one scheduler over one stream.

    The scalar step, :func:`fwerstream.fast.decide` (which decides each
    fresh stream of :func:`fwerstream.fast.make_runner` too) and the chunked
    audit all advance this one object, so a stream can be decided a step or
    a chunk at a time, from where the last one stopped.  It holds the steps
    taken; the window of counted-step prefix sums that the index rule of
    :data:`fwerstream.spec.SPECS` reads (lag 0 on rows that are not lagged;
    ``window[-1]`` counts every step); the :class:`RecycleBuffer` of the
    fallback ``weights`` it is given; the audit's last compensated prefix
    sum, ``audit_sum`` plus what its rounding dropped, ``audit_err``; and the
    open batch of a stream fed by batch ids: its id, the lag of its last
    step, and every batch id seen (:meth:`batch_lags`).
    """

    __slots__ = ("i", "window", "window_start", "recycled", "audit_sum", "audit_err", "batch", "batch_lag", "seen")

    TRIM = 64  # a consumed prefix this long, and half the window, is dropped in one go

    def __init__(self, weights=None):
        self.i = 0  # steps taken: the next step has index i + 1
        self.window = [0]  # window[j] = counted steps among the first window_start + j
        self.window_start = 0
        self.recycled = None if weights is None else RecycleBuffer(weights)  # indexed by t
        self.audit_sum = self.audit_err = 0.0
        self.batch, self.batch_lag, self.seen = None, -1, set()  # no batch is open yet

    def batch_lags(self, batch_ids) -> tuple[list[int], StreamError | None]:
        """The lags of the next steps from their batch ids, each the number of earlier
        steps in its batch, up to the first id of a closed batch, with its error."""
        lags = []
        for batch_id, run in itertools.groupby(batch_ids):
            if batch_id != self.batch or self.batch_lag < 0:  # the next batch opens (the first, even with id None)
                if batch_id in self.seen:
                    return lags, StreamError(f"batch id {batch_id!r} appears in two separate runs")
                self.seen.add(batch_id)
                self.batch, self.batch_lag = batch_id, -1
            first, self.batch_lag = self.batch_lag + 1, self.batch_lag + len(list(run))
            lags.extend(range(first, self.batch_lag + 1))
        return lags, None

    def advance(self, count: bool, visible: int) -> None:
        """Record one more step, counted or not, that saw the first ``visible`` steps.

        Lag schedules are admissible (L_{i+1} <= L_i + 1), so no later step
        sees fewer steps; the prefix before ``visible`` is dropped once it
        holds ``TRIM`` entries and half the window, in amortized O(1), so the
        window holds at most 2 * max(L + 2, ``TRIM``) entries when no lag
        exceeds L.
        """
        self.i += 1
        window = self.window
        window.append(window[-1] + count)
        j = visible - self.window_start
        if j >= self.TRIM and 2 * j >= len(window):
            del window[:j]
            self.window_start = visible


class OnlineProcedure:
    """Scheduler for the row of :data:`fwerstream.spec.SPECS` named by ``kind``.

    Holds the level budget, the weight series, the :class:`Schedule` objects
    ``tau``, ``lam`` and ``lags``, the running :class:`StreamState` (step
    count, counted-step window, recycling buffer) and the append-only
    ``trace`` of the decisions made by :meth:`step`, which is kept only when
    a callable tau or lambda reads it and otherwise stays empty.
    The classes of :data:`SCHEDULERS` only fix ``kind``.  Each option is
    keyword-only, and one the row does not take
    (:attr:`~fwerstream.spec.ProcedureSpec.options`) is a :class:`ConfigError`.
    """

    kind: str

    def __init__(self, alpha: float, series, *, tau=None, lam=None, lags=None, weights=None, k: int = 1):
        self.spec = spec = SPECS[self.kind]
        for name, value in (("tau", tau), ("lam", lam), ("lags", lags), ("weights", weights)):
            if value is not None and name not in spec.options:
                raise ConfigError(f"{self.kind} takes no {name!r} option")
        self.alpha = real(alpha, f"alpha must be a number, got {alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
        self.budget = level_budget(self.kind, self.alpha, k)
        self.k = k
        self.series: WeightSeries = series_from_config(series)
        self.trace: list[Decision] = []

        tau = (DEFAULT_TAU if tau is None else tau) if spec.discards else 1.0
        lam = (spec.lam if lam is None else lam) if spec.adapts else 0.0
        self.tau = threshold_schedule(tau, "tau", lambda v: 0.0 < v <= 1.0, "(0.0, 1.0]")
        self.lam = threshold_schedule(lam, "lambda", lambda v: 0.0 <= v < 1.0, "[0.0, 1.0)")
        self.reads_trace = self.tau.fn is not None or self.lam.fn is not None  # a callable sees the trace
        self.thresholds = None  # (tau, lambda) when both are constant
        if self.tau.const is not None and self.lam.const is not None:
            self.thresholds = self._check(self.tau.const, self.lam.const)
        else:
            self._check_schedules()

        self.lags = lags_from_config(lags) if spec.lagged else None
        weights = OneStepWeights() if spec.one_step else weights  # the fallback rows' transfer weights
        self.weights = weights_from_config(weights, self.series) if spec.family == "fallback" else None
        # recycling can pass a level alpha times the series total to one step
        if self.weights is not None and self.budget * self.series.total >= 1.0 - SUM_TOL:
            raise ConfigError(f"{self.kind}: alpha times the series total, {self.budget} * {self.series.total}, "
                              f"is within {SUM_TOL} of one, so a recycled level could reach one")
        self.state = StreamState(self.weights)
        self._adapts = spec.adapts

    def _check(self, tau: float, lam: float = 0.0) -> tuple[float, float]:
        if lam >= tau:
            raise ConfigError(f"lambda must be < tau, got lambda={lam} >= tau={tau}")
        if self.spec.family != "spending" and tau < self.alpha:
            raise ConfigError(f"{self.kind} requires tau >= alpha, got tau={tau} < alpha={self.alpha}")
        return tau, lam

    def _check_schedules(self) -> None:
        """Run :meth:`_check` on every step the tau and lambda schedules
        define before the stream starts, naming the first bad step.  A
        constant holds at every step and the check stops at the end of the
        shorter sequence; a callable is checked step by step."""
        if self.tau.fn is not None:
            return
        n = min((len(s.seq) for s in (self.tau, self.lam) if s.seq is not None), default=1)
        lams = [0.0] * n if self.lam.fn is not None else self.lam.values(0, n)
        for j, (tau, lam) in enumerate(zip(self.tau.values(0, n), lams), start=1):
            try:
                self._check(tau, lam)
            except ConfigError as exc:
                raise ConfigError(f"step {j}: {exc}") from None

    def _thresholds(self, i: int, visible: int) -> tuple[float, float]:
        prefix = TracePrefix(self.trace, visible) if self.reads_trace else None
        return self._check(self.tau.value(i, prefix), self.lam.value(i, prefix))

    def sequences(self) -> list[Schedule]:
        """The tau, lambda and lag schedules given as sequences, which end."""
        return [s for s in (self.tau, self.lam, self.lags) if s is not None and s.seq is not None]

    @property
    def t(self) -> int:
        """Number of hypotheses processed so far."""
        return self.state.i

    def step(self, p) -> Decision:
        p = _check_p(p)
        decision = self._step(self.state.i + 1, p)
        if self.reads_trace:
            self.trace.append(decision)
        return decision

    def run(self, pvalues) -> list[Decision]:
        return [self.step(p) for p in pvalues]

    def _step(self, i: int, p: float) -> Decision:
        state = self.state
        lag = 0 if self.lags is None else min(self.lags.value(i), i - 1)
        visible = i - 1 - lag
        t = 1 + lag + state.window[visible - state.window_start]
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
        state.advance(selected and not candidate, visible)
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


class FallbackWeights:
    """Transfer weights w[k, i]: how much of a rejected level at step k is
    recycled to step i > k.  Rows are nonnegative with sum at most one."""

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

    _ONE = np.ones(1)

    def weight(self, k: int, i: int) -> float:
        return 1.0 if i == k + 1 else 0.0

    def span(self, k: int, horizon: int) -> np.ndarray:
        return self._ONE[: max(horizon - k, 0)]

    def config(self) -> dict:
        return {"kind": "one-step"}


class LaggedSeriesWeights(FallbackWeights):
    """w[k, i] = gamma_{i-k} for a weight series gamma (row sums <= 1)."""

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

    _EMPTY = np.empty(0)

    def __init__(self, rows):
        if not isinstance(rows, list):
            raise ConfigError(f"explicit fallback weights need a list of 'rows', got {rows!r}")
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
    """Build transfer weights (None: lagged-gamma); ``series`` backs the lagged-gamma kind."""
    if isinstance(cfg, LaggedSeriesWeights) and cfg.series.config() != series.config():
        raise ConfigError(f"lagged-gamma weights take the procedure's series, not {cfg.series.config()}")
    if isinstance(cfg, FallbackWeights):
        return cfg
    if cfg is None:
        return LaggedSeriesWeights(series)
    return from_kind(cfg, "fallback weights", {
        "one-step": (OneStepWeights, ()), "lagged-gamma": (lambda: LaggedSeriesWeights(series), ()),
        "explicit": (ExplicitWeights, ("rows",))})


class RecycleBuffer:
    """Recycled level addressed to each later index of one scheduler.

    ``reject(k, a)`` records a rejection at index k with realized level a,
    after ``mass`` or ``masses`` has read index k, so k is below the capacity;
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


# One public class per row of SPECS; each can be imported from here and from the package.
SCHEDULERS = {kind: type(spec.name, (OnlineProcedure,), {"kind": kind, "__doc__": spec.doc, "__module__": __name__})
              for kind, spec in SPECS.items()}
globals().update({cls.__name__: cls for cls in SCHEDULERS.values()})
