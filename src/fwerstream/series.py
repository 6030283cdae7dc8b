"""Weight series gamma_1, gamma_2, ... that drive every allocation rule.

Three kinds are supported, each named by its config ``kind``:

* ``q``:         gamma_i proportional to i^(-q), q > 1
* ``log-q``:     gamma_i proportional to 1/((i+1) * log(i+1)^q), q > 1
* ``explicit``:  a finite user-supplied list with sum at most one

For the two infinite families the normalizer (the infinite sum of the
unnormalized terms) is computed by partial summation plus integral tail
bounds.  Because the terms are convex and decreasing, the tail T(M) =
sum_{i>M} u_i is bracketed by

    integral_{M+1}^inf u(x) dx + u(M+1)/2   <=   T(M)   <=   integral_{M+1/2}^inf u(x) dx

(trapezoid bound below, midpoint bound above).  M is doubled until the
bracket width is below 1e-12 of the normalizer, so every reported weight
carries a certified relative error of at most ~1e-12.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigError

# Relative half-width demanded of the normalizer bracket.
NORMALIZER_RTOL = 1e-12


class WeightSeries:
    """Base class: a nonnegative weight sequence with certified sum <= 1.

    Instances are immutable after construction; the weight memo grows
    lazily under a lock, so concurrent reads are safe.
    """

    kind = "base"
    total = 1.0  # the sum of all the weights: 1 for a normalized series, certified to 1e-12

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memo = np.empty(0, dtype=np.float64)

    # -- to be provided by subclasses ----------------------------------
    def _unnormalized(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def normalizer(self) -> float:
        raise NotImplementedError

    def tail_sum_bracket(self, n: int) -> tuple[float, float]:
        """Bracket for sum_{i>n} gamma_i (normalized)."""
        raise NotImplementedError

    # -- shared accessors -----------------------------------------------
    def _ensure(self, n: int) -> np.ndarray:
        memo = self._memo
        if memo.size >= n:
            return memo
        with self._lock:
            if self._memo.size < n:
                size = 1 << max(10, (n - 1).bit_length())
                idx = np.arange(1, size + 1, dtype=np.float64)
                fresh = self._unnormalized(idx) / self.normalizer
                fresh.flags.writeable = False
                self._memo = fresh
            return self._memo

    def weight(self, i: int) -> float:
        """gamma_i for 1-based index i.  Deterministic across calls."""
        if i < 1:
            raise IndexError(f"series index must be >= 1, got {i}")
        return float(self._ensure(i)[i - 1])

    def weights_upto(self, n: int) -> np.ndarray:
        """Read-only array [gamma_1, ..., gamma_n]."""
        if n < 0:
            raise IndexError(f"length must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return self._ensure(n)[:n]

    def partial_sum(self, n: int) -> float:
        return float(np.sum(self.weights_upto(n)))

    def config(self) -> dict:
        raise NotImplementedError


class PowerLawSeries(WeightSeries):
    """gamma_i = u_i / Z for convex decreasing terms u_i with exponent q > 1.

    Subclasses give ``_unnormalized`` and the trapezoid (``_tail_lo``) and
    midpoint (``_tail_hi``) bounds on the tail sum_{i>m} u_i.
    """

    def __init__(self, q: float):
        message = f"{self.kind}-series requires q > 1, got {q!r}"
        if not (math.isfinite(q := real(q, message)) and q > 1.0):
            raise ConfigError(message)
        super().__init__()
        self.q = q
        self._z_lo, self._z_hi = self._certify()
        self._z = 0.5 * (self._z_lo + self._z_hi)

    def _certify(self) -> tuple[float, float]:
        """Double M from 1024 until [S_M + tail_lo(M), S_M + tail_hi(M)],
        widened by 64 ulps of S_M, is 1e-12-tight."""
        s, lo, m = 0.0, 1, 1 << 10
        while True:
            s += float(np.sum(self._unnormalized(np.arange(lo, m + 1, dtype=np.float64))))
            fp_slack = 64.0 * np.finfo(float).eps * s
            z_lo = s + self._tail_lo(m) - fp_slack
            z_hi = s + self._tail_hi(m) + fp_slack
            if z_hi - z_lo <= 2.0 * NORMALIZER_RTOL * z_lo:
                return z_lo, z_hi
            if m >= (1 << 34):
                raise RuntimeError("normalizer bracket failed to converge")
            lo, m = m + 1, 2 * m

    @property
    def normalizer(self) -> float:
        return self._z

    def tail_sum_bracket(self, n: int) -> tuple[float, float]:
        return self._tail_lo(n) / self._z_hi, self._tail_hi(n) / self._z_lo

    def config(self) -> dict:
        return {"kind": self.kind, "q": self.q}


class QSeries(PowerLawSeries):
    """gamma_i = i^(-q) / Z(q) with Z(q) = sum_{i>=1} i^(-q), q > 1."""

    kind = "q"

    def _unnormalized(self, idx: np.ndarray) -> np.ndarray:
        return idx ** (-self.q)

    def _tail_lo(self, m: int) -> float:
        # trapezoid lower bound on sum_{i>m} i^-q
        return (m + 1.0) ** (1.0 - self.q) / (self.q - 1.0) + 0.5 * (m + 1.0) ** (-self.q)

    def _tail_hi(self, m: int) -> float:
        # midpoint upper bound (terms are convex)
        return (m + 0.5) ** (1.0 - self.q) / (self.q - 1.0)


class LogQSeries(PowerLawSeries):
    """gamma_i = u_i / Z with u_i = 1 / ((i+1) * log(i+1)^q), q > 1."""

    kind = "log-q"

    def _unnormalized(self, idx: np.ndarray) -> np.ndarray:
        y = idx + 1.0
        return 1.0 / (y * np.log(y) ** self.q)

    def _tail_lo(self, m: int) -> float:
        # i > m maps to y = i+1 >= m+2
        y = m + 2.0
        return math.log(y) ** (1.0 - self.q) / (self.q - 1.0) + 0.5 * (1.0 / (y * math.log(y) ** self.q))

    def _tail_hi(self, m: int) -> float:
        return math.log(m + 1.5) ** (1.0 - self.q) / (self.q - 1.0)


def real(value, message: str) -> float:
    """``value`` as a float if it is a number a float holds: not a boolean, a string or an integer too large
    for a float, each of which raises ``ConfigError(message)``."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(message)


def weight_vector(values, name: str) -> tuple[np.ndarray, float]:
    """``values`` as a read-only flat float64 array of finite entries in
    [0, 1] summing to at most one (1e-12 slack), with its ``math.fsum`` total.

    The one check behind explicit series and explicit fallback weight rows.
    """
    try:
        values = list(values)
        if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in values):
            raise TypeError
        w = np.asarray(values, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError
    except (OverflowError, TypeError, ValueError):  # OverflowError: an integer too large for a float
        raise ConfigError(f"{name} must be a flat list of numbers") from None
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ConfigError(f"{name} has negative or non-finite entries")
    if np.any(w > 1.0):
        i = int(np.argmax(w > 1.0))
        raise ConfigError(f"{name} has entry {i} = {float(w[i])!r} above one")
    total = math.fsum(w.tolist())
    if total > 1.0 + 1e-12:
        raise ConfigError(f"{name} sums to {total} > 1")
    w.flags.writeable = False
    return w, total


class ExplicitSeries(WeightSeries):
    """A finite list of nonnegative weights with total at most one.

    Indices beyond the list carry weight zero: any shortfall of the sum
    below one is an unspendable tail, never extra rejections.
    """

    kind = "explicit"

    def __init__(self, weights):
        super().__init__()
        w, self.total = weight_vector(weights, "explicit series")
        if w.size == 0:
            raise ConfigError("explicit series needs a nonempty weight list")
        self._w = w

    def _unnormalized(self, idx: np.ndarray) -> np.ndarray:
        out = np.zeros(idx.shape, dtype=np.float64)
        inside = idx <= self._w.size
        out[inside] = self._w[(idx[inside] - 1).astype(np.intp)]
        return out

    @property
    def normalizer(self) -> float:
        return 1.0  # weights are stored as given, not renormalized

    def tail_sum_bracket(self, n: int) -> tuple[float, float]:
        rest = math.fsum(self._w[n:].tolist()) if n < self._w.size else 0.0
        return rest, rest

    def weight(self, i: int) -> float:
        if i < 1:
            raise IndexError(f"series index must be >= 1, got {i}")
        return float(self._w[i - 1]) if i <= self._w.size else 0.0

    def config(self) -> dict:
        return {"kind": "explicit", "weights": [float(x) for x in self._w]}


def config_object(value, name: str, keys) -> dict:
    """``value`` if it is a dict with no key outside ``keys``; else a :class:`ConfigError` naming the unknown keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    if unknown := set(value) - set(keys):
        raise ConfigError(f"{name} has unknown keys {sorted(unknown, key=str)}; known: {', '.join(keys)}")
    return value


def from_kind(cfg, name: str, table: dict):
    """Build the ``name`` config ``cfg``: a dict whose ``kind`` names an entry ``(builder, keys)`` of ``table``.
    Every one of ``keys`` is required and passed to ``builder`` in that order; any other key is refused."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{name} config must be a dict with a 'kind', got {cfg!r}")
    if not (isinstance(cfg["kind"], str) and cfg["kind"] in table):
        raise ConfigError(f"unknown {name} kind {cfg['kind']!r}")
    builder, keys = table[cfg["kind"]]
    config_object(cfg, what := f"{name} kind {cfg['kind']!r}", ("kind", *keys))
    if missing := [key for key in keys if key not in cfg]:
        raise ConfigError(f"{what} needs {', '.join(map(repr, missing))}")
    return builder(*(cfg[key] for key in keys))


def series_from_config(cfg) -> WeightSeries:
    """Build a series from {"kind": "q" or "log-q", "q": ...} or {"kind": "explicit", "weights": [...]}."""
    if isinstance(cfg, WeightSeries):
        return cfg
    return from_kind(cfg, "series", {"q": (QSeries, ("q",)), "log-q": (LogQSeries, ("q",)),
                                     "explicit": (ExplicitSeries, ("weights",))})
