"""Power solvers for the one-sided Gaussian mean testing model.

The model: each observation is Z = X + mu_A (non-null, probability pi_A)
or Z = X + mu_N (null), X standard normal, and the p-value is P = Phi(-Z).
Nulls with mu_N < 0 are conservative.  Spending alpha*gamma_i on test i
detects a non-null with probability Phi(Phi^-1(alpha*gamma_i) + mu_A), so
the expected number of true discoveries among the first N tests is

    E_N = pi_A * sum_{i<=N} Phi(Phi^-1(alpha*gamma_i) + mu_A).

This module evaluates that curve (including N = infinity for q-series,
with a certified truncation bracket), locates the power-maximizing
q-series exponent, computes the adaptivity threshold c* below/above which
candidate/discard thresholds are guaranteed power-safe, and solves for
the power-optimal weight sequence when signal strength and density vary
by index.

Gaussian CDF/quantile come from scipy.special (ndtr/ndtri/log_ndtr),
which are erf-based and accurate to well below 1e-12 absolute over the
full double range; extreme tails matter because gamma_i can be ~1e-12.
The solvers import ``quad``, ``brentq`` and ``minimize_scalar`` when first
called: scipy.integrate and scipy.optimize take most of a second to load,
and the simulator, which imports this module for :class:`GaussianMixModel`,
uses neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import ConfigError
from .series import ExplicitSeries, LogQSeries, QSeries, WeightSeries, real, series_from_config

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _floats(value, name: str) -> np.ndarray:
    """``value``, a number or a sequence of them, as a float64 array; a boolean, a string, an integer too large
    for a float (numpy holds it as an object) or a ragged list is a :class:`ConfigError` naming ``name``."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf":
            raise ValueError
    except ValueError:  # ragged rows, or an entry that is no number
        raise ConfigError(f"{name} must be a number or a sequence of numbers, got {value!r}") from None
    return arr.astype(np.float64)


@dataclass(frozen=True)
class GaussianMixModel:
    """Mixture parameters; pi_a and mu_a may be per-index sequences."""

    pi_a: object
    mu_a: object
    mu_n: float = 0.0

    def __post_init__(self):
        pi, mu = _floats(self.pi_a, "pi_a"), _floats(self.mu_a, "mu_a")
        if np.any(~np.isfinite(pi)) or np.any(pi < 0.0) or np.any(pi > 1.0):
            raise ConfigError("pi_a must lie in [0, 1]")
        if np.any(~np.isfinite(mu)) or np.any(mu < 0.0):
            raise ConfigError("mu_a must be >= 0")
        mu_n = real(self.mu_n, f"mu_n must be a scalar number, got {self.mu_n!r}")
        if not (math.isfinite(mu_n) and mu_n <= 0.0):
            raise ConfigError(f"mu_n must be <= 0, got {mu_n}")

    def scalar_params(self) -> tuple[float, float, float]:
        """(pi_a, mu_a, mu_n) for solver use; rejects per-index sequences."""
        pi = real(self.pi_a, f"pi_a must be a scalar number, got {self.pi_a!r}")
        mu = real(self.mu_a, f"mu_a must be a scalar number, got {self.mu_a!r}")
        return pi, mu, float(self.mu_n)

    def pi_vector(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.pi_a, dtype=np.float64), (n,))

    def mu_a_vector(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.mu_a, dtype=np.float64), (n,))


def detection_probability(levels, mu_a) -> np.ndarray:
    """Phi(Phi^-1(level) + mu_a), elementwise; level 0 maps to 0."""
    z = ndtri(np.asarray(levels, dtype=np.float64))
    return ndtr(z + mu_a)


def _finite_sum(n: int, alpha: float, series: WeightSeries, mu: float, start: int = 0) -> float:
    """sum_{start < i <= n} Phi(Phi^-1(alpha*gamma_i) + mu), in chunks of 2^20 terms."""
    total = 0.0
    chunk = 1 << 20
    for lo in range(start, n, chunk):
        gam = series.weights_upto(min(lo + chunk, n))[lo:]
        total += float(np.sum(detection_probability(alpha * gam, mu)))
    return total


# ----------------------------------------------------------------------
# Infinite-horizon tail for q-series
# ----------------------------------------------------------------------

def _log_tail_integrand(z: float, mu: float, q: float) -> float:
    return float(log_ndtr(z + mu)) - 0.5 * z * z - _LOG_SQRT_2PI - (1.0 + 1.0 / q) * float(log_ndtr(z))


def _tail_integral(a: float, c_level: float, mu: float, q: float) -> tuple[float, float]:
    """(value, error bound) for integral_a^inf Phi(Phi^-1(c*x^-q) + mu) dx.

    Substituting z = Phi^-1(level(x)) turns the integral into a smooth
    single-peak integral over z in (-inf, z_a], evaluated by adaptive
    quadrature split at the peak z* = -mu*q/(q-1).
    """
    from scipy.integrate import quad

    z_a = float(ndtri(c_level * a ** (-q)))
    k = c_level ** (1.0 / q) / q
    z_star = -mu * q / (q - 1.0)
    peak = min(z_star, z_a)
    if math.log(k) + _log_tail_integrand(peak, mu, q) > 700.0:
        return math.inf, 0.0

    def f(z: float) -> float:
        return math.exp(_log_tail_integrand(z, mu, q))

    if z_star < z_a:
        v1, e1 = quad(f, -np.inf, z_star, epsabs=0.0, epsrel=1e-12, limit=300)
        v2, e2 = quad(f, z_star, z_a, epsabs=0.0, epsrel=1e-12, limit=300)
        return k * (v1 + v2), k * (e1 + e2)
    v, e = quad(f, -np.inf, z_a, epsabs=0.0, epsrel=1e-12, limit=300)
    return k * v, k * e


def _infinite_q_sum(alpha: float, series: QSeries, mu: float, abs_tol: float) -> float:
    """sum_{i>=1} Phi(Phi^-1(alpha*gamma_i) + mu) with a certified bracket.

    Exact partial sum to M, then the tail is bracketed by integrals: the
    summand g is decreasing everywhere and convex once its quantile falls
    below -mu, so for M past that threshold

        I(M+1) + g(M+1)/2  <=  tail  <=  I(M+1/2).

    M doubles until the bracket width is below max(abs_tol, 1e-12*value);
    for slowly-decaying series the value itself is astronomically large
    and only the relative criterion is meaningful.
    """
    q = series.q
    c_level = alpha / series.normalizer
    if mu <= 0.0:
        return alpha  # detection probability equals the level; weights sum to 1

    x_star = (c_level / float(ndtr(-mu))) ** (1.0 / q)
    m = 1 << 13
    while m < x_star + 2.0:
        m <<= 1
    partial = _finite_sum(m, alpha, series, mu)

    def g(x: float) -> float:
        return float(ndtr(ndtri(c_level * x ** (-q)) + mu))

    while True:
        v1, e1 = _tail_integral(m + 1.0, c_level, mu, q)
        if math.isinf(v1):
            return math.inf
        v_half, e_half = _tail_integral(m + 0.5, c_level, mu, q)
        lower = v1 - e1 + 0.5 * g(m + 1.0)
        upper = v_half + e_half
        width = upper - lower
        total_lo = partial + max(lower, 0.0)
        if width <= max(abs_tol, 1e-12 * total_lo):
            return float(partial + 0.5 * (lower + upper))  # c_level makes the bracket np.float64
        if m >= (1 << 27):
            raise RuntimeError(
                f"truncation bracket for q={q} stuck at width {width} after {m} terms"
            )
        partial += _finite_sum(2 * m, alpha, series, mu, start=m)
        m *= 2


def expected_true_discoveries(n, alpha, series, model: GaussianMixModel) -> float:
    """Expected true discoveries among the first n tests (n may be math.inf).

    For q-series the infinite horizon is summed with a certified
    truncation bracket, to within 1e-9 absolute (or 1e-12 relative, when
    that is wider); for log-q-series the infinite sum diverges and +inf is
    returned.
    """
    alpha = real(alpha, f"alpha must be a scalar number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    series = series_from_config(series)
    pi, mu, _ = model.scalar_params()
    if isinstance(n, float) and n == math.inf:
        if isinstance(series, ExplicitSeries):
            n_eff = len(series.config()["weights"])
            return pi * _finite_sum(n_eff, alpha, series, mu)
        if isinstance(series, LogQSeries):
            return math.inf  # per-test detection decays like e^(mu*sqrt(2 log i))/i: divergent
        if isinstance(series, QSeries):
            return pi * _infinite_q_sum(alpha, series, mu, 1e-9 / max(pi, 1e-300))
        raise ConfigError(f"infinite horizon unsupported for series kind {series.kind!r}")
    if isinstance(n, bool) or not (isinstance(n, int) and n >= 0):
        raise ConfigError(f"n must be a nonnegative integer or infinity, got {n!r}")
    return pi * _finite_sum(n, alpha, series, mu)


# ----------------------------------------------------------------------
# Optimal q-series exponent
# ----------------------------------------------------------------------

def optimal_q(n: int, mu_a: float, alpha: float) -> float:
    """argmax over q > 1 of the expected-discovery curve with a q-series.

    The curve rises then falls in q for n >= 2, so a bounded scalar search
    (scipy's ``minimize_scalar``, Brent's method) on (1, 50] finds the
    maximizer to within 1e-6; the bracket is doubled if the maximizer
    lands on its upper edge.  n = 1 is rejected:
    the curve is monotone increasing there and has no interior maximum.
    """
    if isinstance(n, bool) or not (isinstance(n, int) and n >= 1):
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    if n == 1:
        raise ConfigError("n = 1 has no interior optimum: expected discoveries increase with q")
    mu_a = real(mu_a, f"mu_a must be a scalar number, got {mu_a!r}")
    if mu_a <= 0.0:
        raise ConfigError(f"mu_a must be > 0, got {mu_a}")
    alpha = real(alpha, f"alpha must be a scalar number, got {alpha!r}")
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha must lie in (0, 1/2), got {alpha}")
    from scipy.optimize import minimize_scalar

    def loss(q: float) -> float:
        return -_finite_sum(n, alpha, QSeries(q), mu_a)

    lo, hi, tol = 1.0 + 1e-9, 50.0, 1e-6
    while True:
        q_star = float(minimize_scalar(loss, bounds=(lo, hi), method="bounded", options={"xatol": tol}).x)
        if hi - q_star > 10.0 * tol or hi >= 1e5:
            return q_star
        hi *= 2.0  # maximizer pinned to the edge: widen and retry


# ----------------------------------------------------------------------
# Adaptivity threshold c*
# ----------------------------------------------------------------------

def mixture_cdf(x, model: GaussianMixModel) -> np.ndarray:
    """CDF of the p-value mixture: (1-pi)Phi(z+mu_N) + pi*Phi(z+mu_A), z = Phi^-1(x)."""
    pi, mu_a, mu_n = model.scalar_params()
    z = ndtri(np.asarray(x, dtype=np.float64))
    return (1.0 - pi) * ndtr(z + mu_n) + pi * ndtr(z + mu_a)


def cstar_threshold(model: GaussianMixModel) -> float:
    """The interior zero of J(x) = x - G(x), G the p-value mixture CDF.

    J dips negative just above 0, crosses upward once, stays positive,
    and returns to 0 at 1; candidate thresholds below the crossing and
    discard thresholds above it are guaranteed power-safe.  A scan of
    40001 probit-spaced points brackets the crossing and ``brentq`` refines
    it to within 1e-15.  Returns 1.0 when no interior zero exists below
    1 - 1e-9 (uniform nulls).
    """
    pi, mu_a, _ = model.scalar_params()
    if not 0.0 < pi < 1.0:
        raise ConfigError(f"pi_a must lie in (0, 1), got {pi}")
    if mu_a <= 0.0:
        raise ConfigError(f"mu_a must be > 0, got {mu_a}")

    # probit-spaced scan resolves both endpoints; J < 0 near 0 always
    grid = ndtr(np.linspace(-8.0, 8.0, 40001))
    jvals = grid - mixture_cdf(grid, model)
    positive = np.flatnonzero(jvals > 0.0)
    if positive.size == 0:
        return 1.0
    kpos = int(positive[0])
    if kpos == 0:
        raise RuntimeError("scan found no negative dip before the crossing")
    from scipy.optimize import brentq

    root = brentq(lambda x: x - mixture_cdf(x, model), float(grid[kpos - 1]), float(grid[kpos]),
                  xtol=1e-15, rtol=8.9e-16)
    return 1.0 if root > 1.0 - 1e-9 else float(root)


# ----------------------------------------------------------------------
# Optimal weights under varying signal strength / density
# ----------------------------------------------------------------------

def optimal_gamma_varying(pi_seq, mu_seq, alpha, horizon: int) -> np.ndarray:
    """Power-optimal weights for per-index (pi_i, mu_i) over a finite horizon.

    Stationarity of the Lagrangian for maximizing
    sum_i pi_i * Phi(Phi^-1(alpha*gamma_i) + mu_i) subject to
    sum gamma_i = 1 fixes

        gamma_i* = (1/alpha) * Phi(-h_i(eta*)),
        h_i(eta) = log(eta / pi_i) / mu_i + mu_i / 2,

    with eta* > 0 found by ``brentq`` so the weights sum to one (the sum
    is continuous and strictly decreasing in eta).  Constant parameters
    give exactly uniform weights.  Infinite-horizon feasibility is the
    caller's concern; this solves the finite-horizon problem.
    """
    if isinstance(horizon, bool) or not (isinstance(horizon, int) and horizon >= 1):
        raise ConfigError(f"horizon must be a positive integer, got {horizon!r}")
    alpha = real(alpha, f"alpha must be a scalar number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    pi, mu = _floats(pi_seq, "pi_a"), _floats(mu_seq, "mu_a")
    for name, arr in (("pi_a", pi), ("mu_a", mu)):  # one value for every index, or one per index
        if arr.ndim > 1 or arr.size not in (1, horizon):
            raise ConfigError(f"{name} has {arr.size} entries; horizon {horizon} takes 1 or {horizon}")
    pi, mu = np.broadcast_to(pi, (horizon,)), np.broadcast_to(mu, (horizon,))
    if np.any(~np.isfinite(pi)) or np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ConfigError("pi_a entries must lie strictly in (0, 1)")
    if np.any(~np.isfinite(mu)) or np.any(mu <= 0.0):
        raise ConfigError("mu_a entries must be > 0")

    log_pi = np.log(pi)
    half_mu = 0.5 * mu

    def weight_sum(u: float) -> float:
        h = (u - log_pi) / mu + half_mu
        return float(np.sum(ndtr(-h))) / alpha

    def bracket(direction: float) -> float:
        """The first of u = 0, 1, 3, 7, ... times ``direction`` whose weight sum is on the far side of one:
        above it for direction -1, below it for +1."""
        u, step = 0.0, 1.0
        for _ in range(200):
            if (weight_sum(u) - 1.0) * direction < 0.0:
                return u
            u, step = u + direction * step, 2.0 * step
        raise ConfigError(f"no eta with weight sum {'above' if direction < 0 else 'below'} 1; problem infeasible")

    lo, hi = bracket(-1.0), bracket(1.0)

    from scipy.optimize import brentq

    u_star = brentq(lambda u: weight_sum(u) - 1.0, lo, hi, xtol=1e-15)
    gamma = ndtr(-((u_star - log_pi) / mu + half_mu)) / alpha
    total = float(np.sum(gamma))
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"eta search failed: weights sum to {total}")
    return gamma
