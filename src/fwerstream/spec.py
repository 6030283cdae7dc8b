"""The procedure table: one row per canonical procedure name.

Every procedure tests H_i at a level built from one series weight gamma_t,
where the index t advances on one indicator.  With tau = 1 on rows that do
not discard and lambda = 0 on rows that do not adapt, all rows share

* the index rule ``t_i = 1 + min(L_i, i-1) + #{j < i - L_i : counted_j}``,
  where a step is counted when it is selected (p_j <= tau_j, always true
  without discarding) and not a candidate (p_j <= lambda_j, never true
  without adaptivity), and L_i = 0 unless the row is lagged;
* one level map per family, :func:`level_map`:

  ==========  ==============================================================
  spending    ``k*alpha * (tau - lam) * gamma_t``
  sidak       ``tau * (1 - (1 - k*alpha)^(((tau - lam) / tau) * gamma_t))``
  fallback    ``tau * (k*alpha * gamma_t + recycled(t))``
  ==========  ==============================================================

* one budget audit per family, a prefix sum over the counted steps:
  ``level / (tau - lam) <= k*alpha`` (spending), ``beta / ((tau - lam) / tau)
  <= 1`` with level = tau * (1 - (1 - k*alpha)^beta) (sidak), and
  ``level / tau <= k*alpha`` over counted steps that did not reject
  (fallback).

The scalar step (:class:`fwerstream.core.OnlineProcedure`), the batch runner
(:func:`fwerstream.fast.make_runner`) and the audit
(:func:`fwerstream.audit.audit_trace`) all read their rules from this table,
and :data:`fwerstream.core.SCHEDULERS` builds each row's public class from
its ``name`` and ``doc``.  A row's ``options`` are the only rule of which
settings a procedure takes: its class refuses any other.  :func:`level_map`
is the one copy of the level maps: the step calls it with one series weight,
the runner with an array of them.  Only spending rows bound the PFER, so only they admit k-FWER
budget inflation (:func:`level_budget`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .series import real

DEFAULT_TAU = 0.5

# Absolute slack for audit sums of <= millions of float64 terms; genuine
# budget violations are many orders of magnitude larger.
SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProcedureSpec:
    family: str  # "spending" | "sidak" | "fallback"
    name: str  # the public class, built by fwerstream.core.SCHEDULERS ...
    doc: str  # ... and its docstring
    discards: bool = False
    adapts: bool = False
    lagged: bool = False
    lam: float = 0.0  # default lambda
    one_step: bool = False  # recycling weights fixed to one-step
    audit_tol: float = SUM_TOL

    @property
    def pfer(self) -> bool:
        return self.family == "spending"

    @property
    def options(self) -> tuple[str, ...]:
        """The options the row's class takes besides alpha, series and k."""
        takes = (self.discards, self.adapts, self.lagged, self.family == "fallback" and not self.one_step)
        return tuple(name for name, used in zip(("tau", "lam", "lags", "weights"), takes) if used)


SPECS = {
    "alpha-spending": ProcedureSpec(
        "spending", "AlphaSpending", "Online Bonferroni: test H_i at level alpha * gamma_i."),
    # exact Sidak levels: the exponent sum is held to 1e-12 of its bound
    "online-sidak": ProcedureSpec(
        "sidak", "OnlineSidak", "Test H_i at level 1 - (1-alpha)^gamma_i (requires independent nulls).",
        audit_tol=1e-12),
    "online-fallback": ProcedureSpec(
        "fallback", "OnlineFallback", "Alpha-spending plus recycling: a rejected level, with the mass it had "
        "received, passes to later tests through the weights w[k, i]."),
    "online-fallback-1": ProcedureSpec(
        "fallback", "OnlineFallback1", "online-fallback with its weights fixed to one-step recycling.",
        one_step=True),
    "discard-spending": ProcedureSpec(
        "spending", "DiscardSpending", "Spend alpha * tau_i * gamma_t, where t advances only on selected "
        "(p <= tau_i) steps; a discarded step is never rejected.", discards=True),
    "adaptive-spending": ProcedureSpec(
        "spending", "AdaptiveSpending", "Spend alpha * (1 - lambda_i) * gamma_t, where a candidate step "
        "(p <= lambda_i) does not advance t: a candidate cannot be a spent null.", adapts=True, lam=0.5),
    "addis-spending": ProcedureSpec(
        "spending", "AddisSpending", "Adaptive discarding: spend alpha * (tau_i - lambda_i) * gamma_t, with t "
        "advancing on selected non-candidate steps only.", discards=True, adapts=True, lam=0.25),
    "addis-spending-local": ProcedureSpec(
        "spending", "AddisLocalSpending", "ADDIS under local dependence: step i sees only decisions older than "
        "its lag L_i, and each unseen step is charged as a counted one.", discards=True, adapts=True,
        lagged=True, lam=0.25),
    "discard-sidak": ProcedureSpec(
        "sidak", "DiscardSidak", "Sidak levels scaled by tau_i, with the exponent budget spent only on selected "
        "steps.", discards=True),
    "adaptive-sidak": ProcedureSpec(
        "sidak", "AdaptiveSidak", "Sidak levels with the exponent budget refunded on candidate steps.",
        adapts=True, lam=0.5),
    "addis-sidak": ProcedureSpec(
        "sidak", "AddisSidak", "Sidak levels with both discarding and adaptivity on the exponent budget.",
        discards=True, adapts=True, lam=0.25),
    "discard-fallback": ProcedureSpec(
        "fallback", "DiscardFallback", "Fallback recycling over the selected subsequence, scaled by tau_i.",
        discards=True),
}

PROCEDURES = tuple(SPECS)


def level_budget(kind: str, alpha: float, k) -> float:
    """The level budget k * alpha of procedure ``kind``.

    k must be a positive integer (not a boolean), and k > 1 only on rows
    that bound the PFER.  A budget of at least one warns that levels will be
    clamped; the warning names the frame that called the caller.
    """
    if isinstance(k, bool) or not (isinstance(k, int) and k >= 1):
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    if k > 1 and not SPECS[kind].pfer:
        raise ConfigError(f"k-FWER wrapping requires a PFER-controlling procedure, got {kind!r}")
    budget = real(k, f"k must be an integer a float holds, got {k!r}") * alpha
    if budget >= 1.0:
        warnings.warn(f"k*alpha = {budget} >= 1: test levels may saturate and will be clamped below tau_i and 1",
                      stacklevel=3)
    return budget


# The Sidak exponent of a row that adapts is discounted by (tau-lambda)/tau, not
# 1-lambda: given selection, a uniform null is a candidate with probability
# lambda/tau, so candidate steps reuse each series index tau/(tau-lambda) times
# in expectation, and only this discount keeps the selected nulls' exponent sum
# at one.  With 1-lambda the realized FWER exceeds alpha at uniform nulls (about
# 0.25 at alpha = 0.2, pi_A = 0.1) although its budget audit passes.
def level_map(family: str, budget: float, tau: float, lam: float, gam):
    """The level a row of ``family`` assigns to series weight ``gam`` (the
    fallback rows: the base level ``budget * gam``, before their recycled
    mass and tau), clamped below min(tau, 1) when the budget saturates.

    ``gam`` is a Python float, whose level is a Python float (the scalar
    step), or a float64 array (the weights a runner call reads, or its
    gathered weights with tau and lambda by step); all take the same float
    operations, so the step and the runner agree bit for bit.  Sidak
    levels 1 - (1-budget)^g are evaluated in the log domain with
    ``math.expm1``, element by element, so tiny exponents (down to ~1e-300)
    do not round the level to zero; ``np.expm1`` differs from it in the last
    place on some inputs.  g <= 0 and g >= 1 give 0 and ``budget`` exactly.
    """
    if family == "spending":
        level = budget * (tau - lam) * gam
    elif family == "sidak":
        log1m = math.log1p(-budget)

        def sidak(g):
            return 0.0 if g <= 0.0 else budget if g >= 1.0 else -math.expm1(g * log1m)

        g = (tau - lam) / tau * gam
        level = tau * (np.reshape([sidak(x) for x in g.ravel().tolist()], g.shape) if isinstance(g, np.ndarray)
                       else sidak(g))
    else:
        level = budget * gam
    if budget < 1.0:
        return level
    cap = np.nextafter(np.minimum(tau, 1.0), 0.0)
    return np.minimum(level, cap) if isinstance(level, np.ndarray) else min(level, float(cap))
