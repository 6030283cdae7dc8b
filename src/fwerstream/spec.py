"""The procedure table: one row per canonical procedure name.

Every procedure tests H_i at a level built from one series weight gamma_t,
where the index t advances on one indicator.  With tau = 1 on rows that do
not discard and lambda = 0 on rows that do not adapt, all rows share

* the index rule ``t_i = 1 + min(L_i, i-1) + #{j < i - L_i : counted_j}``,
  where a step is counted when it is selected (p_j <= tau_j, always true
  without discarding) and not a candidate (p_j <= lambda_j, never true
  without adaptivity), and L_i = 0 unless the row is lagged;
* one level map per family:

  ==========  ==============================================================
  spending    ``k*alpha * (tau - lam) * gamma_t``
  sidak       ``tau * sidak_level(k*alpha, ((tau - lam) / tau) * gamma_t)``
  fallback    ``tau * (k*alpha * gamma_t + recycled(t))``
  ==========  ==============================================================

* one budget audit per family, a prefix sum over the counted steps:
  ``level / (tau - lam) <= k*alpha`` (spending), ``beta / ((tau - lam) / tau)
  <= 1`` with level = tau * (1 - (1 - k*alpha)^beta) (sidak), and
  ``level / tau <= k*alpha`` over counted steps that did not reject
  (fallback).

The scalar step (:class:`fwerstream.core.OnlineProcedure`), the batch runner
(:func:`fwerstream.fast.make_runner`), the audit
(:func:`fwerstream.audit.audit_trace`) and
:meth:`fwerstream.config.ProcedureConfig.build` all read their rules from
this table.  Only spending rows bound the PFER, so only they admit k-FWER
budget inflation.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TAU = 0.5

# Absolute slack for audit sums of <= millions of float64 terms; genuine
# budget violations are many orders of magnitude larger.
SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProcedureSpec:
    family: str  # "spending" | "sidak" | "fallback"
    discards: bool = False
    adapts: bool = False
    lagged: bool = False
    lam: float = 0.0  # default lambda
    one_step: bool = False  # recycling weights fixed to one-step
    audit_tol: float = SUM_TOL

    @property
    def pfer(self) -> bool:
        return self.family == "spending"


SPECS = {
    "alpha-spending": ProcedureSpec("spending"),
    # exact Sidak levels: the exponent sum is held to 1e-12 of its bound
    "online-sidak": ProcedureSpec("sidak", audit_tol=1e-12),
    "online-fallback": ProcedureSpec("fallback"),
    "online-fallback-1": ProcedureSpec("fallback", one_step=True),
    "discard-spending": ProcedureSpec("spending", discards=True),
    "adaptive-spending": ProcedureSpec("spending", adapts=True, lam=0.5),
    "addis-spending": ProcedureSpec("spending", discards=True, adapts=True, lam=0.25),
    "addis-spending-local": ProcedureSpec("spending", discards=True, adapts=True, lagged=True, lam=0.25),
    "discard-sidak": ProcedureSpec("sidak", discards=True),
    "adaptive-sidak": ProcedureSpec("sidak", adapts=True, lam=0.5),
    "addis-sidak": ProcedureSpec("sidak", discards=True, adapts=True, lam=0.25),
    "discard-fallback": ProcedureSpec("fallback", discards=True),
}

PROCEDURES = tuple(SPECS)
