"""Prefix budget audits for completed decision traces.

``audit_trace`` replays the budget accounting of a procedure as pure
arithmetic on the trace columns and reports the first index (if any) at
which a prefix constraint fails.  The constraint is derived from the
procedure's row in :data:`fwerstream.spec.SPECS`: with tau = 1 on rows that
do not discard and lambda = 0 on rows that do not adapt, it is the prefix
sum, over the steps that advance the series index (selected and not
candidates), of

* spending rows:  level/(tau-lambda)          <= k*alpha
* sidak rows:     beta/((tau-lambda)/tau)     <= 1
* fallback rows:  level/tau, rejected steps
                  left out                    <= k*alpha

where beta is recovered from the level by inverting
level = tau * (1 - (1-k*alpha)^beta).  The slack is 1e-9 absolute, and
1e-12 for online-sidak, whose levels are exact Sidak levels.  Every trace
is additionally checked for level sanity: levels < min(tau, 1), and
rejections only at p <= level on selected steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ProcedureConfig
from .errors import AuditError
from .fast import StreamResult, from_decisions
from .spec import SPECS


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    first_bad_index: int | None = None  # 1-based

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        return f"{self.name}: FAIL at index {self.first_bad_index}"


@dataclass(frozen=True)
class AuditReport:
    procedure: str
    passed: bool
    checks: tuple[AuditCheck, ...]

    def raise_if_failed(self) -> None:
        if not self.passed:
            bad = "; ".join(str(c) for c in self.checks if not c.passed)
            raise AuditError(f"{self.procedure}: {bad}")


def _first_bad(mask: np.ndarray) -> int | None:
    idx = np.flatnonzero(mask)
    return int(idx[0]) + 1 if idx.size else None


def _prefix_check(name: str, contributions: np.ndarray, cap: float, tol: float) -> AuditCheck:
    prefix = np.cumsum(contributions)
    bad = _first_bad(prefix > cap + tol)
    return AuditCheck(name, bad is None, bad)


def _as_result(trace, config: ProcedureConfig | None) -> StreamResult:
    if isinstance(trace, StreamResult):
        return trace
    if config is None:
        raise AuditError("auditing a raw decision list needs the procedure config")
    return from_decisions(config, trace)


def audit_trace(trace, config: ProcedureConfig | None = None) -> AuditReport:
    """Audit a completed trace (a StreamResult or a list of Decisions)."""
    r = _as_result(trace, config)
    spec = SPECS[r.procedure]
    levels, rej, n = r.levels, r.rejected, len(r)
    checks = [
        AuditCheck("levels below min(tau, 1)", *_ok(levels < np.minimum(r.tau, 1.0))),
        AuditCheck("rejections at p <= level", *_ok(~rej | (r.p <= levels))),
        AuditCheck("rejections only on selected steps", *_ok(~rej | r.selected)),
    ]

    tau, selected = (r.tau, r.selected) if spec.discards else (1.0, np.ones(n, dtype=bool))
    lam, candidate = (r.lam, r.candidate) if spec.adapts else (0.0, np.zeros(n, dtype=bool))
    counted = selected & ~candidate
    if spec.family == "spending":
        name, contrib, cap = "level/(tau-lambda) <= k*alpha", levels / (tau - lam), r.budget
    elif spec.family == "sidak":
        beta = np.log1p(-np.minimum(levels / tau, 1.0 - 1e-300)) / np.log1p(-r.budget)
        name, contrib, cap = "beta/((tau-lambda)/tau) <= 1", beta / ((tau - lam) / tau), 1.0
    else:
        name, contrib, cap = "non-rejected level/tau <= k*alpha", levels / tau, r.budget
        counted &= ~rej
    checks.append(_prefix_check(f"sum over counted steps of {name}", np.where(counted, contrib, 0.0),
                                cap, spec.audit_tol))
    return AuditReport(r.procedure, all(c.passed for c in checks), tuple(checks))


def _ok(good: np.ndarray) -> tuple[bool, int | None]:
    bad = _first_bad(~good)
    return bad is None, bad
