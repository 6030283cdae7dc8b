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
1e-12 for online-sidak, whose levels are exact Sidak levels.  The slack
bounds the levels, not the audit's own rounding: the running sum is one
``np.cumsum``, whose error grows with the stream, so a prefix it reads
within that error of the cap is summed again exactly with ``math.fsum``
before it is reported, and a stream's chunks carry the sum on with the
compensation the cumsum rounded off.  Every trace is additionally checked
for level sanity: levels < min(tau, 1), and rejections only at p <= level
on selected steps.
"""

from __future__ import annotations

import math
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

    @property
    def first_bad_index(self) -> int | None:
        """The first index (1-based) at which any check fails, or None."""
        return min((c.first_bad_index for c in self.checks if not c.passed), default=None)

    def raise_if_failed(self) -> None:
        if not self.passed:
            bad = "; ".join(str(c) for c in self.checks if not c.passed)
            raise AuditError(f"{self.procedure}: {bad}")


def _first_bad(mask: np.ndarray, start: int = 0) -> int | None:
    idx = np.flatnonzero(mask)
    return start + int(idx[0]) + 1 if idx.size else None


def _as_result(trace, config: ProcedureConfig | None) -> StreamResult:
    if isinstance(trace, StreamResult):
        return trace
    if config is None:
        raise AuditError("auditing a raw decision list needs the procedure config")
    return from_decisions(config, trace)


def audit_trace(trace, config: ProcedureConfig | None = None, state=None) -> AuditReport:
    """Audit a completed trace (a StreamResult or a list of Decisions).

    With the carried :class:`~fwerstream.core.StreamState` of a stream,
    ``trace`` is the chunk of that stream which ends at step ``state.i``:
    indices count from the start of the stream, the budget's prefix sum
    starts from ``state.audit_sum`` + ``state.audit_err``, and a passing
    audit carries the sum on.
    """
    r = _as_result(trace, config)
    if r.levels.ndim != 1:
        raise AuditError("audit one stream at a time, not a block of streams")
    spec = SPECS[r.procedure]
    levels, rej, n = r.levels, r.rejected, len(r)
    start, carry = (0, (0.0, 0.0)) if state is None else (state.i - n, (state.audit_sum, state.audit_err))
    checks = [
        AuditCheck("levels below min(tau, 1)", *_ok(levels < np.minimum(r.tau, 1.0), start)),
        AuditCheck("rejections at p <= level", *_ok(~rej | (r.p <= levels), start)),
        AuditCheck("rejections only on selected steps", *_ok(~rej | r.selected, start)),
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
    # the carry seeds the running sum, so every prefix sums its terms in stream order
    terms = np.where(counted, contrib, 0.0)
    prefix = np.empty(n + 1)
    prefix[0] = carry[0]
    prefix[1:] = terms
    np.cumsum(prefix, out=prefix)
    bound = cap + spec.audit_tol
    # the terms are >= 0, so each prefix is off by less than (n + 1) eps times the last
    near = _first_bad(prefix[1:] > bound - (n + 1) * np.finfo(float).eps * prefix[-1])
    bad = None if near is None else _first_over(carry, terms, near, bound, start)
    checks.append(AuditCheck(f"sum over counted steps of {name}", bad is None, bad))
    report = AuditReport(r.procedure, all(c.passed for c in checks), tuple(checks))
    if state is not None and report.passed:
        # carry the sum as audit_sum + audit_err: TwoSum finds what each add of the cumsum rounded off
        a, s = prefix[:-1], prefix[1:]
        b = s - a
        err = state.audit_err + float(((a - (s - b)) + (terms - b)).sum())
        state.audit_sum = float(prefix[-1]) + err
        state.audit_err = (float(prefix[-1]) - state.audit_sum) + err
    return report


def _first_over(carry, terms, first, bound, start) -> int | None:
    """``start`` + the first k >= ``first`` at which the carried pair plus
    ``terms[:k]``, summed exactly, exceeds ``bound``, or None; the sum at
    ``first - 1`` is known not to.  The terms are >= 0, so the exact sums
    never decrease and a bisection finds k."""

    def over(k):
        return math.fsum([*carry, *terms[:k].tolist()]) > bound

    lo, hi = first - 1, terms.size
    if not over(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if over(mid) else (mid, hi)
    return start + hi


def _ok(good: np.ndarray, start: int = 0) -> tuple[bool, int | None]:
    bad = _first_bad(~good, start)
    return bad is None, bad
