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
``np.cumsum``, and the TwoSum errors of its adds, summed and added back,
give each prefix within one rounding of its exact value.  That compensated
prefix decides the check, so a term that is not finite fails it at its own
index; a stream's chunks carry the last one on as ``audit_sum`` (rounded to
a float) and ``audit_err`` (what that rounding dropped).  Every trace is
additionally checked for level sanity: 0 <= level < min(tau, 1), since a
negative term would offset an overspend in the sum, and rejections only at
p <= level on selected steps.
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
        AuditCheck("levels in [0, min(tau, 1))", *_ok((0.0 <= levels) & (levels < np.minimum(r.tau, 1.0)), start)),
        AuditCheck("rejections at p <= level", *_ok(~rej | (r.p <= levels), start)),
        AuditCheck("rejections only on selected steps", *_ok(~rej | r.selected, start)),
    ]

    tau, selected = (r.tau, r.selected) if spec.discards else (1.0, np.ones(n, dtype=bool))
    lam, candidate = (r.lam, r.candidate) if spec.adapts else (0.0, np.zeros(n, dtype=bool))
    counted = selected & ~candidate
    with np.errstate(divide="ignore", invalid="ignore"):  # a level at or past tau gives an inf or NaN term
        if spec.family == "spending":
            name, contrib, cap = "level/(tau-lambda) <= k*alpha", levels / (tau - lam), r.budget
        elif spec.family == "sidak":
            beta = np.log1p(-levels / tau) / np.log1p(-r.budget)
            name, contrib, cap = "beta/((tau-lambda)/tau) <= 1", beta / ((tau - lam) / tau), 1.0
        else:
            name, contrib, cap = "non-rejected level/tau <= k*alpha", levels / tau, r.budget
            counted &= ~rej
        # the carry seeds the running sum, so every prefix sums its terms in stream order
        terms = np.where(counted, contrib, 0.0)
        prefix = np.cumsum(np.concatenate(([carry[0]], terms)))
        # TwoSum: the add a + t = s of the cumsum rounds off exactly (a - (s - b)) + (t - b), b = s - a;
        # err sums these from the carried compensation on, in place
        a, s = prefix[:-1], prefix[1:]
        b = s - a
        err = np.empty(n + 1)
        err[0] = carry[1]
        e = np.subtract(s, b, out=err[1:])
        np.subtract(a, e, out=e)
        e += np.subtract(terms, b, out=b)
        np.cumsum(err, out=err)
        # each compensated prefix is within one rounding of the exact one; NaN compares false, so it fails
        bad = _first_bad(~(np.add(s, e, out=b) <= cap + spec.audit_tol), start)
    checks.append(AuditCheck(f"sum over counted steps of {name}", bad is None, bad))
    report = AuditReport(r.procedure, all(c.passed for c in checks), tuple(checks))
    if state is not None and report.passed:  # carry the last prefix on as the float and what it rounded off
        state.audit_sum = float(prefix[-1] + err[-1])
        state.audit_err = float((prefix[-1] - state.audit_sum) + err[-1])
    return report


def _ok(good: np.ndarray, start: int = 0) -> tuple[bool, int | None]:
    bad = _first_bad(~good, start)
    return bad is None, bad
