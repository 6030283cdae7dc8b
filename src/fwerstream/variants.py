"""Hybrids that graft discarding/adaptivity onto Sidak and fallback scheduling.

Each variant spends an exponent budget beta_i instead of a level: the test
level is (a tau_i multiple of) 1 - (1-alpha)^beta_i.  The default beta
schedules mirror the index advancement of the corresponding spending
procedures, so each series index is consumed by at most one budgeted step
and the exponent sums stay below one on every prefix:

* discard-sidak:   beta_i = gamma_t,  t = 1 + #selected before i,   sum over selected <= 1
* adaptive-sidak:  beta_i = (1-lambda_i) gamma_t,  t = i - #candidates,  sum over
  non-candidates of beta_i / (1-lambda_i) <= 1
* addis-sidak:     beta_i = ((tau_i-lambda_i)/tau_i) gamma_t,
                   t = 1 + #(selected minus candidates)
* discard-fallback: fallback recycling restricted to the selected subsequence

Discarding variants require tau_i >= alpha.

The addis-sidak exponent uses the selection-conditional discount
(tau-lambda)/tau rather than 1-lambda: conditional on selection a uniform
null is a candidate with probability lambda/tau, so candidate steps reuse
each series index tau/(tau-lambda) times in expectation and only this
discount keeps the selected-null exponent sum at one.  With the milder
1-lambda discount the realized FWER exceeds alpha at uniform nulls
(measured ~0.25 at alpha = 0.2, pi = 0.1), so that normalization is not
used even though its budget audit would pass.
"""

from __future__ import annotations

from .addis import _AdaptiveBase
from .core import Decision, RecycleBuffer, sidak_level, weights_from_config
from .errors import ConfigError


class _SidakBase(_AdaptiveBase):
    def __init__(self, alpha, series, tau, lam, *, k=1):
        super().__init__(alpha, series, tau, lam, k=k)
        if self._tau.is_constant and self._tau.constant < self.alpha:
            raise ConfigError(
                f"{self.kind} requires tau >= alpha, got tau={self._tau.constant} < alpha={self.alpha}"
            )

    def _check_tau_floor(self, tau_i: float) -> None:
        if tau_i < self.alpha:
            raise ConfigError(f"{self.kind} requires tau_i >= alpha, got {tau_i} < {self.alpha}")


class DiscardSidak(_SidakBase):
    """Sidak levels scaled by tau_i, with beta budget spent only on selected steps."""

    kind = "discard-sidak"

    def __init__(self, alpha, series, tau=0.5, *, k=1):
        super().__init__(alpha, series, tau, 0.0, k=k)
        self._selected = 0

    def _step(self, i: int, p: float) -> Decision:
        tau_i, _ = self._thresholds(i, i - 1)
        if not self._tau.is_constant:
            self._check_tau_floor(tau_i)
        beta = self.series.weight(1 + self._selected)
        a = self._finalize(tau_i * sidak_level(self.budget, beta), tau_i)
        selected = p <= tau_i
        rejected = self._rejects(p, a)
        if selected:
            self._selected += 1
        return Decision(i, p, a, rejected, selected=selected, tau=tau_i)


class AdaptiveSidak(_SidakBase):
    """Sidak levels with the exponent budget refunded on candidate steps."""

    kind = "adaptive-sidak"

    def __init__(self, alpha, series, lam=0.5, *, k=1):
        super().__init__(alpha, series, 1.0, lam, k=k)
        self._candidates = 0

    def _step(self, i: int, p: float) -> Decision:
        _, lam_i = self._thresholds(i, i - 1)
        beta = (1.0 - lam_i) * self.series.weight(i - self._candidates)
        a = self._finalize(sidak_level(self.budget, beta))
        candidate = p <= lam_i
        rejected = self._rejects(p, a)
        if candidate:
            self._candidates += 1
        return Decision(i, p, a, rejected, candidate=candidate, lam=lam_i)


class AddisSidak(_SidakBase):
    """Sidak levels with both discarding and adaptivity on the exponent budget."""

    kind = "addis-sidak"

    def __init__(self, alpha, series, tau=0.5, lam=0.25, *, k=1):
        super().__init__(alpha, series, tau, lam, k=k)
        self._net = 0

    def _step(self, i: int, p: float) -> Decision:
        tau_i, lam_i = self._thresholds(i, i - 1)
        if not self._tau.is_constant:
            self._check_tau_floor(tau_i)
        beta = ((tau_i - lam_i) / tau_i) * self.series.weight(1 + self._net)
        a = self._finalize(tau_i * sidak_level(self.budget, beta), tau_i)
        selected = p <= tau_i
        candidate = p <= lam_i
        rejected = self._rejects(p, a)
        self._net += int(selected) - int(candidate)
        return Decision(i, p, a, rejected, selected=selected, candidate=candidate, tau=tau_i, lam=lam_i)


class DiscardFallback(_SidakBase):
    """Fallback recycling run over the selected subsequence, scaled by tau_i.

    The hypothesis that would be the m-th selected is tested at
    tau_i * (alpha * gamma_m + recycled mass addressed to position m);
    rejected levels transfer only to later selected hypotheses, re-indexed
    over the selected subsequence.

    Cost: O(1) time per step and O(1) memory with one-step weights; other
    weights add one vectorized pass over the
    :class:`~fwerstream.core.RecycleBuffer` per rejection and hold
    O(stream length) float64.
    """

    kind = "discard-fallback"

    def __init__(self, alpha, series, tau=0.5, weights=None, *, k=1):
        super().__init__(alpha, series, tau, 0.0, k=k)
        self.weights = weights_from_config(weights, self.series)
        self._selected = 0
        self._recycled = RecycleBuffer(self.weights)  # indexed by subsequence position

    def _step(self, i: int, p: float) -> Decision:
        tau_i, _ = self._thresholds(i, i - 1)
        if not self._tau.is_constant:
            self._check_tau_floor(tau_i)
        m = 1 + self._selected
        a = self._finalize(tau_i * (self.budget * self.series.weight(m) + self._recycled.mass(m)), tau_i)
        selected = p <= tau_i
        rejected = self._rejects(p, a)
        if rejected:
            self._recycled.reject(m, a)
        if selected:
            self._selected += 1
        return Decision(i, p, a, rejected, selected=selected, tau=tau_i)
