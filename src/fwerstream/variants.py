"""Hybrids that graft discarding/adaptivity onto Sidak and fallback scheduling.

Each Sidak variant spends an exponent budget beta_i instead of a level: the
test level is tau_i * (1 - (1-alpha)^beta_i), with beta_i =
((tau_i-lambda_i)/tau_i) * gamma_t and t advancing as in the matching
spending procedure (see :mod:`fwerstream.spec`), so each series index is
consumed by at most one budgeted step and the exponent sums stay below one
on every prefix.  discard-fallback runs fallback recycling over the
selected subsequence.  These variants require tau_i >= alpha.

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

from .core import OnlineProcedure


class DiscardSidak(OnlineProcedure):
    """Sidak levels scaled by tau_i, with beta budget spent only on selected steps."""

    kind = "discard-sidak"

    def __init__(self, alpha, series, tau=None, *, k=1):
        super().__init__(alpha, series, tau, k=k)


class AdaptiveSidak(OnlineProcedure):
    """Sidak levels with the exponent budget refunded on candidate steps."""

    kind = "adaptive-sidak"

    def __init__(self, alpha, series, lam=None, *, k=1):
        super().__init__(alpha, series, lam=lam, k=k)


class AddisSidak(OnlineProcedure):
    """Sidak levels with both discarding and adaptivity on the exponent budget."""

    kind = "addis-sidak"

    def __init__(self, alpha, series, tau=None, lam=None, *, k=1):
        super().__init__(alpha, series, tau, lam, k=k)


class DiscardFallback(OnlineProcedure):
    """Fallback recycling run over the selected subsequence, scaled by tau_i.

    The hypothesis that would be the m-th selected is tested at
    tau_i * (alpha * gamma_m + recycled mass addressed to position m);
    rejected levels transfer only to later selected hypotheses, re-indexed
    over the selected subsequence.

    Cost: O(1) time per step and O(1) memory with one-step weights; other
    weights add one vectorized pass over the weight span of each rejection
    in the :class:`~fwerstream.core.RecycleBuffer`, which holds O(stream
    length) float64.
    """

    kind = "discard-fallback"

    def __init__(self, alpha, series, tau=None, weights=None, *, k=1):
        super().__init__(alpha, series, tau, weights=weights, k=k)
