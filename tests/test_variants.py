"""Sidak/fallback hybrids with discarding and adaptivity."""

import math

import numpy as np
import pytest

from fwerstream import (
    AdaptiveSidak,
    AddisSidak,
    ConfigError,
    DiscardFallback,
    DiscardSidak,
    DiscardSpending,
    LaggedSeriesWeights,
    OneStepWeights,
    OnlineFallback,
    OnlineSidak,
    QSeries,
)

Q2 = QSeries(2.0)


def fuzz_streams(n_streams, length, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    for _ in range(n_streams):
        yield rng.random(length) * scale


class TestDiscardSidak:
    def test_tau_one_is_online_sidak(self):
        for p in fuzz_streams(20, 150, seed=61):
            a = DiscardSidak(0.2, Q2, tau=1.0).run(p)
            b = OnlineSidak(0.2, Q2).run(p)
            assert [d.alpha for d in a] == [d.alpha for d in b]
            assert [d.rejected for d in a] == [d.rejected for d in b]

    def test_first_level(self):
        # tau * (1 - (1-alpha)^gamma_1) with gamma_1 = 6/pi^2
        proc = DiscardSidak(0.2, Q2, tau=0.5)
        d = proc.step(0.9)
        expected = 0.5 * (1.0 - 0.8 ** (6.0 / math.pi**2))
        assert d.alpha == pytest.approx(expected, rel=1e-12)  # ~0.063434

    def test_exponent_budget_on_selected(self):
        for p in fuzz_streams(10, 300, seed=62):
            decisions = DiscardSidak(0.2, Q2, tau=0.5).run(p)
            log1m = math.log1p(-0.2)
            betas = [
                math.log1p(-d.alpha / d.tau) / log1m if d.selected else 0.0 for d in decisions
            ]
            assert np.all(np.cumsum(betas) <= 1.0 + 1e-9)

    def test_tau_below_alpha_rejected(self):
        with pytest.raises(ConfigError):
            DiscardSidak(0.2, Q2, tau=0.1)


class TestAdaptiveSidak:
    def test_lambda_zero_is_online_sidak(self):
        for p in fuzz_streams(20, 150, seed=63):
            a = AdaptiveSidak(0.2, Q2, lam=0.0).run(p)
            b = OnlineSidak(0.2, Q2).run(p)
            assert [d.alpha for d in a] == [d.alpha for d in b]

    def test_first_level(self):
        proc = AdaptiveSidak(0.2, Q2, lam=0.5)
        d = proc.step(0.9)
        beta = 0.5 * 6.0 / math.pi**2
        assert d.alpha == pytest.approx(1.0 - 0.8**beta, rel=1e-12)

    def test_exponent_budget_on_non_candidates(self):
        for p in fuzz_streams(10, 300, seed=64):
            decisions = AdaptiveSidak(0.2, Q2, lam=0.5).run(p)
            log1m = math.log1p(-0.2)
            contrib = [
                (math.log1p(-d.alpha) / log1m) / (1.0 - d.lam) if not d.candidate else 0.0
                for d in decisions
            ]
            assert np.all(np.cumsum(contrib) <= 1.0 + 1e-9)


class TestAddisSidak:
    def test_degenerate_is_online_sidak(self):
        for p in fuzz_streams(20, 150, seed=65):
            a = AddisSidak(0.2, Q2, tau=1.0, lam=0.0).run(p)
            b = OnlineSidak(0.2, Q2).run(p)
            assert [d.alpha for d in a] == [d.alpha for d in b]

    def test_first_level(self):
        # exponent budget (tau-lambda)/tau * gamma_1 = 0.5 * gamma_1
        proc = AddisSidak(0.2, Q2, tau=0.5, lam=0.25)
        d = proc.step(0.9)
        expected = 0.5 * (1.0 - 0.8 ** (0.5 * 6.0 / math.pi**2))
        assert d.alpha == pytest.approx(expected, rel=1e-12)

    def test_exponent_budget(self):
        # the tight selection-conditional sum, and the milder 1-lambda form
        for p in fuzz_streams(10, 300, seed=66):
            decisions = AddisSidak(0.2, Q2, tau=0.5, lam=0.25).run(p)
            log1m = math.log1p(-0.2)
            tight = [
                (math.log1p(-d.alpha / d.tau) / log1m) * d.tau / (d.tau - d.lam)
                if (d.selected and not d.candidate)
                else 0.0
                for d in decisions
            ]
            assert np.all(np.cumsum(tight) <= 1.0 + 1e-9)

    def test_mild_budget_form_implied(self):
        for p in fuzz_streams(5, 300, seed=660):
            decisions = AddisSidak(0.2, Q2, tau=0.5, lam=0.25).run(p)
            log1m = math.log1p(-0.2)
            mild = [
                (math.log1p(-d.alpha / d.tau) / log1m) / (1.0 - d.lam)
                if (d.selected and not d.candidate)
                else 0.0
                for d in decisions
            ]
            assert np.all(np.cumsum(mild) <= 1.0 + 1e-9)

    def test_precondition(self):
        with pytest.raises(ConfigError):
            AddisSidak(0.3, Q2, tau=0.25, lam=0.1)  # tau < alpha

    @pytest.mark.parametrize("tau,lam,message", [
        ([0.5, 0.5, 0.3], 0.4, "step 3: lambda must be < tau"),
        (0.5, [0.1, 0.2, 0.5], "step 3: lambda must be < tau"),
        ([0.5, 0.1], lambda prefix: 0.05, "step 2: addis-sidak requires tau >= alpha"),
        ([0.5, 0.5, 0.1], [0.25, 0.25], None),  # the check stops where lambda's sequence ends
    ], ids=["tau-sequence", "lambda-sequence", "tau-floor", "shorter-sequence"])
    def test_sequences_checked_at_every_step_when_built(self, tau, lam, message):
        if message is None:
            AddisSidak(0.2, Q2, tau=tau, lam=lam)
            return
        with pytest.raises(ConfigError, match=message):
            AddisSidak(0.2, Q2, tau=tau, lam=lam)

    def test_callable_schedule_checked_step_by_step(self):
        proc = AddisSidak(0.2, Q2, tau=lambda prefix: 0.5 if len(prefix) < 2 else 0.1, lam=0.05)
        proc.run([0.9, 0.9])
        with pytest.raises(ConfigError, match="requires tau >= alpha"):
            proc.step(0.9)


class TestSidakDominatesSpendingBudget:
    def test_exponential_vs_linear_levels(self):
        # 1-(1-a)^x >= a*x on [0, 1]: the sidak-type level dominates the
        # spending-type level built from the same budget x
        for p in fuzz_streams(5, 200, seed=67):
            sidak_run = DiscardSidak(0.2, Q2, tau=0.5).run(p)
            spend_run = DiscardSpending(0.2, Q2, tau=0.5).run(p)
            for ds, dp in zip(sidak_run, spend_run):
                assert ds.alpha >= dp.alpha


class TestDiscardFallback:
    def test_tau_one_is_online_fallback(self):
        for weights in (OneStepWeights(), LaggedSeriesWeights(Q2)):
            for p in fuzz_streams(10, 200, seed=68):
                a = DiscardFallback(0.2, Q2, tau=1.0, weights=weights).run(p)
                b = OnlineFallback(0.2, Q2, weights=weights).run(p)
                assert [d.alpha for d in a] == [d.alpha for d in b]
                assert [d.rejected for d in a] == [d.rejected for d in b]

    def test_no_rejections_matches_discard_spending(self):
        fall = DiscardFallback(0.2, Q2, tau=0.5, weights=OneStepWeights())
        spend = DiscardSpending(0.2, Q2, tau=0.5)
        rng = np.random.default_rng(69)
        for x in 0.2 + 0.8 * rng.random(200):  # nothing below the levels
            df = fall.step(x)
            dd = spend.step(x)
            assert not df.rejected
            assert df.alpha == pytest.approx(dd.alpha, rel=5e-16)
            assert df.selected == dd.selected

    def test_recycles_within_selected_subsequence(self):
        proc = DiscardFallback(0.2, Q2, tau=0.5, weights=OneStepWeights())
        d1 = proc.step(0.01)  # selected + rejected at 0.5*0.2*gamma_1
        assert d1.selected and d1.rejected
        d2 = proc.step(0.9)  # discarded: must NOT absorb the recycled mass
        assert not d2.selected
        d3 = proc.step(0.3)  # next selected: gains d1's full level
        assert d3.selected
        assert d3.alpha == 0.5 * (0.2 * Q2.weight(2) + d1.alpha)
        # the discarded step in between was offered the same boosted level
        assert d2.alpha == d3.alpha

    def test_budget_audit(self):
        for p in fuzz_streams(10, 300, seed=70):
            decisions = DiscardFallback(0.2, Q2, tau=0.5, weights=LaggedSeriesWeights(Q2)).run(p)
            contrib = [
                d.alpha / d.tau if (d.selected and not d.rejected) else 0.0 for d in decisions
            ]
            assert np.all(np.cumsum(contrib) <= 0.2 + 1e-9)

    def test_tau_below_alpha_rejected(self):
        with pytest.raises(ConfigError):
            DiscardFallback(0.5, Q2, tau=0.4)
