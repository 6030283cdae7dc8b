"""Alpha-spending, online Sidak, and online fallback schedulers."""

import gc
import math
import weakref

import numpy as np
import pytest

from fwerstream import (
    AlphaSpending,
    BudgetError,
    ConfigError,
    ExplicitSeries,
    ExplicitWeights,
    LaggedSeriesWeights,
    OneStepWeights,
    OnlineFallback,
    OnlineSidak,
    PROCEDURES,
    ProcedureConfig,
    QSeries,
    StreamError,
)
from fwerstream.core import RecycleBuffer

Q2 = QSeries(2.0)


class TestAlphaSpending:
    def test_first_level_and_rejection(self):
        proc = AlphaSpending(0.2, Q2)
        d = proc.step(0.05)
        assert d.alpha == pytest.approx(0.2 * 6.0 / math.pi**2, rel=1e-12)  # ~0.121585
        assert d.rejected and d.selected and not d.candidate

    def test_p_equal_one_never_rejected(self):
        proc = AlphaSpending(0.99, QSeries(1.01))
        for _ in range(50):
            d = proc.step(1.0)
            assert not d.rejected
            assert d.alpha < 1.0

    def test_single_weight_passthrough(self):
        proc = AlphaSpending(0.2, ExplicitSeries([1.0]))
        assert proc.step(0.5).alpha == 0.2

    def test_budget_prefix_sums(self):
        proc = AlphaSpending(0.2, Q2)
        levels = [proc.step(0.5).alpha for _ in range(2000)]
        assert np.all(np.cumsum(levels) <= 0.2 + 1e-12)

    def test_input_validation(self):
        proc = AlphaSpending(0.2, Q2)
        for bad in (-0.1, 1.5, float("nan"), "p"):
            with pytest.raises(StreamError):
                proc.step(bad)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.2, 2):
            with pytest.raises(ConfigError):
                AlphaSpending(bad, Q2)

    def test_zero_weight_tail_never_rejects(self):
        proc = AlphaSpending(0.2, ExplicitSeries([0.5]))
        proc.step(0.5)
        d = proc.step(0.0)  # beyond the list: level 0, p = 0 must not reject
        assert d.alpha == 0.0 and not d.rejected


class TestOnlineSidak:
    def test_first_level(self):
        proc = OnlineSidak(0.2, Q2)
        d = proc.step(0.13)
        expected = 1.0 - 0.8 ** (6.0 / math.pi**2)
        assert d.alpha == pytest.approx(expected, rel=1e-12)  # ~0.12687
        assert not d.rejected  # 0.13 > 0.12687

    def test_dominates_spending_strictly(self):
        spend = AlphaSpending(0.2, Q2)
        sidak = OnlineSidak(0.2, Q2)
        for _ in range(200):
            a_sp = spend.step(0.5).alpha
            a_si = sidak.step(0.5).alpha
            assert a_si > a_sp  # strict for 0 < gamma < 1

    def test_unit_exponent_exact(self):
        proc = OnlineSidak(0.2, ExplicitSeries([1.0]))
        assert proc.step(0.2).alpha == 0.2

    def test_tiny_exponent_no_underflow(self):
        proc = OnlineSidak(0.2, ExplicitSeries([1e-12]))
        a = proc.step(1e-13).alpha
        assert a == pytest.approx(1e-12 * (-math.log1p(-0.2)), rel=1e-9)
        assert a > 0.0

    def test_product_bound(self):
        rng = np.random.default_rng(7)
        proc = OnlineSidak(0.3, QSeries(1.5))
        decisions = proc.run(rng.random(3000))
        log_prod = math.fsum(math.log1p(-d.alpha) for d in decisions)
        assert log_prod >= math.log1p(-0.3) * (1.0 + 1e-12)

    def test_kfwer_wrapping_refused(self):
        with pytest.raises(ConfigError):
            OnlineSidak(0.2, Q2, k=2)


class TestFallbackWeights:
    def test_one_step(self):
        w = OneStepWeights()
        assert w.weight(3, 4) == 1.0
        assert w.weight(3, 5) == 0.0

    def test_lagged_series(self):
        w = LaggedSeriesWeights(Q2)
        assert w.weight(2, 3) == Q2.weight(1)
        assert w.weight(2, 7) == Q2.weight(5)

    def test_explicit_rows_validated(self):
        with pytest.raises(ConfigError):
            ExplicitWeights([[0.6, 0.6]])
        with pytest.raises(ConfigError):
            ExplicitWeights([[-0.1]])
        w = ExplicitWeights([[0.25, 0.75], []])
        assert w.weight(1, 2) == 0.25
        assert w.weight(1, 3) == 0.75
        assert w.weight(2, 3) == 0.0
        assert w.weight(5, 9) == 0.0  # beyond provided rows

    def test_span_is_no_longer_than_the_nonzero_row(self):
        # recycling adds a rejected level to the span only, so a short row
        # costs O(its length) however far away the horizon is
        w = ExplicitWeights([[0.5, 0.5], [], [0.25] * 4])
        assert w.span(1, 10**6).tolist() == [0.5, 0.5]
        assert w.span(2, 10**6).size == 0
        assert w.span(3, 10**6).size <= 4
        assert w.span(9, 10**6).size == 0  # beyond provided rows
        assert w.span(1, 2).tolist() == [0.5]  # capped at the horizon
        assert OneStepWeights().span(3, 10**6).tolist() == [1.0]
        assert OneStepWeights().span(3, 3).size == 0


class TestRecycleBuffer:
    @pytest.mark.parametrize(
        "weights",
        [OneStepWeights(), LaggedSeriesWeights(Q2),
         ExplicitWeights([[0.5, 0.25], [], [1.0 / 1500] * 1500] * 700)],
        ids=["one-step", "lagged-gamma", "explicit"],
    )
    def test_mass_equals_ledger_loop(self, weights):
        # the reference is the per-step loop over every past rejection; the
        # buffer must return the same float through two capacity doublings
        rng = np.random.default_rng(21)
        buf = RecycleBuffer(weights)
        ledger = []
        for i in range(1, 2 * RecycleBuffer.FIRST_CAPACITY + 300):
            expected = 0.0
            for k, a in ledger:
                expected += weights.weight(k, i) * a
            assert buf.mass(i) == expected
            assert buf.mass(i) == expected  # reading twice changes nothing
            if rng.random() < 0.3:
                a = float(rng.random()) * 0.1
                ledger.append((i, a))
                buf.reject(i, a)


class TestOnlineFallback:
    def test_one_step_recursion(self):
        # after a rejection the next level gains the full realized level
        proc = OnlineFallback(0.2, Q2, OneStepWeights())
        d1 = proc.step(0.01)
        assert d1.rejected
        d2 = proc.step(0.9)
        assert d2.alpha == 0.2 * Q2.weight(2) + d1.alpha

    def test_eq5_recursion_on_fuzz(self):
        rng = np.random.default_rng(11)
        proc = OnlineFallback(0.2, Q2, OneStepWeights())
        decisions = proc.run(rng.random(500) * 0.5)
        for i in range(1, len(decisions)):
            prev = decisions[i - 1]
            base = 0.2 * Q2.weight(i + 1)
            expected = base + prev.alpha if prev.rejected else base
            assert decisions[i].alpha == expected

    def test_no_rejections_matches_spending(self):
        spend = AlphaSpending(0.2, Q2)
        fall = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2))
        for _ in range(100):
            assert fall.step(0.99).alpha == spend.step(0.99).alpha

    def test_lagged_gamma_expansion(self):
        # with w[k,i] = gamma_{i-k} and only H_1 rejected:
        # alpha_3 = 0.2*gamma_3 + gamma_2*alpha_1
        proc = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2))
        d1 = proc.step(0.001)
        assert d1.rejected
        d2 = proc.step(0.9)
        assert not d2.rejected
        d3 = proc.step(0.9)
        assert d3.alpha == pytest.approx(0.2 * Q2.weight(3) + Q2.weight(2) * d1.alpha, rel=1e-15)

    def test_dominates_spending_pointwise(self):
        rng = np.random.default_rng(3)
        p = rng.random(800)
        spend = AlphaSpending(0.2, Q2)
        fall = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2))
        for x in p:
            assert fall.step(x).alpha >= spend.step(x).alpha

    def test_monotone_response_to_removed_rejection(self):
        rng = np.random.default_rng(5)
        p = rng.random(300) * 0.4
        base = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2)).run(p)
        rejected_idx = [d.index for d in base if d.rejected]
        assert rejected_idx, "fuzz stream must produce rejections"
        k = rejected_idx[len(rejected_idx) // 2]
        altered = p.copy()
        altered[k - 1] = 1.0  # flip that rejection to a non-rejection
        re_run = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2)).run(altered)
        for d_new, d_old in zip(re_run[k:], base[k:]):
            assert d_new.alpha <= d_old.alpha

    def test_non_rejected_mass_bounded(self):
        rng = np.random.default_rng(9)
        proc = OnlineFallback(0.2, Q2, LaggedSeriesWeights(Q2))
        decisions = proc.run(rng.random(1500))
        hold = math.fsum(d.alpha for d in decisions if not d.rejected)
        assert hold <= 0.2 + 1e-12

    def test_levels_stay_below_one(self):
        proc = OnlineFallback(0.99, ExplicitSeries([1.0]), OneStepWeights())
        for _ in range(200):
            assert proc.step(0.0).alpha < 1.0


class TestKfwerOnSchedulers:
    def test_k2_doubles_levels_exactly(self):
        base = AlphaSpending(0.2, Q2)
        wrapped = AlphaSpending(0.2, Q2, k=2)
        for _ in range(100):
            assert wrapped.step(0.7).alpha == 2.0 * base.step(0.7).alpha

    def test_k1_identical_trace(self):
        rng = np.random.default_rng(2)
        p = rng.random(200)
        assert AlphaSpending(0.2, Q2, k=1).run(p) == AlphaSpending(0.2, Q2).run(p)

    def test_saturating_budget_warns_and_clamps(self):
        with pytest.warns(UserWarning):
            proc = AlphaSpending(0.3, ExplicitSeries([1.0]), k=4)
        d = proc.step(0.5)
        assert d.alpha < 1.0

    def test_bad_schedule_level_raises(self):
        class Rigged(AlphaSpending):
            def _step(self, i, p):
                return super()._step(i, p) if i > 1 else self._boom(i, p)

            def _boom(self, i, p):
                self._finalize(1.5)
                raise AssertionError("unreachable")

        with pytest.raises(BudgetError):
            Rigged(0.2, Q2).step(0.5)


@pytest.mark.parametrize("name", PROCEDURES)
def test_finished_scheduler_freed_without_the_cycle_collector(name):
    # a trace may hold millions of decisions; a reference cycle through the
    # scheduler would keep it alive until the cyclic collector happens to run
    gc.disable()
    try:
        scheduler = ProcedureConfig(procedure=name, alpha=0.2).build()
        scheduler.run([0.01, 0.6, 0.3])
        ref = weakref.ref(scheduler)
        del scheduler
        assert ref() is None
    finally:
        gc.enable()
