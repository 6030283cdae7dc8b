"""Discarding/adaptive/ADDIS schedulers, lag handling, and k-FWER wrapping."""

import math

import numpy as np
import pytest

from fwerstream import (
    AdaptiveSpending,
    AddisLocalSpending,
    AddisSpending,
    AlphaSpending,
    ConfigError,
    DiscardSpending,
    LagSchedule,
    ProcedureConfig,
    QSeries,
    kfwer_wrap,
)
from fwerstream.core import StreamState

Q2 = QSeries(2.0)


def fuzz_streams(n_streams, length, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    for _ in range(n_streams):
        yield rng.random(length) * scale


class TestDiscardSpending:
    def test_discarded_step_keeps_series_index(self):
        proc = DiscardSpending(0.2, Q2, tau=0.5)
        d1 = proc.step(0.7)  # above tau: discarded
        assert not d1.selected and not d1.rejected
        assert d1.alpha == 0.2 * 0.5 * Q2.weight(1)
        d2 = proc.step(0.3)  # still charged against gamma_1
        assert d2.alpha == 0.2 * 0.5 * Q2.weight(1)
        assert d2.selected
        d3 = proc.step(0.3)
        assert d3.alpha == 0.2 * 0.5 * Q2.weight(2)

    def test_tau_one_equals_alpha_spending(self):
        for p in fuzz_streams(20, 150, seed=21):
            a = DiscardSpending(0.2, Q2, tau=1.0).run(p)
            b = AlphaSpending(0.2, Q2).run(p)
            assert [d.alpha for d in a] == [d.alpha for d in b]
            assert [d.rejected for d in a] == [d.rejected for d in b]

    def test_budget_each_gamma_spent_once(self):
        for p in fuzz_streams(10, 400, seed=22):
            decisions = DiscardSpending(0.2, Q2, tau=0.5).run(p)
            spent = np.cumsum([d.alpha / d.tau if d.selected else 0.0 for d in decisions])
            assert np.all(spent <= 0.2 + 1e-12)

    def test_tau_schedule_validation(self):
        with pytest.raises(ConfigError):
            DiscardSpending(0.2, Q2, tau=0.0)
        with pytest.raises(ConfigError):
            DiscardSpending(0.2, Q2, tau=1.2)


class TestAdaptiveSpending:
    def test_lambda_zero_equals_alpha_spending(self):
        for p in fuzz_streams(20, 150, seed=31):
            a = AdaptiveSpending(0.2, Q2, lam=0.0).run(p)
            b = AlphaSpending(0.2, Q2).run(p)
            assert [d.alpha for d in a] == [d.alpha for d in b]

    def test_candidate_does_not_advance_index(self):
        proc = AdaptiveSpending(0.2, Q2, lam=0.5)
        d1 = proc.step(0.4)  # candidate
        assert d1.candidate
        d2 = proc.step(0.9)
        assert d2.alpha == 0.2 * 0.5 * Q2.weight(1)  # 0.1 * gamma_1
        assert not d2.candidate

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveSpending(0.2, Q2, lam=1.0)
        with pytest.raises(ConfigError):
            AdaptiveSpending(0.2, Q2, lam=-0.1)


class TestAddisSpending:
    def test_default_first_level(self):
        proc = AddisSpending(0.2, Q2)  # (tau, lambda) = (1/2, 1/4)
        d = proc.step(0.6)
        assert d.alpha == pytest.approx(0.05 * 6.0 / math.pi**2, rel=1e-12)  # ~0.0303964

    def test_degenerate_params_equal_alpha_spending(self):
        # p <= 1 always selects and p <= 0 never candidates, so the whole
        # Decision records must coincide
        for p in fuzz_streams(20, 150, seed=41):
            a = AddisSpending(0.2, Q2, tau=1.0, lam=0.0).run(p)
            b = AlphaSpending(0.2, Q2).run(p)
            assert a == b

    def test_lambda_zero_equals_discard(self):
        for p in fuzz_streams(20, 200, seed=42):
            a = AddisSpending(0.2, Q2, tau=0.5, lam=0.0).run(p)
            b = DiscardSpending(0.2, Q2, tau=0.5).run(p)
            assert [(d.alpha, d.rejected, d.selected) for d in a] == [
                (d.alpha, d.rejected, d.selected) for d in b
            ]

    def test_tau_one_equals_adaptive(self):
        for p in fuzz_streams(20, 200, seed=43):
            a = AddisSpending(0.2, Q2, tau=1.0, lam=0.25).run(p)
            b = AdaptiveSpending(0.2, Q2, lam=0.25).run(p)
            assert [(d.alpha, d.rejected, d.candidate) for d in a] == [
                (d.alpha, d.rejected, d.candidate) for d in b
            ]

    def test_level_below_tau_always(self):
        for p in fuzz_streams(10, 300, seed=44):
            for d in AddisSpending(0.2, Q2, tau=0.5, lam=0.25).run(p):
                assert d.alpha < d.tau

    def test_lambda_at_least_tau_rejected(self):
        with pytest.raises(ConfigError):
            AddisSpending(0.2, Q2, tau=0.5, lam=0.5)
        with pytest.raises(ConfigError):
            AddisSpending(0.2, Q2, tau=0.5, lam=0.6)

    def test_budget_constraint_on_fuzz(self):
        for p in fuzz_streams(10, 400, seed=45):
            decisions = AddisSpending(0.2, Q2, tau=0.5, lam=0.25).run(p)
            contrib = [
                d.alpha / (d.tau - d.lam) if (d.selected and not d.candidate) else 0.0
                for d in decisions
            ]
            assert np.all(np.cumsum(contrib) <= 0.2 + 1e-12)

    def test_callable_schedule_receives_only_prefix(self):
        seen = []

        def tau_fn(prefix):
            seen.append(len(prefix))
            return 0.5

        proc = AddisSpending(0.2, Q2, tau=tau_fn, lam=0.25)
        proc.run([0.3, 0.6, 0.9])
        assert seen == [0, 1, 2]

        # with lag 2 step i sees max(0, i-3) decisions; a kept prefix is a
        # view that keeps reading the same decisions as the trace grows
        kept = []

        def keep_fn(prefix):
            kept.append(prefix)
            return 0.5

        proc = AddisLocalSpending(0.2, Q2, tau=keep_fn, lam=0.25, lags=LagSchedule(constant=2))
        proc.run([0.3, 0.01, 0.9, 0.2, 0.6, 0.1, 0.4])
        assert [len(v) for v in kept] == [max(0, i - 3) for i in range(1, 8)]
        for view in kept:
            n = len(view)
            assert list(view) == proc.trace[:n]
            assert view[::-1] == tuple(proc.trace[:n][::-1])
            assert view[1:] == tuple(proc.trace[1:n])
            if n:
                assert view[-1] is proc.trace[n - 1]
            with pytest.raises(IndexError):
                view[n]
            with pytest.raises(IndexError):
                view[-n - 1]


class TestAddisLocal:
    def test_zero_lags_equal_addis(self):
        for p in fuzz_streams(20, 200, seed=51):
            a = AddisLocalSpending(0.2, Q2, lags=LagSchedule(constant=0)).run(p)
            b = AddisSpending(0.2, Q2).run(p)
            assert a == b

    def test_first_step_any_lag(self):
        for lag in (0, 3, 100):
            proc = AddisLocalSpending(0.2, Q2, lags=LagSchedule(constant=lag))
            d = proc.step(0.3)
            assert d.alpha == 0.2 * 0.25 * Q2.weight(1)  # t(1) = 1 regardless of lag

    def test_constant_lag_two_index_arithmetic(self):
        # with L = 2, t(4) = 1 + 2 + (S_1 - C_1)
        p = [0.3, 0.3, 0.3, 0.3, 0.3]  # selected, not candidate at (1/2, 1/4)
        proc = AddisLocalSpending(0.2, Q2, lags=LagSchedule(constant=2))
        decisions = proc.run(p)
        assert decisions[3].alpha == 0.2 * 0.25 * Q2.weight(1 + 2 + 1)

    def test_perturbing_lag_window_never_changes_level(self):
        rng = np.random.default_rng(52)
        lag = 4
        p = rng.random(60)
        base = AddisLocalSpending(0.2, Q2, lags=LagSchedule(constant=lag)).run(p)
        for i in (10, 25, 59):
            for j in range(max(0, i - lag), i):  # indices i-L..i-1 (0-based j)
                altered = p.copy()
                altered[j] = rng.random()
                re_run = AddisLocalSpending(0.2, Q2, lags=LagSchedule(constant=lag)).run(altered)
                assert re_run[i].alpha == base[i].alpha
                assert re_run[i].tau == base[i].tau
                assert re_run[i].lam == base[i].lam

    def test_batch_ids_to_lags(self):
        lags = LagSchedule.from_batch_ids(["a", "a", "a", "b", "b", "c"])
        assert [lags.value(i) for i in range(1, 7)] == [0, 1, 2, 0, 1, 0]

    def test_batch_ids_must_be_contiguous(self):
        with pytest.raises(ConfigError):
            LagSchedule.from_batch_ids(["a", "b", "a"])

    def test_inadmissible_lag_list(self):
        with pytest.raises(ConfigError):
            LagSchedule(values=[0, 2, 0])
        LagSchedule(values=[0, 1, 2, 0, 1])  # admissible

    def test_lag_schedule_reads_like_a_schedule(self):
        const, listed = LagSchedule(constant=2), LagSchedule(values=[0, 1, 2, 0])
        state = StreamState()  # the state's batch rule continues the open batch from one call to the next
        batched = LagSchedule(values=[lag for ids in (["a", "a"], ["b"]) for lag in state.batch_lags(ids)[0]])
        assert [const.value(i) for i in (1, 5, 10**9)] == [2, 2, 2]
        assert const.values(3, 6) == [2, 2, 2] and listed.values(1, 4) == [1, 2, 0] == listed.seq[1:]
        assert [batched.value(i) for i in (1, 2, 3)] == [0, 1, 0] == batched.values(0, 3)
        assert const.config() == {"kind": "constant", "value": 2}
        assert batched.config() == {"kind": "list", "values": [0, 1, 0]}
        for read, step in ((lambda: listed.value(5), 5), (lambda: listed.values(2, 6), 5),
                           (lambda: listed.values(5, 7), 6)):  # the first step past the end
            with pytest.raises(ConfigError, match=rf"^lag schedule has 4 entries; step {step} requested$"):
                read()

    def test_lag_list_shorter_than_stream(self):
        proc = AddisLocalSpending(0.2, Q2, lags=LagSchedule(values=[0, 1]))
        proc.step(0.4)
        proc.step(0.4)
        with pytest.raises(ConfigError):
            proc.step(0.4)


class TestKfwerWrap:
    def test_identity_at_k1(self):
        cfg = ProcedureConfig(procedure="addis-spending", alpha=0.2)
        assert kfwer_wrap(cfg, 1) == cfg

    def test_budget_inflation(self):
        cfg = kfwer_wrap(ProcedureConfig(procedure="alpha-spending", alpha=0.2), 2)
        assert cfg.k == 2
        sched = cfg.build()
        assert sched.budget == 0.4

    def test_non_pfer_procedures_refused(self):
        for name in ("online-sidak", "online-fallback", "discard-sidak", "discard-fallback"):
            with pytest.raises(ConfigError):
                kfwer_wrap(ProcedureConfig(procedure=name, alpha=0.2), 2)

    def test_saturation_warning(self):
        with pytest.warns(UserWarning):
            kfwer_wrap(ProcedureConfig(procedure="alpha-spending", alpha=0.3), 4)

    def test_a_setting_the_scheduler_refuses_is_refused(self):
        # alpha is checked where the scheduler holds it, so kfwer_wrap builds the wrapped config
        with pytest.raises(ConfigError, match="^alpha must be a number, got 'x'$"):
            kfwer_wrap(ProcedureConfig.from_dict({"procedure": "alpha-spending", "alpha": "x"}), 2)

    def test_boolean_k_refused(self):
        # k = True would pass an isinstance(k, int) check and mean k = 1
        with pytest.raises(ConfigError):
            kfwer_wrap(ProcedureConfig(procedure="alpha-spending", alpha=0.2), True)
        with pytest.raises(ConfigError):
            AlphaSpending(0.2, Q2, k=True)
