"""Weight-series construction, certified normalization, and memo behavior."""

import concurrent.futures
import math

import numpy as np
import pytest

from fwerstream import ConfigError, ExplicitSeries, LogQSeries, ProcedureConfig, QSeries, make_runner, series_from_config


def brute_force_zeta(q: float, terms: int = 10**8) -> tuple[float, float]:
    """Independent normalizer oracle: long partial sum plus integral tail bounds."""
    total = 0.0
    chunk = 10**7
    lo = 1
    while lo <= terms:
        hi = min(lo + chunk - 1, terms)
        total += float(np.sum(np.arange(lo, hi + 1, dtype=np.float64) ** (-q)))
        lo = hi + 1
    tail_lo = (terms + 1.0) ** (1.0 - q) / (q - 1.0)
    tail_hi = terms ** (1.0 - q) / (q - 1.0)
    return total + tail_lo, total + tail_hi


class TestQSeries:
    def test_first_weight_q2(self):
        # zeta(2) = pi^2/6, so gamma_1 = 6/pi^2
        s = QSeries(2.0)
        assert s.weight(1) == pytest.approx(6.0 / math.pi**2, rel=1e-12)

    def test_ratio_is_exact_power(self):
        s = QSeries(2.0)
        assert s.weight(2) == s.weight(1) / 4.0  # 2^-2 and /4 are exact in binary

    def test_q11_partial_sum_monotone_toward_one(self):
        s = QSeries(1.1)
        partial = np.cumsum(s.weights_upto(10**6))
        assert 0.5 < partial[-1] < 1.0
        assert np.all(np.diff(partial) > 0.0)

    def test_q11_weight_matches_brute_force(self):
        z_lo, z_hi = brute_force_zeta(1.1)
        s = QSeries(1.1)
        w10 = s.weight(10)
        assert 10.0 ** (-1.1) / z_hi <= w10 <= 10.0 ** (-1.1) / z_lo
        assert w10 == pytest.approx(10.0 ** (-1.1) / (0.5 * (z_lo + z_hi)), rel=1e-9)

    @pytest.mark.parametrize("q", [1.1, 2.0, 3.0, 50.0])
    def test_tail_bracket_contains_one(self, q):
        s = QSeries(q)
        for n in (1, 10, 1000, 10**6):
            partial = s.partial_sum(n)
            tail_lo, tail_hi = s.tail_sum_bracket(n)
            assert partial + tail_lo <= 1.0 + 1e-12
            assert partial + tail_hi >= 1.0 - 1e-12
            assert partial <= 1.0 + 1e-12

    @pytest.mark.parametrize("q", [1.1, 2.0, 3.0])
    def test_weight_times_power_constant(self, q):
        s = QSeries(q)
        idx = np.arange(1, 2001, dtype=np.float64)
        scaled = s.weights_upto(2000) * idx**q
        assert np.all(np.abs(scaled / scaled[0] - 1.0) < 1e-12)

    def test_weights_nonincreasing(self):
        for s in (QSeries(1.5), LogQSeries(1.5)):
            w = s.weights_upto(5000)
            assert np.all(np.diff(w) <= 0.0)

    @pytest.mark.parametrize("q", [1.0, 0.5, 0.0, -2.0])
    def test_rejects_q_at_most_one(self, q):
        with pytest.raises(ConfigError):
            QSeries(q)


class TestLogQSeries:
    def test_unnormalized_ratio(self):
        # u_i = 1/((i+1) log(i+1)^q): u_1/u_2 = 3 log(3)^2 / (2 log(2)^2)
        s = LogQSeries(2.0)
        expected = (3.0 * math.log(3.0) ** 2) / (2.0 * math.log(2.0) ** 2)
        assert s.weight(1) / s.weight(2) == pytest.approx(expected, rel=1e-12)

    def test_rejects_small_q(self):
        with pytest.raises(ConfigError):
            LogQSeries(0.5)

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_tail_bracket_contains_one(self, q):
        s = LogQSeries(q)
        for n in (1, 100, 10**5):
            partial = s.partial_sum(n)
            tail_lo, tail_hi = s.tail_sum_bracket(n)
            assert partial + tail_lo <= 1.0 + 1e-12
            assert partial + tail_hi >= 1.0 - 1e-12

    def test_normalizer_against_direct_sum(self):
        # 10^7-term partial sum brackets the normalizer independently
        q = 2.0
        idx = np.arange(1, 10**7 + 1, dtype=np.float64)
        partial = float(np.sum(1.0 / ((idx + 1.0) * np.log(idx + 1.0) ** q)))
        tail_hi = math.log(10**7 + 1.5) ** (1.0 - q) / (q - 1.0)
        s = LogQSeries(q)
        assert partial <= s.normalizer <= partial + tail_hi + 1e-12


class TestExplicitSeries:
    def test_passthrough_and_zero_tail(self):
        s = ExplicitSeries([0.5, 0.5])
        assert s.weight(2) == 0.5
        assert s.weight(3) == 0.0
        assert s.partial_sum(2) == 1.0

    def test_rejects_bad_lists(self):
        with pytest.raises(ConfigError):
            ExplicitSeries([0.7, 0.7])
        with pytest.raises(ConfigError):
            ExplicitSeries([-0.1, 0.5])
        with pytest.raises(ConfigError):
            ExplicitSeries([])

    def test_shortfall_allowed(self):
        s = ExplicitSeries([0.25, 0.25])
        lo, hi = s.tail_sum_bracket(2)
        assert lo == hi == 0.0


class TestAccessors:
    def test_index_zero_rejected(self):
        with pytest.raises(IndexError):
            QSeries(2.0).weight(0)
        with pytest.raises(IndexError):
            ExplicitSeries([1.0]).weight(0)

    def test_repeat_calls_bit_identical(self):
        s = QSeries(1.3)
        first = [s.weight(i) for i in (5, 1, 999, 12)]
        again = [s.weight(i) for i in (5, 1, 999, 12)]
        assert first == again

    def test_order_independent(self):
        a = QSeries(1.7)
        b = QSeries(1.7)
        _ = a.weight(2000)  # force one memo to grow first
        for i in (1, 3, 1999):
            assert a.weight(i) == b.weight(i)

    def test_concurrent_reads(self):
        s = LogQSeries(2.0)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(s.weight, range(1, 4001)))
        assert results == [s.weight(i) for i in range(1, 4001)]


class TestConfigParsing:
    def test_kinds(self):
        assert isinstance(series_from_config({"kind": "q", "q": 2}), QSeries)
        assert isinstance(series_from_config({"kind": "log-q", "q": 2}), LogQSeries)
        assert isinstance(series_from_config({"kind": "explicit", "weights": [1.0]}), ExplicitSeries)

    def test_bad_configs(self):
        for cfg in ({}, {"kind": "zeta"}, {"kind": "q"}, {"kind": "q", "q": "two"}, 7):
            with pytest.raises(ConfigError):
                series_from_config(cfg)

    @pytest.mark.parametrize("cfg", [
        ProcedureConfig(procedure="alpha-spending", alpha=0.9999999999999,
                        series={"kind": "explicit", "weights": [1.000000000001]}),
        ProcedureConfig(procedure="discard-spending", alpha=0.4999999999999, k=2, tau=0.5,
                        series={"kind": "explicit", "weights": [1.000000000001]}),
        ProcedureConfig(procedure="discard-fallback", alpha=0.2, tau=0.5,
                        weights={"kind": "explicit", "rows": [[0.5, 0.5], [1.000000000001]]}),
    ], ids=["alpha-spending", "discard-spending", "fallback-row"])
    def test_an_explicit_weight_above_one_is_refused(self, cfg):
        # its sum passes the 1e-12 slack, but its level would reach tau: the step, the runner and the
        # validation refuse it alike
        for build in (cfg.build, lambda: make_runner(cfg)):
            with pytest.raises(ConfigError, match=r"entry 0 = 1\.000000000001 above one"):
                build()
