"""Power solvers: discovery curves, optimal exponent, c*, optimal weights."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fwerstream import (
    ConfigError,
    GaussianMixModel,
    cstar_threshold,
    expected_true_discoveries,
    optimal_gamma_varying,
    optimal_q,
)
from fwerstream.power import mixture_cdf

from test_series import brute_force_zeta

Q2_CFG = {"kind": "q", "q": 2.0}


def oracle_curve(n, alpha, q, mu_a, pi_a=1.0):
    """Independent evaluation: brute-force normalizer + direct formula."""
    z_lo, z_hi = brute_force_zeta(q, terms=10**7)
    zeta = 0.5 * (z_lo + z_hi)
    idx = np.arange(1, n + 1, dtype=np.float64)
    levels = alpha * idx ** (-q) / zeta
    return pi_a * float(np.sum(ndtr(ndtri(levels) + mu_a)))


class TestExpectedDiscoveries:
    def test_against_independent_oracle(self):
        model = GaussianMixModel(pi_a=0.7, mu_a=4.0, mu_n=-1.0)
        got = expected_true_discoveries(500, 0.2, Q2_CFG, model)
        assert got == pytest.approx(oracle_curve(500, 0.2, 2.0, 4.0, 0.7), rel=1e-9)

    def test_single_test_value(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        got = expected_true_discoveries(1, 0.2, Q2_CFG, model)
        expected = float(ndtr(ndtri(0.2 * 6.0 / math.pi**2) + 4.0))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_signal_shift_is_identity(self):
        # mu_a = 0 collapses the curve to pi * alpha * partial weight sum
        model = GaussianMixModel(pi_a=0.3, mu_a=0.0, mu_n=0.0)
        from fwerstream import QSeries

        s = QSeries(2.0)
        got = expected_true_discoveries(200, 0.2, s, model)
        assert got == pytest.approx(0.3 * 0.2 * s.partial_sum(200), rel=1e-12)
        assert expected_true_discoveries(math.inf, 0.2, s, model) == pytest.approx(
            0.3 * 0.2, rel=1e-12
        )

    def test_increasing_in_signal_strength(self):
        vals = [
            expected_true_discoveries(100, 0.2, Q2_CFG, GaussianMixModel(0.5, mu, 0.0))
            for mu in (0.5, 1.0, 2.0, 4.0)
        ]
        assert np.all(np.diff(vals) > 0.0)

    def test_infinite_horizon_finite_and_decreasing_in_q(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        vals = [
            expected_true_discoveries(math.inf, 0.2, {"kind": "q", "q": q}, model)
            for q in (1.05, 1.5, 2.0, 3.0)
        ]
        assert all(math.isfinite(v) for v in vals)
        assert np.all(np.diff(vals) < 0.0)

    def test_infinite_at_least_finite_horizon(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        e_inf = expected_true_discoveries(math.inf, 0.2, Q2_CFG, model)
        e_fin = expected_true_discoveries(10**5, 0.2, Q2_CFG, model)
        assert e_inf >= e_fin

    def test_infinite_horizon_log_series_diverges(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        assert expected_true_discoveries(math.inf, 0.2, {"kind": "log-q", "q": 2.0}, model) == math.inf

    def test_explicit_series_infinite_horizon_is_finite_sum(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=2.0, mu_n=0.0)
        series = {"kind": "explicit", "weights": [0.5, 0.25]}
        assert expected_true_discoveries(math.inf, 0.2, series, model) == pytest.approx(
            expected_true_discoveries(2, 0.2, series, model), rel=1e-12
        )

    def test_unimodal_in_q_no_interior_minimum(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        qs = np.linspace(1.05, 8.0, 60)
        vals = np.array(
            [expected_true_discoveries(50, 0.2, {"kind": "q", "q": q}, model) for q in qs]
        )
        interior_min = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
        assert not interior_min.any()

    @pytest.mark.parametrize("flag", [True, False, None, -math.inf])
    def test_boolean_n_rejected(self, flag):
        with pytest.raises(ConfigError, match="^n must be a nonnegative integer or infinity"):
            expected_true_discoveries(flag, 0.2, Q2_CFG, GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0))

    def test_values_are_python_floats(self):
        model = GaussianMixModel(pi_a=0.5, mu_a=4.0, mu_n=0.0)
        for n in (0, 10, math.inf):
            assert type(expected_true_discoveries(n, 0.2, Q2_CFG, model)) is float

    def test_bounded_by_pi_n(self):
        model = GaussianMixModel(pi_a=0.4, mu_a=4.0, mu_n=0.0)
        v = expected_true_discoveries(100, 0.2, Q2_CFG, model)
        assert 0.0 <= v <= 0.4 * 100


class TestOptimalQ:
    def test_decreasing_in_n(self):
        stars = [optimal_q(n, 4.0, 0.2) for n in (2, 10, 100, 1000)]
        assert np.all(np.diff(stars) < 0.0)

    def test_large_n_approaches_one(self):
        q_100 = optimal_q(100, 4.0, 0.2)
        q_10k = optimal_q(10**4, 4.0, 0.2)
        assert q_10k < q_100
        assert q_10k - 1.0 < 0.5

    def test_local_optimality(self):
        model = GaussianMixModel(pi_a=1.0, mu_a=4.0, mu_n=0.0)
        for n in (10, 200):
            q_star = optimal_q(n, 4.0, 0.2)
            best = expected_true_discoveries(n, 0.2, {"kind": "q", "q": q_star}, model)
            for dq in (-1e-3, 1e-3):
                assert best >= expected_true_discoveries(
                    n, 0.2, {"kind": "q", "q": q_star + dq}, model
                )

    def test_n_one_rejected(self):
        with pytest.raises(ConfigError):
            optimal_q(1, 4.0, 0.2)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_n_rejected(self, flag):
        # True is not n = 1: a boolean is refused as no integer, as by the other solvers
        with pytest.raises(ConfigError, match=rf"^n must be a positive integer, got {flag}$"):
            optimal_q(flag, 4.0, 0.2)

    def test_alpha_domain(self):
        with pytest.raises(ConfigError):
            optimal_q(10, 4.0, 0.6)


class TestCstar:
    def test_uniform_nulls_give_one(self):
        for pi in (0.1, 0.5, 0.9):
            assert cstar_threshold(GaussianMixModel(pi, 4.0, 0.0)) == 1.0

    def test_increasing_in_pi(self):
        vals = [cstar_threshold(GaussianMixModel(pi, 4.0, -1.0)) for pi in (0.1, 0.3, 0.5)]
        assert np.all(np.diff(vals) > 0.0)

    def test_increasing_in_mu_n(self):
        vals = [cstar_threshold(GaussianMixModel(0.3, 4.0, mu_n)) for mu_n in (-2.0, -1.0, -0.5)]
        assert np.all(np.diff(vals) > 0.0)

    def test_root_and_sign_structure(self):
        model = GaussianMixModel(0.1, 4.0, -1.0)
        c = cstar_threshold(model)

        def j(x):
            z = ndtri(x)
            return x - (0.9 * ndtr(z - 1.0) + 0.1 * ndtr(z + 4.0))

        assert abs(j(c)) < 1e-9
        # independent sign scan on a 1e-5 grid away from the endpoints
        grid = np.arange(1e-5, 1.0, 1e-5)
        jv = grid - mixture_cdf(grid, model)
        below = grid < c - 1e-6
        above = (grid > c + 1e-6) & (grid < 1.0 - 1e-6)
        assert np.all(jv[below] < 0.0)
        assert np.all(jv[above] > 0.0)

    def test_invalid_models(self):
        with pytest.raises(ConfigError):
            cstar_threshold(GaussianMixModel(0.5, 0.0, -1.0))
        with pytest.raises(ConfigError):
            GaussianMixModel(0.5, 4.0, 1.0)  # positive null mean


class TestOptimalGammaVarying:
    def test_constant_inputs_exactly_uniform(self):
        g = optimal_gamma_varying(0.5, 4.0, 0.2, 10)
        assert np.all(g == g[0])
        assert abs(float(np.sum(g)) - 1.0) <= 1e-9
        assert abs(g[0] * 10.0 - 1.0) <= 1e-9

    def test_kkt_stationarity(self):
        pi = np.array([0.5, 0.5, 0.1, 0.1, 0.3])
        mu = np.array([3.0, 4.0, 5.0, 3.5, 4.5])
        g = optimal_gamma_varying(pi, mu, 0.2, 5)
        mult = pi * np.exp(-mu * ndtri(0.2 * g) - 0.5 * mu**2)
        assert np.all(np.abs(mult / mult[0] - 1.0) < 1e-6)

    def test_pairwise_exchange_never_improves(self):
        pi = np.array([0.5, 0.2, 0.4, 0.1])
        mu = np.array([3.0, 5.0, 4.0, 4.5])
        g = optimal_gamma_varying(pi, mu, 0.2, 4)

        def objective(gam):
            return float(np.sum(pi * ndtr(ndtri(0.2 * gam) + mu)))

        base = objective(g)
        for delta in (1e-4, -1e-4):
            pert = g.copy()
            pert[0] += delta
            pert[1] -= delta
            assert objective(pert) <= base + 1e-12

    def test_rescaling_pi_leaves_weights_unchanged(self):
        pi = np.array([0.5, 0.25, 0.125, 0.4])
        mu = np.array([4.0, 3.0, 5.0, 4.5])
        g1 = optimal_gamma_varying(pi, mu, 0.2, 4)
        g2 = optimal_gamma_varying(1.8 * pi, mu, 0.2, 4)
        np.testing.assert_allclose(g1, g2, rtol=0, atol=1e-9)

    def test_sum_constraint(self):
        g = optimal_gamma_varying([0.9, 0.01], [0.5, 6.0], 0.05, 2)
        assert abs(float(np.sum(g)) - 1.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ConfigError):
            optimal_gamma_varying(0.0, 4.0, 0.2, 3)
        with pytest.raises(ConfigError):
            optimal_gamma_varying(0.5, -1.0, 0.2, 3)
        with pytest.raises(ConfigError):
            optimal_gamma_varying(0.5, 4.0, 0.2, 0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_horizon_rejected(self, flag):
        with pytest.raises(ConfigError, match="^horizon must be a positive integer"):
            optimal_gamma_varying(0.5, 4.0, 0.2, flag)

    @pytest.mark.parametrize("pi,mu,named", [([0.5, 0.4], 4.0, "pi_a has 2 entries"),
                                             (0.5, [4.0, 3.0, 5.0], "mu_a has 3 entries"),
                                             ([], 4.0, "pi_a has 0 entries"),
                                             ([[0.5] * 10], 4.0, "pi_a has 10 entries")],
                             ids=["pi_a-2", "mu_a-3", "pi_a-empty", "pi_a-2d"])
    def test_sequence_neither_one_nor_horizon_long_names_both_lengths(self, pi, mu, named):
        with pytest.raises(ConfigError, match=f"^{named}; horizon 10 takes 1 or 10$"):
            optimal_gamma_varying(pi, mu, 0.2, 10)


@pytest.mark.parametrize("value", [10**400, True, "-1"], ids=["huge", "bool", "text"])
def test_a_mixture_refuses_a_mu_n_that_is_no_float(value):
    # 10**400 is an integer too large for a float: a ConfigError, not an OverflowError
    with pytest.raises(ConfigError, match=f"^mu_n must be a scalar number, got {value!r}$"):
        GaussianMixModel(pi_a=0.5, mu_a=4.0, mu_n=value)
    with pytest.raises(ConfigError, match=f"^alpha must be a scalar number, got {value!r}$"):
        expected_true_discoveries(10, value, {"kind": "q", "q": 2.0}, GaussianMixModel(pi_a=0.5, mu_a=4.0))


@pytest.mark.parametrize("kwargs,named", [({"pi_a": 10**400, "mu_a": 4.0}, "pi_a"),
                                          ({"pi_a": 0.5, "mu_a": 10**400}, "mu_a"),
                                          ({"pi_a": "0.5", "mu_a": 4.0}, "pi_a"),
                                          ({"pi_a": 0.5, "mu_a": True}, "mu_a")],
                         ids=["huge-pi_a", "huge-mu_a", "text-pi_a", "bool-mu_a"])
def test_a_mixture_refuses_a_pi_a_or_mu_a_that_is_no_float(kwargs, named):
    # 10**400 is an integer too large for a float: a ConfigError, not an OverflowError
    with pytest.raises(ConfigError, match=f"^{named} must be a number or a sequence of numbers, got "):
        GaussianMixModel(**kwargs)
