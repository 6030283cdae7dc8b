"""Stream generation, metric estimation, and trace audits."""

import math

import numpy as np
import pytest
from scipy import stats

from fwerstream import (
    PROCEDURES,
    ConfigError,
    GaussianMixModel,
    ProcedureConfig,
    SimConfig,
    audit_trace,
    clustered_pi,
    estimate_metrics,
    estimate_metrics_many,
    gen_stream,
    make_runner,
    run_stream,
)
from fwerstream.errors import AuditError
from fwerstream.sim import TRIAL_BLOCK_ELEMENTS

LOG2 = {"kind": "log-q", "q": 2.0}


def sim(pi=0.5, mu_a=4.0, mu_n=0.0, horizon=1000, trials=50, seed=1, **kw):
    return SimConfig(
        model=GaussianMixModel(pi_a=pi, mu_a=mu_a, mu_n=mu_n),
        horizon=horizon,
        trials=trials,
        seed=seed,
        **kw,
    )


class TestGenStream:
    def test_deterministic_replay(self):
        cfg = sim()
        a = gen_stream(cfg, trial=3)
        b = gen_stream(cfg, trial=3)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.labels, b.labels)

    def test_trials_differ(self):
        cfg = sim()
        assert not np.array_equal(gen_stream(cfg, 0).p, gen_stream(cfg, 1).p)

    def test_uniform_nulls_pass_ks(self):
        cfg = sim(pi=0.0, mu_n=0.0, horizon=10**4)
        stream = gen_stream(cfg, 0)
        assert not stream.labels.any()
        ks = stats.kstest(stream.p, "uniform")
        assert ks.statistic < 1.63 / math.sqrt(10**4)  # 1% critical value

    def test_conservative_nulls_shift_down(self):
        cfg = sim(pi=0.0, mu_n=-1.0, horizon=10**4)
        stream = gen_stream(cfg, 0)
        assert np.mean(stream.p <= 0.5) < 0.5

    def test_force_null_keeps_noise_coupled(self):
        base = sim(pi=0.5, mu_n=0.0, horizon=100)
        forced = sim(pi=0.5, mu_n=0.0, horizon=100, force_null=True)
        a = gen_stream(base, 0)
        b = gen_stream(forced, 0)
        assert not b.labels.any()
        match = ~a.labels  # where the unforced stream was already null
        assert np.array_equal(a.p[match], b.p[match])

    def test_block_dependence_shares_noise(self):
        cfg = sim(pi=0.0, mu_n=-1.0, horizon=60, force_null=True, block_size=10)
        stream = gen_stream(cfg, 0)
        p = stream.p.reshape(6, 10)
        assert np.all(p == p[:, :1])  # identical inside each block
        assert len(np.unique(p[:, 0])) == 6
        assert stream.batch_ids is not None
        assert list(stream.batch_ids[:12]) == [0] * 10 + [1, 1]

    def test_per_index_pi(self):
        pi = clustered_pi(1000, 1.0, 0.1)
        cfg = SimConfig(model=GaussianMixModel(pi_a=pi, mu_a=4.0, mu_n=0.0),
                        horizon=1000, trials=1, seed=0)
        stream = gen_stream(cfg, 0)
        assert stream.labels[:100].all()
        assert not stream.labels[100:].any()

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(model=GaussianMixModel(pi_a=np.full(5, 0.5), mu_a=4.0, mu_n=0.0),
                      horizon=6, trials=1, seed=0)


class TestEstimateMetrics:
    def test_all_null_fwer_within_band(self):
        cfg = sim(pi=0.5, mu_n=0.0, trials=400, force_null=True)
        rep = estimate_metrics(ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2), cfg)
        assert rep.fwer <= 0.2 + 3.0 * max(rep.fwer_se, 0.02)
        assert rep.power == 1.0  # no non-nulls: vacuous power convention

    def test_shared_streams_pair_procedures(self):
        cfg = sim(trials=30)
        reports = estimate_metrics_many(
            {
                "a": ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2),
                "b": ProcedureConfig(procedure="online-fallback", alpha=0.2, series=LOG2),
            },
            cfg,
            keep_trials=True,
        )
        # fallback dominates pointwise on identical streams, trial by trial
        assert np.all(reports["b"].per_trial["d"] >= reports["a"].per_trial["d"])

    def test_replay_determinism(self):
        cfg = sim(trials=25)
        proc = ProcedureConfig(procedure="addis-spending", alpha=0.2, series=LOG2)
        r1 = estimate_metrics(proc, cfg)
        r2 = estimate_metrics(proc, cfg)
        assert (r1.fwer, r1.pfer, r1.power, r1.fdr) == (r2.fwer, r2.pfer, r2.power, r2.fdr)

    def test_batch_lags_require_blocks(self):
        cfg = sim(trials=2)  # block_size = 1
        proc = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=LOG2,
                               lags={"kind": "from-batch-ids"})
        with pytest.raises(ConfigError):
            estimate_metrics(proc, cfg)
        # only the lagged row reads lags; alpha-spending ignores them, as `run` does
        lagged = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2, lags={"kind": "from-batch-ids"})
        plain = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        a, b = estimate_metrics(lagged, cfg), estimate_metrics(plain, cfg)
        assert (a.fwer, a.pfer, a.power) == (b.fwer, b.pfer, b.power)

    def test_batch_lags_run_on_blocked_streams(self):
        cfg = sim(trials=5, block_size=10)
        proc = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=LOG2,
                               lags={"kind": "from-batch-ids"})
        rep = estimate_metrics(proc, cfg)
        assert 0.0 <= rep.fwer <= 1.0

    def test_kfwer_counts_k_or_more(self):
        cfg = sim(pi=0.5, mu_n=0.0, trials=200, force_null=True)
        base = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        from fwerstream import kfwer_wrap

        rep = estimate_metrics(kfwer_wrap(base, 2), cfg, keep_trials=True)
        assert rep.fwer == np.mean(rep.per_trial["v"] >= 2)

    def test_trial_blocks_match_a_per_trial_loop(self):
        # three rows per block: two full blocks and a remainder of two trials
        horizon = TRIAL_BLOCK_ELEMENTS // 3
        assert TRIAL_BLOCK_ELEMENTS // horizon == 3
        cfg = sim(pi=0.3, mu_n=-0.5, horizon=horizon, trials=8, block_size=3)
        procs = {name: ProcedureConfig(procedure=name, alpha=0.2, series=LOG2,
                                       lags={"kind": "from-batch-ids"} if name == "addis-spending-local" else None)
                 for name in PROCEDURES}
        reports = estimate_metrics_many(procs, cfg, keep_trials=True)
        for name, proc in procs.items():
            want = {"v": [], "d": [], "n_nonnull": [], "n_rejections": []}
            for trial in range(cfg.trials):
                stream = gen_stream(cfg, trial)
                rej = run_stream(proc, stream.p, batch_ids=stream.batch_ids.tolist()).rejected
                want["v"].append(int(np.sum(rej & ~stream.labels)))
                want["d"].append(int(np.sum(rej & stream.labels)))
                want["n_nonnull"].append(int(stream.labels.sum()))
                want["n_rejections"].append(int(rej.sum()))
            got = reports[name].per_trial
            assert {key: got[key].tolist() for key in want} == want, name


class TestAuditTrace:
    def _trace(self, name, seed=0, n=400, **cfg_kw):
        cfg = ProcedureConfig(procedure=name, alpha=0.2, series=LOG2, **cfg_kw)
        p = np.random.default_rng(seed).random(n)
        return make_runner(cfg)(p), cfg

    @pytest.mark.parametrize(
        "name",
        [
            "alpha-spending",
            "online-sidak",
            "online-fallback",
            "online-fallback-1",
            "discard-spending",
            "adaptive-spending",
            "addis-spending",
            "discard-sidak",
            "adaptive-sidak",
            "addis-sidak",
            "discard-fallback",
        ],
    )
    def test_clean_traces_pass(self, name):
        result, cfg = self._trace(name)
        report = audit_trace(result, cfg)
        assert report.passed, str(report)

    def test_local_variant_passes(self):
        cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=LOG2,
                              lags={"kind": "constant", "value": 4})
        p = np.random.default_rng(1).random(300)
        assert audit_trace(make_runner(cfg)(p), cfg).passed

    def test_corrupted_level_flagged_with_index(self):
        result, cfg = self._trace("alpha-spending")
        result.levels[37] += 0.21  # inflate one level past the whole budget
        report = audit_trace(result, cfg)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert any(c.first_bad_index == 38 for c in failing)
        with pytest.raises(AuditError):
            report.raise_if_failed()

    def test_decision_list_accepted(self):
        cfg = ProcedureConfig(procedure="addis-spending", alpha=0.2, series=LOG2)
        scheduler = cfg.build()
        scheduler.run(np.random.default_rng(2).random(100))
        assert audit_trace(scheduler.trace, cfg).passed

    def test_block_of_streams_is_refused(self):
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        with pytest.raises(AuditError, match="one stream at a time"):
            audit_trace(make_runner(cfg)(np.full((2, 10), 0.5)), cfg)

    def test_sidak_product_honors_tolerance(self):
        result, cfg = self._trace("online-sidak", n=3000)
        assert audit_trace(result, cfg).passed


class TestErrorControlSpotChecks:
    """Monte-Carlo validity at scales below the acceptance grid."""

    def test_core_procedures_all_null_uniform(self):
        cfg = sim(pi=0.5, mu_n=0.0, trials=1000, force_null=True)
        procs = {
            name: ProcedureConfig(procedure=name, alpha=0.2, series=LOG2)
            for name in ("alpha-spending", "online-sidak", "online-fallback")
        }
        band = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / 1000)
        for name, rep in estimate_metrics_many(procs, cfg).items():
            assert rep.fwer <= band, (name, rep.fwer)

    @pytest.mark.parametrize("mu_n,mu_a", [(-0.5, 4.0), (-1.5, 4.0), (0.0, 5.0)])
    def test_extended_grid_corners(self, mu_n, mu_a):
        # the wider mu_N/mu_A grid, spot-checked at reduced trial counts
        procs = {
            name: ProcedureConfig(procedure=name, alpha=0.2, series=LOG2)
            for name in ("alpha-spending", "addis-spending", "addis-sidak", "discard-fallback")
        }
        band = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / 300)
        for pi in (0.1, 0.9):
            cfg = sim(pi=pi, mu_a=mu_a, mu_n=mu_n, trials=300, seed=int(10 * pi))
            for name, rep in estimate_metrics_many(procs, cfg).items():
                assert rep.fwer <= band, (name, pi, rep.fwer)
                if name in ("alpha-spending", "addis-spending"):
                    assert rep.pfer <= 0.2 + 3.0 * max(rep.pfer_se, 0.01), (name, pi, rep.pfer)
