"""Stream generation, metric estimation, and trace audits."""

import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
from fwerstream import cli, fast
from fwerstream import sim as simmod
from fwerstream.core import OnlineProcedure, StreamState
from fwerstream.errors import AuditError
from fwerstream.spec import SPECS, level_map

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

    def test_all_null_model_keeps_noise_coupled(self):
        base = sim(pi=0.5, mu_n=0.0, horizon=100)
        forced = sim(pi=0.0, mu_n=0.0, horizon=100)
        a = gen_stream(base, 0)
        b = gen_stream(forced, 0)
        assert not b.labels.any()
        match = ~a.labels  # where the unforced stream was already null
        assert np.array_equal(a.p[match], b.p[match])

    def test_block_dependence_shares_noise(self):
        cfg = sim(pi=0.0, mu_n=-1.0, horizon=60, block_size=10)
        stream = gen_stream(cfg, 0)
        p = stream.p.reshape(6, 10)
        assert np.all(p == p[:, :1])  # identical inside each block
        assert len(np.unique(p[:, 0])) == 6
        assert cfg.batch_ids is not None
        assert list(cfg.batch_ids[:12]) == [0] * 10 + [1, 1]

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

    @pytest.mark.parametrize("field", ["horizon", "trials", "seed", "block_size"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_counts_rejected(self, field, flag):
        counts = {"horizon": 5, "trials": 1, "seed": 0, field: flag}
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            SimConfig(model=GaussianMixModel(pi_a=0.5, mu_a=4.0, mu_n=0.0), **counts)


class TestEstimateMetrics:
    def test_all_null_fwer_within_band(self):
        cfg = sim(pi=0.0, mu_n=0.0, trials=400)
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
        # only the lagged row takes lags; alpha-spending refuses them, as `run` does, with or without blocks
        lagged = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2, lags={"kind": "from-batch-ids"})
        for blocks in (cfg, sim(trials=2, block_size=10)):
            with pytest.raises(ConfigError, match="^alpha-spending takes no 'lags' option$"):
                estimate_metrics(lagged, blocks)

    def test_batch_lags_run_on_blocked_streams(self):
        cfg = sim(trials=5, block_size=10)
        proc = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=LOG2,
                               lags={"kind": "from-batch-ids"})
        rep = estimate_metrics(proc, cfg)
        assert 0.0 <= rep.fwer <= 1.0

    def test_kfwer_counts_k_or_more(self):
        cfg = sim(pi=0.0, mu_n=0.0, trials=200)
        base = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        from fwerstream import kfwer_wrap

        rep = estimate_metrics(kfwer_wrap(base, 2), cfg)
        assert rep.fwer == np.mean(rep.per_trial["v"] >= 2)

    def test_trial_blocks_match_a_per_trial_loop(self, monkeypatch):
        # three rows per block: two full blocks and a remainder of two trials
        horizon = 10_922
        monkeypatch.setattr(simmod, "TRIAL_BLOCK_ELEMENTS", 3 * horizon)
        cfg = sim(pi=0.3, mu_n=-0.5, horizon=horizon, trials=8, block_size=3)
        procs = {name: ProcedureConfig(procedure=name, alpha=0.2, series=LOG2,
                                       lags={"kind": "from-batch-ids"} if name == "addis-spending-local" else None)
                 for name in PROCEDURES}
        reports = estimate_metrics_many(procs, cfg)
        for name, proc in procs.items():
            want = {"v": [], "d": [], "n_nonnull": [], "n_rejections": []}
            for trial in range(cfg.trials):
                stream = gen_stream(cfg, trial)
                rej = run_stream(proc, stream.p, batch_ids=cfg.batch_ids.tolist()).rejected
                want["v"].append(int(np.sum(rej & ~stream.labels)))
                want["d"].append(int(np.sum(rej & stream.labels)))
                want["n_nonnull"].append(int(stream.labels.sum()))
                want["n_rejections"].append(int(rej.sum()))
            got = reports[name].per_trial
            assert {key: got[key].tolist() for key in want} == want, name

    BLOCK_PROCEDURES = {
        **{name: ProcedureConfig(procedure=name, alpha=0.2, series=LOG2,
                                 lags={"kind": "constant", "value": 3} if name == "addis-spending-local" else None)
           for name in PROCEDURES},
        "online-fallback one-step": ProcedureConfig(procedure="online-fallback", alpha=0.2, series=LOG2,
                                                    weights={"kind": "one-step"}),
        "discard-fallback one-step": ProcedureConfig(procedure="discard-fallback", alpha=0.2, series=LOG2,
                                                     tau=0.5, weights={"kind": "one-step"}),
        "discard-fallback explicit": ProcedureConfig(procedure="discard-fallback", alpha=0.2, series=LOG2, tau=0.5,
                                                     weights={"kind": "explicit",
                                                              "rows": [[0.5, 0.5], [1.0], [], [0.25] * 4] * 50}),
        "discard-fallback tau 1": ProcedureConfig(procedure="discard-fallback", alpha=0.2, series=LOG2, tau=1.0),
    }

    def test_block_rows_leave_every_trial_unchanged(self, monkeypatch):
        # 133 trials: one row per block, 3, 32, 128 (a full block and a remainder) and the default (one block)
        cfg = sim(pi=0.5, mu_n=-0.5, horizon=300, trials=133, seed=4)
        default = simmod.TRIAL_BLOCK_ELEMENTS
        assert default // cfg.horizon >= cfg.trials
        per_trial = {}
        for rows in (1, 3, 32, 128, None):
            monkeypatch.setattr(simmod, "TRIAL_BLOCK_ELEMENTS", rows * cfg.horizon if rows else default)
            reports = estimate_metrics_many(self.BLOCK_PROCEDURES, cfg)
            per_trial[rows] = {label: [rep.per_trial[key].tolist() for key in ("v", "d", "n_rejections")]
                               for label, rep in reports.items()}
        for rows, got in per_trial.items():
            for label, want in per_trial[1].items():
                assert got[label] == want, (rows, label)

    def test_default_block_memory_stays_within_twice_the_32_row_peak(self):
        # The budget of one grid cell (100 trials, T = 1000, one block of 100
        # rows) is twice 1.82 MB, its tracemalloc peak with 32-row blocks and
        # block-sized fallback temporaries (numpy 2.4).  Block-sized
        # temporaries at 100 rows would take 4.68 MB.
        cfg = sim(pi=0.5, mu_n=0.0, horizon=1000, trials=100, seed=1)
        procs = {name: self.BLOCK_PROCEDURES[name] for name in PROCEDURES}
        assert simmod.TRIAL_BLOCK_ELEMENTS // cfg.horizon >= cfg.trials
        tracemalloc.start()
        try:
            estimate_metrics_many(procs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1.82e6, peak


# configs whose tau and lambda lists repeat their constants
SEQUENCE_CASES = [
    ("discard-spending", {"tau": 0.5}),
    ("addis-sidak", {"tau": 0.5, "lam": 0.25}),
    ("discard-fallback", {"tau": 0.5}),
    ("addis-spending-local", {"tau": 0.5, "lam": 0.25, "lags": {"kind": "constant", "value": 3}}),
]


@pytest.mark.parametrize("name,constants", SEQUENCE_CASES, ids=[c[0] for c in SEQUENCE_CASES])
def test_sequence_schedules_are_decided_by_the_runner(tmp_path, monkeypatch, name, constants):
    horizon = 1000
    const = ProcedureConfig(procedure=name, alpha=0.2, series=LOG2, **constants)
    by_step = replace(const, tau=[const.tau] * horizon, lam=None if const.lam is None else [const.lam] * horizon)
    cfg = sim(pi=0.3, mu_n=-0.5, horizon=horizon, trials=200, seed=12)
    p = gen_stream(cfg, 0).p
    want = [d.alpha for d in by_step.build().run(p)]

    def no_step(self, i, p):
        raise AssertionError(f"the scalar step decided step {i}")

    # neither the simulator nor run may fall back to the scalar step
    monkeypatch.setattr(OnlineProcedure, "_step", no_step)
    reports = estimate_metrics_many({"constant": const, "by-step": by_step}, cfg)
    assert reports["by-step"] == reports["constant"]
    assert reports["constant"].mean_rejections > 0
    inp, conf, out = tmp_path / "in.csv", tmp_path / "c.json", tmp_path / "out.csv"
    inp.write_text("p\n" + "".join(f"{x!r}\n" for x in p.tolist()))
    conf.write_text(json.dumps(by_step.to_dict()))
    for chunk in (3, cli.RUN_CHUNK):
        monkeypatch.setattr(cli, "RUN_CHUNK", chunk)
        assert cli.main(["run", "--input", str(inp), "--out", str(out), "--config", str(conf)]) == 0
        with open(out, newline="") as fh:
            assert [float(row["alpha_i"]) for row in csv.DictReader(fh)] == want


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
        assert audit_trace(scheduler.run(np.random.default_rng(2).random(100)), cfg).passed

    def test_block_of_streams_is_refused(self):
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        with pytest.raises(AuditError, match="one stream at a time"):
            audit_trace(make_runner(cfg)(np.full((2, 10), 0.5)), cfg)

    def test_sidak_product_honors_tolerance(self):
        result, cfg = self._trace("online-sidak", n=3000)
        assert audit_trace(result, cfg).passed

    @staticmethod
    def _audit_in_chunks(result, cfg, size):
        state = StreamState()
        for a in range(0, len(result), size):
            chunk = replace(result, **{c: getattr(result, c)[a : a + size] for c in fast._COLUMNS})
            state.i += len(chunk)
            report = audit_trace(chunk, cfg, state)
            if not report.passed:
                break
        return report

    @pytest.mark.parametrize("n,over,want", [(120_000, 0.0, None), (80_000, 2e-12, 80_000)])
    def test_a_long_stream_is_audited_by_its_exact_sum(self, n, over, want):
        # n equal weights summing to exactly 1 + over; a plain cumsum of their
        # beta terms reads 1 + 3.2e-12 at the end of the first stream, over
        # the 1e-12 slack, and 1 - 1.1e-13 at the end of the second
        cfg = ProcedureConfig(procedure="online-sidak", alpha=0.2, series={"kind": "explicit", "weights": [1 / n] * n})
        result = run_stream(cfg, np.ones(n))
        result.levels[:] = level_map("sidak", 0.2, 1.0, 0.0, np.full(n, (1 + over) / n))
        assert audit_trace(result, cfg).first_bad_index == want
        for size in (1000, 4096, 50_000):
            assert self._audit_in_chunks(result, cfg, size).first_bad_index == want, size

    @pytest.mark.parametrize("name", PROCEDURES)
    def test_an_overspend_of_ten_tolerances_fails_where_it_starts(self, name):
        # m steps of equal weight whose exact sum is the cap plus 10 slacks:
        # the prefix first crosses the cap plus one slack at the m-th of them
        cfg = ProcedureConfig(procedure=name, alpha=0.2, series=LOG2)
        tau, lam = cfg.build().thresholds
        spec = SPECS[name]
        m, before, n = 5000, 500, 6000
        result = run_stream(cfg, np.full(n, tau))  # every step is counted, none rejects
        cap = 1.0 if spec.family == "sidak" else 0.2
        gam = np.zeros(n)
        gam[before:] = (1 + 10 * spec.audit_tol / cap) / m
        result.levels[:] = level_map(spec.family, 0.2, tau, lam, gam) * (tau if spec.family == "fallback" else 1.0)
        want = before + m
        assert audit_trace(result, cfg).first_bad_index == want
        for size in (7, 1000, 4096):
            assert self._audit_in_chunks(result, cfg, size).first_bad_index == want, size

    @pytest.mark.parametrize("bad", [-0.5, -5e-324, np.nan])
    @pytest.mark.parametrize("name", PROCEDURES)
    def test_a_negative_or_nan_level_fails_the_level_check_at_its_index(self, name, bad):
        # a negative term would offset an overspend later in the sum
        cfg = ProcedureConfig(procedure=name, alpha=0.2)
        tau, _ = cfg.build().thresholds
        result = run_stream(cfg, np.full(10, tau))  # every step is counted, none rejects
        result.levels[2] = bad
        for report in [audit_trace(result, cfg)] + [self._audit_in_chunks(result, cfg, size) for size in (1, 2, 4)]:
            check = report.checks[0]
            assert (check.name, check.first_bad_index, report.passed) == ("levels in [0, min(tau, 1))", 3, False)

    def test_a_negative_level_cannot_hide_an_overspend(self):
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2)
        result = run_stream(cfg, np.full(10, 0.9))
        result.levels[2], result.levels[5] = -0.5, 0.49  # 0.49 is more than the whole budget
        report = audit_trace(result, cfg)
        assert not report.passed and report.first_bad_index == 3

    @pytest.mark.parametrize("bad", ["nan", "tau"])
    @pytest.mark.parametrize("name", ["alpha-spending", "addis-spending", "online-sidak", "addis-sidak",
                                      "online-fallback", "discard-fallback"])
    def test_a_non_finite_or_saturated_level_fails_the_sum_at_its_index(self, name, bad):
        # a level at tau makes a Sidak term infinite; a NaN level makes every term NaN
        cfg = ProcedureConfig(procedure=name, alpha=0.2)
        tau, _ = cfg.build().thresholds
        result = run_stream(cfg, np.full(10, tau))  # every step is counted, none rejects
        result.levels[3] = np.nan if bad == "nan" else tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = audit_trace(result, cfg)
            chunked = self._audit_in_chunks(result, cfg, 3)
        assert report.checks[-1].name.startswith("sum") and report.checks[-1].first_bad_index == 4
        assert chunked.checks[-1].first_bad_index == 4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1), power=st.floats(1.0, 8.0),
           ulps=st.one_of(st.integers(-40, 40), st.integers(-3_500_000, 3_500_000)), size=st.integers(1, 5000))
    def test_the_compensated_prefix_decides_as_the_exact_sum(self, n, seed, power, ulps, size):
        # alpha-spending levels are their own terms; their total is the bound within 1e-10 (3.5e6 ulps),
        # and often within the few ulps by which a plain cumsum of them is off
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2, series=LOG2)
        result = run_stream(cfg, np.ones(n))
        bound = result.budget + SPECS["alpha-spending"].audit_tol
        w = np.random.default_rng(seed).random(n) ** power
        result.levels[:] = w * ((bound + ulps * math.ulp(bound)) / w.sum())
        exact, bound_q, want = Fraction(0), Fraction(bound), None
        for k, level in enumerate(result.levels.tolist(), 1):
            exact += Fraction(level)
            assume(abs(exact - bound_q) > 4 * Fraction(math.ulp(bound)))
            if want is None and exact > bound_q:
                want = k
        assert audit_trace(result, cfg).first_bad_index == want
        assert self._audit_in_chunks(result, cfg, size).first_bad_index == want


class TestErrorControlSpotChecks:
    """Monte-Carlo validity at scales below the acceptance grid."""

    def test_core_procedures_all_null_uniform(self):
        cfg = sim(pi=0.0, mu_n=0.0, trials=1000)
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
