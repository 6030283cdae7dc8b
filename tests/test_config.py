"""Procedure configs: the JSON round trip, and the configs that build refuses."""

import json
import re
import sys

import numpy as np
import pytest

from fwerstream import (PROCEDURES, ConfigError, ExplicitSeries, ExplicitWeights, LaggedSeriesWeights, LagSchedule,
                        LogQSeries, OneStepWeights, ProcedureConfig, QSeries, fast, make_runner, run_stream)
from fwerstream.cli import main
from fwerstream.spec import SPECS

N = 300  # the stream every round-tripped config decides
RNG = np.random.default_rng(21)
P = RNG.random(N)
P[::7] = 1e-9  # every row rejects, the first step included
TAUS = RNG.uniform(0.3, 0.9, N).tolist()
LAMS = [t / 3 for t in TAUS]
ROWS = [[0.5, 0.25], [1.0], [], [0.2] * 5] * (N // 4)


def _series():
    """Each series kind, as a config and built."""
    yield "q", {"kind": "q", "q": 2.0}
    yield "log-q", {"kind": "log-q", "q": 1.5}
    yield "explicit", {"kind": "explicit", "weights": (np.full(N, 0.9 / N)).tolist()}
    yield "built-q", QSeries(3.0)
    yield "built-log-q", LogQSeries(2.0)
    yield "built-explicit", ExplicitSeries([0.3, 0.2, 0.1, 0.1] + [0.05] * 4)


def _options(name, series):
    """Each option kind the row takes: constants and lists, configs and built objects."""
    spec = SPECS[name]
    yield "plain", {}
    if spec.discards:
        yield "tau", {"tau": 0.6}
        yield "tau-list", {"tau": TAUS}
    if spec.adapts:
        yield "lambda", {"lam": 0.1}
        yield "lambda-list", {"lam": LAMS, **({"tau": TAUS} if spec.discards else {})}
    if spec.lagged:
        yield "lags", {"lags": {"kind": "constant", "value": 3}}
        yield "lag-list", {"lags": {"kind": "list", "values": [0, 1, 2, 3, 0, 1] * (N // 6)}}
        yield "built-lags", {"lags": LagSchedule(constant=2)}
        yield "built-lag-list", {"lags": LagSchedule(values=[0, 1, 2, 0] * (N // 4))}
    if "weights" in spec.options:
        yield "one-step", {"weights": {"kind": "one-step"}}
        yield "lagged-gamma", {"weights": {"kind": "lagged-gamma"}}
        yield "explicit-weights", {"weights": {"kind": "explicit", "rows": ROWS}}
        yield "built-one-step", {"weights": OneStepWeights()}
        yield "built-lagged-gamma", {"weights": LaggedSeriesWeights(series)}  # the config's own series
        yield "built-explicit-weights", {"weights": ExplicitWeights(ROWS)}
    if spec.pfer:
        yield "k2", {"k": 2}


CASES = [(f"{name}-{s_id}-{o_id}", ProcedureConfig(procedure=name, alpha=0.2, series=series, **options))
         for name in PROCEDURES for s_id, series in _series() for o_id, options in _options(name, series)]


@pytest.mark.parametrize("cfg", [c for _, c in CASES], ids=[i for i, _ in CASES])
def test_a_config_decides_as_its_json_round_trip(cfg):
    text = json.dumps(cfg.to_dict())
    back = ProcedureConfig.from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text
    want, got = run_stream(cfg, P), run_stream(back, P)
    assert [x.hex() for x in got.levels.tolist()] == [x.hex() for x in want.levels.tolist()]
    assert got.rejected.tolist() == want.rejected.tolist() and want.rejected.any()
    assert (back.procedure, back.alpha, back.k) == (cfg.procedure, cfg.alpha, cfg.k)


def test_the_round_trip_covers_every_row_and_option_kind():
    ids = {i for i, _ in CASES}
    assert {name for name in PROCEDURES if any(i.startswith(f"{name}-q-") for i in ids)} == set(PROCEDURES)
    for kind in ("one-step", "lagged-gamma", "explicit-weights", "lags", "lag-list", "tau", "tau-list", "lambda",
                 "lambda-list", "k2"):
        assert any(i.endswith(f"-built-q-{kind}") or i.endswith(f"-q-{kind}") for i in ids), kind


# one spelling per setting: a name or kind in another letter case, or with spaces, is unknown
MISSPELT = [
    ({"procedure": "Addis-Spending ", "alpha": 0.2, "series": {"kind": "LOG-Q", "q": 2}}, "unknown procedure"),
    ({"procedure": "Alpha-Spending", "alpha": 0.2}, "unknown procedure 'Alpha-Spending'"),
    ({"procedure": "addis-spending", "alpha": 0.2, "series": {"kind": "LOG-Q", "q": 2}}, "unknown series kind 'LOG-Q'"),
    ({"procedure": "online-fallback", "alpha": 0.2, "weights": {"kind": "One-Step"}},
     "unknown fallback weights kind 'One-Step'"),
    ({"procedure": "addis-spending-local", "alpha": 0.2, "lags": {"kind": "Constant", "value": 1}},
     "unknown lags kind 'Constant'"),
    ({"procedure": "addis-spending-local", "alpha": 0.2, "lags": {"kind": "From-Batch-Ids"}},
     "unknown lags kind 'From-Batch-Ids'"),
]


@pytest.mark.parametrize("config,message", MISSPELT, ids=[str(i) for i in range(len(MISSPELT))])
def test_a_setting_in_another_spelling_is_refused(tmp_path, capsys, config, message):
    with pytest.raises(ConfigError, match=message):
        ProcedureConfig.from_dict(config).build()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 3
    assert message in capsys.readouterr().out
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    inp.write_text("p\n0.1\n")
    assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(path)]) == 3
    assert message in capsys.readouterr().err and not out.exists()


def test_run_refuses_a_procedure_flag_in_another_case(tmp_path, capsys):
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    inp.write_text("p\n0.1\n")
    assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "Alpha-Spending", "--alpha", "0.2"]) == 3
    assert "unknown procedure 'Alpha-Spending'" in capsys.readouterr().err and not out.exists()
    # the flag spellings stay: --lags batch, and --series q|logq
    inp.write_text("p,batch_id\n0.1,a\n")
    assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending-local",
                 "--alpha", "0.2", "--lags", "batch", "--series", "logq", "--q", "2"]) == 0


# alpha 1 - 1e-13 on weights that sum to 1 + 1e-12: recycling can pass 1 + 9e-13 to step 2
REACHES_ONE = {"procedure": "online-fallback-1", "alpha": 0.9999999999999,
               "series": {"kind": "explicit", "weights": [0.5, 0.500000000001]}}


@pytest.mark.parametrize("name", ["online-fallback", "online-fallback-1", "discard-fallback"])
def test_a_fallback_row_refuses_a_level_that_could_reach_one(name):
    config = {**REACHES_ONE, "procedure": name, **({"tau": 1.0} if name == "discard-fallback" else {})}
    with pytest.raises(ConfigError, match=rf"^{name}: alpha times the series total, .* is within 1e-09 of one"):
        ProcedureConfig.from_dict(config).build()
    # the same alpha on a series that sums to 0.999 is a valid config, and so are the spending and Sidak rows
    ProcedureConfig.from_dict({**config, "series": {"kind": "explicit", "weights": [0.5, 0.499]}}).build()
    for other in ("alpha-spending", "online-sidak"):
        ProcedureConfig.from_dict({**REACHES_ONE, "procedure": other}).build()


def test_validate_and_run_refuse_a_fallback_level_that_could_reach_one(tmp_path, capsys):
    path, inp, out = tmp_path / "c.json", tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_text(json.dumps(REACHES_ONE))
    inp.write_text("p\n0.1\n0.2\n")
    assert main(["validate", "--config", str(path)]) == 3
    assert "FAIL online-fallback-1: online-fallback-1: alpha times the series total" in capsys.readouterr().out
    assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(path)]) == 3
    assert "config error: online-fallback-1: alpha times" in capsys.readouterr().err
    assert not out.exists()  # refused before --out is opened
    path.write_text(json.dumps({"procedures": [REACHES_ONE], "grid": {"pi_a": [0.3], "T": 20,
                                                                       "alpha": REACHES_ONE["alpha"]}, "trials": 2}))
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 3
    assert "config error: online-fallback-1: alpha times" in capsys.readouterr().err
    assert not out.exists()


def test_an_experiment_grid_refuses_batch_lags_naming_the_procedure(tmp_path, capsys):
    path, out = tmp_path / "exp.json", tmp_path / "r.csv"
    path.write_text(json.dumps({"procedures": [{"procedure": "addis-spending-local", "alpha": 0.2,
                                                "lags": {"kind": "from-batch-ids"}}],
                                "grid": {"pi_a": [0.3], "T": 20}, "trials": 2}))
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("config error: procedure addis-spending-local takes its lags from batch ids, "
                                       "which an experiment grid does not have: give it a constant or list lag\n")
    assert not out.exists()


def test_lagged_gamma_weights_on_another_series_are_refused():
    # {"kind": "lagged-gamma"} means the procedure's own series: an object built on another one has no JSON
    # form, and it would decide other levels than its round trip (at step 2, 0.1083 against 0.0748)
    other = ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                            weights=LaggedSeriesWeights(QSeries(3.0)))
    with pytest.raises(ConfigError, match=r"^lagged-gamma weights take the procedure's series, not \{'kind': 'q'"):
        other.build()
    assert other.validate() == ["lagged-gamma weights take the procedure's series, not {'kind': 'q', 'q': 3.0}"]
    own = ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                          weights=LaggedSeriesWeights(LogQSeries(2.0)))
    back = ProcedureConfig.from_dict(json.loads(json.dumps(own.to_dict())))
    p = np.full(50, 1e-9)
    want, got = run_stream(own, p).levels.tolist(), run_stream(back, p).levels.tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert round(want[1], 4) == 0.0748  # the round trip's level at step 2


HUGE = 10**400  # an integer that JSON holds and a float does not


@pytest.mark.parametrize("config,named", [
    ({"procedure": "alpha-spending", "alpha": HUGE}, "alpha must be a number"),
    ({"procedure": "alpha-spending", "alpha": 0.2, "series": {"kind": "log-q", "q": HUGE}},
     "log-q-series requires q > 1"),
    ({"procedure": "alpha-spending", "alpha": 0.2, "k": HUGE}, "k must be an integer a float holds"),
    ({"procedure": "discard-spending", "alpha": 0.2, "tau": HUGE}, "tau must be a number"),
    ({"procedure": "addis-spending", "alpha": 0.2, "lambda": [0.1, HUGE]}, "lambda must be a number"),
    ({"procedure": "alpha-spending", "alpha": 0.2, "series": {"kind": "explicit", "weights": [HUGE]}},
     "explicit series must be a flat list of numbers"),
    ({"procedure": "online-fallback", "alpha": 0.2, "weights": {"kind": "explicit", "rows": [[HUGE]]}},
     "fallback weight row 1 must be a flat list of numbers"),
], ids=["alpha", "q", "k", "tau", "lambda", "series-weights", "weight-rows"])
def test_an_integer_too_large_for_a_float_is_refused_naming_its_key(tmp_path, capsys, config, named):
    path, inp, out = tmp_path / "proc.json", tmp_path / "in.csv", tmp_path / "o.csv"
    path.write_text(json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 3
    assert named in capsys.readouterr().out
    inp.write_text("p\n0.5\n")
    assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(path)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q", [100.5, 400, 1e300])
def test_a_log_q_exponent_whose_terms_overflow_is_refused(tmp_path, capsys, q):
    # log(i+1)^q overflowed a float past q ~ 176 (an OverflowError traceback at q = 400); q <= 100 is safe
    path, inp, out = tmp_path / "proc.json", tmp_path / "in.csv", tmp_path / "o.csv"
    path.write_text(json.dumps({"procedure": "alpha-spending", "alpha": 0.2, "series": {"kind": "log-q", "q": q}}))
    inp.write_text("p\n0.5\n0.1\n")
    named = "log-q-series requires q > 1 and q <= 100, got"
    assert main(["validate", "--config", str(path)]) == 3
    assert named in capsys.readouterr().out
    for flags in (["--config", str(path)], ["--procedure", "alpha-spending", "--alpha", "0.2", "--series", "logq",
                                           "--q", repr(q)]):
        assert main(["run", "--input", str(inp), "--out", str(out), *flags]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()
    assert np.isfinite(LogQSeries(100).weights_upto(10**5)).all()  # the bound itself decides


# every kind of series, lags and fallback weights: (option, a procedure that takes it, a valid config of the kind,
# a key the kind does not take)
KINDS = {
    "q-series": ("series", "alpha-spending", {"kind": "q", "q": 2.0}, "weights"),
    "log-q-series": ("series", "alpha-spending", {"kind": "log-q", "q": 2.0}, "weights"),
    "explicit-series": ("series", "alpha-spending", {"kind": "explicit", "weights": [0.5, 0.25]}, "q"),
    "constant-lags": ("lags", "addis-spending-local", {"kind": "constant", "value": 3}, "values"),
    "list-lags": ("lags", "addis-spending-local", {"kind": "list", "values": [0, 1]}, "value"),
    "from-batch-ids-lags": ("lags", "addis-spending-local", {"kind": "from-batch-ids"}, "batch_ids"),
    "one-step-weights": ("weights", "online-fallback", {"kind": "one-step"}, "rows"),
    "lagged-gamma-weights": ("weights", "online-fallback", {"kind": "lagged-gamma"}, "q"),
    "explicit-weights": ("weights", "online-fallback", {"kind": "explicit", "rows": [[0.5]]}, "weights"),
}


def _refused():
    """(id, procedure config, the key its refusal names): each kind with a key it does not take, and without each
    key it needs; then the bare lag spellings, an empty lag list and a misspelt lag key."""
    for name, (option, procedure, kind, extra) in KINDS.items():
        config = {"procedure": procedure, "alpha": 0.2}
        yield f"{name}-with-{extra}", {**config, option: {**kind, extra: 1}}, extra
        for key in set(kind) - {"kind"}:
            yield f"{name}-without-{key}", {**config, option: {k: v for k, v in kind.items() if k != key}}, key
    config = {"procedure": "addis-spending-local", "alpha": 0.2}
    yield "bare-constant-lag", {**config, "lags": 3}, "kind"
    yield "bare-lag-list", {**config, "lags": [0, 1]}, "kind"
    yield "empty-lag-list", {**config, "lags": {"kind": "list", "values": []}}, "values"
    yield "constant-lag-as-values", {**config, "lags": {"kind": "constant", "values": 3}}, "values"


REFUSED = list(_refused())


@pytest.mark.parametrize("config,key", [c[1:] for c in REFUSED], ids=[c[0] for c in REFUSED])
def test_a_kind_config_with_a_key_missing_or_unknown_is_refused_naming_the_key(tmp_path, capsys, config, key):
    with pytest.raises(ConfigError) as refused:
        ProcedureConfig.from_dict(config).build()
    assert repr(key) in str(refused.value)
    path, inp, out = tmp_path / "c.json", tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_text(json.dumps(config))
    inp.write_text("p,batch_id\n0.1,a\n0.2,b\n")
    assert main(["validate", "--config", str(path)]) == 3
    assert capsys.readouterr().out == f"FAIL {config['procedure']}: {'series: ' * ('series' in config)}{refused.value}\n"
    assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: {refused.value}\n"
    assert not out.exists()


def test_decide_refuses_batch_ids_on_a_list_lag_schedule():
    # a lag list is never empty, so an empty lag sequence is always one built from no batch ids
    with pytest.raises(ConfigError, match=r"^lag 'values' must be a nonempty list, got \[\]$"):
        LagSchedule(values=[])
    listed = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "list", "values": [0, 1]})
    with pytest.raises(ConfigError, match="batch ids give the lags of a schedule built from none"):
        fast.decide(listed.build(), np.full(2, 0.5), ["a", "a"])


HUGE = f"[0, {sys.maxsize}], got {2**63}"  # no runner can index a lag past sys.maxsize

# each lag schedule its constructor refuses: (id, its keywords, what the refusal names, the same lags as a config,
# or None where no config spells it: a lags config names one kind and that kind's one key)
BAD_LAGS = [
    ("negative-constant", {"constant": -1}, "got -1", {"kind": "constant", "value": -1}),
    ("fractional-constant", {"constant": 2.5}, "got 2.5", {"kind": "constant", "value": 2.5}),
    ("jump", {"values": [0, 5]}, "L_2 = 5", {"kind": "list", "values": [0, 5]}),
    ("jump-after-200", {"values": [0] * 200 + [2, 3]}, "L_201 = 2", {"kind": "list", "values": [0] * 200 + [2, 3]}),
    ("huge-constant", {"constant": 2**63}, HUGE, {"kind": "constant", "value": 2**63}),
    ("huge-listed", {"values": [2**63]}, HUGE, {"kind": "list", "values": [2**63]}),
    ("empty-list", {"values": []}, "nonempty list, got []", {"kind": "list", "values": []}),
    ("neither", {}, "constant=None, values=None", None),
    ("both", {"constant": 1, "values": [0]}, "constant=1, values=[0]", None),
]


@pytest.mark.parametrize("kwargs,named,config", [c[1:] for c in BAD_LAGS], ids=[c[0] for c in BAD_LAGS])
def test_every_lag_schedule_is_checked_however_it_is_built(kwargs, named, config):
    with pytest.raises(ConfigError) as refused:
        LagSchedule(**kwargs)
    assert named in str(refused.value)
    if config is not None:
        cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags=config)
        assert cfg.validate() == [str(refused.value)]


@pytest.mark.parametrize("lags", [{"kind": "constant", "value": 2**63}, {"kind": "list", "values": [2**63]}],
                         ids=["constant", "list"])
def test_a_lag_no_runner_can_index_is_refused_before_a_stream_starts(tmp_path, capsys, lags):
    config = {"procedure": "addis-spending-local", "alpha": 0.2, "lags": lags}
    path, inp, out = tmp_path / "c.json", tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_text(json.dumps(config))
    inp.write_text("p\n0.3\n0.3\n")
    assert main(["validate", "--config", str(path)]) == 3
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL addis-spending-local: ") and HUGE in printed
    assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(path)]) == 3
    assert HUGE in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=re.escape(HUGE)):
        run_stream(ProcedureConfig.from_dict(config), np.full(2, 0.3))
    flags = ["--procedure", "addis-spending-local", "--alpha", "0.2", "--lags", str(2**63)]
    assert main(["run", "--input", str(inp), "--out", str(out), *flags]) == 3
    assert HUGE in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_lag_decides_alike_on_every_path():
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "constant", "value": sys.maxsize})
    steps = [d.alpha for d in cfg.build().run(P)]
    proc = cfg.build()
    chunks = [fast.decide(proc, part) for part in (P[:N // 3], P[N // 3:])]
    assert [error for _, error in chunks] == [None, None]
    for levels in (run_stream(cfg, P).levels, np.concatenate([rows.levels for rows, _ in chunks])):
        assert [x.hex() for x in levels.tolist()] == [x.hex() for x in steps]
    # no step sees a decision: every level is that of the step's own lag, i - 1
    assert steps == [d.alpha for d in cfg.build().run(np.ones(N))]


def test_a_fed_lag_schedule_is_written_as_read():
    # a from-batch-ids schedule built without ids takes its lags from the stream's batch ids
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags=LagSchedule.from_batch_ids([]))
    assert cfg.to_dict()["lags"] == {"kind": "from-batch-ids"}
    back = ProcedureConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.wants_batch_lags() and back.build().lags.seq == []
    ids = [i // 5 for i in range(N)]
    batched = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags=LagSchedule.from_batch_ids(ids))
    want = run_stream(batched, P)
    fed, error = fast.decide(cfg.build(), P, ids)
    assert error is None and want.rejected.any()
    for got in (run_stream(back, P, batch_ids=ids), fed):
        assert [x.hex() for x in got.levels.tolist()] == [x.hex() for x in want.levels.tolist()]


def test_a_fed_lag_schedule_object_decides_as_its_config():
    # the object reads as {"kind": "from-batch-ids"}: it takes the batch ids given with the stream
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags=LagSchedule.from_batch_ids([]))
    back = ProcedureConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    ids, p = list("aabb"), [0.3] * 4
    want = run_stream(back, p, batch_ids=ids).levels.tolist()
    assert [round(x, 4) for x in want] == [0.0247, 0.0065, 0.0031, 0.0018]
    assert cfg.wants_batch_lags()
    assert [x.hex() for x in run_stream(cfg, p, batch_ids=ids).levels.tolist()] == [x.hex() for x in want]
    block = make_runner(cfg, batch_ids=ids)(np.full((2, 4), 0.3)).levels.tolist()
    assert [[x.hex() for x in row] for row in block] == [[x.hex() for x in want]] * 2


def test_a_config_without_its_procedure_or_alpha_is_refused_naming_them():
    with pytest.raises(ConfigError, match=r"^procedure config needs 'procedure', 'alpha'$"):
        ProcedureConfig.from_dict({})
    with pytest.raises(ConfigError, match=r"^procedure config needs 'alpha'$"):
        ProcedureConfig.from_dict({"procedure": "alpha-spending", "series": {"kind": "q", "q": 2.0}})
