"""Command-line interface: run, experiment, solve, validate."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from fwerstream import PROCEDURES, ProcedureConfig, QSeries, cli, fast
from fwerstream.cli import main

Q2 = QSeries(2.0)
# a child interpreter imports fwerstream from where this one does
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_stream(path, ps, batch_ids=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if batch_ids is None:
            w.writerow(["p"])
            for p in ps:
                w.writerow([repr(float(p))])
        else:
            w.writerow(["p", "batch_id"])
            for p, b in zip(ps, batch_ids):
                w.writerow([repr(float(p)), b])


class TestRun:
    def test_three_row_spending_levels(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_stream(inp, [0.05, 0.5, 0.9])
        code = main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "alpha-spending", "--alpha", "0.2",
                     "--series", "q", "--q", "2"])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "p", "alpha_i", "rejected", "selected", "candidate"]
        levels = [float(r[2]) for r in rows[1:]]
        assert levels == [0.2 * Q2.weight(i) for i in (1, 2, 3)]
        assert [r[3] for r in rows[1:]] == ["1", "0", "0"]

    def test_empty_file_ok(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("")
        out = tmp_path / "out.csv"
        code = main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "alpha-spending", "--alpha", "0.2"])
        assert code == 0
        assert len(read_csv(out)) == 1  # header only

    def test_bad_p_value_exits_2_without_its_row(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p"])
            w.writerow(["0.4"])
            w.writerow(["1.5"])
            w.writerow(["0.1"])
        code = main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "alpha-spending", "--alpha", "0.2"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err
        assert len(read_csv(out)) == 2  # header + the one good row before the bad line

    def test_jsonl_input(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.csv"
        inp.write_text("\n".join(json.dumps({"p": p}) for p in (0.01, 0.8)))
        code = main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "online-sidak", "--alpha", "0.2", "--series", "q", "--q", "2"])
        assert code == 0
        assert len(read_csv(out)) == 3

    @pytest.mark.parametrize("batch_id", [[1], {"b": 1}, 1.5, True])
    def test_jsonl_batch_id_must_be_string_or_integer(self, tmp_path, capsys, batch_id):
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps({"p": 0.3, "batch_id": "a"}) + "\n"
                       + json.dumps({"p": 0.01, "batch_id": batch_id}) + "\n")
        code = main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"),
                     "--procedure", "addis-spending-local", "--alpha", "0.2", "--lags", "batch"])
        assert code == 2
        assert "line 2: batch_id" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_jsonl_boolean_p_rejected(self, tmp_path, capsys, flag):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"p": 0.3}\n{"p": %s}\n' % flag)
        code = main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"),
                     "--procedure", "alpha-spending", "--alpha", "0.2"])
        assert code == 2
        assert "line 2: p-value" in capsys.readouterr().err

    def test_batch_lags_from_column(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_stream(inp, [0.3] * 6, batch_ids=["b1", "b1", "b1", "b2", "b2", "b3"])
        code = main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "addis-spending-local", "--alpha", "0.2",
                     "--series", "q", "--q", "2", "--lags", "batch"])
        assert code == 0
        rows = read_csv(out)
        # batch lags are [0,1,2, 0,1, 0]; inside the first batch nothing is
        # visible, so each unseen step is charged pessimistically and the
        # levels are the deterministic gamma_1, gamma_2, gamma_3 ladder
        lvl = [float(r[2]) for r in rows[1:]]
        assert lvl[:3] == [0.2 * 0.25 * Q2.weight(t) for t in (1, 2, 3)]
        # batch 2 starts with full view of batch 1 (three selected non-candidates)
        assert lvl[3] == 0.2 * 0.25 * Q2.weight(4)

    def test_noncontiguous_batches_rejected(self, tmp_path):
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.3] * 3, batch_ids=["a", "b", "a"])
        code = main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"),
                     "--procedure", "addis-spending-local", "--alpha", "0.2", "--lags", "batch"])
        assert code == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "proc.json"
        cfg.write_text(json.dumps({"procedure": "addis", "alpha": 0.2,
                                   "series": {"kind": "log-q", "q": 2.0},
                                   "tau": 0.5, "lambda": 0.25}))
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.01, 0.6])
        out = tmp_path / "out.csv"
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 0

    def test_missing_flags_exit_3(self, tmp_path):
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.5])
        assert main(["run", "--input", str(inp)]) == 3


class TestExperiment:
    def test_tiny_custom_grid_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "procedures": [
                {"procedure": "alpha-spending", "alpha": 0.2},
                {"procedure": "addis-spending", "alpha": 0.2},
            ],
            "grid": {"pi_a": [0.5], "mu_n": [0.0, -1.0], "mu_a": 4.0, "T": 50, "alpha": 0.2},
            "trials": 5,
            "seed": 9,
        }))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert rows[0][:6] == ["procedure", "pi_A", "mu_A", "mu_N", "T", "alpha"]
        assert len(rows) == 1 + 2 * 2  # two procedures x two cells

    def test_preset_fig1_shape(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["experiment", "--preset", "fig1", "--trials", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 2 * 9 * 4  # mu_N x pi_A x procedures

    def test_preset_fig2_shape(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["experiment", "--preset", "fig2", "--trials", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][-2:] == ["f", "r"]
        f_values = {r[-2] for r in rows[1:]}
        assert "0.1" in f_values and "1.0" in f_values
        assert len(rows) == 1 + (9 + 9) * 4

    @pytest.mark.parametrize("key,value", [("grid", 5), ("grid", {"pi_a": ["x"]}), ("grid", {"mu_n": 5}),
                                           ("trials", 0)], ids=["grid", "pi_a", "mu_n", "trials"])
    def test_malformed_config_exits_3_before_any_output(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"procedures": [{"procedure": "alpha-spending", "alpha": 0.2}],
                                   "grid": {}, "trials": 2, key: value}))
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


class TestSolve:
    def test_cstar_uniform_null_is_one(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["solve", "cstar", "--pi-a", "0.3", "--mu-a", "4", "--mu-n", "0",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[1][-1]) == 1.0

    def test_optimal_q_column_decreasing(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["solve", "optimal-q", "--n", "2,10,100", "--mu-a", "4",
                     "--alpha", "0.2", "--out", str(out)]) == 0
        vals = [float(r[1]) for r in read_csv(out)[1:]]
        assert vals[0] > vals[1] > vals[2]

    def test_expected_discoveries_identity_case(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["solve", "expected-discoveries", "--q", "2", "--alpha", "0.2",
                     "--mu-a", "0", "--pi-a-scalar", "0.5", "--n", "10,100",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        for n_tok, val in ((10, rows[1][1]), (100, rows[2][1])):
            assert float(val) == pytest.approx(0.5 * 0.2 * Q2.partial_sum(n_tok), rel=1e-12)

    def test_optimal_gamma(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["solve", "optimal-gamma", "--pi-a", "0.5", "--mu", "4",
                     "--alpha", "0.2", "--horizon", "4", "--out", str(out)]) == 0
        vals = [float(r[1]) for r in read_csv(out)[1:]]
        assert vals == [0.25] * 4 or max(abs(v - 0.25) for v in vals) < 1e-9

    def test_unknown_solver_exit_3(self):
        assert main(["solve", "newton"]) == 3

    @pytest.mark.parametrize("solver,n", [("expected-discoveries", "10,abc"), ("optimal-q", "2.5")])
    def test_n_that_is_not_an_integer_exits_3(self, tmp_path, capsys, solver, n):
        out = tmp_path / "s.csv"
        assert main(["solve", solver, "--n", n, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("config error: --n must list integers")
        assert not out.exists()


class TestValidate:
    def test_defaults_pass(self, tmp_path, capsys):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"procedure": "addis-spending", "alpha": 0.2}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_procedures_that_are_not_a_list_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "five.json"
        cfg.write_text(json.dumps({"procedures": 5}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("config error: 'procedures' must be a list")

    def test_lambda_tau_order_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"procedure": "addis-spending", "alpha": 0.2,
                                   "tau": 0.5, "lambda": 0.6}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "lambda" in capsys.readouterr().out

    def test_inadmissible_lags_fail(self, tmp_path, capsys):
        cfg = tmp_path / "lags.json"
        cfg.write_text(json.dumps({"procedure": "addis-spending-local", "alpha": 0.2,
                                   "lags": {"kind": "list", "values": [0, 2, 0]}}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "inadmissible" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [
        ("tau", True), ("lambda", False), ("tau", [0.5, True]), ("lambda", [False]),
        ("lags", True), ("lags", [0, True]), ("lags", {"kind": "constant", "value": True}),
        ("tau", "0.5"), ("lambda", [0.1, "x"]), ("series", {"kind": "explicit", "weights": ["x"]}),
        ("series", {"kind": "explicit", "weights": ["0.5", True]}),
        ("series", {"kind": "explicit", "weights": [True]}),
    ])
    def test_non_number_where_a_number_is_wanted(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bool.json"
        cfg.write_text(json.dumps({"procedure": "addis-spending-local", "alpha": 0.2, key: value}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "FAIL" in capsys.readouterr().out
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.3, 0.6])
        assert main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_bad_series_reported_once(self, tmp_path, capsys):
        cfg = tmp_path / "series.json"
        cfg.write_text(json.dumps({"procedure": "alpha-spending", "alpha": 0.2,
                                   "series": {"kind": "explicit", "weights": ["x"]}}))
        assert main(["validate", "--config", str(cfg)]) == 3
        out = capsys.readouterr().out
        assert out == "FAIL alpha-spending: series: explicit series must be a flat list of numbers\n"

    def test_fallback_row_sums_checked(self, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"procedure": "online-fallback", "alpha": 0.2,
                                   "weights": {"kind": "explicit", "rows": [[0.9, 0.9]]}}))
        assert main(["validate", "--config", str(cfg)]) == 3
        # rows or entries that are not numbers are config errors too, in validate and in run
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.3])
        for rows in ([["x"]], 5, [[True]], [["0.5"]], [[0.5, False]]):
            cfg.write_text(json.dumps({"procedure": "online-fallback", "alpha": 0.2,
                                       "weights": {"kind": "explicit", "rows": rows}}))
            assert main(["validate", "--config", str(cfg)]) == 3
            assert main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 3


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["alpha-spending", "online-sidak", "online-fallback", "online-fallback-1",
         "discard-spending", "adaptive-spending", "addis-spending",
         "discard-sidak", "adaptive-sidak", "addis-sidak", "discard-fallback"],
    )
    def test_every_procedure_run_audits_clean(self, tmp_path, name):
        # cmd_run audits its own trace and exits 4 on violation, so exit 0
        # certifies the budget accounting for the emitted decisions
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        inp = tmp_path / "in.csv"
        write_stream(inp, rng.random(120) * 0.6)
        code = main(["run", "--input", str(inp), "--out", str(tmp_path / "o.csv"),
                     "--procedure", name, "--alpha", "0.2", "--series", "logq", "--q", "2"])
        assert code == 0

    def test_run_output_matches_api_and_audits(self, tmp_path):
        rng = np.random.default_rng(17)
        ps = rng.random(200)
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_stream(inp, ps)
        assert main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", "discard-fallback", "--alpha", "0.2",
                     "--series", "q", "--q", "2", "--tau", "0.5"]) == 0
        from fwerstream import ProcedureConfig, audit_trace, run_stream

        cfg = ProcedureConfig(procedure="discard-fallback", alpha=0.2,
                              series={"kind": "q", "q": 2.0}, tau=0.5)
        res = run_stream(cfg, ps)
        rows = read_csv(out)[1:]
        assert [float(r[2]) for r in rows] == res.levels.tolist()
        assert audit_trace(res, cfg).passed

    @pytest.mark.parametrize("name", ["online-fallback", "discard-fallback"])
    def test_long_all_rejecting_stream(self, tmp_path, name):
        # every step rejects, so a per-step loop over past rejections would be
        # quadratic (minutes at this length); the recycling buffer is linear
        n = 20_000
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_stream(inp, [0.0] * n)
        assert main(["run", "--input", str(inp), "--out", str(out),
                     "--procedure", name, "--alpha", "0.2", "--series", "logq", "--q", "2"]) == 0
        from fwerstream import ProcedureConfig, run_stream

        res = run_stream(ProcedureConfig(procedure=name, alpha=0.2, series={"kind": "log-q", "q": 2.0}),
                         np.zeros(n))
        expected = [[str(i + 1), "0.0", repr(a), str(int(r)), str(int(s)), str(int(c))]
                    for i, (a, r, s, c) in enumerate(zip(res.levels.tolist(), res.rejected.tolist(),
                                                         res.selected.tolist(), res.candidate.tolist()))]
        assert read_csv(out)[1:] == expected
        assert res.rejected.all()

    def test_package_runs_as_module(self):
        proc = subprocess.run([sys.executable, "-m", "fwerstream", "--help"], capture_output=True, text=True,
                              env=CHILD_ENV)
        assert proc.returncode == 0
        assert "usage: fwerstream" in proc.stdout

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fwerstream.cli", "solve", "cstar",
             "--pi-a", "0.2", "--mu-a", "4", "--mu-n", "-1"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "c_star" in proc.stdout


def per_record_csv(cfg, ps, batch_ids=None) -> bytes:
    """The decisions CSV of one scalar step per record, one row written per step."""
    scheduler = cfg.build(batch_ids=batch_ids)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", "p", "alpha_i", "rejected", "selected", "candidate"])
    for p in ps:
        d = scheduler.step(p)
        writer.writerow([d.index, repr(d.p), repr(d.alpha), int(d.rejected), int(d.selected), int(d.candidate)])
    return buf.getvalue().encode("utf-8")


# chunk sizes around the first RecycleBuffer capacity, tiny ones, and the default
CHUNKS = [1, 7, 1023, 1024, 1025, cli.RUN_CHUNK]
N_STREAM = cli.RUN_CHUNK + 200  # every chunk size above ends a chunk inside the stream


def _hot_stream(n: int, seed: int) -> np.ndarray:
    """Uniform p-values with runs of near-zero ones across the chunk boundaries
    and the first RecycleBuffer capacities, so every recycling procedure
    rejects on both sides of a boundary."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, n)
    p[rng.random(n) < 0.05] *= 1e-4
    for centre in (3, 1024, 2048, cli.RUN_CHUNK):
        p[max(0, centre - 10) : centre + 10] = 1e-12
    return p


EXPLICIT_ROWS = [[1.0 / 3000] * 3000] + [[0.5, 0.5], [1.0], [], [0.02] * 40] * 1100


def _cases():
    logq = {"kind": "log-q", "q": 2.0}
    cases = [(name, ProcedureConfig(procedure=name, alpha=0.2, series=logq), ["--procedure", name], None)
             for name in PROCEDURES]
    cases.append(("online-fallback-explicit",
                  ProcedureConfig(procedure="online-fallback", alpha=0.2, series=logq,
                                  weights={"kind": "explicit", "rows": EXPLICIT_ROWS}),
                  ["--procedure", "online-fallback", "--weights", "WEIGHTS"], None))
    cases.append(("discard-fallback-explicit",
                  ProcedureConfig(procedure="discard-fallback", alpha=0.2, series=logq, tau=0.3,
                                  weights={"kind": "explicit", "rows": EXPLICIT_ROWS}),
                  ["--procedure", "discard-fallback", "--tau", "0.3", "--weights", "WEIGHTS"], None))
    cases.append(("addis-local-batch",
                  ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=logq,
                                  lags={"kind": "from-batch-ids"}),
                  ["--procedure", "addis-spending-local", "--lags", "batch"], "batch"))
    cases.append(("addis-local-lag-list",
                  ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=logq,
                                  lags={"kind": "list", "values": [0, 1, 2, 3, 4, 0, 1, 0] * 1000}),
                  ["--procedure", "addis-spending-local", "--lags", ",".join(["0,1,2,3,4,0,1,0"] * 1000)], None))
    tau = [0.3, 0.5, 0.9] * 3000
    cases.append(("addis-sequence-tau",
                  ProcedureConfig(procedure="addis-spending", alpha=0.2, series=logq, tau=tau, lam=0.1),
                  ["--config", "CONFIG"], None))
    return cases


CASES = _cases()


class TestStreamingRun:
    @pytest.mark.parametrize("label,cfg,flags,batch", CASES, ids=[c[0] for c in CASES])
    def test_chunks_give_the_per_record_output(self, tmp_path, monkeypatch, label, cfg, flags, batch):
        ps = _hot_stream(N_STREAM, zlib.crc32(label.encode()))
        batch_ids = None
        if batch:
            # batches of 1 to 40 records: some straddle every chunk boundary
            sizes = np.random.default_rng(3).integers(1, 41, size=N_STREAM)
            batch_ids = [f"b{b}" for b in np.repeat(np.arange(N_STREAM), sizes)[:N_STREAM].tolist()]
        inp = tmp_path / "in.csv"
        write_stream(inp, ps, batch_ids)
        (tmp_path / "w.json").write_text(json.dumps({"kind": "explicit", "rows": EXPLICIT_ROWS}))
        (tmp_path / "c.json").write_text(json.dumps(cfg.to_dict()))
        flags = [{"WEIGHTS": str(tmp_path / "w.json"), "CONFIG": str(tmp_path / "c.json")}.get(f, f) for f in flags]
        if "--config" not in flags:
            flags += ["--alpha", "0.2"]
        want = per_record_csv(cfg, ps.tolist(), batch_ids)
        assert want.count(b",1,1,") > 0  # the stream rejects
        out = tmp_path / "out.csv"
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "RUN_CHUNK", chunk)
            assert main(["run", "--input", str(inp), "--out", str(out), *flags]) == 0
            assert out.read_bytes() == want, f"chunk size {chunk}"

    @pytest.mark.parametrize("chunk", [7, 1024, cli.RUN_CHUNK])
    @pytest.mark.parametrize("spend", ["one-step", "every-step"])
    def test_audit_failure_writes_the_rows_before_it(self, tmp_path, monkeypatch, capsys, chunk, spend):
        ps = np.random.default_rng(5).random(3000)
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2)
        if spend == "one-step":  # the whole budget at one step, in the middle of a chunk
            bad, factor = 2500, None
        else:  # every level scaled up so that only the sum carried over the chunks exceeds the budget
            levels = np.array([d.alpha for d in cfg.build().run(ps)])
            factor = 0.2 / levels[:2000].sum()
            bad = int(np.flatnonzero(np.cumsum(factor * levels) > 0.2 + 1e-9)[0]) + 1
            assert 1024 < bad < 3000
        make_runner = fast.make_runner

        def overspending(cfg, *args, **kwargs):
            run = make_runner(cfg, *args, **kwargs)

            def run_chunk(p, state=None):
                start = state.i
                res = run(p, state=state)
                if factor is not None:
                    res.levels *= factor
                elif start < bad <= state.i:
                    res.levels[bad - 1 - start] = 0.5
                return res
            return run_chunk

        monkeypatch.setattr(fast, "make_runner", overspending)
        monkeypatch.setattr(cli, "RUN_CHUNK", chunk)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_stream(inp, ps)
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "alpha-spending",
                     "--alpha", "0.2"]) == 4
        assert f"FAIL at index {bad}" in capsys.readouterr().err
        rows = read_csv(out)
        assert len(rows) == bad  # the header and rows 1 .. bad-1
        if factor is None:
            assert out.read_bytes() == per_record_csv(cfg, ps[: bad - 1].tolist())

    def test_bad_line_inside_a_chunk_keeps_the_rows_before_it(self, tmp_path, capsys):
        ps = np.random.default_rng(6).random(3000)
        bad = cli.RUN_CHUNK // 2  # the bad record's position, in the middle of the first chunk
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p"])
            w.writerows([repr(p)] for p in ps[: bad - 1].tolist())
            w.writerow(["1.5"])
            w.writerows([repr(p)] for p in ps[bad - 1 :].tolist())
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending",
                     "--alpha", "0.2"]) == 2
        assert f"line {bad + 1}" in capsys.readouterr().err
        cfg = ProcedureConfig(procedure="addis-spending", alpha=0.2)
        assert out.read_bytes() == per_record_csv(cfg, ps[: bad - 1].tolist())

    def test_memory_stays_bounded_on_a_long_stream(self, tmp_path):
        # run keeps nothing per record once it is written; keeping each Decision would take about 47 MB here
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_stream(inp, np.random.default_rng(7).random(200_000))
        tracemalloc.start()
        try:
            code = main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending",
                         "--alpha", "0.2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * 2**20
