"""Command-line interface: run, experiment, solve, validate."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from fwerstream import (PROCEDURES, GaussianMixModel, ProcedureConfig, QSeries, cli, expected_true_discoveries, fast,
                        optimal_gamma_varying)
from fwerstream.cli import main
from fwerstream.series import PowerLawSeries

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
        cfg.write_text(json.dumps({"procedure": "addis-spending", "alpha": 0.2,
                                   "series": {"kind": "log-q", "q": 2.0},
                                   "tau": 0.5, "lambda": 0.25}))
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.01, 0.6])
        out = tmp_path / "out.csv"
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 0

    def test_missing_input_exits_2_before_any_output(self, tmp_path, capsys):
        inp, out = tmp_path / "nope.csv", tmp_path / "o.csv"
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "alpha-spending",
                     "--alpha", "0.2"]) == 2
        assert capsys.readouterr().err.startswith(f"input error: cannot read {inp}: ")
        assert not out.exists()

    def test_missing_flags_exit_3(self, tmp_path):
        inp = tmp_path / "in.csv"
        write_stream(inp, [0.5])
        assert main(["run", "--input", str(inp)]) == 3

    def test_a_series_file_takes_no_q(self, tmp_path, capsys):
        series, inp, out = tmp_path / "q2.json", tmp_path / "in.csv", tmp_path / "o.csv"
        series.write_text(json.dumps({"kind": "q", "q": 2}))
        write_stream(inp, [0.05, 0.5])
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "alpha-spending", "--alpha", "0.2",
                     "--series", str(series), "--q", "5"]) == 3
        assert capsys.readouterr().err == f"config error: --q applies to --series q or logq, not to the series file {series}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--procedure", "alpha-spending"), ("--alpha", "0.05"), ("--series", "q"),
                                            ("--q", "5"), ("--tau", "0.5"), ("--lambda", "0.25"), ("--lags", "2"),
                                            ("--weights", "one-step"), ("--k", "1")])
    def test_config_takes_no_procedure_flag(self, tmp_path, capsys, flag, value):
        cfg, inp, out = tmp_path / "proc.json", tmp_path / "in.csv", tmp_path / "o.csv"
        cfg.write_text(json.dumps({"procedure": "alpha-spending", "alpha": 0.2}))
        write_stream(inp, [0.05, 0.5])
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg), flag, value]) == 3
        assert capsys.readouterr().err == f"config error: --config takes no {flag}: the file sets the procedure\n"
        assert not out.exists()

    def test_a_lags_config_that_lists_batch_ids_is_refused(self, tmp_path, capsys):
        # batch ids come with the stream, here its batch_id column
        cfg, inp, out = tmp_path / "proc.json", tmp_path / "in.csv", tmp_path / "o.csv"
        cfg.write_text(json.dumps({"procedure": "addis-spending-local", "alpha": 0.2,
                                   "lags": {"kind": "from-batch-ids", "batch_ids": ["x", "y", "z"]}}))
        write_stream(inp, [0.01] * 4, batch_ids=["a", "a", "b", "b"])
        message = "lags kind 'from-batch-ids' has unknown keys ['batch_ids']; known: kind"
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
        assert main(["validate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().out == f"FAIL addis-spending-local: {message}\n"

    @pytest.mark.parametrize("name,flags", [
        ("alpha-spending", ["--tau", "0.5"]), ("alpha-spending", ["--lags", "batch"]),
        ("online-sidak", ["--lambda", "0.1"]), ("addis-spending", ["--lags", "2"]),
        ("addis-spending", ["--weights", "one-step"]), ("online-fallback-1", ["--weights", "lagged-gamma"]),
    ])
    def test_an_option_the_procedure_does_not_take_exits_3_before_any_output(self, tmp_path, capsys, name, flags):
        inp, out = tmp_path / "in.csv", tmp_path / "o.csv"
        write_stream(inp, [0.01, 0.5], batch_ids=["a", "b"])
        option = {"--lambda": "lam"}.get(flags[0], flags[0][2:])
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", name, "--alpha", "0.2",
                     *flags]) == 3
        assert capsys.readouterr().err == f"config error: {name} takes no {option!r} option\n"
        assert not out.exists()

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, ext):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        ps = np.random.default_rng(8).random(50)
        plain, marked = tmp_path / f"plain.{ext}", tmp_path / f"marked.{ext}"
        if ext == "csv":
            write_stream(plain, ps, batch_ids=[f"b{i // 4}" for i in range(50)])
        else:
            plain.write_text("".join(json.dumps({"p": p, "batch_id": i // 4}) + "\n" for i, p in enumerate(ps.tolist())))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        flags = ["--procedure", "addis-spending-local", "--alpha", "0.2", "--lags", "batch"]
        for inp in (plain, marked):
            assert main(["run", "--input", str(inp), "--out", str(tmp_path / f"{inp.stem}.out"), *flags]) == 0
        assert (tmp_path / "marked.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
        assert len(read_csv(tmp_path / "marked.out")) == 51


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

    # named: what the error message must name; validate --config reads the config as experiment does
    @pytest.mark.parametrize("key,value,named", [
        ("grid", 5, "grid must be an object"), ("grid", {"pi_a": ["x"]}, "grid.pi_a"),
        ("grid", {"mu_n": 5}, "grid.mu_n must be a non-empty list"), ("trials", 0, "trials"),
        ("trials", 2.7, "trials"), ("trials", True, "trials"), ("trials", "2", "trials"), ("seed", 1.5, "seed"),
        ("seed", False, "seed"), ("grid", {"T": 50.9}, "grid.T"), ("grid", {"pi_a": [True]}, "grid.pi_a"),
        ("grid", {"pi_a": ["0.5"]}, "grid.pi_a"), ("grid", {"mu_n": ["-1"]}, "grid.mu_n"),
        ("grid", {"mu_a": "4"}, "grid.mu_a"), ("grid", {"mu_a": True}, "grid.mu_a"),
        ("grid", {"alpha": "0.2"}, "grid.alpha"), ("grid", {"alpha": 1.5}, "alpha"),
        ("procedures", [{"procedure": "discard-sidak", "alpha": 0.2, "tau": 0.1}], "tau"),
        ("grid", {"pi_a": 0.5}, "grid.pi_a must be a non-empty list, got 0.5"),
        ("grid", {"pi_a": "0.5"}, "grid.pi_a must be a non-empty list, got '0.5'"),
        ("grid", [1], "grid must be an object, got [1]"),
        ("procedures", "alpha-spending", "procedures must be a non-empty list, got 'alpha-spending'"),
        ("procedures", [], "procedures must be a non-empty list, got []"),
        ("grid", {"pi_a": []}, "grid.pi_a must be a non-empty list, got []"),
        ("grid", {"mu_n": []}, "grid.mu_n must be a non-empty list, got []"),
        ("procedures", [{"procedure": "addis-spending-local", "alpha": 0.2, "lags": "x"}],
         "lags config must be a dict with a 'kind', got 'x'"),
        ("procedures", [{"procedure": "addis-spending-local", "alpha": 0.2, "lags": {"kind": "nope"}}],
         "unknown lags kind 'nope'"),
        ("procedures", [{"procedure": "online-fallback", "alpha": 0.2, "weights": "x"}],
         "fallback weights config must be a dict with a 'kind', got 'x'"),
        ("procedures", [{"procedure": "online-fallback", "alpha": 0.2, "weights": {"kind": "nope"}}],
         "unknown fallback weights kind 'nope'"),
        ("procedures", [{"procedure": "alpha-spending", "alpha": 0.2, "tau": 0.5}],
         "alpha-spending takes no 'tau' option"),
        ("procedures", [{"procedure": "alpha-spending", "alpha": 0.2, "lags": {"kind": "from-batch-ids"}}],
         "alpha-spending takes no 'lags' option"),
        ("tirals", 2, "unknown keys ['tirals']"), ("grid", {"mu_N": [0.0]}, "grid has unknown keys ['mu_N']"),
        ("grid", {"pi_a": [10**400]}, f"grid.pi_a must be a finite number, got {10**400}"),
        ("grid", {"T": 10**400}, f"grid.T must be a finite number, got {10**400}"),
        ("grid", {"T": 10**300}, f"grid.T must be at most {2**60 - 1}, the longest float64 array numpy can shape"),
        ("procedures", [{"procedure": "alpha-spending", "alpha": 0.1}],
         "procedure alpha-spending has alpha 0.1, but the grid runs at alpha 0.2"),
        ("procedures", [{"procedure": "addis-spending-local", "alpha": 0.2, "lags": {"kind": "from-batch-ids"}}],
         "procedure addis-spending-local takes its lags from batch ids"),
        ("procedures", [{"procedure": "discard-spending", "alpha": 0.2, "tau": [0.5, 0.5]}],
         "tau schedule has 2 entries; step 3 requested"),
        ("procedures", [{"procedure": "discard-spending", "alpha": 0.2, "tau": []}],
         "tau must be a number, a nonempty sequence of numbers, or a callable, got []"),
        ("procedures", [{"procedure": "addis-sidak", "alpha": 0.2, "lambda": []}],
         "lambda must be a number, a nonempty sequence of numbers, or a callable, got []"),
    ], ids=["grid", "pi_a", "mu_n", "trials", "trials-fraction", "trials-bool",
            "trials-string", "seed-fraction", "seed-bool", "T-fraction",
            "pi_a-bool", "pi_a-string", "mu_n-string", "mu_a-string", "mu_a-bool",
            "alpha-string", "alpha-out-of-range", "tau-below-grid-alpha",
            "pi_a-number", "pi_a-text", "grid-list", "procedures-text", "procedures-empty",
            "pi_a-empty", "mu_n-empty", "lags-text", "lags-kind", "weights-text", "weights-kind",
            "tau-on-alpha-spending", "batch-lags-on-alpha-spending", "unknown-key", "unknown-grid-key",
            "pi_a-huge", "T-huge", "T-unshapeable", "alpha-other-than-the-grids", "batch-lags", "tau-list-shorter-than-T",
            "empty-tau-list", "empty-lambda-list"])
    def test_malformed_config_exits_3_before_any_output(self, tmp_path, capsys, key, value, named):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"procedures": [{"procedure": "alpha-spending", "alpha": 0.2}],
                                   "grid": {"T": 20}, "trials": 2, key: value}))
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert named in err
        assert not out.exists()
        assert main(["validate", "--config", str(cfg)]) == 3
        assert capsys.readouterr() == ("", err)

    def test_a_valid_config_validates_and_runs(self, tmp_path, capsys):
        cfg, out = self._one_cell(tmp_path, trials=2, seed=1), tmp_path / "r.csv"
        assert main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr() == ("ok   alpha-spending\n", "")
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize("key,name", [("tau", "tau"), ("lambda", "lambda"), ("lags", "lag")])
    def test_sequence_shorter_than_the_horizon_exits_3_before_any_output(self, tmp_path, capsys, key, name):
        short = {"tau": [0.5] * 19, "lambda": [0.25] * 19, "lags": {"kind": "list", "values": [0] * 19}}[key]
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"procedures": [{"procedure": "addis-spending-local", "alpha": 0.2, key: short}],
                                   "grid": {"pi_a": [0.3], "T": 20}, "trials": 2}))
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {name} schedule has 19 entries; step 20 requested\n"
        assert not out.exists()

    def test_preset_and_config_together_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = ["experiment", "--preset", "fig1", "--config", self._one_cell(tmp_path, trials=2, seed=1), "--trials", "1"]
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "config error: pass --preset or --config, not both\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid_alpha", [None, 0.05])
    def test_a_procedure_alpha_other_than_the_grids_exits_3(self, tmp_path, capsys, grid_alpha):
        cfg, out = tmp_path / "exp.json", tmp_path / "r.csv"
        grid = {"pi_a": [0.3], "T": 20, **({} if grid_alpha is None else {"alpha": grid_alpha})}
        cfg.write_text(json.dumps({"procedures": [{"procedure": "alpha-spending", "alpha": 0.2},
                                                  {"procedure": "online-sidak", "alpha": 0.01}],
                                   "grid": grid, "trials": 2}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        first = "alpha-spending has alpha 0.2" if grid_alpha else "online-sidak has alpha 0.01"
        assert capsys.readouterr().err == (f"config error: procedure {first}, "
                                           f"but the grid runs at alpha {grid_alpha or 0.2}\n")
        assert not out.exists()

    def test_config_that_is_not_an_object_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text("[1]")
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert "experiment config must be an object, got [1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--preset", "fig1", "--seed", "-1"], ["--config", "CONFIG", "--seed", "-1"],
                                      ["--config", "CONFIG-1"]], ids=["fig1-flag", "config-flag", "config-key"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_negative_seed_exits_3_before_any_output(self, tmp_path, capsys, argv, to_file):
        configs = {"CONFIG": self._one_cell(tmp_path, trials=2, seed=1),
                   "CONFIG-1": self._one_cell(tmp_path, trials=2, seed=-1)}
        argv = [configs.get(a, a) for a in argv]
        out = tmp_path / "r.csv"
        assert main(["experiment", *argv, "--trials", "2", *(["--out", str(out)] if to_file else [])]) == 3
        captured = capsys.readouterr()
        assert "seed must be a nonnegative integer, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_fig2_seed_offset_keeps_a_negative_seed_valid(self, tmp_path):
        # fig2's cells draw from seed + 10000, so --seed -1 gives nonnegative cell seeds
        rows = self._rows(tmp_path, ["--preset", "fig2", "--trials", "2", "--seed", "-1"])
        assert len(rows) == 1 + (9 + 9) * 4

    def _one_cell(self, tmp_path, trials, seed):
        cfg = tmp_path / f"exp-{trials}-{seed}.json"
        cfg.write_text(json.dumps({"procedures": [{"procedure": "alpha-spending", "alpha": 0.2}],
                                   "grid": {"pi_a": [0.3], "T": 20}, "trials": trials, "seed": seed}))
        return str(cfg)

    def _rows(self, tmp_path, argv):
        out = tmp_path / "r.csv"
        assert main(["experiment", *argv, "--out", str(out)]) == 0
        return read_csv(out)

    def test_flags_override_the_config(self, tmp_path):
        cfg = self._one_cell(tmp_path, trials=3, seed=9)
        by_flags = self._rows(tmp_path, ["--config", cfg, "--trials", "2", "--seed", "5"])
        assert by_flags != self._rows(tmp_path, ["--config", cfg, "--trials", "3", "--seed", "9"])
        assert by_flags == self._rows(tmp_path, ["--config", self._one_cell(tmp_path, trials=2, seed=5)])
        # a flag left out keeps the config's value; a whole float is a whole number
        assert by_flags == self._rows(tmp_path, ["--config", self._one_cell(tmp_path, trials=2.0, seed=7),
                                                 "--seed", "5"])
        assert by_flags == self._rows(tmp_path, ["--config", self._one_cell(tmp_path, trials=4, seed=5.0),
                                                 "--trials", "2"])

    @pytest.mark.parametrize("preset,seed", [("fig1", 1), ("fig2", 10_001)])
    def test_presets_default_to_2000_trials_and_seed_1(self, tmp_path, monkeypatch, preset, seed):
        from fwerstream import sim

        seen = {}
        monkeypatch.setattr(sim, "grid_cells", lambda *a, **kw: seen.update(kw) or [])
        self._rows(tmp_path, ["--preset", preset])
        assert (seen["trials"], seen["seed"]) == (2000, seed)


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
                     "--mu-a", "0", "--pi-a", "0.5", "--n", "10,100",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        for n_tok, val in ((10, rows[1][1]), (100, rows[2][1])):
            assert float(val) == pytest.approx(0.5 * 0.2 * Q2.partial_sum(n_tok), rel=1e-12)

    def test_optimal_gamma(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["solve", "optimal-gamma", "--pi-a", "0.5", "--mu-a", "4",
                     "--alpha", "0.2", "--horizon", "4", "--out", str(out)]) == 0
        vals = [float(r[1]) for r in read_csv(out)[1:]]
        assert vals == [0.25] * 4 or max(abs(v - 0.25) for v in vals) < 1e-9

    @pytest.mark.parametrize("flag,value,named", [("--pi-a", "0.5,0.4", "pi_a has 2"), ("--mu-a", "4,3,5", "mu_a has 3")])
    def test_optimal_gamma_sequence_of_the_wrong_length_exits_3(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "g.csv"
        assert main(["solve", "optimal-gamma", flag, value, "--horizon", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {named} entries; horizon 10 takes 1 or 10\n"
        assert not out.exists()

    def test_optimal_gamma_takes_a_mu_a_list(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["solve", "optimal-gamma", "--mu-a", "4,3", "--horizon", "2", "--out", str(out)]) == 0
        assert read_csv(out)[1:] == [[str(i), repr(g)] for i, g in
                                     enumerate(optimal_gamma_varying(0.5, [4.0, 3.0], 0.2, 2).tolist(), start=1)]

    def test_expected_discoveries_reads_pi_a(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["solve", "expected-discoveries", "--pi-a", "0.3", "--n", "10", "--out", str(out)]) == 0
        model = GaussianMixModel(pi_a=0.3, mu_a=4.0, mu_n=0.0)
        assert read_csv(out)[1] == ["10", repr(expected_true_discoveries(10, 0.2, {"kind": "q", "q": 2.0}, model))]

    @pytest.mark.parametrize("argv,message", [
        (["cstar", "--mu-a", "4,3"], "--mu-a takes one number for this solver, got '4,3'"),
        (["optimal-q", "--mu-a", "4,3"], "--mu-a takes one number for this solver, got '4,3'"),
        (["expected-discoveries", "--mu-a", "4,3"], "--mu-a takes one number for this solver, got '4,3'"),
        (["expected-discoveries", "--pi-a", "0.5,0.4"], "--pi-a takes one number for this solver, got '0.5,0.4'"),
        (["cstar", "--mu-a", "four"], "--mu-a must be a comma-separated number list, got 'four'"),
        (["optimal-gamma", "--mu-a", "4,x"], "--mu-a must be a comma-separated number list, got '4,x'"),
    ], ids=["cstar-list", "optimal-q-list", "expected-discoveries-list", "expected-discoveries-pi-a-list",
            "cstar-text", "optimal-gamma-text"])
    def test_mu_a_or_pi_a_that_the_solver_cannot_take_exits_3(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s.csv"
        assert main(["solve", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["optimal-q", "--n", "10", "--pi-a", "0.9", "--horizon", "3", "--q", "7"], "--pi-a"),
        (["cstar", "--alpha", "0.05", "--horizon", "4"], "--alpha"),
        (["optimal-gamma", "--n", "5"], "--n"),
        (["expected-discoveries", "--n", "10", "--mu-n", "-1"], "--mu-n"),
    ], ids=["optimal-q", "cstar", "optimal-gamma", "expected-discoveries"])
    def test_a_flag_the_solver_does_not_read_exits_3(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "s.csv"
        assert main(["solve", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: solve {argv[0]} takes no {flag}\n"
        assert not out.exists()

    def test_unknown_solver_exit_3(self):
        assert main(["solve", "newton"]) == 3

    def test_infinite_horizon_row_is_a_plain_float(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["solve", "expected-discoveries", "--n", "10,inf", "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert [n for n, _ in rows] == ["10", "inf"]
        assert all(math.isfinite(float(v)) for _, v in rows)  # not "np.float64(...)"
        model = GaussianMixModel(pi_a=0.5, mu_a=4.0, mu_n=0.0)
        assert rows[0][1] == repr(expected_true_discoveries(10, 0.2, {"kind": "q", "q": 2.0}, model))

    @pytest.mark.parametrize("argv", [["optimal-gamma", "--pi-a", ","], ["optimal-gamma", "--mu-a", ","],
                                      ["cstar", "--pi-a", ","], ["optimal-q", "--n", ","]],
                             ids=["optimal-gamma-pi-a", "optimal-gamma-mu", "cstar-pi-a", "optimal-q-n"])
    def test_empty_list_exits_3_naming_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(["solve", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {argv[1]} must list at least one number, got ','\n"
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith("config error: experiment config: procedures must be a non-empty list")

    def test_lambda_tau_order_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"procedure": "addis-spending", "alpha": 0.2,
                                   "tau": 0.5, "lambda": 0.6}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "lambda" in capsys.readouterr().out

    def test_every_sequence_step_checked_before_the_stream(self, tmp_path, capsys):
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"procedure": "addis-sidak", "alpha": 0.2,
                                   "tau": [0.5, 0.1, 0.5], "lambda": [0.25, 0.25, 0.6]}))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().out == ("FAIL addis-sidak: step 2: lambda must be < tau, "
                                           "got lambda=0.25 >= tau=0.1\n")
        inp, out = tmp_path / "in.csv", tmp_path / "o.csv"
        write_stream(inp, [0.3, 0.6, 0.1])
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("config error: step 2: lambda must be < tau")
        assert not out.exists()

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
        ("series", {"kind": "explicit", "weights": [True]}), ("tau", []), ("lambda", []),
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
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("config,message", [
        ({"procedure": "alpha-spending", "alpha": 0.2, "tau": 0.5}, "alpha-spending takes no 'tau' option"),
        ({"procedure": "online-sidak", "alpha": 0.2, "lags": 1}, "online-sidak takes no 'lags' option"),
        ({"procedure": "alpha-spending", "alpha": 0.2, "lags": {"kind": "from-batch-ids"}},
         "alpha-spending takes no 'lags' option"),
        ({"procedure": "online-fallback-1", "alpha": 0.2, "weights": {"kind": "one-step"}},
         "online-fallback-1 takes no 'weights' option"),
        # one key and one spelling per setting: the others are unknown
        ({"procedure": "addis-spending", "alpha": 0.2, "lambda": 0.1, "lam": 0.3},
         "procedure config has unknown keys ['lam']; "
         "known: procedure, alpha, series, tau, lambda, lags, weights, k"),
        ({"procedure": "online-fallback", "alpha": 0.2, "fallback_weights": {"kind": "one-step"}},
         "procedure config has unknown keys ['fallback_weights']; "
         "known: procedure, alpha, series, tau, lambda, lags, weights, k"),
        *(({"procedure": alias, "alpha": 0.2}, f"unknown procedure {alias!r}; known: {', '.join(PROCEDURES)}")
          for alias in ("discard", "adaptive", "addis", "addis-local", "fallback", "fallback-1", "sidak", "spending")),
        *(({"procedure": "alpha-spending", "alpha": 0.2, "series": {"kind": kind, "q": 2.0}},
           f"series: unknown series kind {kind!r}") for kind in ("q-series", "logq", "log-q-series")),
        ({"procedure": "online-fallback", "alpha": 0.2, "weights": {"kind": "lagged"}},
         "unknown fallback weights kind 'lagged'"),
        ({"procedure": "addis-spending-local", "alpha": 0.2, "lags": {"kind": "batch"}}, "unknown lags kind 'batch'"),
    ])
    def test_a_setting_the_procedure_does_not_take_fails(self, tmp_path, capsys, config, message):
        cfg, inp, out = tmp_path / "proc.json", tmp_path / "in.csv", tmp_path / "o.csv"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().out == f"FAIL {config['procedure']}: {message}\n"
        write_stream(inp, [0.01, 0.5], batch_ids=["a", "b"])
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"config error: {message.removeprefix('series: ')}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("config", [
        {"procedure": "alpha-spending", "alpha": 0.9999999999999,
         "series": {"kind": "explicit", "weights": [1.000000000001]}},
        {"procedure": "online-fallback", "alpha": 0.2, "weights": {"kind": "explicit", "rows": [[0.5], [1.000000000001]]}},
    ], ids=["series", "fallback-row"])
    def test_an_explicit_weight_above_one_fails(self, tmp_path, capsys, config):
        # the sum is within its 1e-12 slack, but the entry would let a level reach min(tau, 1)
        cfg, inp, out = tmp_path / "w.json", tmp_path / "in.csv", tmp_path / "o.csv"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 3
        assert "FAIL" in (said := capsys.readouterr().out) and "above one" in said
        write_stream(inp, [1.0, 0.5])
        assert main(["run", "--input", str(inp), "--out", str(out), "--config", str(cfg)]) == 3
        assert "above one" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["run", "--input", "in.csv", "--procedure", "alpha-spending", "--alpha", "0.2"],
                                  ["experiment", "--preset", "fig1", "--trials", "2"], ["solve", "cstar"]],
                         ids=["run", "experiment", "solve"])
def test_unwritable_out_exits_3_in_every_subcommand(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_stream(tmp_path / "in.csv", [0.5])
    out = tmp_path / "missing-dir" / "o.csv"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("spelling", ["same", "dot", "link"])
def test_run_refuses_out_naming_its_input(tmp_path, capsys, spelling):
    # opening --out truncates it, so an --out that is the --input file would leave a header only
    inp = tmp_path / "s.csv"
    write_stream(inp, np.random.default_rng(3).random(20_000))
    before = inp.read_bytes()
    out = {"same": str(inp), "dot": f"{tmp_path}/./s.csv", "link": str(tmp_path / "link.csv")}[spelling]
    if spelling == "link":
        os.symlink(inp, out)
    code = main(["run", "--input", str(inp), "--out", out, "--procedure", "alpha-spending", "--alpha", "0.2"])
    assert code == 3
    assert inp.read_bytes() == before
    assert capsys.readouterr() == ("", f"config error: --out {out} is the --input file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["link.csv"] if spelling == "link" else []) + ["s.csv"]


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

    def test_a_long_stream_that_spends_the_whole_budget_writes_every_row(self, tmp_path):
        # n weights that sum to exactly 1: a plain running sum of the audit's
        # terms reads 1 + 3.2e-12 at the last record, over the 1e-12 slack
        n = 120_000
        series, inp, out = tmp_path / "s.json", tmp_path / "in.csv", tmp_path / "out.csv"
        series.write_text(json.dumps({"kind": "explicit", "weights": [1 / n] * n}))
        inp.write_text("p\n" + "1\n" * n)
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "online-sidak",
                     "--alpha", "0.2", "--series", str(series)]) == 0
        assert len(read_csv(out)) == 1 + n

    @pytest.mark.parametrize("kind,flag", [("q", "q"), ("log-q", "logq")])
    def test_a_series_file_runs_as_its_flags_and_is_certified_once(self, tmp_path, monkeypatch, kind, flag):
        certified, certify = [], PowerLawSeries._certify

        def counted(series):
            certified.append(series)
            return certify(series)

        monkeypatch.setattr(PowerLawSeries, "_certify", counted)
        inp, series = tmp_path / "in.csv", tmp_path / "s.json"
        write_stream(inp, np.random.default_rng(3).random(300) * 0.1)
        series.write_text(json.dumps({"kind": kind, "q": 2}))
        outs = []
        for flags in (["--series", str(series)], ["--series", flag, "--q", "2"]):
            outs.append(tmp_path / f"out{len(outs)}.csv")
            certified.clear()
            assert main(["run", "--input", str(inp), "--out", str(outs[-1]), "--procedure", "addis-spending",
                         "--alpha", "0.2", *flags]) == 0
            assert len(certified) == 1, flags
        assert outs[0].read_bytes() == outs[1].read_bytes()

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

    def test_a_closed_stdout_exits_1_without_a_traceback(self):
        # the read end is closed before the child starts, so its first flush of stdout breaks the pipe
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "fwerstream", "experiment", "--preset", "fig1", "--trials", "1"],
                                  stdout=write, stderr=subprocess.PIPE, env=CHILD_ENV)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

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


def _csv_line(p, batch, kind=None):
    """One record of a batch_id,p CSV; ``kind`` names what is wrong with it."""
    value = {"non-number": "abc", "nan": "nan", "above-one": "1.5", "repeated-batch-id-and-bad-p": "1.5"}.get(kind, repr(p))
    if kind == "missing-p":
        return batch
    batch = {"missing-batch-id": " ", "repeated-batch-id": "b0", "repeated-batch-id-and-bad-p": "b0"}.get(kind, batch)
    return f"{batch},{value}"


def _jsonl_line(p, batch, kind=None):
    """One record of a JSONL stream; ``kind`` names what is wrong with it."""
    if kind == "invalid-json":
        return '{"p": 0.5, "batch_id": '
    if kind == "overlong-integer":  # more digits than Python converts to an int
        return '{"p": %s, "batch_id": %s}' % ("1" * 5000, json.dumps(batch))
    rec = {"p": {"boolean-p": True, "huge-integer": 10**400}.get(kind, p), "batch_id": batch}
    if kind == "missing-p-field":
        del rec["p"]
    return json.dumps(rec)


MALFORMED = [  # (kind, format, record writer, the error message after "line N: ")
    ("non-number", "csv", _csv_line, "p-value must be a real number, got 'abc'"),
    ("nan", "csv", _csv_line, "p-value must lie in [0, 1], got nan"),
    ("above-one", "csv", _csv_line, "p-value must lie in [0, 1], got 1.5"),
    ("missing-p", "csv", _csv_line, "missing 'p' value"),
    ("missing-batch-id", "csv", _csv_line, "--lags batch needs a batch_id column"),
    ("repeated-batch-id", "csv", _csv_line, "batch id 'b0' appears in two separate runs"),
    # a batch id is pushed before its p-value is checked
    ("repeated-batch-id-and-bad-p", "csv", _csv_line, "batch id 'b0' appears in two separate runs"),
    ("invalid-json", "jsonl", _jsonl_line, "invalid JSON (Expecting value)"),
    ("missing-p-field", "jsonl", _jsonl_line, "expected an object with a 'p' field"),
    ("boolean-p", "jsonl", _jsonl_line, "p-value True is a boolean, not a number"),
    ("huge-integer", "jsonl", _jsonl_line, "p-value must be a real number"),
    ("overlong-integer", "jsonl", _jsonl_line, "invalid JSON (Exceeds the limit"),
]
# the first record has no earlier run to repeat
AT_EDGES = [(*m, pos) for m in MALFORMED for pos in (1, cli.RUN_CHUNK - 1, cli.RUN_CHUNK, cli.RUN_CHUNK + 1)
            if not (m[0].startswith("repeated") and pos == 1)]
# CSV lines where a quoted field spans lines, run flags, records decided before the bad one, and the error
MULTI_LINE = [
    (["p", '"0.1', '"', "abc"], [], 1, "line 4: p-value must be a real number, got 'abc'"),
    (["p,batch_id", "0.1,a", '0.2,"b', 'c"', "0.3,a"], ["--lags", "batch"], 2,
     "line 5: batch id 'a' appears in two separate runs"),
    # line breaks in two chunks of two rows, a blank line, and a bad record that itself spans lines
    (["p", '"0.1', "", '"', "0.2", '"0.3', '"', "", '"0.4', 'x"', "0.5"], [], 3,
     "line 9: p-value must be a real number, got '0.4\\nx'"),
]

# CSV rows the reader cannot split, and its message: a quote left open, text after a closing quote,
# a field longer than the reader's limit
UNSPLIT = [('"{p}', "unexpected end of data"), ('"{p}"x', "',' expected after '\"'"),
           ("{p}" + "1" * csv.field_size_limit(), f"field larger than field limit ({csv.field_size_limit()})")]


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
        run = fast._run  # the runner that proc.decide calls on each chunk

        def run_chunk(proc, p, state=None, lags=None):
            start = state.i
            res = run(proc, p, state, lags)
            if factor is not None:
                res.levels *= factor
            elif start < bad <= state.i:
                res.levels[bad - 1 - start] = 0.5
            return res

        monkeypatch.setattr(fast, "_run", run_chunk)
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

    @pytest.mark.parametrize("kind", ["tau", "lag"])
    def test_short_schedule_stops_after_its_last_step(self, tmp_path, capsys, kind):
        # the schedule ends inside the second chunk: the runner decides that chunk up to the
        # schedule's last step, then refuses the step past it
        short = cli.RUN_CHUNK + 904
        n = short + 1000
        ps = _hot_stream(n, 12)
        inp = tmp_path / "in.csv"
        write_stream(inp, ps)

        def flags(length):
            if kind == "tau":
                cfg = tmp_path / f"c{length}.json"
                cfg.write_text(json.dumps({"procedure": "discard-spending", "alpha": 0.2,
                                           "tau": ([0.3, 0.5, 0.9] * n)[:length]}))
                return ["--config", str(cfg)]
            lags = ",".join(map(str, ([0, 1, 2, 3, 4, 0, 1, 0] * n)[:length]))
            return ["--procedure", "addis-spending-local", "--alpha", "0.2", "--lags", lags]

        full, out = tmp_path / "full.csv", tmp_path / "out.csv"
        assert main(["run", "--input", str(inp), "--out", str(full), *flags(n)]) == 0
        assert main(["run", "--input", str(inp), "--out", str(out), *flags(short)]) == 3
        assert f"{kind} schedule has {short} entries; step {short + 1} requested" in capsys.readouterr().err
        rows = full.read_bytes().splitlines(keepends=True)
        assert b",1,1," in b"".join(rows[1 : short + 1])  # the stream rejects before the schedule ends
        assert out.read_bytes() == b"".join(rows[: short + 1])  # the header and rows 1 .. short

    @pytest.mark.parametrize("kind,ext,line,message,pos", AT_EDGES, ids=[f"{c[0]}-{c[4]}" for c in AT_EDGES])
    def test_malformed_record_at_a_chunk_edge(self, tmp_path, capsys, kind, ext, line, message, pos):
        # a blank line before the bad record, which is record pos, on either side of a chunk boundary
        n = cli.RUN_CHUNK + 100
        ps = _hot_stream(n, pos).tolist()
        batch_ids = [f"b{i // 3}" for i in range(n)]
        good = [line(p, b) for p, b in zip(ps, batch_ids)]
        bad = line(ps[pos - 1], batch_ids[pos - 1], kind)
        inp = tmp_path / f"in.{ext}"
        header = ["batch_id,p"] if ext == "csv" else []
        inp.write_text("\n".join(header + good[: pos - 1] + ["", bad] + good[pos:]) + "\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending-local",
                     "--alpha", "0.2", "--lags", "batch"]) == 2
        bad_line = pos + 1 + len(header)  # the header and the blank line come before it
        assert f"input error: line {bad_line}: {message}" in capsys.readouterr().err
        cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "from-batch-ids"})
        assert out.read_bytes() == per_record_csv(cfg, ps[: pos - 1], batch_ids[: pos - 1])

    @pytest.mark.parametrize("chunk", [2, cli.RUN_CHUNK])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("lines,flags,rows,message", MULTI_LINE, ids=[c[3].split(":")[0] for c in MULTI_LINE])
    def test_error_names_the_physical_line_after_a_quoted_line_break(self, tmp_path, monkeypatch, capsys,
                                                                     chunk, newline, lines, flags, rows, message):
        monkeypatch.setattr(cli, "RUN_CHUNK", chunk)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        inp.write_bytes((newline.join(lines) + newline).encode())
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending-local",
                     "--alpha", "0.2", *flags]) == 2
        assert f"input error: {message}" in capsys.readouterr().err
        assert len(read_csv(out)) == 1 + rows  # the header and the records before the bad one

    @pytest.mark.parametrize("chunk", [3, cli.RUN_CHUNK])
    @pytest.mark.parametrize("pos", [1, 3, 4, 8])
    @pytest.mark.parametrize("row,message", UNSPLIT, ids=["open-quote", "text-after-quote", "long-field"])
    def test_row_the_reader_cannot_split_exits_2(self, tmp_path, monkeypatch, capsys, chunk, pos, row, message):
        # record pos of 8, at either end of a 3-row chunk, in the middle of one, or in the one chunk
        monkeypatch.setattr(cli, "RUN_CHUNK", chunk)
        ps = _hot_stream(8, pos).tolist()
        lines = ["p", *map(repr, ps[: pos - 1]), row.format(p=repr(ps[pos - 1])), *map(repr, ps[pos:])]
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        inp.write_text("\n".join(lines) + "\n")
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "alpha-spending",
                     "--alpha", "0.2"]) == 2
        assert f"input error: line {pos + 1}: {message}" in capsys.readouterr().err
        cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2)
        assert out.read_bytes() == per_record_csv(cfg, ps[: pos - 1])

    @pytest.mark.parametrize("text,line,rows", [('p\n0.1\n"0.2', 3, [["1", "0.1"]]), ('"p\n0.1\n', 1, [])],
                             ids=["last-line", "header"])
    def test_quote_left_open(self, tmp_path, capsys, text, line, rows):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        inp.write_text(text)
        assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", "alpha-spending",
                     "--alpha", "0.2"]) == 2
        assert f"input error: line {line}: unexpected end of data" in capsys.readouterr().err
        assert [row[:2] for row in read_csv(out)] == [["index", "p"], *rows]

    def test_stdout_gets_the_bytes_of_the_out_file(self, tmp_path):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        n = cli.RUN_CHUNK + 300
        write_stream(inp, _hot_stream(n, 9), batch_ids=[f"b{i // 5}" for i in range(n)])
        argv = [sys.executable, "-m", "fwerstream", "run", "--input", str(inp), "--procedure", "addis-spending-local",
                "--alpha", "0.2", "--lags", "batch"]
        to_stdout = subprocess.run(argv, capture_output=True, env=CHILD_ENV)
        to_file = subprocess.run(argv + ["--out", str(out)], capture_output=True, env=CHILD_ENV)
        assert to_stdout.returncode == to_file.returncode == 0 and to_file.stdout == b""
        assert to_stdout.stdout == out.read_bytes()
        assert to_stdout.stdout.count(b"\r\n") == n + 1 and to_stdout.stdout.count(b"\n") == n + 1

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
