"""One build and one state per stream: ``fast.decide`` and the state's batch rule."""

import csv
import tracemalloc

import numpy as np
import pytest

from fwerstream import PROCEDURES, AuditError, ConfigError, LagSchedule, ProcedureConfig, StreamError, fast, run_stream
from fwerstream.cli import main
from fwerstream.core import OnlineProcedure, StreamState


def _write(path, ps, batch_ids):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "batch_id"])
        w.writerows(zip(map(repr, ps), batch_ids))


def _chunks(proc, p, size, batch_ids=None):
    """decide, a chunk of ``size`` at a time: the rows kept and the first error."""
    kept = []
    for i in range(0, p.size, size):
        rows, error = fast.decide(proc, p[i : i + size], None if batch_ids is None else batch_ids[i : i + size])
        kept.append(rows)
        if error is not None:
            return kept, error
    return kept, None


def _levels(parts):
    return [x.hex() for part in parts for x in part.levels.tolist()]


@pytest.mark.parametrize("name", PROCEDURES)
def test_run_builds_its_procedure_once(tmp_path, monkeypatch, name):
    builds = []
    init = OnlineProcedure.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OnlineProcedure, "__init__", counted)
    n = 5000  # two chunks
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    _write(inp, np.random.default_rng(1).random(n).tolist(), [f"b{i // 3}" for i in range(n)])
    lags = ["--lags", "batch"] if name == "addis-spending-local" else []
    assert main(["run", "--input", str(inp), "--out", str(out), "--procedure", name, "--alpha", "0.2", *lags]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("size", [1, 37, 100, 4096])
def test_chunks_give_the_rows_of_one_run(size):
    p = np.random.default_rng(2).random(3000)
    p[::50] = 1e-9
    ids = np.repeat(np.arange(3000), np.random.default_rng(3).integers(1, 17, size=3000))[:3000].tolist()
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "from-batch-ids"})
    parts, error = _chunks(cfg.build(), p, size, ids)
    assert error is None
    want = run_stream(cfg, p, batch_ids=ids)
    assert _levels(parts) == [x.hex() for x in want.levels.tolist()]
    assert np.concatenate([r.rejected for r in parts]).tolist() == want.rejected.tolist() and want.rejected.any()


@pytest.mark.parametrize("size", [1, 100, 1000])
@pytest.mark.parametrize("bad", [1, 100, 2500])
def test_an_audit_failure_keeps_the_rows_before_it(monkeypatch, size, bad):
    cfg = ProcedureConfig(procedure="alpha-spending", alpha=0.2)
    p = np.random.default_rng(4).random(3000)
    want = [x.hex() for x in run_stream(cfg, p).levels[: bad - 1].tolist()]
    run = fast._run

    def overspending(proc, p, state=None, lags=None):  # the whole budget at step bad
        start = state.i
        res = run(proc, p, state, lags)
        if start < bad <= state.i:
            res.levels[bad - 1 - start] = 0.5
        return res

    monkeypatch.setattr(fast, "_run", overspending)
    parts, error = _chunks(cfg.build(), p, size)
    assert isinstance(error, AuditError) and f"FAIL at index {bad}" in str(error)
    assert sum(len(r) for r in parts) == bad - 1
    assert _levels(parts) == want


@pytest.mark.parametrize("size", [1, 100, 1000])
def test_a_tau_list_that_ends_inside_a_chunk_keeps_the_rows_up_to_its_end(size):
    tau = ([0.3, 0.6, 0.9] * 1000)[:1234]
    cfg = ProcedureConfig(procedure="discard-spending", alpha=0.2, tau=tau)
    p = np.random.default_rng(5).random(3000)
    parts, error = _chunks(cfg.build(), p, size)
    assert isinstance(error, ConfigError) and str(error) == "tau schedule has 1234 entries; step 1235 requested"
    assert sum(len(r) for r in parts) == 1234
    assert _levels(parts) == [x.hex() for x in run_stream(cfg, p[:1234]).levels.tolist()]


def test_a_repeated_batch_id_keeps_the_rows_before_it():
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "from-batch-ids"})
    p = np.random.default_rng(6).random(10)
    ids = ["a", "a", "b", "c", "c", "c", "a", "d", "d", "e"]
    proc = cfg.build()
    rows, error = fast.decide(proc, p[:4], ids[:4])
    assert error is None and len(rows) == 4
    rows, error = fast.decide(proc, p[4:], ids[4:])
    assert isinstance(error, StreamError) and str(error) == "batch id 'a' appears in two separate runs"
    assert len(rows) == 2  # records 5 and 6, of the open batch c
    want = run_stream(cfg, p[:6], batch_ids=ids[:6])
    assert rows.levels.tolist() == want.levels[4:].tolist()
    # a batch id after the last p-value is checked too: that of a record whose p-value was refused
    proc = cfg.build()
    rows, error = fast.decide(proc, p[:3], ["x", "y", "y", "x"])
    assert len(rows) == 3 and str(error) == "batch id 'x' appears in two separate runs"


def test_decide_refuses_what_it_cannot_decide():
    p = np.full(5, 0.5)
    with pytest.raises(ConfigError, match="batch ids give the lags of a schedule built from none"):
        fast.decide(ProcedureConfig(procedure="addis-spending", alpha=0.2).build(), p, list("abcde"))
    constant = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "constant", "value": 2})
    with pytest.raises(ConfigError, match="batch ids give the lags"):  # constant lags come from the config
        fast.decide(constant.build(), p, list("abcde"))
    fed = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "from-batch-ids"}).build()
    with pytest.raises(ConfigError, match="one per p-value"):
        fast.decide(fed, p, list("abc"))
    with pytest.raises(ConfigError, match="callable tau or lambda"):
        fast.decide(ProcedureConfig(procedure="discard-spending", alpha=0.2, tau=lambda prefix: 0.5).build(), p)
    for step in (1, 6):  # without batch ids a schedule built from none holds no lag for the next step
        with pytest.raises(ConfigError, match=f"^lag schedule has 0 entries; step {step} requested$"):
            fast.decide(fed, p)
        assert fast.decide(fed, p, [(step, c) for c in "abcde"])[1] is None


def test_the_state_holds_the_open_batch():
    state = StreamState()
    assert state.batch_lags(["a", "a"]) == ([0, 1], None)
    assert state.batch_lags(["a", "b", "b", "b"]) == ([2, 0, 1, 2], None)  # batch a goes on, then b opens
    assert (state.batch, state.batch_lag, state.seen) == ("b", 2, {"a", "b"})
    lags, error = state.batch_lags(["b", "c", "a", "d"])
    assert lags == [3, 0] and str(error) == "batch id 'a' appears in two separate runs"
    # None is a batch id like any other, and the first
    assert StreamState().batch_lags([None, None, 1]) == ([0, 1, 0], None)
    assert not any(hasattr(LagSchedule, a) for a in ("extend", "_seen", "_current"))


def test_a_batch_fed_run_keeps_only_the_open_chunk(tmp_path):
    # 2 x 10^5 records in batches of 1 to 16: the lags of the open chunk and the batch ids seen are kept,
    # not a lag for every record read
    n = 200_000
    rng = np.random.default_rng(7)
    ids = np.repeat(np.arange(n), rng.integers(1, 17, size=n))[:n]
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    _write(inp, rng.random(n).tolist(), [f"b{b}" for b in ids.tolist()])
    tracemalloc.start()
    try:
        code = main(["run", "--input", str(inp), "--out", str(out), "--procedure", "addis-spending-local",
                     "--alpha", "0.2", "--lags", "batch"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6 * 2**20
