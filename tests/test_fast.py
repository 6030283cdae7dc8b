"""The vectorized runners must reproduce the step schedulers bit for bit."""

import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest

from fwerstream import PROCEDURES, LogQSeries, ProcedureConfig, make_runner, run_stream
from fwerstream.core import RecycleBuffer, StreamState
from fwerstream.errors import ConfigError, StreamError
from fwerstream.fast import _COLUMNS, _run, decide, from_decisions

# tau and lambda by step, lambda < tau at every step; no tau reaches the 0.9 that
# _growth_stream uses for a discarded step, and the lists cover its 2100 steps
TAU_BY_STEP = [0.3, 0.5, 0.8, 0.7, 0.45] * 420
LAM_BY_STEP = [0.1, 0.25, 0.2, 0.05, 0.4] * 420
CONFIGS = [
    ProcedureConfig(procedure="alpha-spending", alpha=0.2, series={"kind": "q", "q": 2.0}),
    ProcedureConfig(procedure="alpha-spending", alpha=0.05, series={"kind": "log-q", "q": 2.0}, k=3),
    ProcedureConfig(procedure="alpha-spending", alpha=0.2, series={"kind": "explicit", "weights": [0.5, 0.3]}),
    ProcedureConfig(procedure="online-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}),
    ProcedureConfig(procedure="online-sidak", alpha=0.3, series={"kind": "log-q", "q": 1.5}),
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}),
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "q", "q": 2.0},
                    weights={"kind": "one-step"}),
    ProcedureConfig(procedure="online-fallback", alpha=0.25, series={"kind": "log-q", "q": 2.0},
                    weights={"kind": "explicit", "rows": [[0.5, 0.5], [1.0], [0.2, 0.2, 0.2]]}),
    ProcedureConfig(procedure="online-fallback-1", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    # the default weights, spelled out
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "q", "q": 2.0},
                    weights={"kind": "lagged-gamma"}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0}, tau=0.6,
                    weights={"kind": "lagged-gamma"}),
    ProcedureConfig(procedure="discard-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5),
    ProcedureConfig(procedure="discard-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}, tau=0.9),
    ProcedureConfig(procedure="adaptive-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, lam=0.5),
    ProcedureConfig(procedure="adaptive-spending", alpha=0.1, series={"kind": "log-q", "q": 2.0}, lam=0.25),
    ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.7, lam=0.1),
    ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, k=2),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    lags={"kind": "constant", "value": 0}),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    lags={"kind": "constant", "value": 5}),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "q", "q": 2.0},
                    lags={"kind": "from-batch-ids"}),
    ProcedureConfig(procedure="discard-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5),
    ProcedureConfig(procedure="adaptive-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, lam=0.5),
    ProcedureConfig(procedure="addis-sidak", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    tau=0.6, weights={"kind": "one-step"}),
    # lam=None pins the default lambda of the procedure table
    *(pytest.param(cfg, id=f"{cfg.procedure}-log-q-default-lambda") for cfg in (
        ProcedureConfig(procedure="adaptive-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}, lam=None),
        ProcedureConfig(procedure="adaptive-sidak", alpha=0.2, series={"kind": "log-q", "q": 2.0}, lam=None),
    )),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5,
                    weights={"kind": "explicit", "rows": [[0.5, 0.5], [1.0], [], [0.25] * 4] * 100}),
    ProcedureConfig(procedure="addis-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.7, lam=0.1),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    lags={"kind": "list", "values": [0, 1, 2, 3, 0, 1, 0, 0, 1, 2] * 40}),
    # saturating k-FWER budgets: the first levels are clamped below min(tau, 1)
    *(pytest.param(cfg, marks=pytest.mark.filterwarnings(r"ignore:k\*alpha = .* >= 1:UserWarning")) for cfg in (
        ProcedureConfig(procedure="alpha-spending", alpha=0.9, series={"kind": "q", "q": 2.0}, k=4),
        ProcedureConfig(procedure="discard-spending", alpha=0.3, series={"kind": "q", "q": 4.0}, tau=0.5, k=4),
        ProcedureConfig(procedure="discard-spending", alpha=0.3, series={"kind": "q", "q": 4.0}, tau=TAU_BY_STEP,
                        k=4),
    )),
    # tau and lambda sequences on every row that discards or adapts
    ProcedureConfig(procedure="discard-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP),
    ProcedureConfig(procedure="adaptive-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}, lam=LAM_BY_STEP),
    ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP,
                    lam=LAM_BY_STEP),
    ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}, tau=0.6,
                    lam=LAM_BY_STEP, k=2),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    tau=TAU_BY_STEP, lam=LAM_BY_STEP,
                    lags={"kind": "list", "values": [0, 1, 2, 3, 0, 1, 0, 0, 1, 2] * 40}),
    ProcedureConfig(procedure="discard-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP),
    ProcedureConfig(procedure="adaptive-sidak", alpha=0.2, series={"kind": "log-q", "q": 2.0}, lam=LAM_BY_STEP),
    ProcedureConfig(procedure="addis-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP,
                    lam=LAM_BY_STEP),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0}, tau=TAU_BY_STEP,
                    weights={"kind": "one-step"}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=TAU_BY_STEP,
                    weights={"kind": "explicit", "rows": [[0.5, 0.5], [1.0], [], [0.25] * 4] * 100}),
]


def _ids(cfg: ProcedureConfig) -> str:
    bits = [cfg.procedure, cfg.series["kind"]]
    if cfg.k != 1:
        bits.append(f"k{cfg.k}")
    if isinstance(cfg.weights, dict):
        bits.append(cfg.weights["kind"])
    if isinstance(cfg.tau, list) or isinstance(cfg.lam, list):
        bits.append("by-step")
    return "-".join(bits)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_ids)
def test_fast_equals_step_bitwise(cfg):
    rng = np.random.default_rng(zlib.crc32(cfg.procedure.encode()))
    batch_ids = [i // 7 for i in range(400)]
    needs_batch = cfg.wants_batch_lags()
    runner = make_runner(cfg, batch_ids=batch_ids if needs_batch else None)
    for length in (0, 1, 37, 400):
        # mix of dense-rejection and sparse-rejection regimes
        p = rng.random(length) * rng.choice([0.3, 1.0])
        fast = runner(p)
        scheduler = cfg.build(batch_ids=batch_ids[:length] if needs_batch else None)
        steps = scheduler.run(p)
        assert all(type(d.alpha) is float for d in steps)
        slow = from_decisions(cfg, steps)
        np.testing.assert_array_equal(fast.levels, slow.levels)
        np.testing.assert_array_equal(fast.rejected, slow.rejected)
        np.testing.assert_array_equal(fast.selected, slow.selected)
        np.testing.assert_array_equal(fast.candidate, slow.candidate)
        np.testing.assert_array_equal(fast.tau, slow.tau)
        np.testing.assert_array_equal(fast.lam, slow.lam)
        if isinstance(cfg.weights, dict) and cfg.weights["kind"] == "lagged-gamma":
            default = make_runner(replace(cfg, weights=None))(p)
            np.testing.assert_array_equal(fast.levels, default.levels)


def test_callable_schedule_falls_back_to_step_path(cfg=None):
    cfg = ProcedureConfig(
        procedure="addis-spending",
        alpha=0.2,
        series={"kind": "q", "q": 2.0},
        tau=lambda prefix: 0.5,
        lam=0.25,
    )
    rng = np.random.default_rng(0)
    p = rng.random(50)
    fast = make_runner(cfg)(p)
    slow = from_decisions(cfg, cfg.build().run(p))
    np.testing.assert_array_equal(fast.levels, slow.levels)
    with pytest.raises(ConfigError, match="^a callable tau or lambda: decide its stream with the scheduler"):
        decide(cfg.build(), p)


def test_decisions_roundtrip():
    cfg = ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "q", "q": 2.0})
    p = np.random.default_rng(1).random(25)
    fast = make_runner(cfg)(p)
    assert from_decisions(cfg, fast.decisions()).levels.tolist() == fast.levels.tolist()


def test_decisions_take_one_stream():
    res = make_runner(CONFIGS[0])(np.full((2, 5), 0.5))
    with pytest.raises(StreamError, match="one stream"):
        res.decisions()


GROWTH_CONFIGS = [
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    # row 1 spans two capacity doublings; the short rows cross the first boundaries
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "q", "q": 2.0},
                    weights={"kind": "explicit", "rows": [[1.0 / 3000] * 3000] + [[0.02] * 40] * 2100}),
    ProcedureConfig(procedure="online-fallback-1", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5,
                    weights={"kind": "one-step"}),
]
FIRST_CAPACITY = RecycleBuffer.FIRST_CAPACITY
# recycling positions at which runs of near-zero p-values are placed, so
# rejections fall at cap-1, cap and cap+1 of the first two capacities
HOT = set(range(1, 6)) | set(range(1016, 1032)) | set(range(2040, 2056))


def _growth_stream(n: int, tau, seed: int) -> np.ndarray:
    """p-values that are near zero exactly at the recycling positions in HOT.

    ``tau`` is a number or a list with one value per step.  A step's recycling
    position is 1 + #(earlier p_j <= tau_j).  Up to position 1100 every step
    with tau_j >= 0.5 is selected, so short streams reach the first boundary
    even under discarding; after it every third step is discarded (when
    tau_j < 1), so later positions are read more than once.
    """
    taus = tau if isinstance(tau, list) else [tau] * n
    rng = np.random.default_rng(seed)
    p = np.empty(n)
    position = 1
    for j in range(n):
        if taus[j] < 1.0 and position > 1100 and j % 3 == 0:
            p[j] = 0.9
        elif position in HOT:
            p[j] = 1e-12
        else:
            p[j] = rng.uniform(0.05, 0.5)
        position += p[j] <= taus[j]
    return p


@pytest.mark.parametrize("cfg", GROWTH_CONFIGS, ids=_ids)
@pytest.mark.parametrize("length", [1023, 1024, 1025, 3000])
def test_scalar_equals_runner_across_buffer_growth(cfg, length):
    tau = 1.0 if cfg.tau is None else cfg.tau
    p = _growth_stream(length, tau, seed=length)
    slow = cfg.build().run(p)
    fast = make_runner(cfg)(p)
    block = make_runner(cfg)(p[None])  # a block of one row takes the block loop
    for col, field in (("levels", "alpha"), ("rejected", "rejected"), ("selected", "selected"),
                       ("candidate", "candidate"), ("tau", "tau"), ("lam", "lam")):
        want = [getattr(d, field) for d in slow]
        assert want == getattr(fast, col).tolist() == getattr(block, col)[0].tolist()
    # the stream must really reject at the capacity boundary it reaches
    positions = 1 + np.concatenate(([0], np.cumsum(fast.selected)))[:length]
    rejected_at = set(positions[fast.rejected].tolist())
    reached = {FIRST_CAPACITY - 1, FIRST_CAPACITY, FIRST_CAPACITY + 1} & set(positions.tolist())
    assert reached <= rejected_at
    if length == 3000:
        assert {2 * FIRST_CAPACITY - 1, 2 * FIRST_CAPACITY, 2 * FIRST_CAPACITY + 1} <= rejected_at


CALLABLE_TAU = ProcedureConfig(procedure="addis-spending", alpha=0.2, series={"kind": "q", "q": 2.0},
                               tau=lambda prefix: 0.5, lam=0.25)
# base levels of zero after the second index: only recycled levels can reject there
ZERO_BASE = [
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "explicit", "weights": [0.5, 0.3]},
                    weights={"kind": "one-step"}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "explicit", "weights": [0.5, 0.3]},
                    tau=0.5),
]


def _block(n: int, rows: int, seed: int) -> np.ndarray:
    """Rows from dense (every step near zero) to sparse (uniform), one above every
    tau in the tests, and one with exact zeros, so discarding rows count
    different numbers of selected steps."""
    rng = np.random.default_rng(seed)
    block = rng.random((rows, n)) * np.array([0.02, 0.3, 1.0, 1.0, 0.05, 1.0])[:rows, None]
    block[rows - 1] = 0.95
    block[2, ::17] = 0.0
    return block


def _assert_rows_match(cfg, res, block, runner, batch_ids):
    columns = (("levels", "alpha"), ("rejected", "rejected"), ("selected", "selected"),
               ("candidate", "candidate"), ("tau", "tau"), ("lam", "lam"))
    for col, _ in columns + (("p", "p"),):
        assert getattr(res, col).shape == block.shape
    for r, row in enumerate(block):
        one = runner(row)
        steps = cfg.build(batch_ids=batch_ids).run(row)
        assert all(type(d.alpha) is float for d in steps)
        for col, field in columns:
            assert getattr(res, col)[r].tolist() == getattr(one, col).tolist() == [getattr(d, field) for d in steps]


@pytest.mark.parametrize("cfg", CONFIGS + [CALLABLE_TAU] + ZERO_BASE, ids=_ids)
def test_block_rows_equal_single_streams_and_step(cfg):
    n = 400
    batch_ids = [i // 7 for i in range(n)] if cfg.wants_batch_lags() else None
    runner = make_runner(cfg, batch_ids=batch_ids)
    block = _block(n, 6, seed=5)
    _assert_rows_match(cfg, runner(block), block, runner, batch_ids)
    _assert_rows_match(cfg, runner(block[1:2]), block[1:2], runner, batch_ids)  # shape (1, n)
    empty = runner(block[:, :0])  # shape (rows, 0)
    assert empty.levels.shape == empty.rejected.shape == empty.tau.shape == (6, 0)
    single = runner(block[0])  # a 1-d stream keeps its shape
    assert single.levels.shape == single.rejected.shape == single.lam.shape == (n,)


@pytest.mark.parametrize("cfg", GROWTH_CONFIGS, ids=_ids)
def test_block_rows_equal_single_streams_across_buffer_growth(cfg):
    tau = 1.0 if cfg.tau is None else cfg.tau
    block = _block(1100, 4, seed=6)
    block[0] = _growth_stream(1100, tau, seed=1)
    _assert_rows_match(cfg, make_runner(cfg)(block), block, make_runner(cfg), None)


def test_bad_p_value_names_its_row_and_position():
    runner = make_runner(CONFIGS[0])
    block = np.full((3, 5), 0.5)
    block[1, 3] = 1.5
    with pytest.raises(StreamError, match=r"row 2, position 4: 1\.5"):
        runner(block)
    with pytest.raises(StreamError, match=r"at position 4: 1\.5"):
        runner(block[1])
    with pytest.raises(StreamError, match="2-d block"):
        runner(block[None])
    # a value that is not a number, and ragged rows, fail as the scalar step does
    for bad in (["0.1", "x"], [[0.1, 0.2], [0.3]], [0.1, object()]):
        with pytest.raises(StreamError, match="^p-values must be real numbers"):
            runner(bad)
    with pytest.raises(StreamError, match="^p-values must be real numbers"):
        run_stream(CONFIGS[0], ["0.1", "x"])
    # None converts to NaN, but is named as the scalar step names it
    with pytest.raises(StreamError, match=r"^p-value must be a real number at position 1, got None$"):
        run_stream(CONFIGS[0], [None, 0.1])
    with pytest.raises(StreamError, match=r"^p-value must be a real number at row 2, position 4, got None$"):
        runner([[0.5] * 5, [0.5, 0.5, 0.5, None, 0.5]])
    with pytest.raises(StreamError, match=r"at position 2: nan$"):
        runner([0.1, float("nan")])


@pytest.mark.parametrize("cfg", CONFIGS + GROWTH_CONFIGS + ZERO_BASE, ids=_ids)
def test_chunks_and_steps_continue_one_state(cfg):
    # chunks of every size, scalar steps between them, all on the scheduler's one state
    tau = 1.0 if cfg.tau is None else cfg.tau
    n = 400 if isinstance(cfg.lags, dict) and cfg.lags["kind"] == "list" else 2100  # a lag list has 400 entries
    p = _growth_stream(n, tau, seed=8)
    batch_ids = [i // 7 for i in range(p.size)] if cfg.wants_batch_lags() else None
    want = cfg.build(batch_ids=batch_ids).run(p)
    proc = cfg.build(batch_ids=batch_ids)
    got, i = [], 0
    for size in [0, 1, 5, 1000, 2, 17, 1024] * 3:
        if size == 2:  # two scalar steps
            got += [(d.alpha, d.rejected, d.selected, d.candidate) for d in proc.run(p[i : i + 2])]
        else:
            part, error = decide(proc, p[i : i + size])
            assert error is None
            got += list(zip(part.levels.tolist(), part.rejected.tolist(), part.selected.tolist(),
                            part.candidate.tolist()))
        i = min(i + size, p.size)
    assert i == p.size and proc.t == p.size
    assert got == [(d.alpha, d.rejected, d.selected, d.candidate) for d in want]


WINDOW_CASES = [  # (config, the largest lag of its stream)
    (ProcedureConfig(procedure="discard-spending", alpha=0.2, tau=0.5), 0),
    (ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "constant", "value": 3}), 3),
    (ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "constant", "value": 100}), 100),
    (ProcedureConfig(procedure="addis-spending-local", alpha=0.2, lags={"kind": "from-batch-ids"}), 15),
]


@pytest.mark.parametrize("how", ["steps", "chunks-and-steps"])
@pytest.mark.parametrize("cfg,max_lag", WINDOW_CASES, ids=["discard", "lag-3", "lag-100", "batch-lags"])
def test_window_stays_bounded_on_a_long_stream(cfg, max_lag, how):
    # with lags up to L the window holds at most 2 * max(L + 2, TRIM) prefix sums, whatever the stream's length
    bound = 2 * max(max_lag + 2, StreamState.TRIM)
    n = 10**5
    rng = np.random.default_rng(13)
    p = rng.random(n)
    batch_ids = None
    if cfg.wants_batch_lags():  # batches of 1 to 16 records: lags up to 15
        batch_ids = np.repeat(np.arange(n), rng.integers(1, max_lag + 2, size=n))[:n].tolist()
    proc = cfg.build(batch_ids=batch_ids)
    chunks = how != "steps"
    longest, i = 0, 0
    while i < n:
        if chunks:  # a chunk of a drawn size, then a drawn number of single steps
            size = int(rng.integers(0, 3000))
            assert decide(proc, p[i : i + size])[1] is None
            i = min(i + size, n)
            longest = max(longest, len(proc.state.window))
        steps = int(rng.integers(0, 200)) if chunks else n - i
        for x in p[i : i + steps].tolist():
            proc.step(x)
            proc.trace.clear()  # no callable schedule reads the trace
            longest = max(longest, len(proc.state.window))
            i += 1
    assert proc.t == n
    assert longest <= bound


def test_a_carried_state_takes_one_stream():
    with pytest.raises(StreamError, match="1-d chunk"):
        decide(CONFIGS[0].build(), np.full((2, 5), 0.5))


CLAMP_CONFIGS = [  # (config, number of leading levels a saturating budget clamps)
    (ProcedureConfig(procedure="alpha-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}), 0),
    (ProcedureConfig(procedure="online-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}), 0),
    (ProcedureConfig(procedure="alpha-spending", alpha=0.9, series={"kind": "q", "q": 2.0}, k=4), 1),
    # k * alpha = 2^19: the clamp covers the first 3684 levels, across three chunk edges
    (ProcedureConfig(procedure="alpha-spending", alpha=0.5, series={"kind": "log-q", "q": 2.0}, k=2**20), 3684),
]


@pytest.mark.parametrize("cfg,saturated", CLAMP_CONFIGS, ids=[_ids(cfg) for cfg, _ in CLAMP_CONFIGS])
def test_chunked_levels_equal_one_shot_through_clamps(cfg, saturated):
    # every step is counted, so step i reads index i: levels decided in chunks of 1000 equal
    # the one-shot levels, through the leading levels a saturating budget clamps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k * alpha >= 1 warns that levels saturate
        proc, one_shot = cfg.build(), make_runner(cfg)
    p = np.ones(4096)
    got = [decide(proc, p[i : i + 1000])[0].levels for i in range(0, p.size, 1000)]
    got = [float(x).hex() for x in np.concatenate(got)]
    want = [float(x).hex() for x in one_shot(p).levels]
    assert got == want
    clamped = float(np.nextafter(1.0, 0.0)).hex()
    assert want[:saturated] == [clamped] * saturated and clamped not in want[saturated:]


RUN_CONFIGS = [  # fallback rows whose carried chunks decide rejection runs
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    # each row ends two positions after its rejection, inside the run
    ProcedureConfig(procedure="online-fallback", alpha=0.2, series={"kind": "q", "q": 2.0},
                    weights={"kind": "explicit", "rows": [[0.5, 0.25], [1.0], [0.2, 0.2, 0.2]] * 200}),
    ProcedureConfig(procedure="online-fallback-1", alpha=0.2, series={"kind": "log-q", "q": 2.0}),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "log-q", "q": 2.0}, tau=0.3),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.3,
                    weights={"kind": "one-step"}),
]
CARRIED_CHUNK = 100  # carried chunks of 100 records: edges at 100, 200, ...
# near-zero runs, by 0-based record: one from a chunk's first record, one to its last,
# one across an edge, two of one record, and one followed by records above every tau
# to the chunk's end, so that the chunk's last step only waits at the position after the run
RUNS = [range(100, 110), range(190, 200), range(295, 305), range(350, 351), range(380, 381), range(420, 431)]


def _run_stream(seed: int) -> np.ndarray:
    # every level stays below alpha = 0.2, so no p-value of 0.25 or more rejects
    p = np.random.default_rng(seed).uniform(0.25, 1.0, 600)
    for run in RUNS:
        p[run] = 1e-12
    p[431:500] = 0.95
    return p


def _zero_base_stream() -> np.ndarray:
    # a run of p = 0 across many chunk edges: discard-fallback's recycled level shrinks
    # by about half per position and reaches 0 inside it; online-fallback's one-step carry
    # holds until the 0.9 ends the run, after which a level of 0 meets p = 0 again
    p = np.zeros(1600)
    p[1500] = 0.9
    p[1511:] = np.random.default_rng(4).uniform(0.25, 1.0, 89)
    return p


def _carried(cfg, p, size):
    proc = cfg.build()
    parts = [decide(proc, p[i : i + size])[0] for i in range(0, p.size, size)]
    return np.concatenate([r.levels for r in parts]), np.concatenate([r.rejected for r in parts])


@pytest.mark.parametrize("cfg", RUN_CONFIGS + ZERO_BASE, ids=_ids)
def test_carried_rejection_runs_equal_the_scalar_step(cfg):
    zero_base = any(cfg is z for z in ZERO_BASE)
    p = _zero_base_stream() if zero_base else _run_stream(seed=9)
    steps = cfg.build().run(p)
    levels, rejected = _carried(cfg, p, CARRIED_CHUNK)
    assert levels.tolist() == [d.alpha for d in steps]
    assert rejected.tolist() == [d.rejected for d in steps]
    if zero_base:  # a level of 0 with p = 0 after a rejection does not reject
        zero = (levels == 0.0) & (p == 0.0)
        assert rejected[0] and zero.any() and not rejected[zero].any()
    else:  # the planted runs, and nothing else, reject
        assert np.flatnonzero(rejected).tolist() == [i for run in RUNS for i in run]


@pytest.mark.parametrize("cfg", [RUN_CONFIGS[0], RUN_CONFIGS[2], RUN_CONFIGS[3]], ids=_ids)
def test_a_rejection_run_reads_the_buffer_a_few_times(cfg, monkeypatch):
    # one 200-long run in a 4096-record chunk: the array read before it, the one after
    # it, and positions inside it read one at a time, not the rest of the chunk each
    p = np.full(4096, 0.5)
    p[1000:1200] = 1e-12
    proc = cfg.build()
    recycled, calls = proc.state.recycled, []
    masses = recycled.masses
    monkeypatch.setattr(recycled, "masses", lambda lo, hi: calls.append((lo, hi)) or masses(lo, hi))
    res, error = decide(proc, p)
    assert error is None
    assert np.flatnonzero(res.rejected).tolist() == list(range(1000, 1200))
    assert len(calls) <= 3
    assert res.levels.tolist() == [d.alpha for d in cfg.build().run(p)]


@pytest.mark.parametrize("cfg", [RUN_CONFIGS[0], RUN_CONFIGS[2], RUN_CONFIGS[3]], ids=_ids)
def test_the_loop_follows_the_input_shape(cfg, monkeypatch):
    # one stream is a chunk carried from a fresh state; only a 2-d block reaches the block loop
    def block_loop(*args):
        raise AssertionError("the block loop ran")

    monkeypatch.setattr("fwerstream.fast._recycle", block_loop)
    p = _run_stream(seed=9)
    res = run_stream(cfg, p)
    steps = cfg.build().run(p)
    assert res.levels.tolist() == [d.alpha for d in steps]
    assert res.rejected.tolist() == [d.rejected for d in steps]
    with pytest.raises(AssertionError, match="block loop"):
        make_runner(cfg)(p[None])


@pytest.mark.parametrize("name", ["alpha-spending", "online-sidak", "online-fallback-1"])
def test_a_chunk_costs_the_same_wherever_the_stream_stands(name):
    # the chunk after 2^20 - 100 records reads series indices past 2^20, and the runner maps
    # only those: its peak stays that of a chunk at the start of the stream
    series = LogQSeries(2.0)
    series.weights_upto(2**21)  # every index the stream reads: only the runner's own allocations are traced
    cfg = ProcedureConfig(procedure=name, alpha=0.2, series=series)
    head = 2**20 - 100
    p = np.random.default_rng(11).random(head + 4096)
    p[::997] = 1e-12  # rejections all along, each recycled by the fallback row
    proc = cfg.build()
    _run(proc, p[:head], proc.state)  # the runner alone: the audit's own allocations are not the runner's
    tracemalloc.start()
    try:
        chunk = _run(proc, p[head:], proc.state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert chunk.rejected.sum() == 4
    want = run_stream(cfg, p).levels[head:]
    assert [x.hex() for x in chunk.levels.tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("name", PROCEDURES)
def test_a_block_with_no_elements_gives_columns_of_its_shape(name):
    run = make_runner(ProcedureConfig(procedure=name, alpha=0.2))
    for shape in [(0, 50), (3, 0), (0,), (0, 0)]:
        res = run(np.empty(shape))
        assert {c: getattr(res, c).shape for c in _COLUMNS} == dict.fromkeys(_COLUMNS, shape), shape


def test_a_block_builds_no_recycling_buffer(monkeypatch):
    # _recycle reads the weights, not a buffer: only the build and a 1-d stream make one
    built = []

    class Counted(RecycleBuffer):
        def __init__(self, weights):
            built.append(weights)
            super().__init__(weights)

    monkeypatch.setattr("fwerstream.core.RecycleBuffer", Counted)
    cfg = ProcedureConfig(procedure="online-fallback", alpha=0.2)
    run = make_runner(cfg)
    assert len(built) == 1
    block = np.random.default_rng(3).random((100, 1000)) ** 4  # rejections in every row
    results = [run(block) for _ in range(5)]
    assert len(built) == 1
    single = run(block[7])
    assert len(built) == 2
    assert all(r.levels.tolist() == results[0].levels.tolist() for r in results)
    assert single.levels.tolist() == results[0].levels[7].tolist()
