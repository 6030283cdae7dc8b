"""The vectorized runners must reproduce the step schedulers bit for bit."""

import warnings
import zlib

import numpy as np
import pytest

from fwerstream import ProcedureConfig, make_runner
from fwerstream.core import RecycleBuffer
from fwerstream.errors import StreamError
from fwerstream.fast import from_decisions

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
    # lam=None pins the default lambda of the procedure table; the "logq"
    # spelling of the series kind keeps these test ids apart from the rows above
    ProcedureConfig(procedure="adaptive-spending", alpha=0.2, series={"kind": "logq", "q": 2.0}, lam=None),
    ProcedureConfig(procedure="adaptive-sidak", alpha=0.2, series={"kind": "logq", "q": 2.0}, lam=None),
    ProcedureConfig(procedure="discard-fallback", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.5,
                    weights={"kind": "explicit", "rows": [[0.5, 0.5], [1.0], [], [0.25] * 4] * 100}),
    ProcedureConfig(procedure="addis-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}, tau=0.7, lam=0.1),
    ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series={"kind": "log-q", "q": 2.0},
                    lags={"kind": "list", "values": [0, 1, 2, 3, 0, 1, 0, 0, 1, 2] * 40}),
    # saturating k-FWER budgets: the first levels are clamped below min(tau, 1)
    *(pytest.param(cfg, marks=pytest.mark.filterwarnings(r"ignore:k\*alpha = .* >= 1:UserWarning")) for cfg in (
        ProcedureConfig(procedure="alpha-spending", alpha=0.9, series={"kind": "q", "q": 2.0}, k=4),
        ProcedureConfig(procedure="discard-spending", alpha=0.3, series={"kind": "q", "q": 4.0}, tau=0.5, k=4),
    )),
]


def _ids(cfg: ProcedureConfig) -> str:
    bits = [cfg.procedure, cfg.series["kind"]]
    if cfg.k != 1:
        bits.append(f"k{cfg.k}")
    if isinstance(cfg.weights, dict):
        bits.append(cfg.weights["kind"])
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


def _growth_stream(n: int, tau: float, seed: int) -> np.ndarray:
    """p-values that are near zero exactly at the recycling positions in HOT.

    A step's recycling position is 1 + #(earlier p <= tau).  Every step is
    selected up to position 1100, so short streams reach the first boundary
    even under discarding; after it every third step is discarded (when
    tau < 1), so later positions are read more than once.
    """
    rng = np.random.default_rng(seed)
    p = np.empty(n)
    position = 1
    for j in range(n):
        if tau < 1.0 and position > 1100 and j % 3 == 0:
            p[j] = 0.9
        elif position in HOT:
            p[j] = 1e-12
        else:
            p[j] = rng.uniform(0.05, 0.5)
        position += p[j] <= tau
    return p


@pytest.mark.parametrize("cfg", GROWTH_CONFIGS, ids=_ids)
@pytest.mark.parametrize("length", [1023, 1024, 1025, 3000])
def test_scalar_equals_runner_across_buffer_growth(cfg, length):
    tau = 1.0 if cfg.tau is None else cfg.tau
    p = _growth_stream(length, tau, seed=length)
    slow = cfg.build().run(p)
    fast = make_runner(cfg)(p)
    assert [d.alpha for d in slow] == fast.levels.tolist()
    assert [d.rejected for d in slow] == fast.rejected.tolist()
    assert [d.selected for d in slow] == fast.selected.tolist()
    assert [d.candidate for d in slow] == fast.candidate.tolist()
    assert [d.tau for d in slow] == fast.tau.tolist()
    assert [d.lam for d in slow] == fast.lam.tolist()
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


@pytest.mark.parametrize("cfg", CONFIGS + GROWTH_CONFIGS + ZERO_BASE, ids=_ids)
def test_chunks_and_steps_continue_one_state(cfg):
    # chunks of every size, scalar steps between them, all on the scheduler's one state
    tau = 1.0 if cfg.tau is None else cfg.tau
    n = 400 if isinstance(cfg.lags, dict) and cfg.lags["kind"] == "list" else 2100  # a lag list has 400 entries
    p = _growth_stream(n, tau, seed=8)
    batch_ids = [i // 7 for i in range(p.size)] if cfg.wants_batch_lags() else None
    want = cfg.build(batch_ids=batch_ids).run(p)
    proc, run = cfg.build(batch_ids=batch_ids), make_runner(cfg, batch_ids=batch_ids)
    got, i = [], 0
    for size in [0, 1, 5, 1000, 2, 17, 1024] * 3:
        if size == 2:  # two scalar steps
            got += [(d.alpha, d.rejected, d.selected, d.candidate) for d in proc.run(p[i : i + 2])]
        else:
            part = run(p[i : i + size], state=proc.state)
            got += list(zip(part.levels.tolist(), part.rejected.tolist(), part.selected.tolist(),
                            part.candidate.tolist()))
        i = min(i + size, p.size)
    assert i == p.size and proc.t == p.size
    assert got == [(d.alpha, d.rejected, d.selected, d.candidate) for d in want]


def test_a_carried_state_takes_one_stream():
    proc, run = CONFIGS[0].build(), make_runner(CONFIGS[0])
    with pytest.raises(StreamError, match="1-d chunk"):
        run(np.full((2, 5), 0.5), state=proc.state)


TABLE_CONFIGS = [  # (config, number of leading levels a saturating budget clamps)
    (ProcedureConfig(procedure="alpha-spending", alpha=0.2, series={"kind": "log-q", "q": 2.0}), 0),
    (ProcedureConfig(procedure="online-sidak", alpha=0.2, series={"kind": "q", "q": 2.0}), 0),
    (ProcedureConfig(procedure="alpha-spending", alpha=0.9, series={"kind": "q", "q": 2.0}, k=4), 1),
    # k * alpha = 2^19: the clamp reaches across two doublings of the table
    (ProcedureConfig(procedure="alpha-spending", alpha=0.5, series={"kind": "log-q", "q": 2.0}, k=2**20), 3684),
]


@pytest.mark.parametrize("cfg,saturated", TABLE_CONFIGS, ids=[_ids(cfg) for cfg, _ in TABLE_CONFIGS])
def test_level_table_grown_by_chunks_equals_one_shot(cfg, saturated):
    # every step is counted, so the levels are the table itself; chunks grow it to 1024, 2048, then 4096
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k * alpha >= 1 warns that levels saturate
        proc, chunked, one_shot = cfg.build(), make_runner(cfg), make_runner(cfg)
    p = np.ones(4096)
    got = [chunked(p[i : i + 1000], state=proc.state).levels for i in range(0, p.size, 1000)]
    got = [float(x).hex() for x in np.concatenate(got)]
    want = [float(x).hex() for x in one_shot(p).levels]
    assert got == want
    clamped = float(np.nextafter(1.0, 0.0)).hex()
    assert want[:saturated] == [clamped] * saturated and clamped not in want[saturated:]
