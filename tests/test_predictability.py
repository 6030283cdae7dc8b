"""Predictability: a level never depends on p-values it is not allowed to see.

Both the step scheduler and the whole-stream runner of every procedure are
checked.  The level at step i is fixed before p_i arrives, so rewriting
p_i..p_n must leave levels 1..i unchanged; with lags L_i, a constant or an
admissible list, the lagged ADDIS level at step i may read only
p_1..p_{i-L_i-1}, and the step, the runner and ``decide`` in two chunks give
it the same level.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwerstream import PROCEDURES, ProcedureConfig, QSeries, fast, make_runner

# thresholds and levels sit on these values, so the draws hit their boundaries
P_VALUE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-9, 0.01, 0.1, 0.25, 0.5, 1.0]))


def _config(name: str) -> ProcedureConfig:
    lags = {"kind": "constant", "value": 3} if name == "addis-spending-local" else None
    return ProcedureConfig(procedure=name, alpha=0.2, series={"kind": "q", "q": 2.0}, lags=lags)


@lru_cache(maxsize=None)
def _runner(name: str):
    return make_runner(_config(name))


def _levels(name: str, p: np.ndarray) -> list[tuple[list[float], str]]:
    step = [d.alpha for d in _config(name).build().run(p)]
    return [(step, "step"), (_runner(name)(p).levels.tolist(), "runner")]


Q2 = QSeries(2.0)  # built once: the lag-window test builds a procedure per draw


def _lagged_levels(lags: dict, p: np.ndarray, cut: int) -> list[tuple[list[float], str]]:
    """The lagged ADDIS levels of the step, the one-shot runner and ``decide`` on the chunks p[:cut], p[cut:]."""
    cfg = ProcedureConfig(procedure="addis-spending-local", alpha=0.2, series=Q2, lags=lags)
    proc = cfg.build()
    chunks = [fast.decide(proc, chunk) for chunk in (p[:cut], p[cut:])]
    assert [error for _, error in chunks] == [None, None]
    return [([d.alpha for d in cfg.build().run(p)], "step"), (make_runner(cfg)(p).levels.tolist(), "runner"),
            ([a for rows, _ in chunks for a in rows.levels.tolist()], "decide")]


def _rewrite_from(data, p: np.ndarray, start: int) -> np.ndarray:
    """p with every entry from 0-based position ``start`` on drawn afresh."""
    tail = data.draw(st.lists(P_VALUE, min_size=p.size - start, max_size=p.size - start))
    q = p.copy()
    q[start:] = tail
    return q


@pytest.mark.parametrize("name", PROCEDURES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_later_p_values_never_change_earlier_levels(name, data):
    p = np.array(data.draw(st.lists(P_VALUE, min_size=1, max_size=60)))
    i = data.draw(st.integers(1, p.size))
    q = _rewrite_from(data, p, i - 1)  # rewrite p_i..p_n
    for (before, path), (after, _) in zip(_levels(name, p), _levels(name, q)):
        assert after[:i] == before[:i], path


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lagged_addis_level_ignores_its_lag_window(data):
    p = np.array(data.draw(st.lists(P_VALUE, min_size=1, max_size=60)))
    if data.draw(st.booleans()):
        lag = data.draw(st.integers(0, 6))
        lags, window = {"kind": "constant", "value": lag}, [lag] * p.size
    else:  # an admissible list: L_{i+1} <= L_i + 1
        window = [data.draw(st.integers(0, 6))]
        while len(window) < p.size:
            window.append(data.draw(st.integers(0, window[-1] + 1)))
        lags = {"kind": "list", "values": window}
    i, cut = data.draw(st.integers(1, p.size)), data.draw(st.integers(0, p.size))
    q = _rewrite_from(data, p, max(0, i - window[i - 1] - 1))  # rewrite p_{i-L_i}..p_n
    before, after = _lagged_levels(lags, p, cut), _lagged_levels(lags, q, cut)
    for (levels, path), (rewritten, _) in zip(before, after):
        assert levels == before[0][0], path  # every path gives the step's levels
        assert rewritten[:i] == levels[:i], path
