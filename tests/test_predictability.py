"""Predictability: a level never depends on p-values it is not allowed to see.

Both the step scheduler and the whole-stream runner of every procedure are
checked.  The level at step i is fixed before p_i arrives, so rewriting
p_i..p_n must leave levels 1..i unchanged; with a constant lag L the lagged
ADDIS level at step i may read only p_1..p_{i-L-1}.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwerstream import PROCEDURES, ProcedureConfig, make_runner

# thresholds and levels sit on these values, so the draws hit their boundaries
P_VALUE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-9, 0.01, 0.1, 0.25, 0.5, 1.0]))


def _config(name: str, lag: int = 3) -> ProcedureConfig:
    lags = {"kind": "constant", "value": lag} if name == "addis-spending-local" else None
    return ProcedureConfig(procedure=name, alpha=0.2, series={"kind": "q", "q": 2.0}, lags=lags)


@lru_cache(maxsize=None)
def _runner(name: str, lag: int = 3):
    return make_runner(_config(name, lag))


def _levels(name: str, p: np.ndarray, lag: int = 3) -> list[tuple[list[float], str]]:
    step = [d.alpha for d in _config(name, lag).build().run(p)]
    return [(step, "step"), (_runner(name, lag)(p).levels.tolist(), "runner")]


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
    lag = data.draw(st.integers(0, 6))
    p = np.array(data.draw(st.lists(P_VALUE, min_size=1, max_size=60)))
    i = data.draw(st.integers(1, p.size))
    q = _rewrite_from(data, p, max(0, i - lag - 1))  # rewrite p_{i-L}..p_n
    for (before, path), (after, _) in zip(_levels("addis-spending-local", p, lag),
                                          _levels("addis-spending-local", q, lag)):
        assert after[:i] == before[:i], path
