"""Whole-stream runners for the simulation harness and the command line.

``make_runner`` compiles a :class:`ProcedureConfig` into a function that
maps one p-value stream of shape (T,), or a block of streams of shape
(rows, T), to a :class:`StreamResult` (columnar trace of the same shape).
Given a scheduler's :class:`~fwerstream.core.StreamState`, it decides the
next chunk of that scheduler's stream instead and advances the state; the
index t, and with it the level table, counts from the start of the stream.
For constant tau and lambda the runner computes the index rule of the
procedure's row in :data:`fwerstream.spec.SPECS` with the same operations
as the step scheduler, and its level through the step's own
:func:`fwerstream.spec.level_map`, so both give bit-identical traces;
anything fancier falls back to the step-by-step scheduler, row by row.

Spending and Sidak levels depend on the series index t alone, so each
runner evaluates the level map once per t into a memoized table and
gathers ``table[t-1]``; when t outgrows the table, only the new entries
are computed and appended.  Fallback levels carry recycled mass, so
:func:`_recycle` loops over counted positions m = 1, 2, ... (the series
index of the selected steps) with every row of the block at the same m,
so the loop's numpy calls are shared by all the rows (the simulation
passes 128 at T = 1000): a row that rejects at m adds
``a * weights.span(m, .)`` to its own positions m+1, ....  Each position
therefore sums its terms in ascending m, the order in which
:class:`fwerstream.core.RecycleBuffer` adds them, and the block rows stay
bit-identical to the step scheduler.  One-step weights write position m+1
with one masked multiply instead.  A chunk of a carried stream reads and
feeds the state's ``RecycleBuffer`` itself (:func:`_recycle_carried`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ProcedureConfig
from .core import Decision, OneStepWeights
from .errors import ConfigError, StreamError
from .series import series_from_config
from .spec import level_map


_COLUMNS = ("p", "levels", "rejected", "selected", "candidate", "tau", "lam")
SPAN_ADD_ELEMENTS = 16_384  # cells per fallback span add on a block (see _recycle)


@dataclass
class StreamResult:
    """Columnar decision trace of one procedure on one stream, or on a block
    of streams with one row each; ``tau`` and ``lam``, and ``selected`` and
    ``candidate`` of a row that never discards or adapts, may be read-only
    broadcast views."""

    procedure: str
    alpha: float
    k: int
    p: np.ndarray
    levels: np.ndarray
    rejected: np.ndarray
    selected: np.ndarray
    candidate: np.ndarray
    tau: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.p.size

    @property
    def budget(self) -> float:
        return self.k * self.alpha

    def decisions(self) -> list[Decision]:
        if self.p.ndim != 1:
            raise StreamError("decisions() lists one stream; take a row of the block first")
        columns = (getattr(self, c).tolist() for c in _COLUMNS)
        return [Decision(i, *row) for i, row in enumerate(zip(*columns), start=1)]


def from_decisions(cfg: ProcedureConfig, decisions) -> StreamResult:
    def column(field, dtype=np.float64):
        return np.array([getattr(d, field) for d in decisions], dtype=dtype)

    return StreamResult(cfg.procedure, cfg.alpha, cfg.k, column("p"), column("alpha"), column("rejected", bool),
                        column("selected", bool), column("candidate", bool), column("tau"), column("lam"))


def _check_p_array(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise StreamError("p-values must form a 1-d stream or a 2-d block of streams")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # a NaN fails both
        at = np.argwhere(np.isnan(arr) | (arr < 0.0) | (arr > 1.0))[0]
        where = f"row {at[0] + 1}, position {at[1] + 1}" if arr.ndim == 2 else f"position {at[0] + 1}"
        raise StreamError(f"p-value out of [0, 1] at {where}: {arr[tuple(at)]}")
    return arr


def make_runner(cfg: ProcedureConfig, batch_ids=None):
    """Compile ``cfg`` into a reusable ``run(p, state=None) -> StreamResult`` function.

    ``p`` is one stream of shape (T,) or a block of streams of shape
    (rows, T), and every column of the result takes its shape.  Given the
    :class:`~fwerstream.core.StreamState` of a scheduler built from ``cfg``,
    ``p`` is the next chunk of that scheduler's stream: the runner decides
    it from where the state stands and advances the state past it, so the
    chunks of a stream give the levels of the whole stream.
    """
    cfg = replace(cfg, series=series_from_config(cfg.series))
    probe = cfg.build(batch_ids=batch_ids)  # full validation + k*alpha warning happen once
    if probe.thresholds is None:  # tau or lambda vary by step

        def run_slow(p, state=None):
            if state is not None:
                raise ConfigError("tau or lambda vary by step: continue a carried state with the scheduler's step")
            p = _check_p_array(p)
            res = from_decisions(cfg, [d for row in np.atleast_2d(p) for d in cfg.build(batch_ids=batch_ids).run(row)])
            return replace(res, **{c: getattr(res, c).reshape(p.shape) for c in _COLUMNS})

        return run_slow

    spec = probe.spec
    tau, lam = probe.thresholds
    series = cfg.series
    budget = probe.budget
    lags = probe.lags
    weights = probe.weights
    table = np.empty(0)

    def level_table(n):  # the level (fallback: base level) by series index t, for t <= n at least
        nonlocal table
        if table.size < n:  # the map is elementwise: compute only the entries past the old end
            gam = series.weights_upto(1 << max(10, (n - 1).bit_length()))[table.size :]
            table = np.concatenate((table, level_map(spec.family, budget, tau, lam, gam)))
        return table

    def run(p, state=None):
        p = _check_p_array(p)
        if state is not None and p.ndim != 1:
            raise StreamError("a carried state continues one stream: pass a 1-d chunk")
        block = np.atleast_2d(p)  # a single stream is a block of one row
        rows, n = block.shape
        i0, c0 = (0, 0) if state is None else (state.i, state.counted)
        if lags is not None:  # read first: a lag schedule that ends inside the chunk leaves the state as it was
            lag = np.asarray(lags.values(i0, i0 + n), dtype=np.intp)
        selected = block <= tau if spec.discards else np.broadcast_to(True, block.shape)
        candidate = block <= lam if spec.adapts else np.broadcast_to(False, block.shape)
        if spec.family == "fallback" and state is None:
            t0 = None  # _recycle counts each row's positions itself
        elif lags is None and not (spec.discards or spec.adapts):  # every step is counted
            t0 = np.broadcast_to(np.arange(c0, c0 + n), block.shape)  # series index t - 1
            counted = c0 + n
        else:
            # prefix[:, j] = counted steps among the first start + j, from the carried window on
            if lags is None:
                window, start = [c0], i0
            elif state is None:
                window, start = [0], 0
            else:
                window, start = state.window, state.window_start
            w = len(window)
            itype = np.int32 if i0 + n < 2**31 else np.intp  # holds every count, at most i0 + n
            prefix = np.empty((rows, w + n), dtype=itype)
            prefix[:, :w] = window
            np.cumsum(selected & ~candidate if spec.adapts else selected, axis=1, dtype=itype, out=prefix[:, w:])
            prefix[:, w:] += window[-1]
            counted = int(prefix[0, -1])
            if lags is None:
                t0 = prefix[:, :n]
            else:
                idx = np.arange(i0, i0 + n, dtype=np.intp)  # i - 1
                visible = np.maximum(0, idx - lag)
                t0 = prefix[:, visible - start]
                t0 += np.minimum(lag, idx)
        if spec.family != "fallback":
            levels = level_table(int(t0.max(initial=0)) + 1)[t0]
        elif state is None:
            levels = _recycle(block, selected, tau, level_table(n), weights)
        else:
            levels = _recycle_carried(p, selected[0], t0[0], c0, tau, level_table(i0 + n), state.recycled)
        if state is not None and n:
            state.i, state.counted = i0 + n, counted
            if lags is not None:
                state.window, state.window_start = prefix[0, visible[-1] - start:].tolist(), int(visible[-1])
        rejected = block <= levels
        rejected &= levels > 0.0
        return StreamResult(cfg.procedure, cfg.alpha, cfg.k, p, levels.reshape(p.shape),
                            rejected.reshape(p.shape), selected.reshape(p.shape), candidate.reshape(p.shape),
                            np.broadcast_to(tau, p.shape), np.broadcast_to(lam, p.shape))

    return run


def _recycle(p, selected, tau, base, weights):
    """Fallback levels tau * (base_t + recycled(t)) of a block of streams, by
    counted position (see the module docstring); ``base`` is 0-based in t.
    Column m-1 of ``pc`` holds each row's p-value at its m-th selected step;
    a non-selected step reads the level of the position it waits at.

    The mass by position is kept in the first columns of the levels array,
    which each row then spreads over its steps in place.  A span add takes
    at most ``SPAN_ADD_ELEMENTS`` cells at a time, so its temporaries stay
    small on a block of many rows.  One-step weights recycle a rejected level
    to the next position only, so position m+1 starts from
    ``a * (rejected at m)`` in one masked multiply: a * 1.0 == 0.0 + a and
    a * 0.0 == 0.0 for the finite levels a >= 0, the sums the span add makes.
    """
    rows, n = p.shape
    if tau < 1.0:
        counts = selected.sum(axis=1)
        width = min(int(counts.max(initial=0)) + 1, n)
        pc = np.full((rows, width), np.inf)
        for r, c in enumerate(counts.tolist()):  # row by row: no temporary the size of the block
            pc[r, :c] = p[r, selected[r]]
    else:  # every step is selected: positions are steps
        pc, width = p, n
    levels = np.zeros((rows, n))
    out = levels[:, :width]  # recycled mass by position, turned into the level once reached
    base = base[:width].tolist()
    one_step = isinstance(weights, OneStepWeights)
    for j in range(width):
        a = out[:, j]
        a += base[j]
        if tau != 1.0:
            a *= tau
        if one_step:
            if j + 1 < width:
                np.multiply(a, pc[:, j] <= a, out=out[:, j + 1])
            continue
        r = (pc[:, j] <= a).nonzero()[0]  # a level of zero may "reject" here: it adds zeros
        if r.size:
            span = weights.span(j + 1, width)
            group = max(1, SPAN_ADD_ELEMENTS // max(span.size, 1))
            for g in range(0, r.size, group):
                rg = r[g : g + group]
                out[rg, j + 1 : j + 1 + span.size] += a[rg, None] * span
    if tau < 1.0:
        for row, sel in zip(levels, selected):
            t = np.cumsum(sel)
            t -= sel  # the position each step reads: the selected steps before it
            row[:] = row[t]
    return levels


def _recycle_carried(p, selected, t0, c0, tau, base, recycled):
    """Fallback levels of one stream's chunk, continued from ``recycled``, the
    :class:`~fwerstream.core.RecycleBuffer` of its first ``c0`` positions.

    Positions c0+1, ... are read from the buffer a run at a time: every level
    up to the run's first rejection is final, and that rejection goes into
    the buffer, as the scalar step puts it there, before the levels after it
    are read again.  Each position therefore sums its recycled terms in
    ascending k, the order of the scalar step.
    """
    if not p.size:
        return np.empty(0)
    pc = p[selected] if tau < 1.0 else p  # the p-value at each position the chunk takes
    width = int(t0[-1]) - c0 + 1  # positions read, the last perhaps only waited at
    levels = np.empty(width)
    q = 0
    while q < width:
        run = recycled.masses(c0 + 1 + q, c0 + 1 + width)
        run += base[c0 + q : c0 + width]
        if tau != 1.0:
            run *= tau
        taken = run[: pc.size - q]
        hit = np.flatnonzero((pc[q:] <= taken) & (taken > 0.0))
        if not hit.size:
            levels[q:] = run
            break
        r = int(hit[0]) + 1
        levels[q : q + r] = run[:r]
        recycled.reject(c0 + q + r, float(run[r - 1]))
        q += r
    return levels if tau == 1.0 else levels[t0 - c0]


def run_stream(cfg: ProcedureConfig, p, batch_ids=None) -> StreamResult:
    """One-shot convenience wrapper around :func:`make_runner`."""
    return make_runner(cfg, batch_ids=batch_ids)(p)
