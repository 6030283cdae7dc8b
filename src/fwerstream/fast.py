"""Whole-stream runners for the simulation harness and the command line.

``make_runner`` builds a :class:`ProcedureConfig` once into a function
that maps p-values, a fresh stream or a block of them, to a
:class:`StreamResult`; :func:`decide`, the one decider of a 1-d stream,
decides a scheduler's next chunk on its state (t counts from the start of
the stream), audits it and cuts it at its first error.  The runner
computes the index rule of :mod:`fwerstream.spec`, with tau and lambda
constant or by step, with the same operations as the step scheduler, and
its level through :func:`fwerstream.spec.level_map`, so both give
bit-identical traces; :func:`decide` steps a callable tau or lambda.
Each call builds the counted-step prefix sums of its chunk or block once,
continuing the state's window (a fresh stream starts from ``[0]``), and
reads t - 1 from them: the counted steps before i - L_i, plus min(L_i,
i-1), which for lag 0 is a view of the sums.

Each call maps only the series indices its own steps read, lo + 1, ...,
hi, and keeps nothing past the call but the weight series' own memo.  With
constant tau and lambda, spending and Sidak levels depend on the series
index t alone, so the call maps each of those weights once and gathers the
level of index t; with tau and lambda by step, it maps each step's weight.
Fallback levels carry recycled mass on top of their base levels: both loops
keep base + mass at each counted position m (the series index of the
selected steps), for any tau, and a step that reads it multiplies it by its
own tau.  On a block, :func:`_recycle` loops over m = 1, 2, ... with every
row at the same m, so the loop's numpy calls are shared by all the rows (the
simulation passes 128 at T = 1000): a row that rejects at m adds ``a *
weights.span(m, .)`` to its own positions m+1, ..., and each step then reads
its position t.  Each position therefore sums its terms in ascending m, the
order in which :class:`fwerstream.core.RecycleBuffer` adds them, and the
block rows stay bit-identical to the step scheduler.  One-step weights write
position m+1 with one masked multiply instead.  One stream reads and feeds
its state's ``RecycleBuffer`` itself (:func:`_recycle_carried`), one
rejection run at a time: the positions up to a run's first rejection in one
array read, the rest of the run one position at a time with the same two
float operations, so a run of r rejections costs r buffer adds and the chunk
is read again only after the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ProcedureConfig
from .core import Decision, OneStepWeights, OnlineProcedure, StreamState
from .errors import AuditError, ConfigError, StreamError
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


def from_decisions(source, decisions) -> StreamResult:
    def column(field, dtype=np.float64):
        return np.array([getattr(d, field) for d in decisions], dtype=dtype)

    name = source.kind if isinstance(source, OnlineProcedure) else source.procedure
    return StreamResult(name, source.alpha, source.k, column("p"), column("alpha"), column("rejected", bool),
                        column("selected", bool), column("candidate", bool), column("tau"), column("lam"))


def _check_p_array(p) -> np.ndarray:
    try:
        arr = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a value that is not a number, or ragged rows
        raise StreamError(f"p-values must be real numbers: {exc}") from None
    if arr.ndim not in (1, 2):
        raise StreamError("p-values must form a 1-d stream or a 2-d block of streams")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # a NaN fails both
        at = np.argwhere(np.isnan(arr) | (arr < 0.0) | (arr > 1.0))[0]
        where = f"row {at[0] + 1}, position {at[1] + 1}" if arr.ndim == 2 else f"position {at[0] + 1}"
        if np.asarray(p, dtype=object)[tuple(at)] is None:  # None converts to NaN
            raise StreamError(f"p-value must be a real number at {where}, got None")
        raise StreamError(f"p-value out of [0, 1] at {where}: {arr[tuple(at)]}")
    return arr


def make_runner(cfg: ProcedureConfig, batch_ids=None):
    """Compile ``cfg`` into a reusable ``run(p) -> StreamResult`` function.

    ``p`` is one fresh stream (T,) or a block of them (rows, T), and every
    column of the result takes its shape.  A fresh stream, and each row of a
    callable's block, is the audited first chunk of :func:`decide`, whose error is raised.
    """
    proc = cfg.build(batch_ids=batch_ids)  # full validation + k*alpha warning happen once

    def run(p):
        p, rows = _check_p_array(p), []
        if p.ndim == 2 and not proc.reads_trace:  # rows of fresh streams, whose _recycle reads no buffer
            return _run(proc, p, StreamState())
        for row in np.atleast_2d(p):  # each a fresh stream of the one build: the first chunk of decide
            proc.state, proc.trace = StreamState(proc.weights), []
            res, error = decide(proc, row)
            if error is not None:
                raise error
            rows.append(res)
        res = rows[0] if p.ndim == 1 else from_decisions(proc, [d for r in rows for d in r.decisions()])
        return replace(res, **{c: getattr(res, c).reshape(p.shape) for c in _COLUMNS})

    return run


def _run(proc, p, state, lags=None):
    """Decide the checked p-values ``p`` of ``proc``: one chunk of a stream, continued from its ``state``, or
    rows of fresh streams on ``StreamState()``; ``lags``, from batch ids, replace the empty ones of ``proc``."""
    spec, block = proc.spec, np.atleast_2d(p)  # a single stream is a block of one row
    rows, n = block.shape
    i0, window, start = state.i, state.window, state.window_start
    # a sequence gives the chunk's values, and raises, before the state changes, if it ends inside the chunk
    tau, lam = proc.thresholds or [np.array(s.values(i0, i0 + n)) for s in (proc.tau, proc.lam)]
    selected = block <= tau if spec.discards else np.broadcast_to(True, block.shape)
    candidate = block <= lam if spec.adapts else np.broadcast_to(False, block.shape)
    # prefix[:, j] = counted steps among the first start + j, from the carried window on
    w = len(window)
    itype = np.int32 if i0 + n < 2**31 else np.intp  # holds every count, at most i0 + n
    prefix = np.empty((rows, w + n), dtype=itype)
    prefix[:, :w] = window
    np.cumsum(selected & ~candidate if spec.adapts else selected, axis=1, dtype=itype, out=prefix[:, w:])
    prefix[:, w:] += window[-1]
    # t - 1 = lag + the counted steps among the first i - 1 - lag, lag = min(L_i, i-1) (spec.py)
    if proc.lags is None:  # lag 0: a view
        t0 = prefix[:, w - 1 : w - 1 + n]
    else:  # a lag schedule that ends inside the chunk raises here, before the state changes
        idx = np.arange(i0, i0 + n, dtype=np.intp)  # i - 1
        lag = np.minimum(np.asarray(proc.lags.values(i0, i0 + n) if lags is None else lags[:n], dtype=np.intp), idx)
        visible = idx - lag
        t0 = prefix[:, visible - start]
        t0 += lag
    # the weights of the series indices the steps read, lo + 1, ..., hi
    lo, hi = (int(t0.min()), int(t0.max()) + 1) if t0.size else (0, 0)
    gam = proc.series.weights_upto(hi)[lo:]
    if spec.family == "fallback":  # the base level, for any tau
        base = level_map(spec.family, proc.budget, 1.0, 0.0, gam)
        levels = (_recycle(block, selected, t0, tau, base, proc.weights) if p.ndim == 2
                  else _recycle_carried(p, selected[0], t0[0], lo, tau, base, state.recycled))
    else:  # a fresh stream starts at lo = 0: gather by t0 itself
        at = t0 - lo if lo else t0
        if proc.thresholds is None:  # each step's weight, tau and lambda
            levels = level_map(spec.family, proc.budget, tau, lam, gam[at])
        else:  # one level per series index
            levels = level_map(spec.family, proc.budget, tau, lam, gam)[at]
    if t0.size:  # keep the window from what the last step sees on
        last = i0 + n - 1 if proc.lags is None else int(visible[-1])
        state.i = i0 + n
        state.window, state.window_start = prefix[0, last - start :].tolist(), last
    rejected = block <= levels
    rejected &= levels > 0.0
    return StreamResult(proc.kind, proc.alpha, proc.k, p, levels.reshape(p.shape),
                        rejected.reshape(p.shape), selected.reshape(p.shape), candidate.reshape(p.shape),
                        np.broadcast_to(tau, p.shape), np.broadcast_to(lam, p.shape))


def decide(proc, p, batch_ids=None):
    """Decide and audit the next chunk ``p`` of the scheduler ``proc``'s stream (a callable tau or lambda by its
    ``step``, which raises what it refuses), and return the :class:`StreamResult` of the steps that may be kept with
    the error that stopped the chunk, or None: the step past a sequence's end (:class:`ConfigError`), the first
    index failing the audit (:class:`AuditError`) or the first id of a closed batch (:class:`StreamError`).
    ``batch_ids``, one per p-value (any past ``p`` are checked too), give the lags of a schedule built from none."""
    from .audit import audit_trace  # audit imports this module

    p, state, start, lags, error = _check_p_array(p), proc.state, proc.state.i, None, None
    if p.ndim != 1:
        raise StreamError("a carried state continues one stream: pass a 1-d chunk")
    if batch_ids is not None:  # a callable's step reads its lags from the schedule
        if proc.reads_trace or proc.lags is None or proc.lags.seq != [] or len(batch_ids) < p.size:
            raise ConfigError(f"{proc.kind}: batch ids give the lags of a schedule built from none, one per p-value")
        lags, error = state.batch_lags(batch_ids)
        p = p[: len(lags)]
    sequences = [s for s in proc.sequences() if s.seq or s is not proc.lags]  # lags built from no batch ids take them
    n = min([p.size, *(len(s.seq) - start for s in sequences)])  # the steps every sequence defines
    rows = from_decisions(proc, proc.run(p[:n].tolist())) if proc.reads_trace else _run(proc, p[:n], state, lags)
    report = audit_trace(rows, state=state)
    if not report.passed:  # the rows from the first failing index on go
        rows = replace(rows, **{c: getattr(rows, c)[: report.first_bad_index - 1 - start] for c in _COLUMNS})
    try:
        report.raise_if_failed()
        for s in sequences if n < p.size else ():  # a sequence ends: the step past it raises
            s.value(start + n + 1)
    except (AuditError, ConfigError) as exc:
        error = exc
    return rows, error


def _recycle(p, selected, t0, tau, base, weights):
    """Fallback levels tau * (base_t + recycled(t)) of a block of streams, by
    counted position (see the module docstring); ``base`` is 0-based in t.
    Column m-1 of ``pc`` holds each row's p-value at its m-th selected step;
    a non-selected step reads the level of the position it waits at.  A
    position keeps base + mass, which its selected step (tau in ``tc`` when
    tau is by step) and every step that reads it multiply by their own tau.

    Base + mass by position is kept in the first columns of the levels array,
    which each row then spreads over its steps in place: step i reads
    position t = ``t0[i-1]`` + 1, from the runner's index rule.  A span add takes
    at most ``SPAN_ADD_ELEMENTS`` cells at a time, so its temporaries stay
    small on a block of many rows.  One-step weights recycle a rejected level
    to the next position only, so position m+1 starts from
    ``a * (rejected at m)`` in one masked multiply: a * 1.0 == 0.0 + a and
    a * 0.0 == 0.0 for the finite levels a >= 0, the sums the span add makes.
    """
    rows, n = p.shape
    width = base.size  # positions read, the last perhaps only waited at
    by_step = np.ndim(tau) == 1
    if by_step or tau < 1.0:
        counts = selected.sum(axis=1)
        pc = np.full((rows, width), np.inf)
        tc = np.ones((rows, width)) if by_step else None
        for r, c in enumerate(counts.tolist()):  # row by row: no temporary the size of the block
            pc[r, :c] = p[r, selected[r]]
            if by_step:
                tc[r, :c] = tau[selected[r]]
    else:  # every step is selected: positions are steps
        pc = p
    levels = np.zeros((rows, n))
    out = levels[:, :width]  # recycled mass by position, turned into the level once reached
    base = base.tolist()
    one_step = isinstance(weights, OneStepWeights)
    for j in range(width):
        m = out[:, j]
        m += base[j]
        a = m * (tc[:, j] if by_step else tau)
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
    if by_step or tau < 1.0:
        for row, t in zip(levels, t0):
            row[:] = row[t] * tau
    return levels


def _recycle_carried(p, selected, t0, c0, tau, base, recycled):
    """Fallback levels of one stream's chunk, continued from ``recycled``, the
    :class:`~fwerstream.core.RecycleBuffer` of its first ``c0`` positions;
    ``base`` holds the base levels of positions c0 + 1, ... the chunk reads.

    Each pass of the loop decides one stretch and the rejection run that ends
    it.  The stretch is read from the buffer in one array: every level up to
    its first rejection is final, and that rejection goes into the buffer,
    as the scalar step puts it there.  The positions after it are then
    decided one at a time in Python floats, each rejection going into the
    buffer before the next position is read, until one does not reject; the
    next pass reads the rest of the chunk from there.  A run of r rejections
    thus costs r buffer adds and no re-read of the chunk.  Both ways compute
    ``(mass + base) * tau`` with the same two IEEE operations in the same
    order, so the levels are bit-identical, and each position sums its
    recycled terms in ascending k, the order of the scalar step.  A position
    keeps ``mass + base``, as in :func:`_recycle`.
    """
    pc = p[selected]  # the p-value at each position the chunk takes
    tc = np.broadcast_to(tau, p.shape)[selected]  # ... and the tau of its selected step
    width = base.size  # positions read, the last perhaps only waited at
    levels = np.empty(width)  # base + mass by position
    q = 0
    while q < width:
        run = recycled.masses(c0 + 1 + q, c0 + 1 + width)
        run += base[q:width]
        taken = run[: pc.size - q] * tc[q:]
        hit = np.flatnonzero((pc[q:] <= taken) & (taken > 0.0))
        if not hit.size:
            levels[q:] = run
            break
        r = int(hit[0]) + 1
        levels[q : q + r] = run[:r]
        recycled.reject(c0 + q + r, float(taken[r - 1]))
        q += r
        while q < pc.size:  # the rejection run goes on while position q rejects
            mass = recycled.mass(c0 + 1 + q) + float(base[q])
            a = mass * float(tc[q])
            if not (pc[q] <= a and a > 0.0):
                break
            levels[q] = mass
            recycled.reject(c0 + 1 + q, a)
            q += 1
    return levels[t0 - c0] * tau


def run_stream(cfg: ProcedureConfig, p, batch_ids=None) -> StreamResult:
    """One-shot convenience wrapper around :func:`make_runner`."""
    return make_runner(cfg, batch_ids=batch_ids)(p)
