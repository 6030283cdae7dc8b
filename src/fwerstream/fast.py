"""Whole-stream runners for the simulation harness.

``make_runner`` compiles a :class:`ProcedureConfig` into a function that
maps a p-value vector to a :class:`StreamResult` (columnar trace).  For
constant tau and lambda the runner computes the index rule and level map
of the procedure's row in :data:`fwerstream.spec.SPECS` with the same
float operations as the step scheduler, so both give bit-identical traces;
anything fancier falls back to the step-by-step scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ProcedureConfig
from .core import Decision, OneStepWeights
from .errors import StreamError
from .series import series_from_config


@dataclass
class StreamResult:
    """Columnar decision trace for one run of one procedure."""

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
        columns = (self.p, self.levels, self.rejected, self.selected, self.candidate, self.tau, self.lam)
        return [Decision(i, *row) for i, row in enumerate(zip(*(c.tolist() for c in columns)), start=1)]


def from_decisions(cfg: ProcedureConfig, decisions) -> StreamResult:
    def column(field, dtype=np.float64):
        return np.array([getattr(d, field) for d in decisions], dtype=dtype)

    return StreamResult(cfg.procedure, cfg.alpha, cfg.k, column("p"), column("alpha"), column("rejected", bool),
                        column("selected", bool), column("candidate", bool), column("tau"), column("lam"))


def _check_p_array(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise StreamError("p-values must form a 1-d sequence")
    if arr.size and (np.any(np.isnan(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
        bad = int(np.flatnonzero(np.isnan(arr) | (arr < 0.0) | (arr > 1.0))[0])
        raise StreamError(f"p-value out of [0, 1] at position {bad + 1}: {arr[bad]}")
    return arr


def _sidak_levels(budget: float, beta: np.ndarray) -> np.ndarray:
    # elementwise math.expm1 keeps the scalar and vector paths bit-identical
    log1m = math.log1p(-budget)
    out = np.empty(beta.size)
    for j, b in enumerate(beta.tolist()):
        if b <= 0.0:
            out[j] = 0.0
        elif b >= 1.0:
            out[j] = budget
        else:
            out[j] = -math.expm1(b * log1m)
    return out


def _clamp_saturated(levels: np.ndarray, cap: float) -> np.ndarray:
    hot = levels >= cap
    if np.any(hot):
        levels = levels.copy()
        levels[hot] = math.nextafter(cap, 0.0)
    return levels


def make_runner(cfg: ProcedureConfig, batch_ids=None):
    """Compile ``cfg`` into a reusable ``run(p) -> StreamResult`` function."""
    cfg = replace(cfg, series=series_from_config(cfg.series))
    probe = cfg.build(batch_ids=batch_ids)  # full validation + k*alpha warning happen once
    if probe.thresholds is None:  # tau or lambda vary by step

        def run_slow(p):
            return from_decisions(cfg, cfg.build(batch_ids=batch_ids).run(_check_p_array(p)))

        return run_slow

    spec = probe.spec
    tau, lam = probe.thresholds
    series = cfg.series
    budget = probe.budget
    lags = probe.lags
    weights = probe.weights

    def run(p):
        p = _check_p_array(p)
        n = p.size
        selected = p <= tau if spec.discards else np.ones(n, dtype=bool)
        candidate = p <= lam if spec.adapts else np.zeros(n, dtype=bool)
        if lags is None and not (spec.discards or spec.adapts):  # every step is counted
            t = np.arange(1, n + 1)
            gam = series.weights_upto(n)
        else:
            counted = np.concatenate(([0], np.cumsum(selected & ~candidate)))
            if lags is None:
                t = 1 + counted[:n]
            else:
                lag = np.asarray(lags.values_upto(n), dtype=np.int64)
                idx = np.arange(n, dtype=np.int64)
                t = 1 + np.minimum(lag, idx) + counted[np.maximum(0, idx - lag)]
            gam = series.weights_upto(n)[t - 1]
        if spec.family == "spending":
            levels = budget * (tau - lam) * gam
        elif spec.family == "sidak":
            levels = tau * _sidak_levels(budget, (tau - lam) / tau * gam)
        else:
            levels, rejected = _recycle(p, t, tau, budget * gam, weights)
        if spec.family != "fallback":
            if budget >= 1.0:
                levels = _clamp_saturated(levels, min(tau, 1.0))
            rejected = (p <= levels) & (levels > 0.0)
        return StreamResult(cfg.procedure, cfg.alpha, cfg.k, p, levels, rejected, selected, candidate,
                            np.full(n, tau), np.full(n, lam))

    return run


def _recycle(p, t, tau, base, weights):
    """Levels tau * (base_i + recycled(t_i)) and rejections, step by step.

    ``base`` holds k*alpha*gamma_t per step.  A rejection at position t
    hands its level on through ``weights``; with one-step weights the whole
    level waits in a carry for the next selected step.  Additions to each
    position happen in ascending t, the order of
    :class:`fwerstream.core.RecycleBuffer`.
    """
    n = p.size
    levels = np.empty(n)
    rejected = np.zeros(n, dtype=bool)
    p_list = p.tolist()
    base = base.tolist()
    if isinstance(weights, OneStepWeights):
        carry = 0.0
        for i in range(n):
            a = tau * (base[i] + carry)
            levels[i] = a
            pi = p_list[i]
            if pi <= a and a > 0.0:
                rejected[i] = True
                carry = a
            elif pi <= tau:  # selected without rejecting: the next position gets nothing
                carry = 0.0
    else:
        t = t.tolist()
        extra = np.zeros(n + 2)  # recycled mass by position
        for i in range(n):
            m = t[i]
            a = tau * (base[i] + extra.item(m))
            levels[i] = a
            if p_list[i] <= a and a > 0.0:
                rejected[i] = True
                span = weights.span(m, n)
                extra[m + 1 : m + 1 + span.size] += a * span
    return levels, rejected


def run_stream(cfg: ProcedureConfig, p, batch_ids=None) -> StreamResult:
    """One-shot convenience wrapper around :func:`make_runner`."""
    return make_runner(cfg, batch_ids=batch_ids)(p)
