"""Whole-stream runners for the simulation harness.

``make_runner`` compiles a :class:`ProcedureConfig` into a function that
maps a p-value vector to a :class:`StreamResult` (columnar trace).  For
constant hyperparameter schedules the runners are vectorized; anything
fancier falls back to the step-by-step scheduler.  The test suite pins
both paths to bit-identical traces, so the harness can use the fast path
without a separate correctness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import addis as _addis
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
        return [
            Decision(
                i + 1,
                float(self.p[i]),
                float(self.levels[i]),
                bool(self.rejected[i]),
                selected=bool(self.selected[i]),
                candidate=bool(self.candidate[i]),
                tau=float(self.tau[i]),
                lam=float(self.lam[i]),
            )
            for i in range(self.p.size)
        ]


def from_decisions(cfg: ProcedureConfig, decisions) -> StreamResult:
    n = len(decisions)
    out = StreamResult(
        procedure=cfg.procedure,
        alpha=cfg.alpha,
        k=cfg.k,
        p=np.empty(n),
        levels=np.empty(n),
        rejected=np.zeros(n, dtype=bool),
        selected=np.zeros(n, dtype=bool),
        candidate=np.zeros(n, dtype=bool),
        tau=np.empty(n),
        lam=np.empty(n),
    )
    for j, d in enumerate(decisions):
        out.p[j] = d.p
        out.levels[j] = d.alpha
        out.rejected[j] = d.rejected
        out.selected[j] = d.selected
        out.candidate[j] = d.candidate
        out.tau[j] = d.tau
        out.lam[j] = d.lam
    return out


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


def _shifted_cumsum(x: np.ndarray, n: int) -> np.ndarray:
    """[0, x_1, x_1+x_2, ...] truncated to length n (exclusive prefix sums)."""
    return np.concatenate(([0], np.cumsum(x)))[:n].astype(np.int64)


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
    name = cfg.procedure
    series = cfg.series
    budget = probe.budget
    saturating = budget >= 1.0

    tau = _addis.DEFAULT_TAU if cfg.tau is None else cfg.tau
    lam = _addis.DEFAULT_LAM if cfg.lam is None else cfg.lam
    if name in ("adaptive-spending", "adaptive-sidak") and cfg.lam is None:
        lam = 0.5
    constant_params = isinstance(tau, (int, float)) and isinstance(lam, (int, float))

    if not constant_params:
        def run_slow(p):
            return from_decisions(cfg, cfg.build(batch_ids=batch_ids).run(_check_p_array(p)))

        return run_slow

    tau = float(tau)
    lam = float(lam)

    def result(p, levels, rejected, selected, candidate, tau_v, lam_v):
        n = p.size
        return StreamResult(
            procedure=name,
            alpha=cfg.alpha,
            k=cfg.k,
            p=p,
            levels=levels,
            rejected=rejected,
            selected=selected,
            candidate=candidate,
            tau=np.full(n, tau_v),
            lam=np.full(n, lam_v),
        )

    # ---------------- spending family (fully vectorized) ----------------
    if name in ("alpha-spending", "discard-spending", "adaptive-spending",
                "addis-spending", "addis-spending-local"):
        lag_sched = probe.lags if name == "addis-spending-local" else None

        def run_spending(p):
            p = _check_p_array(p)
            n = p.size
            gam = series.weights_upto(n)
            ones = np.ones(n, dtype=bool)
            zeros = np.zeros(n, dtype=bool)
            if name == "alpha-spending":
                t = np.arange(1, n + 1)
                coef, cap, sel, cand, tv, lv = budget, 1.0, ones, zeros, 1.0, 0.0
            elif name == "discard-spending":
                sel = p <= tau
                t = 1 + _shifted_cumsum(sel, n)
                coef, cap, cand, tv, lv = budget * tau, tau, zeros, tau, 0.0
            elif name == "adaptive-spending":
                cand = p <= lam
                t = np.arange(1, n + 1) - _shifted_cumsum(cand, n)
                coef, cap, sel, tv, lv = budget * (1.0 - lam), 1.0, ones, 1.0, lam
            else:
                sel = p <= tau
                cand = p <= lam
                net = sel.astype(np.int64) - cand.astype(np.int64)
                prefix = np.concatenate(([0], np.cumsum(net)))
                if name == "addis-spending":
                    t = 1 + prefix[:n]
                else:  # addis-spending-local
                    lags = np.asarray(lag_sched.values_upto(n), dtype=np.int64)
                    idx = np.arange(n, dtype=np.int64)
                    t = 1 + np.minimum(lags, idx) + prefix[np.maximum(0, idx + 1 - lags - 1)]
                coef, cap, tv, lv = budget * (tau - lam), tau, tau, lam
            levels = coef * gam[t - 1] if n else np.empty(0)
            if saturating:
                levels = _clamp_saturated(levels, min(cap, 1.0))
            rejected = (p <= levels) & (levels > 0.0)
            return result(p, levels, rejected, sel, cand, tv, lv)

        return run_spending

    # ---------------- sidak family ----------------
    if name in ("online-sidak", "discard-sidak", "adaptive-sidak", "addis-sidak"):

        def run_sidak(p):
            p = _check_p_array(p)
            n = p.size
            gam = series.weights_upto(n)
            ones = np.ones(n, dtype=bool)
            zeros = np.zeros(n, dtype=bool)
            if name == "online-sidak":
                beta = gam
                scale, sel, cand, tv, lv = None, ones, zeros, 1.0, 0.0
            elif name == "discard-sidak":
                sel = p <= tau
                t = 1 + _shifted_cumsum(sel, n)
                beta = gam[t - 1]
                scale, cand, tv, lv = tau, zeros, tau, 0.0
            elif name == "adaptive-sidak":
                cand = p <= lam
                t = np.arange(1, n + 1) - _shifted_cumsum(cand, n)
                beta = (1.0 - lam) * gam[t - 1]
                scale, sel, tv, lv = None, ones, 1.0, lam
            else:  # addis-sidak
                sel = p <= tau
                cand = p <= lam
                net = sel.astype(np.int64) - cand.astype(np.int64)
                t = 1 + _shifted_cumsum(net, n)
                beta = ((tau - lam) / tau) * gam[t - 1]
                scale, tv, lv = tau, tau, lam
            levels = _sidak_levels(budget, beta)
            if scale is not None:
                levels = scale * levels
            rejected = (p <= levels) & (levels > 0.0)
            return result(p, levels, rejected, sel, cand, tv, lv)

        return run_sidak

    # ---------------- fallback family (sequential recycling) ----------------
    weights = probe.weights
    one_step = isinstance(weights, OneStepWeights)

    if name in ("online-fallback", "online-fallback-1"):

        def run_fallback(p):
            p = _check_p_array(p)
            n = p.size
            base = budget * series.weights_upto(n)
            levels = np.empty(n)
            rejected = np.zeros(n, dtype=bool)
            p_list = p.tolist()
            base_list = base.tolist()
            if one_step:
                carry = 0.0
                for i in range(n):
                    a = base_list[i] + carry
                    levels[i] = a
                    if p_list[i] <= a and a > 0.0:
                        rejected[i] = True
                        carry = a
                    else:
                        carry = 0.0
            else:
                extra = np.zeros(n + 1)
                for i in range(n):
                    a = base_list[i] + extra[i]
                    levels[i] = a
                    if p_list[i] <= a and a > 0.0:
                        rejected[i] = True
                        row = weights.row(i + 1, n)
                        extra[i + 1 : i + 1 + row.size] += a * row
            ones = np.ones(n, dtype=bool)
            zeros = np.zeros(n, dtype=bool)
            return result(p, levels, rejected, ones, zeros, 1.0, 0.0)

        return run_fallback

    if name == "discard-fallback":

        def run_discard_fallback(p):
            p = _check_p_array(p)
            n = p.size
            bg = (budget * series.weights_upto(n)).tolist()
            extra = np.zeros(n + 2)  # indexed by selected-subsequence position
            levels = np.empty(n)
            rejected = np.zeros(n, dtype=bool)
            selected = np.zeros(n, dtype=bool)
            p_list = p.tolist()
            m = 1
            for i in range(n):
                a = tau * (bg[m - 1] + extra[m])
                levels[i] = a
                pi = p_list[i]
                if pi <= a and a > 0.0:
                    rejected[i] = True
                    row = weights.row(m, n)
                    extra[m + 1 : m + 1 + row.size] += a * row
                if pi <= tau:
                    selected[i] = True
                    m += 1
            zeros = np.zeros(n, dtype=bool)
            return result(p, levels, rejected, selected, zeros, tau, 0.0)

        return run_discard_fallback


def run_stream(cfg: ProcedureConfig, p, batch_ids=None) -> StreamResult:
    """One-shot convenience wrapper around :func:`make_runner`."""
    return make_runner(cfg, batch_ids=batch_ids)(p)
