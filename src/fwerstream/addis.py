"""Adaptive and discarding schedulers, their lagged alterations, and k-FWER wrapping.

Discarding skips hypotheses whose p-value exceeds a threshold tau_i and
rescales the spent budget by 1/tau_i, which exploits conservative nulls.
Adaptivity refunds budget for hypotheses whose p-value falls below a
candidate threshold lambda_i, which exploits a high non-null fraction.
ADDIS combines both.  All three keep the discipline that each series
index gamma_t is consumed by at most one budgeted step, which is what
certifies the prefix budget constraints audited in :mod:`fwerstream.audit`.

The lagged variant defends against local dependence: the level, tau and
lambda at step i may depend only on decisions at least L_i + 1 steps old,
and the unseen window is charged pessimistically (one budgeted step per
lagged position).
"""

from __future__ import annotations

import dataclasses
import itertools

from .core import OnlineProcedure, Schedule
from .errors import ConfigError
from .spec import level_budget


BATCH_KINDS = ("from-batch-ids", "batch")  # lags kinds read from the stream's batch ids


class LagSchedule(Schedule):
    """Lags L_i: step i may depend on decisions with index < i - L_i only.

    Admissibility requires L_{i+1} <= L_i + 1 (the observable past never
    shrinks).  Build one with :meth:`constant`, :meth:`from_list`, or
    :meth:`from_batch_ids`; batch ids give each item a lag equal to the
    number of earlier items in its batch, so a whole batch depends only on
    pre-batch information.
    """

    __slots__ = ("_seen", "_current")

    def __init__(self, constant: int | None = None, values: list[int] | None = None):
        super().__init__("lag", const=constant, seq=values)
        self._seen: set = set()  # batch ids pushed so far ...
        self._current = object()  # ... and the one of the open run

    lag = Schedule.value

    @classmethod
    def constant(cls, lag: int) -> "LagSchedule":
        if not (isinstance(lag, int) and not isinstance(lag, bool) and lag >= 0):
            raise ConfigError(f"constant lag must be a nonnegative integer, got {lag!r}")
        return cls(constant=lag)

    @classmethod
    def from_list(cls, lags) -> "LagSchedule":
        values = []
        for i, lag in enumerate(lags, start=1):
            if not (isinstance(lag, int) and not isinstance(lag, bool) and lag >= 0):
                raise ConfigError(f"lag L_{i} must be a nonnegative integer, got {lag!r}")
            if values and lag > values[-1] + 1:
                raise ConfigError(
                    f"inadmissible lags: L_{i} = {lag} > L_{i-1} + 1 = {values[-1] + 1}"
                )
            values.append(lag)
        return cls(values=values)

    @classmethod
    def from_batch_ids(cls, batch_ids) -> "LagSchedule":
        lags = cls(values=[])
        lags.extend(batch_ids)
        return lags

    def extend(self, batch_ids) -> None:
        """Append the lags of more items, given their batch ids, a run of equal ids
        at a time; an id of an earlier run raises before its run is appended."""
        for batch_id, run in itertools.groupby(batch_ids):
            start = self.seq[-1] + 1 if batch_id == self._current else 0  # 0: a new run starts
            if not start:
                if batch_id in self._seen:
                    raise ConfigError(f"batch id {batch_id!r} appears in two separate runs")
                self._seen.add(batch_id)
                self._current = batch_id
            self.seq.extend(range(start, start + len(list(run))))

    def push(self, batch_id) -> None:
        """Append the lag of one more item, given its batch id."""
        self.extend((batch_id,))

    def config(self) -> dict:
        if self.const is not None:
            return {"kind": "constant", "value": self.const}
        return {"kind": "list", "values": list(self.seq)}


def lags_from_config(cfg, batch_ids=None) -> LagSchedule:
    """Build a lag schedule; the from-batch-ids kind (alias ``batch``) takes
    the config's own ``batch_ids``, else the stream's ``batch_ids``."""
    if isinstance(cfg, LagSchedule):
        return cfg
    if cfg is None:
        return LagSchedule.constant(0)
    if isinstance(cfg, int):
        return LagSchedule.constant(cfg)
    if isinstance(cfg, (list, tuple)):
        return LagSchedule.from_list(cfg)
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"lags config must be a dict with a 'kind', got {cfg!r}")
    kind = str(cfg["kind"]).lower()
    if kind == "constant":
        return LagSchedule.constant(cfg.get("value", 0))
    if kind == "list":
        return LagSchedule.from_list(cfg.get("values", []))
    if kind in BATCH_KINDS:
        batch_ids = cfg.get("batch_ids", batch_ids)
        if batch_ids is None:
            raise ConfigError("lags kind 'from-batch-ids' needs batch ids: a batch_id column, or block_size > 1")
        return LagSchedule.from_batch_ids(batch_ids)
    raise ConfigError(f"unknown lags kind {cfg['kind']!r}")


class DiscardSpending(OnlineProcedure):
    """Spend alpha * tau_i * gamma_t(i), where t advances only on selected
    (p <= tau_i) hypotheses; discarded ones are never rejected and leave
    the series index untouched."""

    kind = "discard-spending"

    def __init__(self, alpha, series, tau=None, *, k=1):
        super().__init__(alpha, series, tau, k=k)


class AdaptiveSpending(OnlineProcedure):
    """Spend alpha * (1 - lambda_i) * gamma_t(i), where candidate steps
    (p <= lambda_i) do not advance the series index: their budget is
    refunded because a candidate cannot be a spent null."""

    kind = "adaptive-spending"

    def __init__(self, alpha, series, lam=None, *, k=1):
        super().__init__(alpha, series, lam=lam, k=k)


class AddisSpending(OnlineProcedure):
    """Adaptive discarding: spend alpha * (tau_i - lambda_i) * gamma_t(i),
    with t advancing on selected non-candidate steps only."""

    kind = "addis-spending"

    def __init__(self, alpha, series, tau=None, lam=None, *, k=1):
        super().__init__(alpha, series, tau, lam, k=k)


class AddisLocalSpending(OnlineProcedure):
    """ADDIS altered for local dependence with lags L_i.

    The level at step i uses only decisions with index < i - L_i; each of
    the min(L_i, i-1) unseen steps is charged as if it were a budgeted
    step, so the procedure stays valid whatever happened inside the lag
    window.
    """

    kind = "addis-spending-local"

    def __init__(self, alpha, series, tau=None, lam=None, lags=None, *, k=1):
        super().__init__(alpha, series, tau, lam, lags=lags_from_config(lags), k=k)


def kfwer_wrap(config, k: int):
    """Return ``config`` with its level budget inflated to k * alpha.

    The wrapped procedure guarantees P(at least k false rejections) <= alpha
    by Markov's inequality on the PFER, so only spending-family procedures
    qualify.  k = 1 is the identity.
    """
    level_budget(config.procedure, config.alpha, k)
    return dataclasses.replace(config, k=k)
