"""Monte-Carlo harness: stream generation, metric estimation, experiment grids.

Streams are deterministic functions of (seed, trial) via independent
``SeedSequence(seed, spawn_key=(trial,))`` substreams, so results do not
depend on execution order or worker count.  Per trial the generator draws
the non-null labels first and the Gaussian noise second; with
``block_size > 1`` consecutive blocks share a single noise draw, making
p-values perfectly dependent within a block (the local-dependence
stress case) and independent across blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .config import ProcedureConfig
from .errors import ConfigError
from .fast import make_runner
from .power import GaussianMixModel

# Stream elements (trials x horizon) simulated and run per block of trials:
# 128 rows at T = 1000, enough to amortize the fallback runners' loop over
# counted positions.  Such a block of p-values takes 1 MB, and one runner
# call about 2.6 MB more at most, its result included.
TRIAL_BLOCK_ELEMENTS = 131_072


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario: model, horizon, trial count, seed."""

    model: GaussianMixModel
    horizon: int
    trials: int
    seed: int
    force_null: bool = False  # condition on the all-null configuration
    block_size: int = 1

    def __post_init__(self):
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ConfigError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (isinstance(self.block_size, int) and self.block_size >= 1):
            raise ConfigError(f"block_size must be a positive integer, got {self.block_size!r}")
        try:
            self.model.pi_vector(self.horizon)
            self.model.mu_a_vector(self.horizon)
        except ValueError as exc:
            raise ConfigError(f"per-index model sequences must match the horizon: {exc}") from None

    @property
    def batch_ids(self) -> np.ndarray | None:
        if self.block_size == 1:
            return None
        return np.arange(self.horizon) // self.block_size


@dataclass(frozen=True)
class Stream:
    p: np.ndarray
    labels: np.ndarray  # True where non-null
    batch_ids: np.ndarray | None = None


def clustered_pi(horizon: int, f: float, r: float) -> np.ndarray:
    """Non-null probability f on the first floor(horizon*r) indices, 0 after."""
    if not 0.0 <= f <= 1.0:
        raise ConfigError(f"f must lie in [0, 1], got {f}")
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"r must lie in [0, 1], got {r}")
    pi = np.zeros(horizon)
    pi[: math.floor(horizon * r)] = f
    return pi


def gen_stream(config: SimConfig, trial: int) -> Stream:
    """Deterministic stream for (config.seed, trial)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(trial,)))
    t = config.horizon
    pi = config.model.pi_vector(t)
    labels = rng.random(t) < pi
    if config.block_size == 1:
        x = rng.standard_normal(t)
    else:
        n_blocks = -(-t // config.block_size)
        x = np.repeat(rng.standard_normal(n_blocks), config.block_size)[:t]
    if config.force_null:
        labels = np.zeros(t, dtype=bool)
    mu = np.where(labels, config.model.mu_a_vector(t), config.model.mu_n)
    p = ndtr(-(x + mu))
    return Stream(p=p, labels=labels, batch_ids=config.batch_ids)


@dataclass
class MetricsReport:
    """Point estimates with standard errors over independent trials.

    ``fwer`` is P(V >= k) for the procedure's k (k = 1 is the plain FWER);
    its standard error is binomial.  ``power``/``fdr``/``pfer`` are means
    of per-trial quantities with empirical standard errors.  Trials with
    no non-nulls contribute power 1 (vacuous).
    """

    procedure: str
    alpha: float
    k: int
    trials: int
    fwer: float
    fwer_se: float
    pfer: float
    pfer_se: float
    power: float
    power_se: float
    fdr: float
    fdr_se: float
    mean_rejections: float
    per_trial: dict = field(default_factory=dict, repr=False)


def _se(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(n))


def _summarize(cfg: ProcedureConfig, sim: SimConfig, v, d, n_nonnull, n_rej, keep_trials: bool) -> MetricsReport:
    v = np.asarray(v, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    n_nonnull = np.asarray(n_nonnull, dtype=np.int64)
    n_rej = np.asarray(n_rej, dtype=np.int64)
    n = sim.trials
    hit = (v >= cfg.k).astype(np.float64)
    fwer = float(np.mean(hit))
    power_trials = np.where(n_nonnull > 0, d / np.maximum(n_nonnull, 1), 1.0)
    fdr_trials = v / np.maximum(n_rej, 1)
    report = MetricsReport(
        procedure=cfg.procedure,
        alpha=cfg.alpha,
        k=cfg.k,
        trials=n,
        fwer=fwer,
        fwer_se=float(math.sqrt(fwer * (1.0 - fwer) / n)),
        pfer=float(np.mean(v)),
        pfer_se=_se(v.astype(np.float64)),
        power=float(np.mean(power_trials)),
        power_se=_se(power_trials),
        fdr=float(np.mean(fdr_trials)),
        fdr_se=_se(fdr_trials),
        mean_rejections=float(np.mean(n_rej)),
    )
    if keep_trials:
        report.per_trial = {"v": v, "d": d, "n_nonnull": n_nonnull, "n_rejections": n_rej, "power": power_trials}
    return report


def estimate_metrics_many(
    procedures: dict[str, ProcedureConfig],
    sim: SimConfig,
    *,
    keep_trials: bool = False,
) -> dict[str, MetricsReport]:
    """Run every procedure over the same simulated streams.

    Sharing streams across procedures gives paired comparisons and is how
    the power curves behind the standard experiment grids are produced.
    Trials are simulated into blocks of rows and every runner takes a whole
    block per call.
    """
    batch_ids = sim.batch_ids
    batch_list = batch_ids.tolist() if batch_ids is not None else None
    runners = {label: make_runner(cfg, batch_ids=batch_list) for label, cfg in procedures.items()}
    n, horizon = sim.trials, sim.horizon
    tallies = {label: np.zeros((3, n), dtype=np.int64) for label in procedures}  # V, D, R by trial
    n_nonnull = np.zeros(n, dtype=np.int64)
    rows = max(1, min(n, TRIAL_BLOCK_ELEMENTS // horizon))
    p = np.empty((rows, horizon))
    labels = np.empty((rows, horizon), dtype=bool)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for r, trial in enumerate(range(start, stop)):
            stream = gen_stream(sim, trial)
            p[r], labels[r] = stream.p, stream.labels
        block, signal = p[: stop - start], labels[: stop - start]
        n_nonnull[start:stop] = signal.sum(axis=1)
        for label, run in runners.items():
            rej = run(block).rejected
            d, r = (rej & signal).sum(axis=1), rej.sum(axis=1)
            tallies[label][:, start:stop] = r - d, d, r  # V: the rejections that are not signals
    return {
        label: _summarize(procedures[label], sim, v, d, n_nonnull.copy(), n_rej, keep_trials)
        for label, (v, d, n_rej) in tallies.items()
    }


def estimate_metrics(procedure: ProcedureConfig, sim: SimConfig, *, keep_trials: bool = False) -> MetricsReport:
    """Monte-Carlo FWER/PFER/power/FDR estimates for one procedure."""
    return estimate_metrics_many({procedure.procedure: procedure}, sim, keep_trials=keep_trials)[
        procedure.procedure
    ]


# ----------------------------------------------------------------------
# Experiment grids (the standard figure presets)
# ----------------------------------------------------------------------

FIG1_PROCEDURES = ("alpha-spending", "online-sidak", "online-fallback", "addis-spending")
FIG2_PROCEDURES = ("alpha-spending", "online-sidak", "online-fallback-1", "online-fallback")


def grid_cells(procedures: dict[str, ProcedureConfig], points, *, trials: int, seed: int, horizon: int,
               alpha: float):
    """Experiment cells, one per (model, meta) pair of ``points``.

    The c-th cell simulates ``trials`` streams of length ``horizon`` from its
    model with seed ``seed + c`` and runs every procedure (label -> config)
    at ``alpha``.  Returns an iterator of (meta, procedures, sim) triples;
    each meta gains the horizon ``T`` and ``alpha``.  Every cell's
    :class:`SimConfig` is checked before the first one is returned.
    """
    procedures = {label: replace(cfg, alpha=alpha) for label, cfg in procedures.items()}
    sims = [SimConfig(model=model, horizon=horizon, trials=trials, seed=seed + cell)
            for cell, (model, _) in enumerate(points)]
    return (({**meta, "T": horizon, "alpha": alpha}, dict(procedures), sim) for (_, meta), sim in zip(points, sims))


def _fig_procedures(names, alpha: float, series: dict) -> dict[str, ProcedureConfig]:
    return {name: ProcedureConfig(procedure=name, alpha=alpha, series=dict(series)) for name in names}


def fig1_cells(trials: int = 2000, seed: int = 1, horizon: int = 1000, alpha: float = 0.2):
    """The headline grid: mu_A = 4, mu_N in {0, -1}, pi_A in {0.1, ..., 0.9}.

    Yields (meta, procedures, sim) triples; the default series is the
    log-q-series with q = 2 and ADDIS runs its (tau, lambda) = (1/2, 1/4)
    defaults.
    """
    points = [(GaussianMixModel(pi_a=pi_a, mu_a=4.0, mu_n=mu_n), {"pi_a": pi_a, "mu_a": 4.0, "mu_n": mu_n})
              for mu_n in (0.0, -1.0) for pi_a in [round(0.1 * j, 1) for j in range(1, 10)]]
    return grid_cells(_fig_procedures(FIG1_PROCEDURES, alpha, {"kind": "log-q", "q": 2.0}), points,
                      trials=trials, seed=seed, horizon=horizon, alpha=alpha)


def fig2_cells(trials: int = 2000, seed: int = 1, horizon: int = 1000, alpha: float = 0.2):
    """Clustered-signal grid: mu_N = 0, mu_A = 4, q = 2 power series.

    Left panel: signals spread over the whole stream (r = 1) with
    frequency f in {0.1, ..., 0.9}.  Right panel: an all-signal prefix
    (f = 1) whose length fraction r runs over {0.10, 0.12, ..., 0.26}.
    """
    points = [(GaussianMixModel(pi_a=clustered_pi(horizon, f, r), mu_a=4.0, mu_n=0.0),
               {"pi_a": f, "mu_a": 4.0, "mu_n": 0.0, "f": f, "r": r})
              for f, r in [(round(0.1 * j, 1), 1.0) for j in range(1, 10)]
              + [(1.0, round(0.10 + 0.02 * j, 2)) for j in range(9)]]
    return grid_cells(_fig_procedures(FIG2_PROCEDURES, alpha, {"kind": "q", "q": 2.0}), points,
                      trials=trials, seed=seed + 10_000, horizon=horizon, alpha=alpha)


def run_cells(cells, *, keep_trials: bool = False):
    """Evaluate experiment cells; yields (meta, {label: MetricsReport})."""
    for meta, procedures, sim in cells:
        yield meta, estimate_metrics_many(procedures, sim, keep_trials=keep_trials)
