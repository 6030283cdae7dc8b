"""Monte-Carlo harness: stream generation, metric estimation, experiment grids.

Streams are deterministic functions of (seed, trial) via independent
``SeedSequence(seed, spawn_key=(trial,))`` substreams, so results do not
depend on execution order or worker count.  Per trial the generator draws
the non-null labels first and the Gaussian noise second; with
``block_size > 1`` consecutive blocks share a single noise draw, making
p-values perfectly dependent within a block (the local-dependence
stress case) and independent across blocks.  The all-null model pi_a = 0
draws the same uniforms and noise as any other pi_A at its seed and trial.
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
from .series import config_object, real, series_from_config

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
    block_size: int = 1

    def __post_init__(self):
        for name, least in (("horizon", 1), ("trials", 1), ("seed", 0), ("block_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= least):
                raise ConfigError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
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
    mu = np.where(labels, config.model.mu_a_vector(t), config.model.mu_n)
    p = ndtr(-(x + mu))
    return Stream(p=p, labels=labels)


@dataclass
class MetricsReport:
    """Point estimates with standard errors over independent trials.

    ``fwer`` is P(V >= k) for the procedure's k (k = 1 is the plain FWER);
    its standard error is binomial.  ``power``/``fdr``/``pfer`` are means
    of per-trial quantities with empirical standard errors.  Trials with
    no non-nulls contribute power 1 (vacuous).  ``per_trial`` (always filled,
    not compared) holds the arrays v, d, n_nonnull, n_rejections and power.
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
    per_trial: dict = field(repr=False, compare=False)


def _se(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(n))


def _summarize(cfg: ProcedureConfig, sim: SimConfig, v, d, n_nonnull, n_rej) -> MetricsReport:
    """The report of one procedure from its int64 per-trial counts V, D, non-nulls and R."""
    n = sim.trials
    hit = (v >= cfg.k).astype(np.float64)
    fwer = float(np.mean(hit))
    power_trials = np.where(n_nonnull > 0, d / np.maximum(n_nonnull, 1), 1.0)
    fdr_trials = v / np.maximum(n_rej, 1)
    return MetricsReport(
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
        per_trial={"v": v, "d": d, "n_nonnull": n_nonnull, "n_rejections": n_rej, "power": power_trials},
    )


def estimate_metrics_many(procedures: dict[str, ProcedureConfig], sim: SimConfig) -> dict[str, MetricsReport]:
    """Run every procedure over the same simulated streams.

    Sharing streams across procedures gives paired comparisons and is how
    the power curves behind the standard experiment grids are produced.
    Trials are simulated into blocks of rows and every runner takes a whole
    block per call; each report's ``per_trial`` is in trial order.
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
        label: _summarize(procedures[label], sim, v, d, n_nonnull.copy(), n_rej)
        for label, (v, d, n_rej) in tallies.items()
    }


def estimate_metrics(procedure: ProcedureConfig, sim: SimConfig) -> MetricsReport:
    """Monte-Carlo FWER/PFER/power/FDR estimates for one procedure."""
    return estimate_metrics_many({procedure.procedure: procedure}, sim)[procedure.procedure]


# ----------------------------------------------------------------------
# Experiment grids (the standard figure presets)
# ----------------------------------------------------------------------

FIG1_PROCEDURES = ("alpha-spending", "online-sidak", "online-fallback", "addis-spending")
FIG2_PROCEDURES = ("alpha-spending", "online-sidak", "online-fallback-1", "online-fallback")
FIG_HORIZON, FIG_ALPHA = 1000, 0.2


def grid_cells(procedures: dict[str, ProcedureConfig], points, *, trials: int, seed: int, horizon: int,
               alpha: float):
    """Experiment cells, one per (model, meta) pair of ``points``.

    The c-th cell simulates ``trials`` streams of length ``horizon`` from its
    model with seed ``seed + c`` and runs every procedure (label -> config),
    each of which must be at ``alpha``.  Returns an iterator of (meta,
    procedures, sim) triples; each meta gains the horizon ``T`` and ``alpha``.
    Every cell's :class:`SimConfig`, every procedure's alpha, and every
    procedure built, with its lags a constant or a list and its sequences
    covering the horizon, are checked before the first cell is returned;
    each procedure's series is built once and shared by the cells.
    """
    procedures = {label: replace(cfg, series=series_from_config(cfg.series)) for label, cfg in procedures.items()}
    for label, cfg in procedures.items():
        proc = cfg.build()
        if proc.alpha != alpha:
            raise ConfigError(f"procedure {label} has alpha {cfg.alpha!r}, but the grid runs at alpha {alpha!r}")
        if cfg.wants_batch_lags():  # the simulated streams have no batch ids
            raise ConfigError(f"procedure {label} takes its lags from batch ids, which an experiment grid does not "
                              "have: give it a constant or list lag")
        for schedule in proc.sequences():
            schedule.values(0, horizon)  # raises for one that ends before the horizon
    sims = [SimConfig(model=model, horizon=horizon, trials=trials, seed=seed + cell)
            for cell, (model, _) in enumerate(points)]
    return (({**meta, "T": horizon, "alpha": alpha}, dict(procedures), sim) for (_, meta), sim in zip(points, sims))


def _number(value, key: str) -> float:
    message = f"experiment config: {key} must be a finite number, got {value!r}"
    if not math.isfinite(number := real(value, message)):
        raise ConfigError(message)
    return number


def _whole(value, key: str, least: int) -> int:
    if not (_number(value, key).is_integer() and value >= least):
        sign = "positive" if least else "nonnegative"
        raise ConfigError(f"experiment config: {key} must be a {sign} integer, got {value!r}")
    return int(value)


def _nonempty_list(value, key: str) -> list:
    if not (isinstance(value, list) and value):
        raise ConfigError(f"experiment config: {key} must be a non-empty list, got {value!r}")
    return value


def experiment_cells(spec, trials: int | None = None, seed: int | None = None):
    """The :func:`grid_cells` of the experiment config ``spec``, every key and value of it checked first, each
    refusal a :class:`ConfigError` naming its key; ``trials`` and ``seed``, when given, override the config's."""
    spec = config_object(spec, "experiment config", ("procedures", "grid", "trials", "seed"))
    procedures = {}
    for p in map(ProcedureConfig.from_dict, _nonempty_list(spec.get("procedures"), "procedures")):
        procedures[p.procedure if p.procedure not in procedures else f"{p.procedure}#{len(procedures)}"] = p
    grid = config_object(spec.get("grid"), "experiment config: grid", ("T", "alpha", "mu_a", "pi_a", "mu_n"))
    mu_a = _number(grid.get("mu_a", 4.0), "grid.mu_a")
    points = [(GaussianMixModel(pi_a=_number(pi_a, "grid.pi_a"), mu_a=mu_a, mu_n=_number(mu_n, "grid.mu_n")),
               {"pi_a": pi_a, "mu_a": mu_a, "mu_n": mu_n})
              for mu_n in _nonempty_list(grid.get("mu_n", [0.0]), "grid.mu_n")
              for pi_a in _nonempty_list(grid.get("pi_a", [0.5]), "grid.pi_a")]
    config_trials, config_seed = _whole(spec.get("trials", 2000), "trials", 1), _whole(spec.get("seed", 1), "seed", 0)
    if (horizon := _whole(grid.get("T", 1000), "grid.T", 1)) > (longest := np.iinfo(np.intp).max // 8):
        raise ConfigError(f"experiment config: grid.T must be at most {longest}, the longest float64 array numpy "
                          f"can shape, got {horizon}")
    return grid_cells(procedures, points, trials=config_trials if trials is None else trials,
                      seed=config_seed if seed is None else seed, horizon=horizon,
                      alpha=_number(grid.get("alpha", 0.2), "grid.alpha"))


def _fig_procedures(names, series: dict) -> dict[str, ProcedureConfig]:
    return {name: ProcedureConfig(procedure=name, alpha=FIG_ALPHA, series=dict(series)) for name in names}


def fig1_cells(trials: int = 2000, seed: int = 1):
    """The headline grid: mu_A = 4, mu_N in {0, -1}, pi_A in {0.1, ..., 0.9}, at T = 1000 and alpha = 0.2.

    Yields (meta, procedures, sim) triples; the default series is the
    log-q-series with q = 2 and ADDIS runs its (tau, lambda) = (1/2, 1/4)
    defaults.
    """
    points = [(GaussianMixModel(pi_a=pi_a, mu_a=4.0, mu_n=mu_n), {"pi_a": pi_a, "mu_a": 4.0, "mu_n": mu_n})
              for mu_n in (0.0, -1.0) for pi_a in [round(0.1 * j, 1) for j in range(1, 10)]]
    return grid_cells(_fig_procedures(FIG1_PROCEDURES, {"kind": "log-q", "q": 2.0}), points,
                      trials=trials, seed=seed, horizon=FIG_HORIZON, alpha=FIG_ALPHA)


def fig2_cells(trials: int = 2000, seed: int = 1):
    """Clustered-signal grid: mu_N = 0, mu_A = 4, q = 2 power series, at T = 1000 and alpha = 0.2.

    Left panel: signals spread over the whole stream (r = 1) with
    frequency f in {0.1, ..., 0.9}.  Right panel: an all-signal prefix
    (f = 1) whose length fraction r runs over {0.10, 0.12, ..., 0.26}.
    """
    points = [(GaussianMixModel(pi_a=clustered_pi(FIG_HORIZON, f, r), mu_a=4.0, mu_n=0.0),
               {"pi_a": f, "mu_a": 4.0, "mu_n": 0.0, "f": f, "r": r})
              for f, r in [(round(0.1 * j, 1), 1.0) for j in range(1, 10)]
              + [(1.0, round(0.10 + 0.02 * j, 2)) for j in range(9)]]
    return grid_cells(_fig_procedures(FIG2_PROCEDURES, {"kind": "q", "q": 2.0}), points,
                      trials=trials, seed=seed + 10_000, horizon=FIG_HORIZON, alpha=FIG_ALPHA)

