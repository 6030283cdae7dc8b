"""The benchmark's workloads: seeded inputs, the CLI invocations of one round, output checks.

A workload is one client in a closed loop: each invocation of the
``fwerstream`` command line starts when the previous one has ended.  One
*round* invokes every operation of the workload once, on the same inputs;
the inputs are a deterministic function of the seed.

* ``mc-grid``        ``fwerstream experiment --config`` over all twelve
                     procedures, one invocation per cell of a reduced
                     acceptance grid.
* ``stream-sparse``  ``fwerstream run`` on a p,batch_id CSV with rare signals.
* ``stream-dense``   ``fwerstream run`` on a CSV with long runs of near-zero
                     p-values, through the three recycling procedures.

Every invocation's output is checked outside the timed region: stream
decisions must equal ``fwerstream.run_stream`` on the same p-values bit for
bit, and every experiment cell must keep its estimated FWER inside the
acceptance band and reproduce the first invocation's CSV byte for byte.
A child interpreter writes a stream workload's inputs and references
(``python3 workloads.py``), so that none of that work counts toward the
benchmark's peak resident memory.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

ALPHA = 0.2
SERIES = {"kind": "log-q", "q": 2.0}
HORIZON = 1000

# The order the acceptance grid lists them in; addis-spending-local runs with
# the constant lag 3 the acceptance grid gives it.
GRID_PROCEDURES = (
    "alpha-spending",
    "online-sidak",
    "online-fallback",
    "online-fallback-1",
    "discard-spending",
    "adaptive-spending",
    "addis-spending",
    "addis-spending-local",
    "discard-sidak",
    "adaptive-sidak",
    "addis-sidak",
    "discard-fallback",
)
GRID_PI_A = (0.1, 0.5, 0.9)
GRID_MU_N = (0.0, -1.0)
GRID_MU_A = 4.0

PREPARE_TIMEOUT_S = 120

DECISION_HEADER = ["index", "p", "alpha_i", "rejected", "selected", "candidate"]
EXPERIMENT_HEADER = ["procedure", "pi_A", "mu_A", "mu_N", "T", "alpha",
                     "fwer", "fwer_se", "pfer", "power", "power_se", "fdr"]


@dataclass(frozen=True)
class Size:
    """How much work one round holds, and how often set-up is timed."""

    mc_trials: int
    sparse_records: int
    dense_records: int
    dense_burst: int  # length of each all-signal run in stream-dense
    dense_period: int  # distance between the starts of two runs
    setup_probes: int


FULL = Size(mc_trials=100, sparse_records=60_000, dense_records=4_000,
            dense_burst=200, dense_period=1_000, setup_probes=5)
SMOKE = Size(mc_trials=4, sparse_records=400, dense_records=300,
             dense_burst=20, dense_period=100, setup_probes=1)


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a round."""

    label: str  # the procedure, or the grid cell, its numbers are filed under
    argv: tuple[str, ...]
    decisions: int  # p-value decisions it makes: one p-value through one procedure
    out: Path


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, size: Size):
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.ops: list[Op] = []
        self.probe_spec = workdir / "probe.json"

    def prepare(self) -> None:
        """Write the inputs and the set-up probe's spec; compute references."""
        raise NotImplementedError

    def check(self, op: Op, code) -> list[str]:
        """Problems with one invocation's exit code and output (empty: correct)."""
        raise NotImplementedError

    def _write_probe_spec(self, procedures: list[dict], runners: bool) -> None:
        self.probe_spec.write_text(json.dumps({"procedures": procedures, "runners": runners}))


# ----------------------------------------------------------------------
# mc-grid
# ----------------------------------------------------------------------

def grid_procedures() -> list[dict]:
    procs = [{"procedure": name, "alpha": ALPHA, "series": dict(SERIES)} for name in GRID_PROCEDURES]
    for proc in procs:
        if proc["procedure"] == "addis-spending-local":
            proc["lags"] = {"kind": "constant", "value": 3}
    return procs


def fwer_band(trials: int) -> float:
    """The acceptance band: alpha plus three binomial standard errors at alpha."""
    return ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / trials)


class McGrid(Workload):
    """One experiment invocation per grid cell, so that every operation is short.

    Cell c of the grid (mu_N outer, pi_A inner) gets seed ``seed + c``, as it
    would as the c-th cell of one experiment config, so a round reproduces
    the single-config grid cell for cell.
    """

    name = "mc-grid"

    def prepare(self) -> None:
        procs = grid_procedures()
        self._write_probe_spec(procs, runners=True)
        trials = self.size.mc_trials
        cells = [(mu_n, pi_a) for mu_n in GRID_MU_N for pi_a in GRID_PI_A]
        self.ops = []
        for c, (mu_n, pi_a) in enumerate(cells):
            config = {
                "procedures": procs,
                "grid": {"T": HORIZON, "alpha": ALPHA, "mu_a": GRID_MU_A, "pi_a": [pi_a], "mu_n": [mu_n]},
                "trials": trials,
                "seed": self.seed + c,
            }
            label = f"pi_A={pi_a},mu_N={mu_n}"
            path = self.workdir / f"experiment-{c}.json"
            path.write_text(json.dumps(config, indent=1))
            out = self.workdir / f"experiment-{c}.csv"
            argv = ("experiment", "--config", str(path), "--out", str(out))
            self.ops.append(Op(label, argv, len(procs) * trials * HORIZON, out))
        self.rows = len(procs)
        self.sha256: dict[str, str] = {}  # of each cell's first CSV

    def check(self, op: Op, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        data = op.out.read_bytes()
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        if not rows or rows[0] != EXPERIMENT_HEADER:
            return [f"header {rows[0] if rows else None}"]
        problems = []
        if len(rows) - 1 != self.rows:
            problems.append(f"{len(rows) - 1} result rows, expected {self.rows}")
        band = fwer_band(self.size.mc_trials)
        for row in rows[1:]:
            fwer = float(row[6])
            if not fwer <= band:
                problems.append(f"{row[0]}: fwer {fwer} > {band}")
        digest = hashlib.sha256(data).hexdigest()
        first = self.sha256.setdefault(op.label, digest)
        if digest != first:
            problems.append(f"CSV sha256 {digest} differs from the first invocation's {first}")
        return problems


# ----------------------------------------------------------------------
# stream-sparse / stream-dense
# ----------------------------------------------------------------------

class StreamWorkload(Workload):
    # (procedure, extra CLI flags); the config dict mirrors what the flags mean
    procedures: tuple[tuple[str, tuple[str, ...]], ...] = ()
    stream_key = 0  # keeps the workloads' random streams apart for one seed

    def records(self) -> int:
        raise NotImplementedError

    def make_stream(self, rng: np.random.Generator) -> tuple[np.ndarray, list[str] | None]:
        raise NotImplementedError

    def configs(self) -> list[dict]:
        configs = []
        for name, flags in self.procedures:
            config = {"procedure": name, "alpha": ALPHA, "series": dict(SERIES)}
            if flags == ("--lags", "batch"):
                config["lags"] = {"kind": "from-batch-ids"}
            configs.append(config)
        return configs

    def prepare(self) -> None:
        """Have a child interpreter write the inputs and references, then load the references.

        The stream, its batch ids and ``run_stream``'s work live and die in the
        child, so this process's peak resident memory is the program's own
        plus the reference columns the checks read.
        """
        import fwerstream

        src = str(Path(fwerstream.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # run() kills the child if it outlives the timeout and waits for it either way
        subprocess.run([sys.executable, str(Path(__file__).resolve()), self.name, str(self.workdir),
                        str(self.seed), json.dumps(asdict(self.size))],
                       env=env, check=True, timeout=PREPARE_TIMEOUT_S)
        with np.load(self.workdir / "references.npz") as refs:
            self.refs = {name: {col: refs[f"{name}:{col}"] for col in DECISION_HEADER[1:]}
                         for name, _ in self.procedures}
        self.verified: dict[str, str] = {}  # sha256 of each procedure's checked output
        self.ops = []
        for name, flags in self.procedures:
            out = self.workdir / f"decisions-{name}.csv"
            argv = ("run", "--input", str(self.workdir / "stream.csv"), "--out", str(out),
                    "--procedure", name, "--alpha", repr(ALPHA), *flags)
            self.ops.append(Op(name, argv, self.records(), out))

    def write_inputs(self) -> None:
        """Write the stream CSV, ``run_stream``'s decisions on it and the set-up probe's spec."""
        import fwerstream

        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream_key,)))
        p, batch_ids = self.make_stream(rng)
        # repr round-trips a float64 exactly, so the CLI parses back these very values
        with open(self.workdir / "stream.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if batch_ids is None:
                writer.writerow(["p"])
                writer.writerows([repr(x)] for x in p.tolist())
            else:
                writer.writerow(["p", "batch_id"])
                writer.writerows(zip(map(repr, p.tolist()), batch_ids))
        columns = {}
        configs = self.configs()
        for (name, _), config in zip(self.procedures, configs):
            cfg = fwerstream.ProcedureConfig.from_dict(config)
            ref = fwerstream.run_stream(cfg, p, batch_ids=batch_ids if "lags" in config else None)
            for col, values in zip(DECISION_HEADER[1:], (ref.p, ref.levels, ref.rejected, ref.selected, ref.candidate)):
                columns[f"{name}:{col}"] = values
        np.savez(self.workdir / "references.npz", **columns)
        self._write_probe_spec(configs, runners=False)

    def check(self, op: Op, code) -> list[str]:
        if code != 0:
            return [f"exit code {code} (the audit or the input check failed)"]
        digest = file_sha256(op.out)
        if digest == self.verified.get(op.label):
            return []
        problems = compare_decisions(op.out, self.refs[op.label])
        if not problems:
            self.verified[op.label] = digest  # later identical outputs need no parsing
        return problems


def file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


CHECK_BLOCK = 4096  # decision rows parsed at a time, so that the check holds little memory


def compare_decisions(path: Path, ref: dict[str, np.ndarray]) -> list[str]:
    """Compare a decision CSV with ``run_stream``'s columns, bit for bit, a block of rows at a time."""
    n = len(ref["p"])
    want = {"index": np.arange(1, n + 1), **ref}
    dtypes = [np.int64, np.float64, np.float64, np.int64, np.int64, np.int64]
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DECISION_HEADER:
            return [f"header {header}"]
        start = 0
        while True:
            block = list(itertools.islice(reader, CHECK_BLOCK))
            if not block:
                break
            stop = start + len(block)
            if stop > n:
                return [f"more than {n} decisions"]
            if any(len(row) != len(DECISION_HEADER) for row in block):
                return [f"a row between index {start + 1} and {stop} does not have {len(DECISION_HEADER)} fields"]
            for (col, expected), dtype, got in zip(want.items(), dtypes, zip(*block)):
                bad = np.flatnonzero(np.array(got, dtype=dtype) != expected[start:stop])
                if bad.size:
                    i = int(bad[0])
                    problems.append(f"{col} differs from run_stream at index {start + i + 1}: "
                                    f"{got[i]} != {expected[start + i]!r} ({bad.size} rows in the block)")
            if problems:
                return problems
            start = stop
    if start != n:
        return [f"{start} decisions, expected {n}"]
    return []


class StreamSparse(StreamWorkload):
    """Few signals, so rejections are rare and per-record overhead dominates."""

    name = "stream-sparse"
    stream_key = 1
    procedures = (
        ("alpha-spending", ()),
        ("online-sidak", ()),
        ("addis-spending-local", ("--lags", "batch")),
        ("online-fallback", ()),
    )
    signal_rate = 0.02
    signal_mean = 3.0
    max_batch = 16

    def records(self) -> int:
        return self.size.sparse_records

    def make_stream(self, rng):
        n = self.records()
        labels = rng.random(n) < self.signal_rate
        p = ndtr(-(rng.standard_normal(n) + np.where(labels, self.signal_mean, 0.0)))
        sizes = rng.integers(1, self.max_batch + 1, size=n)
        batch_of = np.repeat(np.arange(n), sizes)[:n]
        return p, [f"b{b}" for b in batch_of.tolist()]


class StreamDense(StreamWorkload):
    """Fixed runs of near-zero p-values, so the recycling ledger grows with every run."""

    name = "stream-dense"
    stream_key = 2
    procedures = (
        ("online-fallback", ()),
        ("online-fallback-1", ()),
        ("discard-fallback", ()),
    )
    signal_mean = 8.0  # p ~ 1e-15: inside a run nearly every hypothesis is rejected

    def records(self) -> int:
        return self.size.dense_records

    def make_stream(self, rng):
        size = self.size
        n = self.records()
        # the run layout is fixed so that the ledger, and with it the cost, does not vary with the seed
        labels = (np.arange(n) % size.dense_period) < size.dense_burst
        p = ndtr(-(rng.standard_normal(n) + np.where(labels, self.signal_mean, 0.0)))
        return p, None


WORKLOADS = {w.name: w for w in (McGrid, StreamSparse, StreamDense)}

# procedures whose scalar step the stream workloads run
STREAM_PROCEDURES = tuple(dict.fromkeys(name for w in (StreamSparse, StreamDense) for name, _ in w.procedures))


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD WORKDIR SEED SIZE_JSON writes a stream workload's inputs and references
    workload, workdir, seed, size = sys.argv[1:]
    WORKLOADS[workload](Path(workdir), int(seed), Size(**json.loads(size))).write_inputs()
