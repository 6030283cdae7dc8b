"""The fwerstream benchmark: one workload, one client, a closed loop, one core.

Run it from the root of a checkout of the repository:

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``mc-grid``, ``stream-sparse``,
``stream-dense``.  The benchmark writes the workload's inputs from the
seed, times set-up in fresh interpreters, then invokes the ``fwerstream``
command line in process, round after round, until the invocations have
taken ``--seconds``.  Each invocation's output is checked outside the timed
region.

``--trace 0`` prints the end-to-end metrics:

* ``decisions_per_s``: p-value decisions (one p-value through one procedure)
  per second.  A round's time is the sum, over its invocations, of each
  invocation's median time, every time scaled to the machine's usual speed
  by the reference kernel timed around it (see ``calibrate.py``).
* ``setup_s``: median launch-to-ready time of fresh interpreters that
  import ``fwerstream``, parse the workload's configs and build its
  schedulers or runners (``probe.py``).
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs half the time untraced, then as
many rounds again with spans around every module's entry points, and prints
the per-layer metrics.  Per-layer ``_s`` metrics are self times per round;
counts are those of the first traced invocation round; ``<module>.self_share``
is a module's self time over the traced invocation time.

The last line of standard output is the result as one JSON object; the
line before it is the environment.  The full record goes to
``.perfbench/results/`` and the spans of a traced run to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = ".perfbench"
PROBE_TIMEOUT_S = 60


@dataclass
class Phase:
    """The invocations of whole rounds, each timed on its own."""

    rounds: int = 0
    op_s: list[list[float]] = field(default_factory=list)  # per operation of a round, per round
    scaled_s: list[list[float]] = field(default_factory=list)  # the same, at the machine's usual speed
    round_decisions: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(map(sum, self.op_s))

    def median_round_s(self) -> float:
        """A round's time: the sum of each operation's median scaled time."""
        return sum(statistics.median(times) for times in self.scaled_s)


def measure(workload, *, seconds: float = 0.0, rounds: int | None = None, tracer: Tracer | None = None) -> Phase:
    """Run whole rounds, at least one, until ``seconds`` of invocation time or ``rounds`` rounds."""
    import fwerstream.cli

    n = len(workload.ops)
    phase = Phase(op_s=[[] for _ in range(n)], scaled_s=[[] for _ in range(n)],
                  round_decisions=sum(op.decisions for op in workload.ops))
    kernel = kernel_seconds()
    while True:
        for op, times, scaled in zip(workload.ops, phase.op_s, phase.scaled_s):
            if tracer is not None:
                tracer.begin_op(op.label, phase.rounds)
            t0 = perf_counter()
            try:
                code = fwerstream.cli.main(list(op.argv))
            except Exception:  # a crash is a failed operation; keep measuring the rest
                traceback.print_exc()
                code = None
            times.append(perf_counter() - t0)
            kernel_before, kernel = kernel, kernel_seconds()
            scaled.append(times[-1] * REFERENCE_S / (0.5 * (kernel_before + kernel)))
            phase.attempted += 1
            problems = workload.check(op, code)
            if problems:
                phase.failed += 1
                phase.problems += [f"{op.label}: {p}" for p in problems]
        phase.rounds += 1
        if (phase.seconds >= seconds) if rounds is None else (phase.rounds >= rounds):
            return phase


def time_setup(workload, src: Path) -> list[float]:
    """Launch-to-ready seconds of fresh interpreters doing the workload's set-up.

    The probe prints the system-wide monotonic clock when it is ready.  Not
    scaled by the kernel: the probe runs in another process, often on
    another CPU, whose speed the kernel in this one does not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for _ in range(workload.size.setup_probes):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        # run() kills the probe if it outlives the timeout and waits for it either way
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(workload.probe_spec)],
                              capture_output=True, env=env, text=True, timeout=PROBE_TIMEOUT_S)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}: {proc.stderr[-2000:]}")
        times.append(float(fields[1]) - launched)
    return times


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "git_commit": git_commit(root),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(setup: list[float], phase: Phase) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "decisions_per_s": {"value": phase.round_decisions / phase.median_round_s(), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


MODULES = ("cli", "config", "series", "fast", "sim", "core", "audit")


def per_layer(workload, tracer: Tracer, untraced: Phase, traced: Phase) -> dict:
    import numpy as np

    name_id, dur, self_t = tracer.table()
    names = tracer.names
    index = {n: i for i, n in enumerate(names)}
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=dur, minlength=len(names))
    self_total = np.bincount(name_id, weights=self_t, minlength=len(names))

    def self_s(span_name):  # self time per round
        i = index.get(span_name)
        return float(self_total[i]) / traced.rounds if i is not None else 0.0

    def mean_ms(span_name):
        i = index.get(span_name)
        return float(total[i] / calls[i] * 1e3) if i is not None else 0.0

    def step_us(label, q):
        mask = name_id == index.get("core.step." + label, -1)
        return float(np.percentile(dur[mask], q) * 1e6) if mask.any() else 0.0

    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for proc in workloads.GRID_PROCEDURES:
        m[f"fast.{proc}.ms_per_trial"] = (mean_ms("fast.run." + proc), "ms")
    m["fast.runner_calls"] = (counts["fast.runner_calls"], "count")
    m["fast.make_runner_s"] = (self_s("fast.make_runner"), "s")
    m["sim.gen_stream.ms_per_trial"] = (mean_ms("sim.gen_stream"), "ms")
    m["sim.gen_stream.calls"] = (counts["sim.gen_stream.calls"], "count")
    m["sim.summarize_s"] = (self_s("sim.summarize"), "s")
    m["sim.estimate_self_s"] = (self_s("sim.estimate"), "s")
    for proc in workloads.STREAM_PROCEDURES:
        m[f"core.step.{proc}.us_p50"] = (step_us(proc, 50), "us")
        m[f"core.step.{proc}.us_p99"] = (step_us(proc, 99), "us")
    m["core.step_calls"] = (counts["core.step_calls"], "count")
    m["core.rejections"] = (counts["core.rejections"], "count")
    m["cli.parse_s"] = (self_s("cli.parse"), "s")
    m["cli.records"] = (counts["cli.records"], "count")
    m["cli.run_self_s"] = (self_s("cli.run"), "s")
    m["cli.experiment_self_s"] = (self_s("cli.experiment"), "s")
    m["audit.audit_trace_s"] = (self_s("audit.audit_trace"), "s")
    m["audit.rows"] = (counts["audit.rows"], "count")
    m["series.build_s"] = (self_s("series.build"), "s")
    m["series.memo_bytes"] = (tracer.memo_bytes(), "bytes")
    m["config.build_s"] = (self_s("config.build"), "s")

    # Where the traced invocation time went, module by module.  The self time
    # of cli.main, the span around a whole invocation, is whatever no entry
    # point covers, so it counts toward no module: trace.self_share, the sum
    # of the module shares, is the share of the time the entry points explain.
    module_of = [n.split(".")[0] if n != "cli.main" else None for n in names]
    shares = dict.fromkeys(MODULES, 0.0)
    for t, module in zip(self_total.tolist(), module_of):
        if module is not None:
            shares[module] += t / traced.seconds
    for module, share in shares.items():
        m[f"{module}.self_share"] = (share, "frac")
    m["trace.self_share"] = (sum(shares.values()), "frac")
    m["trace.overhead_s"] = (traced.median_round_s() - untraced.median_round_s(), "s")
    m["trace.overhead_frac"] = (traced.median_round_s() / untraced.median_round_s() - 1.0, "frac")

    # the untraced half gives the throughputs in the units of each kind of workload
    rate = untraced.round_decisions / untraced.median_round_s()
    is_grid = isinstance(workload, workloads.McGrid)
    m["mc_trials_per_s"] = (rate / workloads.HORIZON if is_grid else 0.0, "1/s")
    m["run_records_per_s"] = (0.0 if is_grid else rate, "1/s")
    m["ops_failed_frac"] = ((untraced.failed + traced.failed) / (untraced.attempted + traced.attempted), "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fwerstream" / "__init__.py").is_file():
        print(f"perfbench: no fwerstream sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    env = environment(root, args.seed)
    out = root / OUT_DIR
    workdir = out / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (out / "results").mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, workloads.FULL)
    workload.prepare()

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env}
    if args.trace == 0:
        record["setup_probe_s"] = setup = time_setup(workload, src)
        phase = measure(workload, seconds=args.seconds)
        phases = [phase]
        metrics = end_to_end(setup, phase)
    else:
        untraced = measure(workload, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, rounds=untraced.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(workload, tracer, untraced, traced)
        tracer.write(out / f"spans-{args.workload}.npz")
        record["entry_points_not_found"] = tracer.missing
        if tracer.missing:
            print(f"perfbench: entry points not found, not traced: {tracer.missing}", file=sys.stderr)

    env["loadavg_end"] = loadavg()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for problem in [p for phase in phases for p in phase.problems][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result)
    record["phases"] = [{"rounds": p.rounds, "op_s": p.op_s, "scaled_s": p.scaled_s,
                         "round_decisions": p.round_decisions} for p in phases]
    if isinstance(workload, workloads.McGrid):
        record["experiment_sha256"] = workload.sha256
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / "results" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
