"""In-memory spans around the entry points of each ``fwerstream`` module.

``Tracer.install`` wraps, from outside the package, the functions callers
reach each layer through:

    cli     main, cmd_run, cmd_experiment, _iter_records (each record pulled)
    config  ProcedureConfig.build
    series  QSeries / LogQSeries / ExplicitSeries construction
    fast    make_runner, and every runner it returns (one span per trial)
    sim     estimate_metrics_many (one span per cell), gen_stream, _summarize
    core    OnlineProcedure.step, which addis and variants inherit
    audit   audit_trace

A span is (name, start, end, parent, run id); the run id is the CLI
invocation the span belongs to.  Spans live in flat arrays until the run
ends.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self.run_id = -1
        self.label = ""
        self.round = 0
        self.counts: Counter = Counter()  # counted in the first round only
        self.series: list = []  # weight series built in the first round, for their memo size
        self.missing: list[str] = []  # entry points that no longer exist
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def begin_op(self, label: str, round_index: int) -> None:
        """Start a CLI invocation: a new run id, filed under ``label``."""
        self.run_id += 1
        self.label = label
        self.round = round_index

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self.round == 0:
            self.counts[key] += n

    # -- wrapping -------------------------------------------------------
    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _timed(self, name: str, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.finish(idx)
                if on_result is not None:
                    on_result(args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every traced entry point; ``uninstall`` restores them."""
        from fwerstream import audit, cli, config, core, fast, series, sim

        tracer = self

        def traced_records(fn):
            def wrapper(*args, **kwargs):
                records = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin("cli.parse")
                    try:
                        item = next(records)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(idx)
                    tracer.count("cli.records")
                    yield item
            return wrapper

        def traced_step(fn):
            def wrapper(scheduler, p):
                idx = tracer.begin("core.step." + tracer.label)
                try:
                    decision = fn(scheduler, p)
                finally:
                    tracer.finish(idx)
                if tracer.round == 0:
                    tracer.counts["core.step_calls"] += 1
                    tracer.counts["core.rejections"] += decision.rejected
                return decision
            return wrapper

        def traced_make_runner(fn):
            def wrapper(cfg, *args, **kwargs):
                idx = tracer.begin("fast.make_runner")
                try:
                    runner = fn(cfg, *args, **kwargs)
                finally:
                    tracer.finish(idx)
                return tracer._timed("fast.run." + cfg.procedure, count_runner)(runner)
            return wrapper

        def keep_series(args, result):
            if tracer.round == 0:
                tracer.series.append(args[0])

        def count_runner(args, result):
            tracer.count("fast.runner_calls")

        def count_gen(args, result):
            tracer.count("sim.gen_stream.calls")

        def count_audit(args, result):
            tracer.count("audit.rows", len(args[0]))

        self._patch(cli, "main", self._timed("cli.main"))
        self._patch(cli, "cmd_run", self._timed("cli.run"))
        self._patch(cli, "cmd_experiment", self._timed("cli.experiment"))
        self._patch(cli, "_iter_records", traced_records)
        self._patch(config.ProcedureConfig, "build", self._timed("config.build"))
        for cls in (series.QSeries, series.LogQSeries, series.ExplicitSeries):
            self._patch(cls, "__init__", self._timed("series.build", keep_series))
        for owner in (fast, sim):  # sim calls the make_runner it imported from fast
            self._patch(owner, "make_runner", traced_make_runner)
        self._patch(sim, "estimate_metrics_many", self._timed("sim.estimate"))
        self._patch(sim, "gen_stream", self._timed("sim.gen_stream", count_gen))
        self._patch(sim, "_summarize", self._timed("sim.summarize"))
        self._patch(core.OnlineProcedure, "step", traced_step)
        audit_wrapper = self._timed("audit.audit_trace", count_audit)
        for owner in (audit, cli):  # cli calls the audit_trace it imported
            self._patch(owner, "audit_trace", audit_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def memo_bytes(self) -> int:
        """Bytes held by the weight memos of the series built in the first round."""
        return sum(getattr(s, "_memo", np.empty(0)).nbytes for s in self.series)

    def table(self):
        """Per span: name ids, durations and self times, as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.frombuffer(self.name_id, dtype=np.int32), dur, dur - child

    def write(self, path) -> None:
        """Save every span to a NumPy ``.npz``: names, and per span name id, start, end, parent, run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )
