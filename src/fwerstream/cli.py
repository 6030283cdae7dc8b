"""Command-line front end.

Subcommands:
  run        stream a p-value file through one procedure, emit decisions CSV
  experiment run a simulation grid (presets: fig1, fig2), emit metrics CSV
  solve      power-theory solvers (optimal-q, cstar, optimal-gamma,
             expected-discoveries), emit (grid, value) CSV
  validate   check a config file, report findings

Exit codes: 0 ok, 2 input error, 3 config error, 4 budget-audit failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from . import fast
from .addis import LagSchedule
from .audit import audit_trace
from .config import ProcedureConfig
from .core import _check_p
from .errors import AuditError, BudgetError, ConfigError, StreamError
from .power import GaussianMixModel, cstar_threshold, expected_true_discoveries, optimal_gamma_varying, optimal_q
from .series import series_from_config
from .sim import fig1_cells, fig2_cells, grid_cells, run_cells
from .spec import SPECS

RESULT_COLUMNS = ("procedure", "pi_A", "mu_A", "mu_N", "T", "alpha",
                  "fwer", "fwer_se", "pfer", "power", "power_se", "fdr")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

# records decided, audited and written at a time by ``run``
RUN_CHUNK = 4096


def _iter_records(path: str, fmt: str):
    """Yield (line_no, raw p, batch_id) tuples; ``cmd_run`` checks the p-value."""
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "jsonl":
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StreamError(f"line {line_no}: invalid JSON ({exc.msg})") from None
                if not isinstance(rec, dict) or "p" not in rec:
                    raise StreamError(f"line {line_no}: expected an object with a 'p' field")
                p, batch = rec["p"], rec.get("batch_id")
                if isinstance(p, bool):
                    raise StreamError(f"line {line_no}: p-value {p!r} is a boolean, not a number")
                if batch is not None and (isinstance(batch, bool) or not isinstance(batch, (str, int))):
                    raise StreamError(f"line {line_no}: batch_id {batch!r} must be a string or an integer")
                yield line_no, p, batch
        else:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return
            cols = [c.strip().lower() for c in header]
            if "p" not in cols:
                raise StreamError("line 1: CSV header must contain a 'p' column")
            p_at = cols.index("p")
            batch_at = cols.index("batch_id") if "batch_id" in cols else None
            for line_no, row in enumerate(reader, start=2):
                if not any(map(str.strip, row)):  # a blank line
                    continue
                if len(row) <= p_at:
                    raise StreamError(f"line {line_no}: missing 'p' value")
                batch = row[batch_at].strip() if batch_at is not None and len(row) > batch_at else None
                yield line_no, row[p_at], batch or None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None


def _series_from_flags(args) -> dict:
    spec = args.series
    if spec is None:
        return {"kind": "log-q", "q": args.q if args.q is not None else 2.0}
    if spec in ("q", "logq", "log-q"):
        kind = "q" if spec == "q" else "log-q"
        return {"kind": kind, "q": args.q if args.q is not None else 2.0}
    return series_from_config(_load_json(spec)).config()


def _lags_from_flag(spec: str | None):
    if spec is None:
        return None
    if spec == "batch":
        return {"kind": "from-batch-ids"}
    if "," in spec:
        try:
            return {"kind": "list", "values": [int(v) for v in spec.split(",")]}
        except ValueError:
            raise ConfigError(f"--lags list must be integers, got {spec!r}") from None
    try:
        return {"kind": "constant", "value": int(spec)}
    except ValueError:
        raise ConfigError(f"--lags must be an integer, a comma list, or 'batch', got {spec!r}") from None


def _weights_from_flag(spec: str | None):
    if spec is None:
        return None
    if spec in ("one-step", "lagged-gamma"):
        return {"kind": spec}
    return _load_json(spec)


def _procedure_from_args(args) -> ProcedureConfig:
    if args.config:
        return ProcedureConfig.from_dict(_load_json(args.config))
    if not args.procedure:
        raise ConfigError("pass --procedure (or --config FILE)")
    if args.alpha is None:
        raise ConfigError("pass --alpha (or --config FILE)")
    return ProcedureConfig(
        procedure=args.procedure,
        alpha=args.alpha,
        series=_series_from_flags(args),
        tau=args.tau,
        lam=getattr(args, "lam"),
        lags=_lags_from_flag(args.lags),
        weights=_weights_from_flag(args.weights),
        k=args.k,
    )


def _read_chunk(records, lags) -> tuple[list[float], StreamError | None]:
    """The checked p-values of the next ``RUN_CHUNK`` records, pushing each
    batch id into ``lags`` (if given), and the error of a malformed record
    that stopped the chunk short, if any."""
    ps = []
    try:
        for line_no, p, batch_id in itertools.islice(records, RUN_CHUNK):
            if lags is not None:
                if batch_id is None:
                    raise StreamError(f"line {line_no}: --lags batch needs a batch_id column")
                try:
                    lags.push(batch_id)
                except ConfigError as exc:
                    raise StreamError(f"line {line_no}: {exc}") from None
            try:
                ps.append(_check_p(p))
            except StreamError as exc:
                raise StreamError(f"line {line_no}: {exc}") from None
    except StreamError as exc:
        return ps, exc
    return ps, None


def _decide(cfg: ProcedureConfig, scheduler, runner, ps: list[float]):
    """Decide one chunk on the scheduler's state: the decisions as columns,
    and the error that stopped them short of the chunk's end, if any."""
    if runner is not None:
        try:
            return runner(np.array(ps), state=scheduler.state), None
        except ConfigError:
            pass  # a lag list that ends inside the chunk: the scalar step finds the step it ends at
    error = None
    try:
        for p in ps:
            scheduler.step(p)
    except (ConfigError, BudgetError) as exc:
        error = exc
    decided = fast.from_decisions(cfg, scheduler.trace)
    scheduler.trace.clear()  # a config file holds no callable schedule, so no step reads the trace
    return decided, error


def _write_rows(writer, start: int, ps: list[float], decided) -> None:
    """Write the decisions of steps start+1, ..., start+len(ps), one row each."""
    n = len(ps)
    flags = (getattr(decided, c)[:n].astype(np.int8).tolist() for c in ("rejected", "selected", "candidate"))
    writer.writerows(zip(range(start + 1, start + n + 1), ps, decided.levels[:n].tolist(), *flags))


def cmd_run(args) -> int:
    cfg = _procedure_from_args(args)
    fmt = args.format or ("jsonl" if args.input.endswith((".jsonl", ".json")) else "csv")
    cfg = dataclasses.replace(cfg, series=series_from_config(cfg.series))  # one series for step and runner
    lags = None
    if cfg.wants_batch_lags() and SPECS[cfg.procedure].lagged:
        # batch lags start empty and grow record by record from the batch_id column
        lags = LagSchedule.from_batch_ids([])
        cfg = dataclasses.replace(cfg, lags=lags)
    scheduler = cfg.build()
    state = scheduler.state
    # constant tau and lambda: chunks go through the runner; else through the scalar step
    runner = fast.make_runner(cfg) if scheduler.thresholds is not None else None
    records = _iter_records(args.input, fmt)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["index", "p", "alpha_i", "rejected", "selected", "candidate"])
        while True:
            ps, bad_line = _read_chunk(records, lags)
            start = state.i
            decided, error = _decide(cfg, scheduler, runner, ps)
            report = audit_trace(decided, cfg, state)
            stop = len(decided) if report.passed else report.first_bad_index - 1 - start
            _write_rows(writer, start, ps[:stop], decided)
            report.raise_if_failed()
            for exc in (error, bad_line):
                if exc is not None:
                    raise exc
            if len(ps) < RUN_CHUNK:
                break
        out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def _custom_cells(spec: dict):
    """The cells of an experiment config, every value of it checked first."""
    try:
        procedures = {}
        for p in (ProcedureConfig.from_dict(d) for d in spec["procedures"]):
            procedures[p.procedure if p.procedure not in procedures else f"{p.procedure}#{len(procedures)}"] = p
        grid = spec["grid"]
        mu_a = float(grid.get("mu_a", 4.0))
        points = [(GaussianMixModel(pi_a=float(pi_a), mu_a=mu_a, mu_n=float(mu_n)),
                   {"pi_a": pi_a, "mu_a": mu_a, "mu_n": mu_n})
                  for mu_n in grid.get("mu_n", [0.0]) for pi_a in grid.get("pi_a", [0.5])]
        return grid_cells(procedures, points, trials=int(spec.get("trials", 2000)), seed=int(spec.get("seed", 1)),
                          horizon=int(grid.get("T", 1000)), alpha=float(grid.get("alpha", 0.2)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"experiment config: {exc!r}") from None


def cmd_experiment(args) -> int:
    if args.preset == "fig1":
        cells = fig1_cells(trials=args.trials, seed=args.seed)
        extra_cols = ()
    elif args.preset == "fig2":
        cells = fig2_cells(trials=args.trials, seed=args.seed)
        extra_cols = ("f", "r")
    elif args.config:
        cells = _custom_cells(_load_json(args.config))
        extra_cols = ()
    else:
        raise ConfigError("pass --preset fig1|fig2 or --config FILE")
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(list(RESULT_COLUMNS) + list(extra_cols))
        for meta, reports in run_cells(cells):
            for label, rep in reports.items():
                row = [label, _fmt(meta["pi_a"]), _fmt(meta["mu_a"]), _fmt(meta["mu_n"]),
                       meta["T"], _fmt(meta["alpha"]), _fmt(rep.fwer), _fmt(rep.fwer_se),
                       _fmt(rep.pfer), _fmt(rep.power), _fmt(rep.power_se), _fmt(rep.fdr)]
                row += [_fmt(meta[c]) for c in extra_cols]
                writer.writerow(row)
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _float_list(raw: str) -> list[float]:
    try:
        return [float(v) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {raw!r}") from None


def cmd_solve(args) -> int:
    rows: list[list] = []
    if args.solver == "optimal-q":
        header = ["N", "q_star"]
        for n in _float_list(args.n or "2,10,100,1000"):
            if not n.is_integer():
                raise ConfigError(f"--n must list integers, got {n!r}")
            rows.append([int(n), optimal_q(int(n), args.mu_a, args.alpha)])
    elif args.solver == "cstar":
        header = ["pi_a", "mu_a", "mu_n", "c_star"]
        for pi in _float_list(args.pi_a or "0.1,0.3,0.5"):
            model = GaussianMixModel(pi_a=pi, mu_a=args.mu_a, mu_n=args.mu_n)
            rows.append([pi, args.mu_a, args.mu_n, cstar_threshold(model)])
    elif args.solver == "optimal-gamma":
        header = ["i", "gamma"]
        pi = _float_list(args.pi_a or "0.5")
        mu = _float_list(args.mu or str(args.mu_a))
        horizon = args.horizon
        gam = optimal_gamma_varying(pi if len(pi) > 1 else pi[0],
                                    mu if len(mu) > 1 else mu[0], args.alpha, horizon)
        rows = [[i + 1, g] for i, g in enumerate(gam.tolist())]
    elif args.solver == "expected-discoveries":
        header = ["N", "expected_discoveries"]
        series = {"kind": "q", "q": args.q} if args.series != "logq" else {"kind": "log-q", "q": args.q}
        model = GaussianMixModel(pi_a=args.pi_a_scalar, mu_a=args.mu_a, mu_n=0.0)
        for tok in (args.n or "10,100,1000").split(","):
            tok = tok.strip()
            try:
                n = math.inf if tok in ("inf", "infinity") else int(tok)
            except ValueError:
                raise ConfigError(f"--n must list integers or 'inf', got {tok!r}") from None
            rows.append([tok, expected_true_discoveries(n, args.alpha, series, model)])
    else:
        raise ConfigError(f"unknown solver {args.solver!r}")
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = _load_json(args.config)
    entries = spec["procedures"] if isinstance(spec, dict) and "procedures" in spec else [spec]
    if not isinstance(entries, list):
        raise ConfigError(f"'procedures' must be a list of procedure configs, got {entries!r}")
    failures = 0
    for idx, entry in enumerate(entries, start=1):
        name = entry.get("procedure", f"entry {idx}") if isinstance(entry, dict) else f"entry {idx}"
        try:
            findings = ProcedureConfig.from_dict(entry).validate()
        except ConfigError as exc:
            findings = [str(exc)]
        if findings:
            failures += 1
            for f in findings:
                print(f"FAIL {name}: {f}")
        else:
            print(f"ok   {name}")
    return 0 if failures == 0 else 3


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwerstream",
                                     description="Online FWER control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="stream a p-value file through a procedure")
    run_p.add_argument("--input", required=True, help="CSV (header with p[,batch_id][,label]) or JSONL")
    run_p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    run_p.add_argument("--out", default=None, help="decisions CSV (default stdout)")
    run_p.add_argument("--config", default=None, help="procedure config JSON (overrides flags)")
    run_p.add_argument("--procedure", default=None)
    run_p.add_argument("--alpha", type=float, default=None)
    run_p.add_argument("--series", default=None, help="q | logq | path to series JSON")
    run_p.add_argument("--q", type=float, default=None)
    run_p.add_argument("--tau", type=float, default=None)
    run_p.add_argument("--lambda", dest="lam", type=float, default=None)
    run_p.add_argument("--lags", default=None, help="integer, comma list, or 'batch'")
    run_p.add_argument("--weights", default=None, help="one-step | lagged-gamma | path to rows JSON")
    run_p.add_argument("--k", type=int, default=1)
    run_p.set_defaults(fn=cmd_run)

    exp_p = sub.add_parser("experiment", help="run a simulation grid")
    exp_p.add_argument("--preset", choices=("fig1", "fig2"), default=None)
    exp_p.add_argument("--config", default=None, help="experiment config JSON")
    exp_p.add_argument("--trials", type=int, default=2000)
    exp_p.add_argument("--seed", type=int, default=1)
    exp_p.add_argument("--out", default=None)
    exp_p.set_defaults(fn=cmd_experiment)

    solve_p = sub.add_parser("solve", help="power-theory solvers")
    solve_p.add_argument("solver", help="optimal-q | cstar | optimal-gamma | expected-discoveries")
    solve_p.add_argument("--alpha", type=float, default=0.2)
    solve_p.add_argument("--mu-a", dest="mu_a", type=float, default=4.0)
    solve_p.add_argument("--mu-n", dest="mu_n", type=float, default=0.0)
    solve_p.add_argument("--pi-a", dest="pi_a", default=None, help="comma list")
    solve_p.add_argument("--pi-a-scalar", dest="pi_a_scalar", type=float, default=0.5)
    solve_p.add_argument("--mu", default=None, help="comma list for optimal-gamma")
    solve_p.add_argument("--n", default=None, help="comma list; 'inf' allowed for expected-discoveries")
    solve_p.add_argument("--q", type=float, default=2.0)
    solve_p.add_argument("--series", choices=("q", "logq"), default="q")
    solve_p.add_argument("--horizon", type=int, default=10)
    solve_p.add_argument("--out", default=None)
    solve_p.set_defaults(fn=cmd_solve)

    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StreamError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (AuditError, BudgetError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
