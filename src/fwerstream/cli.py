"""Command-line front end.

Subcommands:
  run        stream a p-value file through one procedure, emit decisions CSV
  experiment run a simulation grid (presets: fig1, fig2), emit metrics CSV
  solve      power-theory solvers (optimal-q, cstar, optimal-gamma,
             expected-discoveries), emit (grid, value) CSV
  validate   check a config file, report findings

Exit codes: 0 ok, 1 stdout closed by its reader, 2 input error, 3 config error,
4 budget-audit failure.

``run`` and ``validate`` of a procedure config load no scipy: ``experiment``,
``validate`` of an experiment config and ``solve`` import the simulator and
the power solvers when they start.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import fast
from .config import ProcedureConfig
from .core import _check_p
from .errors import AuditError, BudgetError, ConfigError, StreamError

RESULT_COLUMNS = ("procedure", "pi_A", "mu_A", "mu_N", "T", "alpha",
                  "fwer", "fwer_se", "pfer", "power", "power_se", "fdr")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # a float subclass such as np.float64 prints as a plain float
    return str(x)


@contextlib.contextmanager
def _output(path: str | None, source: str | None = None):
    """A subcommand's output stream: the file at ``path``, closed on exit,
    or stdout.  Open it once the input has been read and checked; an input
    ``source`` still to be read is refused as ``path``, which opening truncates."""
    if path is None:
        yield sys.stdout
        return
    if source is not None and os.path.exists(path) and os.path.samefile(path, source):
        raise ConfigError(f"--out {path} is the --input file")
    try:
        out = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    with out:
        yield out


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

# records decided, audited and written at a time by ``run``
RUN_CHUNK = 4096


def _csv_parsers(header: list[str]):
    """The parsers of the rows under ``header``: of a chunk, to its raw p and batch id
    columns (a short row raises); of one row, to its raw p and batch id, or None if blank."""
    cols = [c.strip().lower() for c in header]
    if "p" not in cols:
        raise StreamError("line 1: CSV header must contain a 'p' column")
    p_at = cols.index("p")
    batch_at = cols.index("batch_id") if "batch_id" in cols else None

    def columns(rows):
        batches = [None] * len(rows) if batch_at is None else [row[batch_at].strip() or None for row in rows]
        return [row[p_at] for row in rows], batches

    def record(row):
        if not any(map(str.strip, row)):  # a blank line
            return None
        if len(row) <= p_at:
            raise StreamError("missing 'p' value")
        batch = row[batch_at].strip() if batch_at is not None and len(row) > batch_at else None
        return row[p_at], batch or None

    return columns, record


def _jsonl_record(line: str):
    """The raw p and batch id of one JSONL line, or None if it is blank."""
    if not line.strip():
        return None
    try:
        rec = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise StreamError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(rec, dict) or "p" not in rec:
        raise StreamError("expected an object with a 'p' field")
    p, batch = rec["p"], rec.get("batch_id")
    if isinstance(p, bool):
        raise StreamError(f"p-value {p!r} is a boolean, not a number")
    if batch is not None and (isinstance(batch, bool) or not isinstance(batch, (str, int))):
        raise StreamError(f"batch_id {batch!r} must be a string or an integer")
    return p, batch


def _take(lines, n: int):
    """Up to n lines or CSV rows, and the ``csv.Error`` of the row after them if the
    reader cannot split it (a quote left open, text after a closing quote)."""
    chunk = []
    try:
        for line in itertools.islice(lines, n):
            chunk.append(line)
    except csv.Error as exc:
        return chunk, exc
    return chunk, None


def _iter_records(fh, fmt: str, batched: bool):
    """Yield the records of the open file ``fh`` a chunk of ``RUN_CHUNK`` lines at a time, as
    ``_read_chunk`` gives them; a JSONL chunk's columns come from its record parser.  A CSV
    row the reader cannot split ends the records, with an error naming the line it starts on."""
    if fmt == "jsonl":
        lines, parsers = fh, (lambda chunk: zip(*map(_jsonl_record, chunk)), _jsonl_record)
    else:
        lines = csv.reader(fh, strict=True)
        try:
            header = next(lines, None)
        except csv.Error as exc:
            raise StreamError(f"line 1: {exc}") from None
        if header is None:
            return
        parsers = _csv_parsers(header)
    last = 0 if fmt == "jsonl" else lines.line_num  # physical lines read before the chunk
    while True:
        chunk, broken = _take(lines, RUN_CHUNK)
        if not chunk and broken is None:
            return
        end = last + len(chunk) if fmt == "jsonl" else lines.line_num
        # the line each row starts on, and the line after the chunk starts on
        at = range(last + 1, end + 2) if end - last == len(chunk) else _row_lines(last + 1, chunk + [[]])
        ps, batches, lines_of, error = _read_chunk(at, chunk, *parsers, batched)
        del chunk  # the lines are not kept while their records are decided and written
        yield ps, batches, lines_of, error or (broken and StreamError(f"line {at[-1]}: {broken}"))
        last = end


def _row_lines(first: int, rows: list) -> list[int]:
    """The line each CSV row starts on, from line ``first`` on, when a quoted field
    spans lines: the file reads each line break in a field as one newline."""
    starts = [first]
    for row in rows[:-1]:
        starts.append(starts[-1] + 1 + sum(field.count("\n") for field in row))
    return starts


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None


def _series_from_flags(args):
    """The series config of ``--series`` and ``--q``: a kind and q, or a series file, which sets its own q."""
    spec = args.series
    if spec is None:
        return {"kind": "log-q", "q": args.q if args.q is not None else 2.0}
    if spec in ("q", "logq", "log-q"):
        kind = "q" if spec == "q" else "log-q"
        return {"kind": kind, "q": args.q if args.q is not None else 2.0}
    if args.q is not None:
        raise ConfigError(f"--q applies to --series q or logq, not to the series file {spec}")
    return _load_json(spec)


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
        for flag in ("procedure", "alpha", "series", "q", "tau", "lambda", "lags", "weights", "k"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--config takes no --{flag}: the file sets the procedure")
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
        lam=getattr(args, "lambda"),
        lags=_lags_from_flag(args.lags),
        weights=_weights_from_flag(args.weights),
        k=1 if args.k is None else args.k,
    )


def _read_chunk(at, lines: list, columns, record, batched: bool):
    """The checked p-values of the lines numbered ``at``, their batch ids if ``batched``, the line of each, and
    the error of the first malformed record, which ends them short; a batch id is read before its p-value, so a
    refused p-value's is kept.  ``columns`` parses the chunk; one that fails goes through ``record`` line by line."""
    try:
        raw, batches = columns(lines)
        ps = np.array(list(map(float, raw)))
        if (batched and None in batches) or not (ps.min() >= 0.0 and ps.max() <= 1.0):
            raise ValueError("a missing batch id, or a p-value outside [0, 1]")  # a NaN fails both bounds
        error = None
    except (LookupError, OverflowError, StreamError, TypeError, ValueError):
        ps, batches, kept, error = [], [], [], None
        try:
            for line_no, line in zip(at, lines):
                if (rec := record(line)) is None:
                    continue
                if batched and rec[1] is None:
                    raise StreamError("--lags batch needs a batch_id column")
                batches.append(rec[1])
                kept.append(line_no)
                ps.append(_check_p(rec[0]))
        except StreamError as exc:
            error = StreamError(f"line {line_no}: {exc}")
        ps, at = np.array(ps, dtype=np.float64), kept
    return ps, batches if batched else None, at, error


def _write_rows(out, start: int, decided) -> None:
    """Write the decisions, steps start+1, ..., one row each, with one write:
    the bytes of csv.writer, which quotes no number."""
    flags = (getattr(decided, c).astype(np.int8).tolist() for c in ("rejected", "selected", "candidate"))
    rows = zip(itertools.count(start + 1), decided.p.tolist(), decided.levels.tolist(), *flags)
    out.write("".join(map("%d,%r,%r,%d,%d,%d\r\n".__mod__, rows)))


def cmd_run(args) -> int:
    cfg = _procedure_from_args(args)
    fmt = args.format or ("jsonl" if args.input.endswith((".jsonl", ".json")) else "csv")
    proc = cfg.build()  # lags of kind from-batch-ids are fed, chunk by chunk, from the batch_id column
    try:
        fh = open(args.input, "r", encoding="utf-8-sig")  # utf-8-sig: a leading byte-order mark is dropped
    except OSError as exc:
        raise StreamError(f"cannot read {args.input}: {exc}") from None
    with fh, _output(args.out, args.input) as out:
        out.write("index,p,alpha_i,rejected,selected,candidate\r\n")
        for ps, batch_ids, lines, bad_line in _iter_records(fh, fmt, cfg.wants_batch_lags()):
            start = proc.t
            rows, error = fast.decide(proc, ps, batch_ids)
            _write_rows(out, start, rows)
            if isinstance(error, StreamError):  # a repeated batch id, named by its line
                error = StreamError(f"line {lines[len(rows)]}: {error}")
            if error or bad_line:
                raise error or bad_line
        out.flush()
    return 0


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def cmd_experiment(args) -> int:
    from .sim import estimate_metrics_many, experiment_cells, fig1_cells, fig2_cells

    # a flag left out keeps the preset's or the config's value
    given = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    if args.preset and args.config:
        raise ConfigError("pass --preset or --config, not both")
    if args.preset == "fig1":
        cells = fig1_cells(**given)
        extra_cols = ()
    elif args.preset == "fig2":
        cells = fig2_cells(**given)
        extra_cols = ("f", "r")
    elif args.config:
        cells = experiment_cells(_load_json(args.config), **given)
        extra_cols = ()
    else:
        raise ConfigError("pass --preset fig1|fig2 or --config FILE")
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(list(RESULT_COLUMNS) + list(extra_cols))
        for meta, procedures, sim in cells:
            for label, rep in estimate_metrics_many(procedures, sim).items():
                row = [label, _fmt(meta["pi_a"]), _fmt(meta["mu_a"]), _fmt(meta["mu_n"]),
                       meta["T"], _fmt(meta["alpha"]), _fmt(rep.fwer), _fmt(rep.fwer_se),
                       _fmt(rep.pfer), _fmt(rep.power), _fmt(rep.power_se), _fmt(rep.fdr)]
                row += [_fmt(meta[c]) for c in extra_cols]
                writer.writerow(row)
            out.flush()
    return 0


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _float_list(raw: str, flag: str, one: bool = False) -> list[float]:
    try:
        values = [float(v) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated number list, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one number, got {raw!r}")
    if one and len(values) > 1:
        raise ConfigError(f"{flag} takes one number for this solver, got {raw!r}")
    return values


# the flags each solver reads, with their defaults; a solver refuses any other
SOLVER_FLAGS = {
    "optimal-q": {"n": "2,10,100,1000", "mu_a": "4.0", "alpha": 0.2},
    "cstar": {"pi_a": "0.1,0.3,0.5", "mu_a": "4.0", "mu_n": 0.0},
    "optimal-gamma": {"pi_a": "0.5", "mu_a": "4.0", "alpha": 0.2, "horizon": 10},
    "expected-discoveries": {"n": "10,100,1000", "pi_a": "0.5", "mu_a": "4.0", "alpha": 0.2, "q": 2.0, "series": "q"},
}


def cmd_solve(args) -> int:
    from .power import GaussianMixModel, cstar_threshold, expected_true_discoveries, optimal_gamma_varying, optimal_q

    reads = SOLVER_FLAGS.get(args.solver)
    if reads is None:
        raise ConfigError(f"unknown solver {args.solver!r}")
    for flag in ("alpha", "mu_a", "mu_n", "pi_a", "n", "q", "series", "horizon"):
        if getattr(args, flag) is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise ConfigError(f"solve {args.solver} takes no --{flag.replace('_', '-')}")
    rows: list[list] = []
    mu = _float_list(args.mu_a, "--mu-a", one=args.solver != "optimal-gamma")
    mu_a = mu if len(mu) > 1 else mu[0]  # a list only for optimal-gamma
    if args.solver == "optimal-q":
        header = ["N", "q_star"]
        for n in _float_list(args.n, "--n"):
            if not n.is_integer():
                raise ConfigError(f"--n must list integers, got {n!r}")
            rows.append([int(n), optimal_q(int(n), mu_a, args.alpha)])
    elif args.solver == "cstar":
        header = ["pi_a", "mu_a", "mu_n", "c_star"]
        for pi in _float_list(args.pi_a, "--pi-a"):
            model = GaussianMixModel(pi_a=pi, mu_a=mu_a, mu_n=args.mu_n)
            rows.append([pi, mu_a, args.mu_n, cstar_threshold(model)])
    elif args.solver == "optimal-gamma":
        header = ["i", "gamma"]
        pi = _float_list(args.pi_a, "--pi-a")
        gam = optimal_gamma_varying(pi if len(pi) > 1 else pi[0], mu_a, args.alpha, args.horizon)
        rows = [[i + 1, g] for i, g in enumerate(gam.tolist())]
    else:
        header = ["N", "expected_discoveries"]
        series = {"kind": "q", "q": args.q} if args.series != "logq" else {"kind": "log-q", "q": args.q}
        model = GaussianMixModel(pi_a=_float_list(args.pi_a, "--pi-a", one=True)[0], mu_a=mu_a, mu_n=0.0)
        for tok in args.n.split(","):
            tok = tok.strip()
            try:
                n = math.inf if tok in ("inf", "infinity") else int(tok)
            except ValueError:
                raise ConfigError(f"--n must list integers or 'inf', got {tok!r}") from None
            rows.append([tok, expected_true_discoveries(n, args.alpha, series, model)])
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = _load_json(args.config)
    if isinstance(spec, dict) and "procedures" in spec:  # an experiment config, read as `experiment` reads it
        from .sim import experiment_cells

        for cfg in next(experiment_cells(spec))[1].values():
            print(f"ok   {cfg.procedure}")
        return 0
    name = spec.get("procedure", "entry 1") if isinstance(spec, dict) else "entry 1"
    try:
        findings = ProcedureConfig.from_dict(spec).validate()
    except ConfigError as exc:
        findings = [str(exc)]
    print("\n".join(f"FAIL {name}: {f}" for f in findings) or f"ok   {name}")
    return 3 if findings else 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwerstream",
                                     description="Online FWER control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="stream a p-value file through a procedure")
    run_p.add_argument("--input", required=True, help="CSV (header with p[,batch_id][,label]) or JSONL")
    run_p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    run_p.add_argument("--out", default=None, help="decisions CSV (default stdout)")
    run_p.add_argument("--config", default=None, help="procedure config JSON (takes no procedure flags)")
    run_p.add_argument("--procedure", default=None)
    run_p.add_argument("--alpha", type=float, default=None)
    run_p.add_argument("--series", default=None, help="q | logq | path to series JSON")
    run_p.add_argument("--q", type=float, default=None)
    run_p.add_argument("--tau", type=float, default=None)
    run_p.add_argument("--lambda", type=float, default=None)
    run_p.add_argument("--lags", default=None, help="integer, comma list, or 'batch'")
    run_p.add_argument("--weights", default=None, help="one-step | lagged-gamma | path to rows JSON")
    run_p.add_argument("--k", type=int, default=None, help="default 1")
    run_p.set_defaults(fn=cmd_run)

    exp_p = sub.add_parser("experiment", help="run a simulation grid")
    exp_p.add_argument("--preset", choices=("fig1", "fig2"), default=None)
    exp_p.add_argument("--config", default=None, help="experiment config JSON")
    exp_p.add_argument("--trials", type=int, default=None, help="overrides the config's (preset: 2000)")
    exp_p.add_argument("--seed", type=int, default=None, help="overrides the config's (preset: 1)")
    exp_p.add_argument("--out", default=None)
    exp_p.set_defaults(fn=cmd_experiment)

    solve_p = sub.add_parser("solve", help="power-theory solvers")
    solve_p.add_argument("solver", help="optimal-q | cstar | optimal-gamma | expected-discoveries")
    # each solver reads some of these flags and refuses the others (SOLVER_FLAGS, which holds the defaults)
    solve_p.add_argument("--alpha", type=float, default=None)
    solve_p.add_argument("--mu-a", dest="mu_a", default=None, help="comma list for optimal-gamma")
    solve_p.add_argument("--mu-n", dest="mu_n", type=float, default=None)
    solve_p.add_argument("--pi-a", dest="pi_a", default=None, help="comma list (one value for expected-discoveries)")
    solve_p.add_argument("--n", default=None, help="comma list; 'inf' allowed for expected-discoveries")
    solve_p.add_argument("--q", type=float, default=None)
    solve_p.add_argument("--series", choices=("q", "logq"), default=None)
    solve_p.add_argument("--horizon", type=int, default=None)
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
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout is gone: point it at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
