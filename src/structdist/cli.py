"""Command-line front end.

Subcommands: estimate, simulate, mse, bounds, limit, ingest,
reproduce-figures. CSV is the primary output (plot-ready step data); JSON
mirrors it for programmatic use. Every run echoes its fully resolved
configuration: embedded in the document for --format json (one line of
compact JSON), as an indented sidecar (<out>.json, or stderr when writing
CSV to stdout) otherwise.

Exit codes: 0 success, 2 configuration error (sizes too large to allocate
included), 3 numeric-validation failure, 4 IO failure. Failures print a
machine-readable JSON object on stderr. All JSON is strict: a non-finite
float is written as the string "inf" or "-inf".
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .asymptotics import (
    BoundParams,
    esseen_bias_bound,
    mse_bound,
    optimal_T,
    optimal_m,
    poisson_mixture_cdf,
)
from .errors import NumericError, StructDistError, ValidationError
from .estimators import check_regime, grouped_estimator
from .generators import by_name, cells_from_generator, limit_sdf
from .ingest import estimate_from_corpus, tokenize
from .sampling import STREAM_VERSION, CountsVector, RngStream, draw_multinomial, draw_poissonized
from .study import StudyConfig, run_mse_study

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stderr (exit code 2)."""

    def error(self, message):
        _fail(2, "ConfigError", message)


def _fail(code: int, kind: str, message: str):
    json.dump({"error": {"type": kind, "message": message, "exit_code": code}}, sys.stderr)
    sys.stderr.write("\n")
    raise SystemExit(code)


def _parse_list(text: str, kind: type = float) -> tuple:
    """Comma-separated values of `kind` (float or int); empty items are skipped
    and an empty list or a NaN is a ValidationError."""
    noun = "reals" if kind is float else "integers"
    try:
        vals = tuple(map(kind, filter(str.strip, text.split(","))))
    except ValueError as e:
        raise ValidationError(f"expected comma-separated {noun}, got {text!r}") from e
    if not vals:
        raise ValidationError(f"empty list of {noun}")
    if kind is float and any(map(math.isnan, vals)):
        raise ValidationError(f"NaN is not a valid x value in {text!r}")
    return vals


def _finite(v):
    """v with every non-finite float replaced by its str: "inf", "-inf" or "nan"."""
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _dumps(obj, **kw) -> str:
    """json.dumps writing non-finite floats as strings (strict JSON); only a
    document the encoder rejects for them is walked in Python."""
    try:
        return json.dumps(obj, allow_nan=False, **kw)
    except ValueError:
        return json.dumps(_finite(obj), allow_nan=False, **kw)


def _csv(columns: Sequence[str], rows) -> str:
    """The CSV text of a table: a header line, then one line per row, each
    value written by str (a float as its shortest round-trip repr)."""
    return "\n".join([",".join(columns), *(",".join(map(str, r)) for r in rows)]) + "\n"


def _emit(args, meta: dict, columns: Sequence[str] = (), rows=None):
    """Write a command's output, its metadata opened with schema and command.
    rows is a list of row tuples or lists.
    json: one document with the metadata and rows embedded, written
    compactly so the C encoder runs. csv: rows to --out or stdout, metadata
    as an indented sidecar (<out>.json, or stderr for stdout). With no rows
    (the reproduce-figures summary) the metadata alone goes to stdout."""
    meta = {"schema": SCHEMA_VERSION, "command": args.command, **meta}
    if rows is None:
        sys.stdout.write(_dumps(meta) + "\n")
        return
    if args.format == "json":
        # rows as given: json writes a tuple as an array
        text, sidecar = _dumps({**meta, "columns": list(columns), "rows": rows}) + "\n", ""
    else:
        text, sidecar = _csv(columns, rows), _dumps(meta, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        sys.stderr.write(sidecar)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        if sidecar:
            Path(args.out + ".json").write_text(sidecar, encoding="utf-8")


def _stream_meta() -> dict:
    """What a seeded study output depends on besides its config: the stream
    contract version and the numpy/scipy versions that drew it. scipy's is
    read from its installed metadata, which does not import it; the
    metadata reader is itself imported here, by the commands that record it."""
    import importlib.metadata

    return {"stream_version": STREAM_VERSION, "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def _jump_rows(est: CountsVector) -> list[tuple[float, float]]:
    """(x, F) at every jump of an estimate, preceded by a zero anchor just
    left of the support: x = count * (size / n) and F the exact share of
    counts <= count, the value est(x) returns there."""
    cdf = est.cdf
    locs, shares = cdf.locations, cdf(cdf.locations)
    span = float(locs[-1] - locs[0])
    eps = max(1e-6, 0.02 * span) if span > 0 else max(1e-6, 0.02 * abs(float(locs[0])))
    return [(float(locs[0]) - eps, 0.0), *zip(locs.tolist(), shares.tolist())]


# ---------- subcommand implementations ----------

def _cmd_estimate(args) -> None:
    gen = by_name(args.generator)
    cells = cells_from_generator(gen, args.M)
    m = args.m if args.m is not None else args.M
    rng = RngStream(args.seed).generator()
    vec = draw_poissonized(cells, args.n, rng) if args.poissonized else draw_multinomial(cells, args.n, rng)
    if args.ordered:
        vec = dataclasses.replace(vec, counts=vec.counts[np.argsort(cells.p, kind="stable")])
    est = grouped_estimator(vec, m)
    meta = {
        "kind": ["natural" if m == args.M else "grouped", est.kind],
        "generator": args.generator,
        "M": args.M,
        "n": args.n,
        "m": m,
        "k": args.M // m,
        "ordered": args.ordered,
        "seed": args.seed,
        "lambda_hat": args.n / args.M,
        "regime": check_regime(args.M, args.n, m),
        **_stream_meta(),
    }
    _emit(args, meta, ("x", "F"), _jump_rows(est))


def _cmd_simulate(args) -> None:
    m = args.m if args.m is not None else args.M
    config = StudyConfig(
        generator=args.generator,
        M=args.M,
        n=args.n,
        m_values=(m,),
        x_grid=_parse_list(args.x_grid),
        reps=args.reps,
        seed=args.seed,
        poissonized=args.poissonized,
    )
    report = run_mse_study(config)
    est = report.estimates[0]
    rows = [(r, x, float(est[j, r])) for r in range(config.reps) for j, x in enumerate(config.x_grid)]
    meta = {
        "generator": args.generator,
        "M": args.M,
        "n": args.n,
        "m": m,
        "reps": args.reps,
        "seed": args.seed,
        "poissonized": args.poissonized,
        "x_grid": list(config.x_grid),
        "regime": check_regime(args.M, args.n, m),
        "timings": report.timings,
        **_stream_meta(),
    }
    _emit(args, meta, ("rep", "x", "estimate"), rows)


def _cmd_mse(args) -> None:
    try:
        raw = Path(args.config).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"config {args.config}: invalid UTF-8 at byte offset {e.start}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    if cfg.pop("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(f"unsupported config schema (expected {SCHEMA_VERSION})")
    if isinstance(cfg.get("x_grid"), list):  # an echoed config writes infinite x as "inf"/"-inf"
        cfg["x_grid"] = [float(x) if x in ("inf", "-inf") else x for x in cfg["x_grid"]]
    try:
        config = StudyConfig(**cfg)
    except TypeError as e:
        raise ValidationError(f"bad config fields: {e}") from e
    report = run_mse_study(config)
    fx = dict(zip(config.x_grid, report.f_values))
    rows = [
        (c.m, c.x, fx[c.x], c.mean_hat, c.bias_hat, c.var_hat, c.mse_hat, c.se_mean, c.se_var)
        for c in report.cells
    ]
    meta = {
        "config": {**cfg, "schema": SCHEMA_VERSION},
        "regimes": {str(m): check_regime(config.M, config.n, m) for m in config.m_values},
        "wall_time": report.wall_time,
        "timings": report.timings,
        **_stream_meta(),
    }
    _emit(args, meta, ("m", "x", "F", "mean", "bias", "var", "mse", "se_mean", "se_var"), rows)


def _cmd_bounds(args) -> None:
    params = BoundParams(lambda_=args.lam, tau=args.tau, c=args.c)
    ref = optimal_m(args.n, params)
    ms = _parse_list(args.m_values, int)
    T = optimal_T(ms, args.n, params)
    bias = esseen_bias_bound(ms, args.n, T, params)
    mse = mse_bound(ms, args.n, params)
    rows = list(zip(ms, repeat(args.n), T.tolist(), bias.tolist(), mse.tolist(), repeat(ref.m_n)))
    meta = {
        "n": args.n,
        "tau": args.tau,
        "c": args.c,
        "lambda": args.lam,
        "optimal_m": ref.m_n,
        "optimal_m_bound_value": ref.bound_value,
        "note": "leading-order bounds; values >= 1 are vacuous",
    }
    _emit(args, meta, ("m", "n", "Tn", "bias_bound", "mse_bound", "m_n"), rows)


def _cmd_limit(args) -> None:
    gen = by_name(args.generator)
    xg = _parse_list(args.x_grid)
    rows = list(zip(xg, poisson_mixture_cdf(np.asarray(xg), gen, args.lam).tolist()))
    meta = {
        "generator": args.generator,
        "lambda": args.lam,
        "x_grid": list(xg),
        "method": "exact_sum" if gen.pieces else "quadrature",
    }
    _emit(args, meta, ("x", "mixture_cdf"), rows)


def _cmd_ingest(args) -> None:
    with open(args.text, "rb") as text:
        corpus = tokenize(text)
    est, diagnostics = estimate_from_corpus(corpus, args.m)
    _emit(args, {"text": args.text, **diagnostics}, ("x", "F"), _jump_rows(est))


FIGURE_SPECS = (("natural.csv", 1000), ("grouped_m40.csv", 40), ("grouped_m10.csv", 10))


def reproduce_figures(out_dir: str, seed: int) -> list[str]:
    """One seeded sample at M=1000, n=3000 from the built-in example model;
    emit the natural, m=40, and m=10 estimators, each as CSV
    (x, estimate, limit) with the limiting CDF overlay evaluated at every
    jump and at the upper support end. A directory or file that cannot be
    written raises OSError."""
    gen = by_name("example")
    M, n = 1000, 3000
    cells = cells_from_generator(gen, M)
    F = limit_sdf(gen)
    vec = draw_multinomial(cells, n, RngStream(seed).generator())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, m in FIGURE_SPECS:
        est = grouped_estimator(vec, m)
        xs = np.union1d(est.cdf.locations, [gen.tau])
        span = max(xs[-1] - xs[0], 1.0)
        xs = np.concatenate(([xs[0] - max(1e-6, 0.02 * span)], xs))  # an anchor below every jump
        path = out / fname
        path.write_text(_csv(("x", "estimate", "limit"), zip(xs.tolist(), est(xs).tolist(), F(xs).tolist())),
                        encoding="utf-8")
        written.append(str(path))
    return written


def _cmd_reproduce_figures(args) -> None:
    _emit(args, {"seed": args.seed, "files": reproduce_figures(args.out_dir, args.seed), **_stream_meta()})


# ---------- parser wiring ----------

def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")


def _add_seed(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed in [0, 2**64 - 1] (default 0)")


def _add_draw(p: argparse.ArgumentParser):
    """The flags of one seeded draw, shared by estimate and simulate."""
    p.add_argument("--generator", default="example", help='"example", "uniform", or "table:<path>"')
    p.add_argument("--M", type=int, required=True, help="number of cells")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=int, default=None, help="group count dividing M (default M: natural estimator)")
    p.add_argument("--poissonized", action="store_true", help="Poisson cell counts instead of multinomial")
    _add_seed(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structdist", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate", help="draw one sample and emit its step-CDF estimate (CSV x,F)")
    _add_draw(p)
    p.add_argument("--ordered", action="store_true", help="group after sorting cells by probability")
    _add_output(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="replicated draws; long-format CSV (rep,x,estimate)")
    _add_draw(p)
    p.add_argument("--reps", type=int, default=100, help="number of replications (default 100)")
    p.add_argument("--x-grid", default="0.25,0.5,0.75,1.0,1.25,1.5,1.75", help="comma-separated x values")
    _add_output(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("mse", help="bias/variance/MSE study from a JSON config (its seed included)")
    p.add_argument("--config", required=True, help="JSON file with StudyConfig fields (snake_case)")
    _add_output(p)
    p.set_defaults(fn=_cmd_mse)

    p = sub.add_parser("bounds", help="CSV table (m,n,Tn,bias_bound,mse_bound,m_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-values", required=True, help="comma-separated group counts")
    p.add_argument("--tau", type=float, default=2.0, help="density bound (default: example model, 2)")
    p.add_argument("--c", type=float, default=1.0 / 3.0, help="step-density L2 constant >= 0 (default: example model, 1/3)")
    p.add_argument("--lambda", dest="lam", type=float, default=3.0,
                   help="n/M limit (default 3); validated and echoed, but no bound reads it")
    _add_output(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("limit", help="Poisson-mixture limit CDF of the natural estimator (CSV x,mixture_cdf)")
    p.add_argument("--generator", default="example")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x-grid", required=True, help="comma-separated x values")
    _add_output(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("ingest", help="estimate from a text corpus (frequency-ordered grouping)")
    p.add_argument("--text", required=True, help="path to a UTF-8 text file")
    p.add_argument("--m", type=int, required=True, help="number of groups")
    _add_output(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("reproduce-figures", help="emit the three step-plot CSVs (natural, m=40, m=10)")
    p.add_argument("--out-dir", default="figures", help="output directory (default ./figures)")
    _add_seed(p)
    p.set_defaults(fn=_cmd_reproduce_figures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except NumericError as e:
        _fail(3, "NumericError", str(e))
    except StructDistError as e:  # a ValidationError among them
        _fail(2, type(e).__name__, str(e))
    except OSError as e:
        _fail(4, "IOError", str(e))
    except MemoryError as e:
        _fail(2, "ValidationError", f"the sizes asked for do not fit in memory: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
