"""Command-line front end.

Subcommands: estimate, simulate, mse, bounds, limit, ingest,
reproduce-figures. CSV is the primary output (plot-ready step data); JSON
mirrors it for programmatic use. Every run echoes its fully resolved
configuration: embedded in the document for --format json (one line of
compact JSON), as an indented sidecar (<out>.json, or stderr when writing
CSV to stdout) otherwise.

Exit codes: 0 success, 2 configuration error, 3 numeric-validation failure,
4 IO failure. Failures print a machine-readable JSON object on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from .asymptotics import (
    BoundParams,
    esseen_bias_bound,
    mse_bound,
    optimal_T,
    optimal_m,
    poisson_mixture_cdf,
)
from .errors import NumericError, StructDistError, ValidationError
from .estimators import EstimatorOutput, check_regime, grouped_estimator
from .generators import by_name, cells_from_generator, limit_sdf
from .ingest import estimate_from_corpus, tokenize
from .sampling import STREAM_VERSION, RngStream, draw_multinomial, draw_poissonized
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


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as e:
        raise ValidationError(f"expected comma-separated reals, got {text!r}") from e
    if not vals:
        raise ValidationError("empty list of reals")
    if any(v != v for v in vals):
        raise ValidationError(f"NaN is not a valid x value in {text!r}")
    return vals


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError as e:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from e
    if not vals:
        raise ValidationError("empty list of integers")
    return vals


def _emit(columns: Sequence[str], rows, meta: dict, out: Optional[str], fmt: str):
    """Write the table. csv: rows to --out or stdout, metadata as a JSON
    sidecar (<out>.json, or stderr for stdout). json: one document with the
    metadata and rows embedded, written compactly so the C encoder runs."""
    meta = {"schema": SCHEMA_VERSION, **meta}
    if fmt == "json":
        doc = json.dumps({**meta, "columns": list(columns), "rows": [list(r) for r in rows]})
        if out is None:
            sys.stdout.write(doc + "\n")
        else:
            Path(out).write_text(doc + "\n", encoding="utf-8")
        return
    lines = [",".join(columns)]
    lines += [",".join(_cell_str(v) for v in r) for r in rows]
    text = "\n".join(lines) + "\n"
    sidecar = json.dumps(meta, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        sys.stderr.write(sidecar)
    else:
        Path(out).write_text(text, encoding="utf-8")
        Path(out + ".json").write_text(sidecar, encoding="utf-8")


def _stream_meta() -> dict:
    """What a seeded study output depends on besides its config: the stream
    contract version and the numpy/scipy versions that drew it."""
    return {"stream_version": STREAM_VERSION, "numpy": np.__version__, "scipy": scipy.__version__}


def _jump_rows(est: EstimatorOutput) -> list[tuple[float, float]]:
    """(x, F) at every jump of an estimate, preceded by a zero anchor just
    left of the support: x = count * (size / n) and F the exact share of
    counts <= count, the value est(x) returns there."""
    values, multiplicity = np.unique(est.counts, return_counts=True)
    locs = values * (est.size / est.n)
    span = float(locs[-1] - locs[0])
    eps = max(1e-6, 0.02 * span) if span > 0 else max(1e-6, 0.02 * abs(float(locs[0])))
    return [(float(locs[0]) - eps, 0.0), *zip(locs.tolist(), (np.cumsum(multiplicity) / est.size).tolist())]


def _cell_str(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
        "command": "estimate",
        "kind": list(est.kind),
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
    _emit(("x", "F"), _jump_rows(est), meta, args.out, args.format)


def _cmd_simulate(args) -> None:
    m = args.m if args.m is not None else args.M
    config = StudyConfig(
        generator=args.generator,
        M=args.M,
        n=args.n,
        m_values=(m,),
        x_grid=_parse_floats(args.x_grid),
        reps=args.reps,
        seed=args.seed,
        poissonized=args.poissonized,
    )
    report = run_mse_study(config)
    est = report.estimates[0]
    rows = [(r, x, float(est[j, r])) for r in range(config.reps) for j, x in enumerate(config.x_grid)]
    meta = {
        "command": "simulate",
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
    _emit(("rep", "x", "estimate"), rows, meta, args.out, args.format)


def _cmd_mse(args) -> None:
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        _fail(4, "IOError", f"cannot read config {args.config}: {e}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    if cfg.pop("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(f"unsupported config schema (expected {SCHEMA_VERSION})")
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
        "command": "mse",
        "config": {**cfg, "schema": SCHEMA_VERSION},
        "regimes": {str(m): check_regime(config.M, config.n, m) for m in config.m_values},
        "wall_time": report.wall_time,
        "timings": report.timings,
        **_stream_meta(),
    }
    _emit(("m", "x", "F", "mean", "bias", "var", "mse", "se_mean", "se_var"), rows, meta, args.out, args.format)


def _cmd_bounds(args) -> None:
    params = BoundParams(lambda_=args.lam, tau=args.tau, c=args.c, alpha=args.alpha)
    ref = optimal_m(args.n, params)
    ms = _parse_ints(args.m_values)
    T = optimal_T(ms, args.n, params)
    bias = esseen_bias_bound(ms, args.n, T, params)
    mse = mse_bound(ms, args.n, params)
    rows = [(m, args.n, t, b, e, ref.m_n) for m, t, b, e in zip(ms, T.tolist(), bias.tolist(), mse.tolist())]
    meta = {
        "command": "bounds",
        "n": args.n,
        "tau": args.tau,
        "c": args.c,
        "alpha": args.alpha,
        "lambda": args.lam,
        "optimal_m": ref.m_n,
        "optimal_m_bound_value": ref.bound_value,
        "note": "leading-order bounds; values >= 1 are vacuous",
    }
    _emit(("m", "n", "Tn", "bias_bound", "mse_bound", "m_n"), rows, meta, args.out, args.format)


def _cmd_limit(args) -> None:
    gen = by_name(args.generator)
    xg = _parse_floats(args.x_grid)
    rows = list(zip(xg, poisson_mixture_cdf(np.asarray(xg), gen, args.lam).tolist()))
    meta = {
        "command": "limit",
        "generator": args.generator,
        "lambda": args.lam,
        "x_grid": list(xg),
        "method": "exact_sum" if gen.pieces else "quadrature",
    }
    _emit(("x", "mixture_cdf"), rows, meta, args.out, args.format)


def _cmd_ingest(args) -> None:
    try:
        data = Path(args.text).read_bytes()
    except OSError as e:
        _fail(4, "IOError", f"cannot read {args.text}: {e}")
    est, diagnostics = estimate_from_corpus(tokenize(data), args.m)
    meta = {"command": "ingest", "text": args.text, **diagnostics}
    _emit(("x", "F"), _jump_rows(est), meta, args.out, args.format)


FIGURE_SPECS = (("natural.csv", 1000), ("grouped_m40.csv", 40), ("grouped_m10.csv", 10))


def reproduce_figures(out_dir: str, seed: int) -> list[str]:
    """One seeded sample at M=1000, n=3000 from the built-in example model;
    emit the natural, m=40, and m=10 estimators, each as CSV
    (x, estimate, limit) with the limiting CDF overlay evaluated at every
    jump and at the upper support end."""
    gen = by_name("example")
    M, n = 1000, 3000
    cells = cells_from_generator(gen, M)
    F = limit_sdf(gen)
    vec = draw_multinomial(cells, n, RngStream(seed).generator())
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail(4, "IOError", f"cannot create {out_dir}: {e}")
    written = []
    for fname, m in FIGURE_SPECS:
        est = grouped_estimator(vec, m)
        xs = np.union1d(est.cdf.locations, [gen.tau])
        span = max(xs[-1] - xs[0], 1.0)
        anchor = xs[0] - max(1e-6, 0.02 * span)
        rows = [(float(anchor), 0.0, float(F(anchor)))]
        rows += [(float(x), float(e), float(F(x))) for x, e in zip(xs, est(xs))]
        path = out / fname
        try:
            path.write_text(
                "x,estimate,limit\n" + "\n".join(",".join(repr(v) for v in r) for r in rows) + "\n",
                encoding="utf-8",
            )
        except OSError as e:
            _fail(4, "IOError", f"cannot write {path}: {e}")
        written.append(str(path))
    return written


def _cmd_reproduce_figures(args) -> None:
    written = reproduce_figures(args.out_dir, args.seed)
    json.dump(
        {"schema": SCHEMA_VERSION, "command": "reproduce-figures", "seed": args.seed, "files": written, **_stream_meta()},
        sys.stdout,
    )
    sys.stdout.write("\n")


# ---------- parser wiring ----------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structdist", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate", help="draw one sample and emit its step-CDF estimate (CSV x,F)")
    p.add_argument("--generator", default="example", help='"example", "uniform", or "table:<path>"')
    p.add_argument("--M", type=int, required=True, help="number of cells")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=int, default=None, help="group count dividing M (default M: natural estimator)")
    p.add_argument("--ordered", action="store_true", help="group after sorting cells by probability")
    p.add_argument("--poissonized", action="store_true", help="Poisson cell counts instead of multinomial")
    _add_common(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="replicated draws; long-format CSV (rep,x,estimate)")
    p.add_argument("--generator", default="example")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--reps", type=int, default=100, help="number of replications (default 100)")
    p.add_argument("--poissonized", action="store_true")
    p.add_argument("--x-grid", default="0.25,0.5,0.75,1.0,1.25,1.5,1.75", help="comma-separated x values")
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("mse", help="bias/variance/MSE study from a JSON config")
    p.add_argument("--config", required=True, help="JSON file with StudyConfig fields (snake_case)")
    _add_common(p)
    p.set_defaults(fn=_cmd_mse)

    p = sub.add_parser("bounds", help="CSV table (m,n,Tn,bias_bound,mse_bound,m_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-values", required=True, help="comma-separated group counts")
    p.add_argument("--tau", type=float, default=2.0, help="density bound (default: example model, 2)")
    p.add_argument("--c", type=float, default=1.0 / 3.0, help="step-density L2 constant (default: example model, 1/3)")
    p.add_argument("--alpha", type=float, default=0.1, help="rate exponent in (0, 1/6) (default 0.1)")
    p.add_argument("--lambda", dest="lam", type=float, default=3.0, help="n/M limit (default 3)")
    _add_common(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("limit", help="Poisson-mixture limit CDF of the natural estimator (CSV x,mixture_cdf)")
    p.add_argument("--generator", default="example")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x-grid", required=True, help="comma-separated x values")
    _add_common(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("ingest", help="estimate from a text corpus (frequency-ordered grouping)")
    p.add_argument("--text", required=True, help="path to a UTF-8 text file")
    p.add_argument("--m", type=int, required=True, help="number of groups")
    _add_common(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("reproduce-figures", help="emit the three step-plot CSVs (natural, m=40, m=10)")
    p.add_argument("--out-dir", default="figures", help="output directory (default ./figures)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_reproduce_figures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except SystemExit:
        raise
    except ValidationError as e:
        _fail(2, "ValidationError", str(e))
    except NumericError as e:
        _fail(3, "NumericError", str(e))
    except StructDistError as e:
        _fail(2, type(e).__name__, str(e))
    except OSError as e:
        _fail(4, "IOError", str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
