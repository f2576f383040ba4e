"""The four benchmark workloads: what an op is, how it is set up, run,
checked against its per-op invariants and, at the end, against exact oracles.

An op is one replication (sweep, audit, coupled) or one pass over the fixed
numerics command list. A replication has no public entry point of its own,
so the study workloads call the study layer in batches of `chunk`
replications; one batch's time divided by its replication count is one
latency sample. Batches use distinct seeds derived from the workload seed,
and their sizes give calls of 0.2-0.5 s, so that a 20-second run yields
25-100 samples while a call's fixed cost stays a modest share of an op.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import structdist as sd
import structdist.cli  # noqa: F401  (the numerics workload calls sd.cli.main)

import inputs
import oracles

X7 = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
_U64 = 2**64 - 1


def op_seed(seed: int, i: int) -> int:
    """The study seed of batch i, a 64-bit mix of the workload seed and i."""
    return int(np.random.SeedSequence([seed & _U64, i]).generate_state(1, np.uint64)[0])


class _Pool:
    """Per-batch MseCell summaries, pooled into whole-run moments."""

    def __init__(self):
        self.keys = None
        self.mean, self.var, self.mse, self.reps = [], [], [], []
        self.worst_residual = 0.0

    def add(self, cells, reps: int) -> None:
        if self.keys is None:
            self.keys = [(c.m, c.x) for c in cells]
        self.mean.append([c.mean_hat for c in cells])
        self.var.append([c.var_hat for c in cells])
        self.mse.append([c.mse_hat for c in cells])
        self.reps.append(reps)
        self.worst_residual = max(
            self.worst_residual, max(sd.decomposition_residual(c, reps) for c in cells)
        )

    def pooled(self):
        r = np.asarray(self.reps, dtype=float)[:, None]
        mean, var, mse = (np.asarray(a) for a in (self.mean, self.var, self.mse))
        R = float(r.sum())
        grand = (r * mean).sum(axis=0) / R
        ss = ((r - 1.0) * var + r * (mean - grand) ** 2).sum(axis=0)
        return int(R), grand, ss / (R - 1.0), (r * mse).sum(axis=0) / R


def _report_invariant(cells, x_grid) -> list[str]:
    """Estimates in [0,1], nonnegative spreads, means monotone in x per m."""
    bad = []
    by_m: dict = {}
    for c in cells:
        if not oracles.in_unit(c.mean_hat) or c.var_hat < 0.0 or c.mse_hat < 0.0:
            bad.append(f"m={c.m} x={c.x}: mean {c.mean_hat} var {c.var_hat} mse {c.mse_hat}")
        by_m.setdefault(c.m, []).append(c.mean_hat)
    for m, means in by_m.items():
        if len(means) != len(x_grid) or any(b < a for a, b in zip(means, means[1:])):
            bad.append(f"m={m}: mean CDF not monotone on the x-grid")
    return bad


def _study_setup(M: int):
    """What a study call does before its first replication: resolve the
    generator, build the cells and evaluate the limit on the x-grid."""
    gen = sd.by_name("example")
    sd.cells_from_generator(gen, M)
    F = sd.limit_sdf(gen)
    for x in X7:
        F(x)
    return gen


class Workload:
    name = ""
    chunk = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def ops_per_call(self) -> int:
        return self.chunk

    def result(self, out):
        """Turn an op's return value into checkable output (untimed)."""
        return out

    def key(self, res):
        """What must be bit-identical when an op is replayed."""
        return res

    def info(self) -> dict:
        return {}


class Sweep(Workload):
    name = "sweep"
    op_definition = "one replication of the criterion-9 m-sweep: one multinomial draw, 13 groupings and estimates"
    chunk = 8
    M, n = 333333, 999999
    m_values = (3, 7, 13, 21, 33, 39, 63, 143, 273, 693, 1287, 3003, 9009)

    def setup(self):
        self.gen = _study_setup(self.M)
        self.pool = _Pool()

    def op(self, i):
        cfg = sd.StudyConfig("example", self.M, self.n, self.m_values, X7, reps=self.chunk, seed=op_seed(self.seed, i))
        return sd.sweep_m(cfg)

    def invariant(self, res):
        return _report_invariant(res.report.cells, X7)

    def record(self, res):
        self.pool.add(res.report.cells, self.chunk)

    def key(self, res):
        return res.report.cells, res.mse_values, res.argmin_m

    def checks(self):
        R, mean, _, _ = self.pool.pooled()
        worst, worst_z, lattice = 0.0, 0.0, []
        for (m, x), mu in zip(self.pool.keys, mean):
            options = {
                k: oracles.mean_deviation(mu, oracles.group_indicator_probs(x, self.n, m, k, poissonized=False), m, R)
                for k in oracles.lattice_points(x, self.n, m)
            }
            if len(options) > 1:
                lattice.append({"m": m, "x": x, "exact_K": options[max(options)], "float_K": options[min(options)]})
            ratio, z = min(options.values())
            worst, worst_z = max(worst, ratio), max(worst_z, z)
        return {
            "sweep_mean_binomial": (worst <= 1.0, {"worst_ratio": worst, "worst_z": worst_z, "reps": R, "lattice_cells": lattice}),
            "sweep_mse_decomposition": (self.pool.worst_residual <= oracles.RESIDUAL_GATE, {"worst": self.pool.worst_residual, "gate": oracles.RESIDUAL_GATE}),
        }

    def info(self):
        _, _, _, mse = self.pool.pooled()
        per_m = {}
        for (m, _), v in zip(self.pool.keys, mse):
            per_m.setdefault(m, []).append(v)
        argmin = min(per_m, key=lambda m: (float(np.mean(per_m[m])), m))
        m_n = sd.optimal_m(self.n, sd.BoundParams.for_generator(self.gen, self.n / self.M)).m_n
        return {"criterion_9b": {"empirical_argmin_m": argmin, "optimal_m_n": m_n, "note": "info only, not a gate"}}


class Audit(Workload):
    name = "audit"
    op_definition = "one replication of the criterion-4 Poissonized variance audit (M=1000, n=3000, m in 10/40/100)"
    chunk = 400
    M, n = 1000, 3000
    m_values = (10, 40, 100)

    def setup(self):
        _study_setup(self.M)
        self.pool = _Pool()

    def op(self, i):
        cfg = sd.StudyConfig(
            "example", self.M, self.n, self.m_values, X7, reps=self.chunk, seed=op_seed(self.seed, i), poissonized=True
        )
        return sd.variance_audit(cfg)

    def invariant(self, res):
        return _report_invariant(res.report.cells, X7)

    def record(self, res):
        self.pool.add(res.report.cells, self.chunk)

    def key(self, res):
        return res.rows, res.report.cells

    def checks(self):
        R, mean, var, _ = self.pool.pooled()
        worst_mean = worst_var = 0.0
        lattice = []
        for (m, x), mu, v in zip(self.pool.keys, mean, var):
            options = {}
            for k in oracles.lattice_points(x, self.n, m):
                P = oracles.group_indicator_probs(x, self.n, m, k, poissonized=True)
                _, e_var, e_mu4 = oracles.grouped_moments(P, m)
                se = oracles.var_se(e_var, e_mu4, R)
                zv = abs(v - e_var) / se if se > 0 else (0.0 if v == e_var else math.inf)
                options[k] = (oracles.mean_deviation(mu, P, m, R)[0], zv)
            if len(options) > 1:
                lattice.append({"m": m, "x": x, "exact_K": options[max(options)], "float_K": options[min(options)]})
            ratio, zv = min(options.values(), key=lambda o: max(o[0], o[1] / oracles.Z_GATE))
            worst_mean, worst_var = max(worst_mean, ratio), max(worst_var, zv)
        return {
            "audit_mean_poisson": (worst_mean <= 1.0, {"worst_ratio": worst_mean, "reps": R}),
            "audit_variance_poisson": (worst_var <= oracles.Z_GATE, {"worst_z": worst_var, "gate": oracles.Z_GATE, "lattice_cells": lattice}),
            "audit_mse_decomposition": (self.pool.worst_residual <= oracles.RESIDUAL_GATE, {"worst": self.pool.worst_residual, "gate": oracles.RESIDUAL_GATE}),
        }


class Coupled(Workload):
    name = "coupled"
    op_definition = "one replication of one rung: a coupled draw on the poissonization_gap ladder or a draw on the criterion-2 consistency ladder"
    chunk = 16
    gap_ladder = (3000, 12000, 48000)
    trend_ladder = ((250, 750, 10), (1000, 3000, 25), (4000, 12000, 50))

    def setup(self):
        gen = sd.by_name("example")
        for M in sorted({n // 3 for n in self.gap_ladder} | {M for M, _, _ in self.trend_ladder}):
            sd.cells_from_generator(gen, M)
        sd.limit_sdf(gen)
        self.violations = 0
        self.trend_sum = np.zeros(len(self.trend_ladder))
        self.calls = 0

    def ops_per_call(self):
        return self.chunk * (len(self.gap_ladder) + len(self.trend_ladder))

    def op(self, i):
        s = op_seed(self.seed, i)
        cfg = sd.StudyConfig("example", 1000, 3000, (40,), X7, reps=self.chunk, seed=s)
        gap = sd.poissonization_gap(cfg, n_ladder=self.gap_ladder)
        trend = sd.consistency_trend(self.trend_ladder, "example", reps=self.chunk, seed=s)
        return gap, trend

    def invariant(self, res):
        gap, trend = res
        bad = []
        for r in gap.rungs:
            if not all(oracles.in_unit(v) for v in (*r.mean_sq_gap, r.mean_sup_gap_natural)):
                bad.append(f"gap rung n={r.n} outside [0,1]")
        if len(gap.rungs) != len(self.gap_ladder):
            bad.append("missing gap rungs")
        if len(trend) != len(self.trend_ladder) or not all(oracles.in_unit(v) for v in trend):
            bad.append(f"trend {trend} outside [0,1]")
        return bad

    def record(self, res):
        gap, trend = res
        self.violations += sum(r.bound_violations for r in gap.rungs)
        self.trend_sum += trend
        self.calls += 1

    def key(self, res):
        gap, trend = res
        return gap.rungs, gap.decay_exponent, trend

    def checks(self):
        return {"coupling_bound": (self.violations == 0, {"violations": self.violations, "coupled_draws": self.calls * self.chunk * len(self.gap_ladder)})}

    def info(self):
        return {"mean_sup_distance_by_rung": list(self.trend_sum / max(self.calls, 1))}


class Numerics(Workload):
    name = "numerics"
    op_definition = "one pass over the CLI commands limit (example at 4 lambdas, table), bounds (m=1..10^4) and ingest"
    chunk = 1
    bounds_n = 999999
    bounds_m = 10_000
    ingest_m = 40

    def setup(self):
        self.files = inputs.write_all(self.workdir, self.seed)
        table = sd.by_name(f"table:{self.files['table']}")
        F = sd.limit_sdf(table)
        self.table_limit = [F(x) for x in self.files["limit_grid"]]
        sd.limit_sdf(sd.by_name("example"))
        self.commands = {}
        grid = ",".join(repr(x) for x in self.files["example_grid"])
        for lam in inputs.EXAMPLE_LAMBDAS:
            self.commands[f"limit_example_{lam}"] = ["limit", "--generator", "example", "--lambda", repr(lam), "--x-grid", grid]
        self.commands["limit_table"] = [
            "limit", "--generator", f"table:{self.files['table']}", "--lambda", repr(inputs.TABLE_LAMBDA),
            "--x-grid", ",".join(repr(x) for x in self.files["table_grid"]),
        ]
        self.commands["bounds"] = [
            "bounds", "--n", str(self.bounds_n), "--m-values", ",".join(str(m) for m in range(1, self.bounds_m + 1)),
        ]
        self.commands["ingest"] = ["ingest", "--text", str(self.files["corpus"]), "--m", str(self.ingest_m)]
        self.reference = None
        self.differing = 0

    def op(self, i):
        """Each command writes its JSON document to standard output, captured
        in memory so that disk writes do not enter the timing."""
        out = {}
        for name, argv in self.commands.items():
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    sd.cli.main(argv + ["--format", "json"])
            except SystemExit as e:
                raise RuntimeError(f"structdist {argv[0]} exited with code {e.code}") from None
            out[name] = buf.getvalue()
        return out

    def invariant(self, res):
        if self.reference is not None and res == self.reference:
            return []
        bad = []
        docs = {name: json.loads(data) for name, data in res.items()}
        for name, doc in docs.items():
            rows = np.asarray(doc["rows"], dtype=float)
            if name.startswith("limit"):
                F = rows[:, 1]
            elif name == "ingest":
                F = rows[:, 1]
                if abs(F[-1] - 1.0) > oracles.PROB_TOL:
                    bad.append("ingest CDF does not end at 1")
            else:
                F = None
                if np.any(rows[:, 2:5] <= 0):
                    bad.append("bounds table has non-positive entries")
            if F is not None and (not all(map(oracles.in_unit, F)) or np.any(np.diff(F) < 0)):
                bad.append(f"{name}: CDF outside [0,1] or not monotone")
        return bad

    def record(self, res):
        if self.reference is None:
            self.reference = res
        elif res != self.reference:
            self.differing += 1

    def checks(self):
        docs = {name: json.loads(data) for name, data in self.reference.items()}
        out = {}
        worst = 0.0
        for lam in inputs.EXAMPLE_LAMBDAS:
            for x, F in docs[f"limit_example_{lam}"]["rows"]:
                worst = max(worst, abs(F - oracles.example_mixture_cdf(x, lam)))
        out["limit_example_closed_form"] = (worst <= oracles.CDF_TOL, {"max_abs_err": worst, "gate": oracles.CDF_TOL})

        widths, slopes = oracles.table_slopes(self.files["u"], self.files["G"])
        err = max(
            abs(F - oracles.table_mixture_cdf(x, inputs.TABLE_LAMBDA, widths, slopes))
            for x, F in docs["limit_table"]["rows"]
        )
        out["limit_table_exact"] = (
            err <= oracles.TABLE_GATE,
            {"max_abs_err": err, "gate": oracles.TABLE_GATE, "package_cdf_tol": oracles.CDF_TOL, "knots": inputs.TABLE_KNOTS},
        )
        err = max(
            abs(F - oracles.table_structural_cdf(x, widths, slopes))
            for x, F in zip(self.files["limit_grid"], self.table_limit)
        )
        out["table_structural_limit"] = (err <= oracles.LIMIT_TOL, {"max_abs_err": err, "gate": oracles.LIMIT_TOL})

        rows = np.asarray(docs["bounds"]["rows"], dtype=float)
        expected = oracles.bounds_table(self.bounds_n, np.arange(1, self.bounds_m + 1), tau=2.0, c=1.0 / 3.0)
        rel = float(np.max(np.abs(rows[:, 2:] - expected) / np.maximum(1.0, np.abs(expected))))
        same_m = bool(np.array_equal(rows[:, 0], np.arange(1, self.bounds_m + 1)))
        out["bounds_closed_form"] = (same_m and rel <= 1e-12, {"max_rel_err": rel, "gate": 1e-12})

        doc = docs["ingest"]
        n, M, locs, F = oracles.corpus_cdf(self.files["corpus"].read_text(encoding="utf-8"), self.ingest_m)
        rows = np.asarray(doc["rows"], dtype=float)[1:]  # first row is the plotting anchor
        ok = doc["n"] == n and doc["M"] == M and rows.shape[0] == locs.size
        ok = ok and bool(np.array_equal(rows[:, 0], locs)) and float(np.max(np.abs(rows[:, 1] - F))) <= 1e-12
        out["ingest_recount"] = (ok, {"n": n, "M": M, "jumps": int(locs.size)})
        out["passes_identical"] = (self.differing == 0, {"differing_passes": self.differing})
        return out


WORKLOADS = {w.name: w for w in (Sweep, Audit, Coupled, Numerics)}
