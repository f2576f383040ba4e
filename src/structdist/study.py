"""Monte Carlo experiment engine: bias/variance/MSE tables across
replications, m-sweeps, coupled Poissonization-gap measurement, and
Poisson tail audits.

Replications are independent: replication r always draws from substream r of
the config seed, so any execution order yields the same draws. The studies
handle them in slabs: the draws of up to a few thousand consecutive
replications are written row by row into one int64 count matrix, which is
then grouped, evaluated and reduced with whole-array numpy. Every reduction
keeps a fixed order (a slab's rows are the replications in order, running
sums carry across slabs), so the floating-point results do not depend on
where the slabs break.

Every study runs on one slab kernel that sees integer counts only: a draw
over a grouped model (`group_model`, a `CellModel` of equal blocks), row-wise
block sums for each group count m (the one block sum in `model`, which
`group_model` and `grouped_estimator` use too), then the estimate at x as
the share of group counts <= K = lattice_floor(x n / m), computed by the
`estimators` helpers that `EstimatorOutput` evaluates with
(`poisson_mixture_cdf` uses the same index). Block sums of multinomial (independent Poisson) counts are
multinomial (Poisson), so `run_mse_study` draws at L = lcm(m_values) blocks
and `consistency_trend` at its m groups with every law kept;
`poissonization_gap` draws coupled cells, which its natural gap needs. No
replication builds an `EstimatorOutput` or a `StepCdf`. The seeded stream is
the one `sampling.STREAM_VERSION` names.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .asymptotics import bernstein_poisson_tail
from .errors import ValidationError
from .estimators import _estimate, _lattice_index
from .generators import SmoothGenerator, by_name, cells_from_generator, limit_sdf
from .model import CellModel, _block_sums, check_group_count, group_model, nearest_divisor
from .sampling import RngStream, draw_coupled, draw_multinomial, draw_poissonized


# ---------- configuration and report types ----------

def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class StudyConfig:
    """One Monte Carlo experiment: fixed model, several group counts, an
    x-grid, and a replication budget under one seed."""

    generator: str
    M: int
    n: int
    m_values: tuple[int, ...]
    x_grid: tuple[float, ...]
    reps: int
    seed: int
    poissonized: bool = False

    def __post_init__(self):
        # values parsed from JSON arrive unchecked: 3.5, "no" or NaN must not
        # be truncated, read as truthy or run
        if not isinstance(self.generator, str):
            raise ValidationError(f"generator must be a name string, got {self.generator!r}")
        for name in ("M", "n", "reps", "seed"):
            _check_integer(name, getattr(self, name))
        if not isinstance(self.poissonized, bool):
            raise ValidationError(f"poissonized must be true or false, got {self.poissonized!r}")
        m_values, x_grid = tuple(self.m_values), tuple(self.x_grid)
        for m in m_values:
            _check_integer("every m", m)
        for x in x_grid:
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or math.isnan(x):
                raise ValidationError(f"every x must be a real number other than NaN, got {x!r}")
        object.__setattr__(self, "m_values", tuple(int(m) for m in m_values))
        object.__setattr__(self, "x_grid", tuple(float(x) for x in x_grid))
        if self.M < 1:
            raise ValidationError(f"M must be a positive integer, got {self.M}")
        if self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n}")
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if not self.m_values:
            raise ValidationError("m_values must be nonempty")
        for m in self.m_values:
            check_group_count(self.M, m)
        if not self.x_grid:
            raise ValidationError("x_grid must be nonempty")
        if any(b < a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ValidationError("x_grid must be sorted ascending")


@dataclass(frozen=True)
class MseCell:
    """Replication summary for one (m, x): mean/bias/variance/MSE of the
    estimates plus their Monte Carlo standard errors (se_mean for the mean
    and bias, se_var for the variance, via the fourth-moment formula)."""

    m: int
    x: float
    mean_hat: float
    bias_hat: float
    var_hat: float
    mse_hat: float
    se_mean: float
    se_var: float


@dataclass(frozen=True)
class MseReport:
    config: StudyConfig
    f_values: tuple[float, ...]  # target CDF on the x_grid
    cells: tuple[MseCell, ...]
    # per-replication estimates, indexed (m, x, rep) in config order
    estimates: np.ndarray = field(compare=False, repr=False)
    wall_time: float = field(compare=False, default=0.0)
    # what the run cost: seconds per stage (cells_s: generator, cells and
    # limit; draw_s; evaluate_s: grouping and estimates; summarize_s) and
    # the numbers of draws and slabs
    timings: dict = field(compare=False, repr=False, default_factory=dict)

    def cell(self, m: int, x: float) -> MseCell:
        for c in self.cells:
            if c.m == m and c.x == x:
                return c
        raise KeyError((m, x))


def _summarize(config: StudyConfig, fx: tuple[float, ...], estimates: np.ndarray) -> tuple[MseCell, ...]:
    """One MseCell per (m, x) in config order, each moment taken by one
    reduction over the replication axis of the (m, x, reps) estimates."""
    reps = config.reps
    f = np.asarray(fx)
    mean = estimates.mean(axis=-1)
    mse = ((estimates - f[:, None]) ** 2).mean(axis=-1)
    if reps > 1:
        var = estimates.var(axis=-1, ddof=1)
        se_mean = np.sqrt(var / reps)
        m4 = ((estimates - mean[..., None]) ** 4).mean(axis=-1)
        # Var(s^2) = (m4 - sigma^4 (reps-3)/(reps-1)) / reps, plugged in
        se_var = np.sqrt(np.maximum(0.0, (m4 - var * var * (reps - 3) / (reps - 1)) / reps))
    else:
        var = se_mean = se_var = np.zeros_like(mean)
    cols = [a.tolist() for a in (mean, mean - f, var, mse, se_mean, se_var)]
    return tuple(
        MseCell(m, x, *(c[i][j] for c in cols))
        for i, m in enumerate(config.m_values)
        for j, x in enumerate(config.x_grid)
    )


def decomposition_residual(cell: MseCell, reps: int) -> float:
    """|mse - bias^2 - var (reps-1)/reps|: zero up to rounding, since var
    uses the reps-1 denominator while mse averages over reps."""
    return abs(cell.mse_hat - cell.bias_hat**2 - cell.var_hat * (reps - 1) / reps)


# ---------- the slab kernel: integer counts only ----------

# Cap on a slab's rows times its width, the elements of its largest array:
# counts per draw times x values evaluated (the comparisons behind an
# estimate). It bounds a slab's memory for any reps.
_SLAB = 1 << 22


def _slabs(draw, model: CellModel, n: int, seed: int, reps: int, width: int, rung: int = 0):
    """A rung's replications in slabs of at most max(1, _SLAB // width) rows.

    Yields (rows, counts): the slice of replication indices the slab holds
    and, for each CountsVector a draw returns, an int64 matrix with one row
    per replication. Replication r draws from substream rung * reps + r of
    the seed through the public draw, so every draw is checked as a
    CountsVector before it is copied into its row."""
    base = RngStream(seed)
    size = max(1, _SLAB // width)
    for start in range(0, reps, size):
        rows = range(start, min(reps, start + size))
        counts = None
        for i, r in enumerate(rows):
            out = draw(model, n, base.substream(rung * reps + r).generator())
            vecs = out if isinstance(out, tuple) else (out,)
            if counts is None:
                counts = [np.empty((len(rows), model.M), dtype=np.int64) for _ in vecs]
            for mat, vec in zip(counts, vecs):
                mat[i] = vec.counts
        yield slice(rows.start, rows.stop), counts


def _natural_gap(nu: np.ndarray, rho: np.ndarray):
    """M times the sup distance between the natural estimators of nu and rho,
    per row of any leading axes: both step on the integer counts, so it is
    max_k |#{nu_j <= k} - #{rho_j <= k}|. Cells with nu_j = rho_j cancel at
    every k, so only the others enter. Their counts, sorted within each row,
    step the difference by +1 (nu) or -1 (rho), and its value at k is the
    running sum after the last count equal to k. A row's steps sum to 0, so
    one running sum over the rows in order serves them all."""
    width = nu.shape[-1]
    cells = np.flatnonzero(nu != rho)
    row = np.concatenate((cells, cells)) // width
    count = np.concatenate((nu.ravel()[cells], rho.ravel()[cells]))
    order = np.lexsort((count, row))
    row, count = row[order], count[order]
    running = np.abs(np.cumsum(np.where(order < cells.size, 1, -1)))
    last = np.ones(row.size, dtype=bool)
    last[:-1] = (row[1:] != row[:-1]) | (count[1:] != count[:-1])
    gaps = np.zeros(nu.size // width, dtype=np.int64)
    np.maximum.at(gaps, row[last], running[last])
    return gaps.reshape(nu.shape[:-1])


def _sup_to_cdf(counts: np.ndarray, n: int, F) -> float:
    """Exact sup |F_hat - F| of the grouped estimator against a continuous
    CDF F: F_hat steps only at the distinct counts v (at x = v m/n, from the
    share <= v - 1 to the share <= v) and F is monotone in between."""
    values = np.unique(counts)
    f = np.array([float(F(float(v))) for v in values * (counts.size / n)])
    return float(max(np.abs(_estimate(counts, values) - f).max(), np.abs(_estimate(counts, values - 1) - f).max()))


# ---------- core study ----------

def run_mse_study(config: StudyConfig, gen: Optional[SmoothGenerator] = None) -> MseReport:
    """Draw counts once per replication, apply every configured grouping to
    the same draw (paired across m), and tabulate bias/var/MSE against the
    limiting CDF at each x.

    Replication r draws from substream r of the config seed, over the
    L = lcm(m_values) blocks of M/L cells (L divides M because every m does);
    each m groups those block counts further. When L = M this is the
    cell-level draw. The estimate at x is the share of groups with
    count <= lattice_floor(x n / m)."""
    t0 = time.perf_counter()
    if gen is None:
        gen = by_name(config.generator)
    cells = cells_from_generator(gen, config.M)
    F = limit_sdf(gen)
    fx = tuple(float(F(x)) for x in config.x_grid)
    L = math.lcm(*config.m_values)
    blocks = group_model(cells, L)
    per_m = [(m, _lattice_index(config.x_grid, config.n, m)) for m in config.m_values]
    draw = draw_poissonized if config.poissonized else draw_multinomial
    estimates = np.empty((len(per_m), len(config.x_grid), config.reps))
    mark = time.perf_counter()
    timings = {"cells_s": mark - t0, "draw_s": 0.0, "evaluate_s": 0.0, "summarize_s": 0.0,
               "draws": config.reps, "slabs": 0}
    for rows, (counts,) in _slabs(draw, blocks, config.n, config.seed, config.reps, L * len(config.x_grid)):
        drawn = time.perf_counter()
        for i, (m, K) in enumerate(per_m):
            estimates[i, :, rows] = _estimate(_block_sums(counts, m), K).T
        timings["draw_s"] += drawn - mark
        mark = time.perf_counter()
        timings["evaluate_s"] += mark - drawn
        timings["slabs"] += 1
    cells_out = _summarize(config, fx, estimates)
    estimates.flags.writeable = False
    end = time.perf_counter()
    timings["summarize_s"] = end - mark
    return MseReport(config=config, f_values=fx, cells=cells_out, estimates=estimates,
                     wall_time=end - t0, timings=timings)


# ---------- audits and sweeps built on the core study ----------

@dataclass(frozen=True)
class VarianceAuditRow:
    m: int
    x: float
    var_hat: float
    bound: float  # 1/(4m)
    se_var: float
    ok: bool


@dataclass(frozen=True)
class VarianceAudit:
    report: MseReport
    rows: tuple[VarianceAuditRow, ...]
    all_ok: bool


def variance_audit(config: StudyConfig, gen: Optional[SmoothGenerator] = None) -> VarianceAudit:
    """Check empirical Var of the Poissonized grouped estimator against the
    1/(4m) bound, with 4 standard errors of Monte Carlo slack."""
    if not config.poissonized:
        raise ValidationError("variance_audit requires poissonized=True (the bound is for Poissonized counts)")
    report = run_mse_study(config, gen)
    rows = []
    for c in report.cells:
        bound = 1.0 / (4.0 * c.m)
        rows.append(
            VarianceAuditRow(m=c.m, x=c.x, var_hat=c.var_hat, bound=bound, se_var=c.se_var,
                             ok=c.var_hat <= bound + 4.0 * c.se_var)
        )
    return VarianceAudit(report=report, rows=tuple(rows), all_ok=all(r.ok for r in rows))


@dataclass(frozen=True)
class SweepReport:
    report: MseReport
    m_values: tuple[int, ...]
    mse_values: tuple[float, ...]  # mse_hat averaged over the x_grid, per m
    argmin_m: int


def sweep_m(config: StudyConfig, gen: Optional[SmoothGenerator] = None) -> SweepReport:
    """MSE (averaged over the x-grid) as a function of the group count, with
    the empirical minimizer."""
    if len(config.m_values) < 3:
        raise ValidationError(f"a sweep needs at least 3 m values, got {len(config.m_values)}")
    report = run_mse_study(config, gen)
    mse = []
    for m in config.m_values:
        vals = [c.mse_hat for c in report.cells if c.m == m]
        mse.append(float(np.mean(vals)))
    order = sorted(zip(mse, config.m_values))
    return SweepReport(report=report, m_values=config.m_values, mse_values=tuple(mse), argmin_m=order[0][1])


# ---------- Poissonization gap ----------

@dataclass(frozen=True)
class GapRung:
    M: int
    n: int
    m: int
    mean_sq_gap: tuple[float, ...]  # E (grouped-hat - grouped-tilde)^2 per x
    mean_sq_gap_avg: float
    mean_sup_gap_natural: float
    bound_violations: int  # replications with sup gap > |N - n|/M (expect 0)


@dataclass(frozen=True)
class PoissonizationGapReport:
    config: StudyConfig
    rungs: tuple[GapRung, ...]
    decay_exponent: Optional[float]  # fitted decay rate of avg sq gap in n; None for < 2 rungs


def poissonization_gap(
    config: StudyConfig,
    n_ladder: Optional[Sequence[int]] = None,
    gen: Optional[SmoothGenerator] = None,
) -> PoissonizationGapReport:
    """Measure the multinomial-vs-Poissonized estimator gap on coupled draws.

    Each rung rescales M to keep lambda = n/M fixed and uses the divisor of M
    nearest to n^(2/5) as group count. Per replication: the natural
    estimators of the coupled pair must differ by at most |N - n|/M in sup
    norm, checked exactly on integer counts (counted as violations
    otherwise, expect zero), and the grouped pair's squared gap is recorded
    on the x_grid. With >= 2 rungs the decay exponent of the average squared
    gap is fitted in log-log scale.
    """
    if gen is None:
        gen = by_name(config.generator)
    lam = config.n / config.M
    ns = [int(v) for v in (n_ladder if n_ladder is not None else [config.n])]
    if any(v < 1 for v in ns):
        raise ValidationError(f"n ladder must be positive, got {ns}")
    rungs = []
    for rung_idx, n in enumerate(ns):
        M = max(1, round(n / lam))
        m = nearest_divisor(M, max(1, round(n ** (2.0 / 5.0))))
        cells = cells_from_generator(gen, M)
        K = _lattice_index(config.x_grid, n, m)
        sq = np.zeros(len(config.x_grid))
        gap_sum = violations = 0
        width = M * len(config.x_grid)
        for _, (nu, rho) in _slabs(draw_coupled, cells, n, config.seed, config.reps, width, rung_idx):
            gaps = _natural_gap(nu, rho)
            gap_sum += int(gaps.sum())
            violations += int(np.count_nonzero(gaps > np.abs(rho.sum(axis=1) - n)))
            diff = _estimate(_block_sums(nu, m), K) - _estimate(_block_sums(rho, m), K)
            # a running sum in replication order, carried across slabs
            sq = np.cumsum(np.vstack((sq, diff**2)), axis=0)[-1]
        sq /= config.reps
        rungs.append(
            GapRung(M=M, n=n, m=m, mean_sq_gap=tuple(float(v) for v in sq),
                    mean_sq_gap_avg=float(np.mean(sq)), mean_sup_gap_natural=gap_sum / (M * config.reps),
                    bound_violations=violations)
        )
    exponent = None
    if len(rungs) >= 2 and all(r.mean_sq_gap_avg > 0 for r in rungs):
        slope = np.polyfit(np.log([r.n for r in rungs]), np.log([r.mean_sq_gap_avg for r in rungs]), 1)[0]
        exponent = float(-slope)
    return PoissonizationGapReport(config=config, rungs=tuple(rungs), decay_exponent=exponent)


# ---------- Poisson tail audit ----------

@dataclass(frozen=True)
class PoissonTailRow:
    mean: float
    epsilon: float
    freq: float
    bound: float
    ok: bool


def poisson_tail_audit(
    means: Sequence[float], epsilons: Sequence[float], draws: int, seed: int
) -> tuple[PoissonTailRow, ...]:
    """Empirical P(|X - mean| / sqrt(mean) >= eps) over `draws` Poisson
    samples per mean, against the Bernstein-type tail bound."""
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    rows = []
    base = RngStream(seed)
    for i, mean in enumerate(means):
        rng = base.substream(i).generator()
        x = rng.poisson(mean, size=draws)
        dev = np.abs(x - mean) / math.sqrt(mean)
        for eps in epsilons:
            freq = float(np.mean(dev >= eps))
            bound = bernstein_poisson_tail(mean, eps)
            rows.append(PoissonTailRow(mean=mean, epsilon=eps, freq=freq, bound=bound, ok=freq <= bound))
    return tuple(rows)


# ---------- consistency trend ----------

def consistency_trend(
    ladder: Sequence[tuple[int, int, int]],
    generator: str,
    reps: int,
    seed: int,
    poissonized: bool = False,
) -> tuple[float, ...]:
    """Mean over replications of the exact sup distance between the grouped
    estimator and the limiting CDF, for each (M, n, m) rung. Each replication
    draws the m group counts directly, from the grouped probabilities.
    Every rung's m must divide its M, and reps must be >= 1."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    for M, _, m in ladder:
        check_group_count(M, m)
    gen = by_name(generator)
    F = limit_sdf(gen)
    draw = draw_poissonized if poissonized else draw_multinomial
    out = []
    for rung_idx, (M, n, m) in enumerate(ladder):
        groups = group_model(cells_from_generator(gen, M), m)
        total = 0
        for _, (counts,) in _slabs(draw, groups, n, seed, reps, m, rung_idx):
            for row in counts:
                total += _sup_to_cdf(row, n, F)
        out.append(total / reps)
    return tuple(out)
