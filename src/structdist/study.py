"""Monte Carlo experiment engine: bias/variance/MSE tables across
replications, m-sweeps, coupled Poissonization-gap measurement, and
Poisson tail audits.

Replications are independent: replication r always draws from substream r of
the config seed, so any execution order yields the same draws. This
implementation runs them serially and reduces in replication order, which
makes the floating-point sums deterministic as well.

`run_mse_study` draws each replication over L = lcm(m_values) equal blocks
of cells rather than over all M cells: block sums of multinomial (or
independent Poisson) counts are again multinomial (Poisson), so every
grouped count has the same law as when grouped from the cell-level draw.
The seeded stream is the one `sampling.STREAM_VERSION` names. The coupled
studies (`poissonization_gap`, `consistency_trend`) still draw per cell.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .estimators import grouped_estimator, natural_estimator
from .generators import SmoothGenerator, by_name, cells_from_generator, limit_sdf
from .model import CellModel, GroupingScheme, group_model, sup_distance, sup_distance_to_function
from .sampling import RngStream, draw_coupled, draw_multinomial, draw_poissonized, group_counts


def divisors_of(M: int) -> list[int]:
    small = [d for d in range(1, int(math.isqrt(M)) + 1) if M % d == 0]
    return sorted(set(small + [M // d for d in small]))


def nearest_divisor(M: int, m: int) -> int:
    """The divisor of M closest to m (ties go to the smaller divisor)."""
    return min(divisors_of(M), key=lambda d: (abs(d - m), d))


def check_group_count(M: int, m: int) -> None:
    """Reject a group count m that is not a positive divisor of M (M >= 1),
    naming the nearest divisor in the message."""
    if m < 1 or M % m != 0:
        raise ValidationError(f"m={m} does not divide M={M}; nearest divisor is {nearest_divisor(M, max(m, 1))}")


# ---------- configuration and report types ----------

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
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
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

    def cell(self, m: int, x: float) -> MseCell:
        for c in self.cells:
            if c.m == m and c.x == x:
                return c
        raise KeyError((m, x))


def _summarize(m: int, x: float, fx: float, vals: np.ndarray) -> MseCell:
    reps = vals.size
    mean = float(np.mean(vals))
    bias = mean - fx
    mse = float(np.mean((vals - fx) ** 2))
    if reps > 1:
        var = float(np.var(vals, ddof=1))
        se_mean = math.sqrt(var / reps)
        m4 = float(np.mean((vals - mean) ** 4))
        # Var(s^2) = (m4 - sigma^4 (reps-3)/(reps-1)) / reps, plugged in
        se_var = math.sqrt(max(0.0, (m4 - var * var * (reps - 3) / (reps - 1)) / reps))
    else:
        var = se_mean = se_var = 0.0
    return MseCell(m=m, x=x, mean_hat=mean, bias_hat=bias, var_hat=var, mse_hat=mse, se_mean=se_mean, se_var=se_var)


def decomposition_residual(cell: MseCell, reps: int) -> float:
    """|mse - bias^2 - var (reps-1)/reps|: zero up to rounding, since var
    uses the reps-1 denominator while mse averages over reps."""
    return abs(cell.mse_hat - cell.bias_hat**2 - cell.var_hat * (reps - 1) / reps)


# ---------- core study ----------

def run_mse_study(config: StudyConfig, gen: Optional[SmoothGenerator] = None) -> MseReport:
    """Draw counts once per replication, apply every configured grouping to
    the same draw (paired across m), and tabulate bias/var/MSE against the
    limiting CDF at each x.

    Replication r draws from substream r of the config seed, over the
    L = lcm(m_values) blocks of M/L cells (L divides M because every m does);
    each m groups those block counts further. When L = M this is the
    cell-level draw. The estimate at x is the share of groups with
    count * (m/n) <= x, the value the grouped estimator's StepCdf takes."""
    t0 = time.perf_counter()
    if gen is None:
        gen = by_name(config.generator)
    cells = cells_from_generator(gen, config.M)
    F = limit_sdf(gen)
    fx = tuple(float(F(x)) for x in config.x_grid)
    L = math.lcm(*config.m_values)
    blocks = CellModel(L, group_model(cells, GroupingScheme(config.M, L, config.M // L)).q)
    schemes = [GroupingScheme(L, m, L // m) for m in config.m_values]
    draw = draw_poissonized if config.poissonized else draw_multinomial
    xg = np.asarray(config.x_grid, dtype=float)
    draws = np.empty((len(schemes), xg.size, config.reps))
    base = RngStream(config.seed)
    for r in range(config.reps):
        vec = draw(blocks, config.n, base.substream(r).generator())
        for i, scheme in enumerate(schemes):
            values = group_counts(vec, scheme).counts * (scheme.m / config.n)
            draws[i, :, r] = np.count_nonzero(values[:, None] <= xg, axis=0) / scheme.m
    out = [
        _summarize(m, x, fx[j], draws[i, j])
        for i, m in enumerate(config.m_values)
        for j, x in enumerate(config.x_grid)
    ]
    draws.flags.writeable = False
    return MseReport(
        config=config, f_values=fx, cells=tuple(out), estimates=draws, wall_time=time.perf_counter() - t0
    )


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
    norm (counted as violations otherwise, expect zero), and the grouped
    pair's squared gap is recorded on the x_grid. With >= 2 rungs the decay
    exponent of the average squared gap is fitted in log-log scale.
    """
    if gen is None:
        gen = by_name(config.generator)
    lam = config.n / config.M
    ns = [int(v) for v in (n_ladder if n_ladder is not None else [config.n])]
    if any(v < 1 for v in ns):
        raise ValidationError(f"n ladder must be positive, got {ns}")
    base = RngStream(config.seed)
    rungs = []
    for rung_idx, n in enumerate(ns):
        M = max(1, round(n / lam))
        m = nearest_divisor(M, max(1, round(n ** (2.0 / 5.0))))
        scheme = GroupingScheme(M, m, M // m)
        cells = cells_from_generator(gen, M)
        sq = np.zeros(len(config.x_grid))
        sup_sum = 0.0
        violations = 0
        xg = np.asarray(config.x_grid, dtype=float)
        for r in range(config.reps):
            rng = base.substream(rung_idx * config.reps + r).generator()
            nu, rho = draw_coupled(cells, n, rng)
            hat = natural_estimator(nu)
            tilde = natural_estimator(rho)
            gap = sup_distance(hat.cdf, tilde.cdf)
            sup_sum += gap
            if gap > abs(rho.N_realized - n) / M + 1e-12:
                violations += 1
            ghat = grouped_estimator(nu, scheme, n=n)
            gtilde = grouped_estimator(rho, scheme, n=n)
            sq += (ghat.cdf(xg) - gtilde.cdf(xg)) ** 2
        sq /= config.reps
        rungs.append(
            GapRung(M=M, n=n, m=m, mean_sq_gap=tuple(float(v) for v in sq),
                    mean_sq_gap_avg=float(np.mean(sq)), mean_sup_gap_natural=sup_sum / config.reps,
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
    from .asymptotics import bernstein_poisson_tail

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
    estimator and the limiting CDF, for each (M, n, m) rung."""
    gen = by_name(generator)
    F = limit_sdf(gen)
    base = RngStream(seed)
    out = []
    for rung_idx, (M, n, m) in enumerate(ladder):
        scheme = GroupingScheme(M, m, M // m)
        cells = cells_from_generator(gen, M)
        total = 0.0
        for r in range(reps):
            rng = base.substream(rung_idx * reps + r).generator()
            vec = draw_poissonized(cells, n, rng) if poissonized else draw_multinomial(cells, n, rng)
            est = grouped_estimator(vec, scheme, n=n)
            total += sup_distance_to_function(est.cdf, F)
        out.append(total / reps)
    return tuple(out)
