"""Monte Carlo experiment engine: bias/variance/MSE tables across
replications, m-sweeps, coupled Poissonization-gap measurement, and
Poisson tail audits.

Each rung of a study draws its replications in order from one running
generator, stream `rung` of the config seed, plus one per kind of variate
for a grouped coupled slab (`sampling.RngStream.streams`): replication r
is the r-th row drawn, so the first r replications do not depend on reps.
The studies handle them in slabs: the draws of up to a few thousand consecutive
replications form one int64 count array, drawn by one `sampling.draw_slab`
call (one vector of rows, or the group counts of coupled pairs; since
stream version 7 a multinomial row of at least 2^12 cells, such as the 9009
blocks of the criterion-9 sweep, is drawn as the nu of a coupled row),
which is then grouped, evaluated and reduced with whole-array numpy. Every reduction
keeps a fixed order (a slab's rows are the replications in order, running
sums carry across slabs), so the floating-point results do not depend on
where the slabs break.

Every study runs on one slab kernel that sees integer counts only: a draw
over a grouped model (a `CellModel` of equal blocks), row-wise group counts
for each group count m, then the estimate at x as the share of group counts
<= K = lattice_floor(x n / m), from `asymptotics._lattice_index` and
`model._estimate` as a `CountsVector` computes it; `consistency_trend`
takes the exact sup distance of a whole slab's estimates in one
`model._sup_to_function` call, on each row's sorted counts. Block sums of
multinomial (independent Poisson) counts are multinomial (Poisson), so
`run_mse_study` draws at L = lcm(m_values) blocks and `consistency_trend` at
its m groups with every law kept. Both take that model from the generator a
chunk of the grid j/M at a time (`generators._grouped_cells`, which
`cells_from_generator` runs with m = M), so neither holds all M cells at
once unless one group has more than 2^14 of them. `run_mse_study` then
groups each slab once per m by strided differences of one running sum
(`model._prefix_block_sums`). `poissonization_gap` takes its coupled pairs
at its m groups as well, N first: the group counts of nu and rho, and both
only in the cells the |N - n| ~ sqrt(n) balls between them touch, the only
cells its natural gap reads (`sampling.CoupledGroups`), a slab's rows in
one pass; it reads that gap as each row's deepest overlap of the intervals
between nu and rho in those cells (`_natural_gap`).
The seeded stream is the one `sampling.STREAM_VERSION` names.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .asymptotics import _lattice_index, bernstein_poisson_tail
from .errors import ValidationError
from .generators import _grouped_cells, by_name, cells_from_generator, limit_sdf
from .model import (_MAX_SIZE, CellModel, _estimate, _prefix_block_sums, _prefix_sums,
                    _sup_to_function, check_group_count, nearest_divisor)
from .sampling import COUPLED, MAX_N, MULTINOMIAL, POISSONIZED, RngStream, _check_integer, draw_slab


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
        if self.M > _MAX_SIZE:
            raise ValidationError(f"M must be <= 2**59, got {self.M}")
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
        if self.reps * len(self.m_values) * len(self.x_grid) > _MAX_SIZE:
            raise ValidationError(f"reps * len(m_values) * len(x_grid) must be <= 2**59, got reps={self.reps}")


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
    # what the run cost: seconds per stage (cells_s: generator, the block
    # model with its check of the cell grid, and limit; draw_s; evaluate_s:
    # grouping and estimates; summarize_s) and the numbers of draws and slabs
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
        # squared twice: ** 4 calls pow on every element
        d2 = (estimates - mean[..., None]) ** 2
        m4 = (d2 * d2).mean(axis=-1)
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


def _slabs(kind: str, model: CellModel, n: int, seed: int, reps: int, width: int, rung: int = 0,
           groups: Optional[int] = None):
    """A rung's replications in slabs of at most max(1, _SLAB // width) rows.

    Yields (rows, counts): the slice of replication indices the slab holds
    and the `draw_slab` result of its draws, an int64 matrix with one row per
    replication for each count vector a draw makes (a pair for COUPLED;
    with `groups`, the pair of group counts of a `CoupledGroups`), every row
    checked as a CountsVector would check it. Replication r is the r-th row
    drawn from one running generator, stream `rung` of the seed, so a
    replication does not depend on reps or on where the slabs break. A
    coupled rung also draws from the two streams a grouped slab takes its
    extra and common balls from (`RngStream.streams`), each in row order."""
    stream = RngStream(seed, rung)
    gen = stream.streams() if kind == COUPLED else stream.generator()
    size = max(1, _SLAB // width)
    for start in range(0, reps, size):
        rows = min(size, reps - start)
        yield slice(start, start + rows), draw_slab(kind, model, n, rows, gen, groups)


def _natural_gap(row: np.ndarray, nu: np.ndarray, rho: np.ndarray, rows: int) -> np.ndarray:
    """M times the sup distance between the natural estimators of nu and
    rho, for each of `rows` coupled rows, from the cells where they differ:
    the row of each such cell (ascending) and the counts nu and rho there.
    Both estimators step on the integer counts, so the gap is
    max_k |#{nu_j <= k} - #{rho_j <= k}|, and the cells with nu_j = rho_j
    cancel at every k. A coupled row's shorter sample lies inside its
    longer one, so every differing cell steps the difference the same way,
    on [min(nu_j, rho_j), max(nu_j, rho_j)): the gap is the row's deepest
    overlap of these intervals. Each interval is two events, keyed 2v + 1
    for its start v and 2v for its end v (an end sorts before a start at
    the same v), in uint64 since counts reach 2**62; one sort of a padded
    (rows, 2 w) key array orders each row, whose running sum of +1 per
    start and -1 per end peaks at its depth. The padding keys are ends
    after every real event, so they never raise a peak."""
    per_row = np.bincount(row, minlength=rows)
    keys = np.full((rows, 2 * per_row.max(initial=0)), np.iinfo(np.uint64).max - 1, dtype=np.uint64)
    col = 2 * (np.arange(row.size) - (np.cumsum(per_row) - per_row)[row])
    keys[row, col] = np.minimum(nu, rho).astype(np.uint64) * 2 + 1
    keys[row, col + 1] = np.maximum(nu, rho).astype(np.uint64) * 2
    keys.sort(axis=1)
    return np.cumsum((keys & 1).view(np.int64) * 2 - 1, axis=1).max(axis=1, initial=0)


# ---------- core study ----------

def run_mse_study(config: StudyConfig) -> MseReport:
    """Draw counts once per replication, apply every configured grouping to
    the same draw (paired across m), and tabulate bias/var/MSE against the
    limiting CDF at each x.

    Replication r is the r-th draw from stream 0 of the config seed, over
    the L = lcm(m_values) blocks of M/L cells (L divides M because every m does);
    each m groups those block counts further. When L = M this is the
    cell-level draw. The estimate at x is the share of groups with
    count <= lattice_floor(x n / m)."""
    t0 = time.perf_counter()
    gen = by_name(config.generator)
    L = math.lcm(*config.m_values)
    blocks = _grouped_cells(gen, config.M, L)
    F = limit_sdf(gen)
    fx = tuple(F(np.array(config.x_grid)).tolist())
    per_m = [(m, _lattice_index(config.x_grid, config.n, m)) for m in config.m_values]
    kind = POISSONIZED if config.poissonized else MULTINOMIAL
    estimates = np.empty((len(per_m), len(config.x_grid), config.reps))
    mark = time.perf_counter()
    timings = {"cells_s": mark - t0, "draw_s": 0.0, "evaluate_s": 0.0, "summarize_s": 0.0,
               "draws": config.reps, "slabs": 0}
    for rows, (counts,) in _slabs(kind, blocks, config.n, config.seed, config.reps, L * len(config.x_grid)):
        drawn = time.perf_counter()
        prefix = _prefix_sums(counts)
        for i, (m, K) in enumerate(per_m):
            estimates[i, :, rows] = _estimate(_prefix_block_sums(prefix, m), K).T
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


def variance_audit(config: StudyConfig) -> VarianceAudit:
    """Check empirical Var of the Poissonized grouped estimator against the
    1/(4m) bound, with 4 standard errors of Monte Carlo slack."""
    if not config.poissonized:
        raise ValidationError("variance_audit requires poissonized=True (the bound is for Poissonized counts)")
    report = run_mse_study(config)
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


def sweep_m(config: StudyConfig) -> SweepReport:
    """MSE (averaged over the x-grid) as a function of the group count, with
    the empirical minimizer."""
    if len(config.m_values) < 3:
        raise ValidationError(f"a sweep needs at least 3 m values, got {len(config.m_values)}")
    report = run_mse_study(config)
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
    # what the run cost, summed over the rungs: seconds per stage (cells_s:
    # generator and cells; draw_s: coupled draws at the groups; gap_s:
    # natural gaps and their bound; evaluate_s: grouped estimates and squared
    # gaps), the numbers of draws and slabs, and cells_revealed: the cells
    # whose counts were drawn beyond the groups, summed over the rows (those
    # the |N - n| extra balls touch, all M in a row whose extra balls were
    # drawn over the cells because |N - n| > M, none at m = M)
    timings: dict = field(compare=False, repr=False, default_factory=dict)


def poissonization_gap(config: StudyConfig, n_ladder: Optional[Sequence[int]] = None) -> PoissonizationGapReport:
    """Measure the multinomial-vs-Poissonized estimator gap on coupled draws.

    Each rung rescales M to keep lambda = n/M fixed and uses the divisor of M
    nearest to n^(2/5) as group count m, and draws each coupled pair at its
    m groups (`sampling.draw_slab` with groups=m). Per replication: the
    natural estimators of the coupled pair must differ by at most |N - n|/M
    in sup norm, checked exactly on the integer counts of the cells where
    they differ (counted as violations otherwise, expect zero), and the
    grouped pair's squared gap is recorded on the x_grid. Every n of the
    ladder must be an integer. With >= 2 rungs the decay exponent of the
    average squared gap is fitted in log-log scale.
    """
    mark = time.perf_counter()
    gen = by_name(config.generator)
    lam = config.n / config.M
    ns = list(n_ladder if n_ladder is not None else [config.n])
    for v in ns:
        _check_integer("every n of the ladder", v)
    ns = [int(v) for v in ns]
    if any(v < 1 for v in ns):
        raise ValidationError(f"n ladder must be positive, got {ns}")
    timings = {"cells_s": 0.0, "draw_s": 0.0, "gap_s": 0.0, "evaluate_s": 0.0,
               "draws": len(ns) * config.reps, "slabs": 0, "cells_revealed": 0}
    rungs = []
    for rung_idx, n in enumerate(ns):
        M = max(1, round(n / lam))
        m = nearest_divisor(M, max(1, round(n ** (2.0 / 5.0))))
        cells = cells_from_generator(gen, M)
        K = _lattice_index(config.x_grid, n, m)
        sq = np.zeros(len(config.x_grid))
        gap_sum = violations = 0
        # bounds what a grouped row holds: m comparisons per x, and two gap
        # events per touched cell, at most |N - n| (about 4 sqrt(n) at worst)
        width = m * len(config.x_grid) + 8 * min(M, math.isqrt(n))
        timings["cells_s"] += time.perf_counter() - mark
        mark = time.perf_counter()
        for _, pairs in _slabs(COUPLED, cells, n, config.seed, config.reps, width, rung_idx, groups=m):
            drawn = time.perf_counter()
            V, R = pairs
            gaps = _natural_gap(pairs.row, pairs.nu, pairs.rho, V.shape[0])
            gap_sum += int(gaps.sum())
            violations += int(np.count_nonzero(gaps > np.abs(R.sum(axis=1) - n)))
            gapped = time.perf_counter()
            diff = _estimate(V, K) - _estimate(R, K)
            # a running sum in replication order, carried across slabs
            sq = np.cumsum(np.vstack((sq, diff**2)), axis=0)[-1]
            timings["draw_s"] += drawn - mark
            mark = time.perf_counter()
            timings["gap_s"] += gapped - drawn
            timings["evaluate_s"] += mark - gapped
            timings["slabs"] += 1
            timings["cells_revealed"] += pairs.revealed
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
    return PoissonizationGapReport(config=config, rungs=tuple(rungs), decay_exponent=exponent, timings=timings)


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
    samples per mean, against the Bernstein-type tail bound. Every mean must
    lie in (0, MAX_N] and every epsilon be positive and finite; both are
    checked before the first draw."""
    _check_integer("draws", draws)
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    for mean in means:
        if not 0 < mean <= MAX_N:  # NaN fails too
            raise ValidationError(f"mean must be positive, finite and <= {MAX_N}, got {mean}")
    for eps in epsilons:
        if not 0 < eps < math.inf:
            raise ValidationError(f"epsilon must be positive and finite, got {eps}")
    rows = []
    for i, mean in enumerate(means):
        rng = RngStream(seed, i).generator()
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
    draws the m group counts directly, from the grouped probabilities; the
    estimate steps at its sorted counts, and one exact sup per slab reads
    every row (`model._sup_to_function`). The sups are added in replication
    order. Every rung's m must divide its M, and reps must be an integer
    >= 1."""
    _check_integer("reps", reps)
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    for M, _, m in ladder:
        check_group_count(M, m)
    gen = by_name(generator)
    F = limit_sdf(gen)
    kind = POISSONIZED if poissonized else MULTINOMIAL
    out = []
    for rung_idx, (M, n, m) in enumerate(ladder):
        groups = _grouped_cells(gen, M, m)
        # a row's estimate is (i + 1)/m at the last of equal counts, its i-th
        # smallest (from 0)
        shares = np.arange(1, m + 1) / m
        total = 0.0
        for _, (counts,) in _slabs(kind, groups, n, seed, reps, m, rung_idx):
            sups = _sup_to_function(np.sort(counts, axis=1) * (m / n), shares, F)
            # a running sum in replication order, carried across slabs
            total = np.cumsum(np.concatenate(([total], sups)))[-1]
        out.append(float(total / reps))
    return tuple(out)
