"""Seeded sampling of multinomial, Poissonized and coupled cell counts.

A CountsVector keeps the cell order of its model, and is also the estimate
of the structural CDF that its counts induce: grouped_estimator returns the
CountsVector of m groups, whose estimate is the grouped estimator.

Streams are addressed by (seed, stream_index): the pair feeds a
SeedSequence, whose avalanche mixing makes the streams independent and
individually reproducible, bit for bit, across runs and platforms. Every
draw takes a running Generator. A study draws its replications in order
from one running generator per rung, a slab of rows per draw_slab call;
the single draws are row 0 of a one-row slab.

A coupled pair (nu, rho) counts the first n and the first N ~ Poisson(n)
balls of one categorical stream. Its draw materializes only counts: rho is
one row of independent Poisson(n p_j) counts, so N is its total, and nu is
rho corrected by the k = |N - n| balls between the two samples, drawn ball
by ball. If N < n, nu adds k new categorical balls; if N > n, it removes k
of rho's N balls, chosen uniformly without replacement. So
sum_j |nu_j - rho_j| = |N - n| on every row, the shorter sample lies
inside the longer one, and the cost of nu is O(k) rather than O(M). A row
with k > M (few cells, huge n) is rebuilt from N instead: the min(n, N)
common and the k extra balls as two multinomials, the same law given N.
That keeps every row at O(M) memory for any n <= MAX_N; with n/M bounded,
as in the paper's regime, it does not occur.

A multinomial row of at least _LONG_ROW cells is the nu of a coupled row:
one Poisson row plus or minus its O(sqrt(n)) balls costs less than numpy's
multinomial, which draws one binomial per cell (0.6 of its time on the
9009 blocks of the criterion-9 sweep). Shorter rows, where the per-row
work of the coupled route dominates, take numpy's multinomial in one call
per slab.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .asymptotics import _lattice_index
from .errors import ValidationError
from .model import CellModel, StepCdf, _estimate, _float_or_array

MULTINOMIAL = "multinomial"
POISSONIZED = "poissonized"
# the draw_slab kind that yields coupled (multinomial, Poissonized) pairs
COUPLED = "coupled"

# Version of the seeded stream contract: which draws a (seed, stream index)
# pair feeds. 1: run_mse_study drew every replication over all M cells.
# 2: it draws over the L = lcm(m_values) blocks of cells (same law).
# 3: consistency_trend draws at its m groups (same law), and every study
# evaluates at x through the exact lattice index K = lattice_floor(x n / m).
# 4: replication r of a study rung is the r-th row drawn from stream
# `rung` (was: stream rung * reps + r), so the first r replications do
# not depend on reps (same law; single draws unchanged).
# 5: a coupled pair draws N, then its min(n, N) common and |N - n| extra
# balls (was: nu, then N, then balls added to or removed from nu; same law).
# 6: a coupled pair draws rho as one Poisson row, then nu as rho plus or
# minus the |N - n| balls between them (two multinomials only if |N - n| >
# M; same law; multinomial and Poissonized draws unchanged).
# 7: a multinomial row of at least _LONG_ROW cells is the nu of a coupled
# row (same law; shorter multinomial rows, Poissonized and coupled draws
# unchanged).
STREAM_VERSION = 7

_U64 = (1 << 64) - 1

# The largest n a draw accepts: numpy draws counts in int64 and rejects
# Poisson means near 2**63.
MAX_N = 2**62

# The fewest cells at which a multinomial row is drawn as the nu of a
# coupled row. Against numpy's multinomial on the same slab of about
# 8 x 9009 cells (2-vCPU VM), that route took 0.6 of the time at 9009 cells
# and n/M = 111, 0.77 to 0.94 at 2**12 to 10**5 cells and n/M = 3 to 300,
# 0.93 to 1.54 at n/M <= 0.3, 1.01 at 1024 cells, 1.2 at 200 and 6 to 28 at
# 10 to 50 cells.
_LONG_ROW = 1 << 12


def _check_integer(name: str, value) -> None:
    """Reject anything but an integer: a float or a str is not truncated or
    parsed, and a bool is not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: base seed plus a stream index, each an
    integer in [0, 2**64 - 1]; anything else, a bool, a float or a str
    included, is rejected rather than wrapped, truncated or parsed, so two
    different seeds never share a stream. Draws take the running Generator
    that generator() builds."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_integer("seed", self.seed)
        _check_integer("stream_index", self.stream_index)
        seed, index = int(self.seed), int(self.stream_index)
        if not (0 <= seed <= _U64 and 0 <= index <= _U64):
            raise ValidationError(
                f"seed and stream index must lie in [0, 2**64 - 1], got seed={seed}, stream_index={index}"
            )
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_index", index)

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(entropy=[self.seed, self.stream_index])))


@dataclass(frozen=True, eq=False)
class CountsVector:
    """Realized cell (or group) counts with their sampling metadata:
    multinomial counts sum to the nominal sample size n; Poissonized counts
    sum to the realized Poisson total N_realized.

    The vector is also the estimate its counts induce, the empirical CDF of
    count * (size / n), each count carrying mass 1/size. Called at x it
    gives the share of counts <= lattice_floor(x n / size), by the exact
    lattice index; cdf is the same step function as a StepCdf, with jumps
    at the float values count * (size / n). Equal by value and, like the
    array it holds, unhashable.
    """

    kind: str
    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1:
            raise ValidationError("counts must be a 1-D vector")
        if self.kind not in (MULTINOMIAL, POISSONIZED):
            raise ValidationError(f"unknown counts kind {self.kind!r}")
        if counts.min(initial=0) < 0:
            raise ValidationError("counts must be nonnegative")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.kind == MULTINOMIAL and self.N_realized != self.n:
            raise ValidationError(f"{self.kind} counts sum to {self.N_realized}, expected {self.n}")
        counts.flags.writeable = False

    @property
    def N_realized(self) -> int:
        """The counts' total: n for multinomial counts, the realized N for Poissonized ones."""
        return int(self.counts.sum())

    @property
    def size(self) -> int:
        return int(self.counts.size)

    @property
    def cdf(self) -> StepCdf:
        return StepCdf.from_values(self.counts * (self.size / self.n))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        return _float_or_array(_estimate(self.counts, _lattice_index(xs, self.n, self.size)).reshape(xs.shape))

    def __eq__(self, other):
        if not isinstance(other, CountsVector):
            return NotImplemented
        return self.kind == other.kind and self.n == other.n and np.array_equal(self.counts, other.counts)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ValidationError(f"n must be <= {MAX_N}, got {n}")


def draw_slab(kind: str, cells: CellModel, n: int, rows: int, gen: Generator) -> np.ndarray:
    """rows independent draws of the given kind, in order from gen, as an
    int64 (vectors, rows, M) array: one vector of Multinomial(n, p) rows or
    of independent Poisson(n * p_j) counts, or the two vectors (nu, rho) of
    coupled pairs. Poissonized slabs and multinomial slabs of rows shorter
    than _LONG_ROW cells take one numpy call; coupled slabs and longer
    multinomial rows are drawn row by row (_coupled_row), a multinomial row
    being the nu of a coupled one. Every vector passes the checks a
    CountsVector makes on each row: no negative count, every multinomial
    row sums to n, and every coupled rho row to its N."""
    _check_n(n)
    # totals: per vector, what its rows must sum to (a Poissonized row: any total)
    if kind == MULTINOMIAL and cells.M < _LONG_ROW:
        slab, totals = gen.multinomial(n, cells.p, size=rows)[None], [n]
    elif kind == POISSONIZED:
        slab, totals = gen.poisson(n * cells.p, size=(rows, cells.M))[None], []
    elif kind in (MULTINOMIAL, COUPLED):
        # a multinomial slab keeps only nu
        vectors = 2 if kind == COUPLED else 1
        slab, Ns = np.empty((vectors, rows, cells.M), dtype=np.int64), np.empty(rows, dtype=np.int64)
        positive = np.flatnonzero(cells.p > 0)
        cum_p = np.cumsum(cells.p[positive])
        for i in range(rows):
            Ns[i], *pair = _coupled_row(cells, n, gen, positive, cum_p)
            for vector, counts in zip(slab, pair):
                vector[i] = counts
        totals = [n, Ns]
    else:
        raise ValidationError(f"unknown counts kind {kind!r}")
    slab = np.ascontiguousarray(slab, dtype=np.int64)
    if slab.min(initial=0) < 0:
        raise ValidationError("counts must be nonnegative")
    for name, counts, expected in zip((MULTINOMIAL, POISSONIZED), slab, totals):
        got, expected = counts.sum(axis=1), np.broadcast_to(expected, rows)
        bad = np.flatnonzero(got != expected)
        if bad.size:
            raise ValidationError(f"{name} counts sum to {got[bad[0]]}, expected {expected[bad[0]]}")
    return slab


def _coupled_row(cells: CellModel, n: int, gen: Generator, positive: np.ndarray, cum_p: np.ndarray):
    """(N, nu, rho) of one coupled row: rho ~ Poisson(n p) cell by cell and
    N its total. If N < n, nu is rho plus n - N new balls, each a uniform
    looked up in cum_p, the cumulative p of the cells `positive`; if N > n,
    nu is rho minus N - n of its own balls, drawn without replacement. When
    |N - n| > M the pair is rebuilt from N by two multinomials (common and
    extra balls), which keeps the row at O(M) memory."""
    rho = gen.poisson(n * cells.p)
    N = int(rho.sum())
    k = abs(N - n)
    if k > cells.M:
        common, extra = gen.multinomial([min(N, n), k], cells.p)
        return N, common + extra if N < n else common, common + extra if N > n else common
    if N < n:
        # the last positive cell takes every u at or above the second-last
        # cumulative value, so a rounded-up u * total stays in range
        balls = positive[np.searchsorted(cum_p[:-1], gen.random(k) * cum_p[-1], side="right")]
        return N, rho + np.bincount(balls, minlength=cells.M), rho
    if N > n:
        balls = np.searchsorted(np.cumsum(rho), gen.choice(N, k, replace=False, shuffle=False), side="right")
        return N, rho - np.bincount(balls, minlength=cells.M), rho
    return N, rho, rho


def draw_multinomial(cells: CellModel, n: int, gen: Generator) -> CountsVector:
    """One Multinomial(n, p) count vector."""
    return CountsVector(MULTINOMIAL, draw_slab(MULTINOMIAL, cells, n, 1, gen)[0, 0], n=n)


def draw_poissonized(cells: CellModel, n: int, gen: Generator) -> CountsVector:
    """Independent Poisson(n * p_j) counts; the total is the realized N."""
    return CountsVector(POISSONIZED, draw_slab(POISSONIZED, cells, n, 1, gen)[0, 0], n=n)


def draw_coupled(cells: CellModel, n: int, gen: Generator) -> tuple[CountsVector, CountsVector]:
    """A coupled pair (nu, rho): fixed-n multinomial counts and Poissonized
    counts of the first n and the first N ~ Poisson(n) balls of one
    categorical stream, row 0 of a one-row coupled slab.

    sum_j |nu_j - rho_j| = |N - n| exactly for every realization, which is
    what the Poissonization coupling bound needs. Marginally rho_j are
    independent Poisson(n * p_j).
    """
    nu, rho = draw_slab(COUPLED, cells, n, 1, gen)[:, 0]
    return CountsVector(MULTINOMIAL, nu, n=n), CountsVector(POISSONIZED, rho, n=n)
