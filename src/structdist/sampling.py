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

A coupled pair can also be drawn at m groups of M/m cells (draw_slab with
groups=m, a CoupledGroups slab): rho's group counts R ~ Poisson(n q), the
|N - n| balls between the samples fall on cells and are summed in groups,
and nu and rho are drawn only in the cells those balls touch, given their
groups' counts, one conditional binomial per touched cell. That is
O(m + |N - n| min(M/m, |N - n|)) draws per row rather than O(M), at any
n/M, with the same joint law of the group counts and of the differing
cells, which is all the natural gap reads. It pays only where the balls,
about sqrt(n) of them, touch a small share of many cells; elsewhere
(_at_groups) the slab is drawn as full rows and summed in groups. At
m = M nothing is drawn within groups, and the rows are those of the full
coupled slab, bit for bit.

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
from .model import CellModel, StepCdf, _block_sums, _estimate, _float_or_array, check_group_count

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
# 8: poissonization_gap draws its pairs at its m groups, nu and rho only in
# the cells where they differ, on rungs of M >= 2 sqrt(n) + 1400 cells
# (same law; its other rungs, full coupled rows, multinomial and
# Poissonized draws unchanged).
STREAM_VERSION = 8

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


def draw_slab(kind: str, cells: CellModel, n: int, rows: int, gen: Generator,
              groups: int | None = None) -> np.ndarray | CoupledGroups:
    """rows independent draws of the given kind, in order from gen, as an
    int64 (vectors, rows, M) array: one vector of Multinomial(n, p) rows or
    of independent Poisson(n * p_j) counts, or the two vectors (nu, rho) of
    coupled pairs. Poissonized slabs and multinomial slabs of rows shorter
    than _LONG_ROW cells take one numpy call; coupled slabs and longer
    multinomial rows are drawn row by row (_coupled_row), a multinomial row
    being the nu of a coupled one. Every vector passes the checks a
    CountsVector makes on each row: no negative count, every multinomial
    row sums to n, and every coupled rho row to its N.

    With groups = m, a divisor of M, a coupled slab is returned as
    CoupledGroups: the group counts, and nu and rho only in the cells where
    they differ, which must then differ by |N - n| balls on every row. It
    is drawn at the m groups where _at_groups finds that cheaper, and
    otherwise as the full coupled slab, summed in groups. At m = M its rows
    are those of the full coupled slab, bit for bit."""
    _check_n(n)
    if groups is not None:
        if kind != COUPLED:
            raise ValidationError(f"only coupled draws are drawn at groups, not {kind!r}")
        check_group_count(cells.M, groups)
    # totals: per vector, what its rows must sum to (a Poissonized row: any total)
    if kind == MULTINOMIAL and cells.M < _LONG_ROW:
        slab, totals = gen.multinomial(n, cells.p, size=rows)[None], [n]
    elif kind == POISSONIZED:
        slab, totals = gen.poisson(n * cells.p, size=(rows, cells.M))[None], []
    elif kind in (MULTINOMIAL, COUPLED):
        # a multinomial slab keeps only nu
        vectors = 2 if kind == COUPLED else 1
        m = groups if groups and _at_groups(cells.M, groups, n) else cells.M
        slab, Ns = np.empty((vectors, rows, m), dtype=np.int64), np.empty(rows, dtype=np.int64)
        layout, differ = _Layout(cells, n, m), []
        for i in range(rows):
            Ns[i], *pair, cells_i = _coupled_row(cells, n, gen, layout)
            for vector, counts in zip(slab, pair):
                vector[i] = counts
            differ.append(cells_i)
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
    return slab if groups is None else CoupledGroups.collect(slab, n, Ns, differ, cells.M, groups)


@dataclass(frozen=True, eq=False)
class CoupledGroups:
    """A slab of coupled pairs (nu, rho) seen at m groups of M/m cells.

    V and R are the int64 (rows, m) group counts of nu and of rho, one row
    per replication; iterating the slab yields them, as a full coupled slab
    yields (nu, rho). The cells where nu and rho differ are listed row by
    row: `row`, `cell`, and the counts `nu` and `rho` there. `revealed`
    counts the cells whose counts were drawn beyond the groups, summed over
    the rows: a row's differing cells, or all M cells of a row rebuilt from
    N or drawn in full; none at m = M, where the groups are the cells."""

    V: np.ndarray
    R: np.ndarray
    row: np.ndarray
    cell: np.ndarray
    nu: np.ndarray
    rho: np.ndarray
    revealed: int

    def __iter__(self):
        return iter((self.V, self.R))

    @classmethod
    def collect(cls, slab: np.ndarray, n: int, Ns: np.ndarray, differ: list, M: int,
                groups: int) -> "CoupledGroups":
        """The slab's counts at the groups and the differing cells of each
        row (None in a slab of full rows, where they are read off the rows
        before the rows are summed in groups), checked: no negative count,
        and sum_j |nu_j - rho_j| = |N - n| on every row."""
        V, R = slab
        rows, drawn = V.shape
        if drawn == M:
            row, cell = np.divmod(np.flatnonzero(V != R), M)
            nu, rho, revealed = V[row, cell], R[row, cell], 0 if groups == M else rows * M
            V, R = _block_sums(V, groups), _block_sums(R, groups)
        else:
            sizes = [c.size for c, _, _ in differ]
            row = np.repeat(np.arange(rows), sizes)
            cell, nu, rho = (np.concatenate(a).astype(np.int64, copy=False) for a in zip(*differ))
            revealed = sum(M if abs(N - n) > M else size for N, size in zip(Ns.tolist(), sizes))
        if min(nu.min(initial=0), rho.min(initial=0)) < 0:
            raise ValidationError("counts must be nonnegative")
        got, expected = np.bincount(row, np.abs(nu - rho), minlength=rows), np.abs(Ns - n)
        bad = np.flatnonzero(got != expected)
        if bad.size:
            raise ValidationError(
                f"coupled counts differ by {got[bad[0]]:g} balls, expected |N - n| = {expected[bad[0]]}")
        return cls(V, R, row, cell, nu, rho, revealed)


class _Layout:
    """What every coupled row of a slab at m groups reads: the positive
    cells, the cumulative sum of their p after a leading 0 (`edges`), the
    group probabilities q, the Poisson means n q and, for groups of more
    than one cell, where each group's positive cells start among them."""

    def __init__(self, cells: CellModel, n: int, m: int):
        self.m, self.width = m, cells.M // m
        self.positive = np.flatnonzero(cells.p > 0)
        self.edges = np.concatenate(([0.0], np.cumsum(cells.p[self.positive])))
        self.q = _block_sums(cells.p, m)
        self.means = n * self.q
        if self.width > 1:
            self.starts = np.searchsorted(self.positive, np.arange(m + 1) * self.width)


def _at_groups(M: int, m: int, n: int) -> bool:
    """Whether a coupled slab asked for at m < M groups is drawn at them:
    when M >= 2 sqrt(n) + 1400, else as full rows summed in groups.

    Against full rows in 16-row slabs (2-vCPU x86-64 VM, numpy 2.4), a
    full row costs about 76 ns per cell; a row at groups costs about 100 us
    more in its few dozen numpy calls, and about 0.2 us more per ball of its
    |N - n| ~ 0.8 sqrt(n), spent on the touched cells' conditional
    binomials. The two met near M = 2 sqrt(n) + 1400, from n/M = 1 to 1000
    and M = 1000 to 16000. So the groups pay where the balls touch a small
    share of many cells: at n/M = 3 from about 1540 cells on, at n/M = 1000
    from about 6500, and never at 1400 cells or fewer."""
    return m < M and M >= 2 * np.sqrt(n) + 1400


_NO_CELLS = (np.empty(0, dtype=np.int64),) * 3


def _coupled_row(cells: CellModel, n: int, gen: Generator, layout: _Layout):
    """(N, V, R, differ) of one coupled row seen at the layout's m groups.

    R ~ Poisson(n q) group by group and N is its total. If N < n, nu adds
    n - N new balls, each a uniform looked up in the cumulative p of the
    positive cells; if N > n, it removes N - n of rho's balls, drawn without
    replacement and mapped to their groups through the running sum of R.
    V is R plus or minus those balls. When |N - n| > M the pair is rebuilt
    from N by two multinomials over the cells (common and extra balls),
    which keeps the row at O(M) memory, and then summed in groups.

    At m = M the groups are the cells and differ is None. Otherwise differ
    is (cells, nu, rho) at the cells the |N - n| balls touch, the only ones
    where nu and rho differ, drawn given the group counts (_within): if
    N < n, rho there given R; if N > n, each removed ball's cell from p/q_g
    within its group (a group's R_g balls fall i.i.d. on its cells, and the
    removed ones are a uniform subset), then the kept balls there given
    R - D."""
    width = layout.width
    R = gen.poisson(layout.means)
    N = int(R.sum())
    k = abs(N - n)
    if k > cells.M:
        common, extra = gen.multinomial([min(N, n), k], cells.p)
        nu, rho = (common + extra, common) if N < n else (common, common + extra)
        if width == 1:
            return N, nu, rho, None
        differ = np.flatnonzero(extra)
        return N, _block_sums(nu, layout.m), _block_sums(rho, layout.m), (differ, nu[differ], rho[differ])
    if N < n:
        # the last positive cell takes every u at or above the second-last
        # cumulative value, so a rounded-up u * total stays in range
        edges = layout.edges
        u = gen.random(k)
        if width > 1:
            # sorted balls, the same counts: a ball's cell is all that is kept
            u.sort()
        balls = layout.positive[np.searchsorted(edges[1:-1], u * edges[-1], side="right")]
        if width == 1:
            return N, R + np.bincount(balls, minlength=cells.M), R, None
        ends = _runs(balls)
        differ, new = balls[ends[:-1]], np.diff(ends)
        rho = _within(gen, R, differ, cells.p, layout)
        return N, R + np.bincount(balls // width, minlength=layout.m), R, (differ, rho + new, rho)
    if N > n:
        removed = np.searchsorted(np.cumsum(R), gen.choice(N, k, replace=False, shuffle=False), side="right")
        V = R - np.bincount(removed, minlength=layout.m)
        if width == 1:
            return N, V, R, None
        starts = layout.starts
        balls = layout.positive[_fall(gen, starts[removed], starts[removed + 1], layout.edges)]
        differ, out = np.unique(balls, return_counts=True)
        nu = _within(gen, V, differ, cells.p, layout)
        return N, V, R, (differ, nu, nu + out)
    return N, R, R, None if width == 1 else _NO_CELLS


def _fall(gen: Generator, lo: np.ndarray, hi: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """For each ball, an index i in its own range [lo, hi), drawn with
    probability proportional to edges[i + 1] - edges[i]: a uniform looked
    up in the range's stretch of edges, then clipped into the range, so
    that rounding at a range's end never moves a ball into the next."""
    t = edges[lo] + gen.random(lo.size) * (edges[hi] - edges[lo])
    return np.minimum(np.maximum(np.searchsorted(edges, t, side="right") - 1, lo), hi - 1)


def _runs(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a starts, then a.size."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1], [True])))


def _within(gen: Generator, totals: np.ndarray, cells: np.ndarray, p: np.ndarray, layout: _Layout) -> np.ndarray:
    """The counts at the sorted distinct positive `cells` of a row whose
    group g holds totals[g] balls, each in cell j of g with probability
    p_j / q_g: per group, one Multinomial(totals[g]) over "the rest" of the
    group and its given cells, all groups in one numpy call.

    The groups' cells fill the rows of a table right-aligned, after a
    column for the rest and zero padding: numpy draws a row's columns as
    conditional binomials in order and gives the last column what is left,
    so a group whose given cells are all of its mass (the rest rounds to 0)
    puts every ball on them. The cost is one binomial per table entry,
    O(min(m, |N - n|) * min(M/m, |N - n|)), whatever totals[g] is."""
    group = cells // layout.width
    ends = _runs(group)
    lo, hi = ends[:-1], ends[1:]
    sizes = hi - lo
    wide = int(sizes.max()) + 1
    # the group's row of the table, and the column: its last cell in the last
    row = np.repeat(np.arange(lo.size), sizes)
    col = np.arange(cells.size) + np.repeat(wide - hi, sizes)
    table = np.zeros((lo.size, wide))
    table[row, col] = np.minimum(1.0, p[cells] / layout.q[group])
    table[:, 0] = np.maximum(0.0, 1.0 - table.sum(axis=1))
    return gen.multinomial(totals[group[lo]], table)[row, col]


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
