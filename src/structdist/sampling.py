"""Seeded sampling of multinomial, Poissonized and coupled cell counts.

A CountsVector keeps the cell order of its model, and is also the estimate
of the structural CDF that its counts induce: grouped_estimator returns the
CountsVector of m groups, whose estimate is the grouped estimator.

Streams are addressed by (seed, stream_index): the pair feeds a
SeedSequence, whose avalanche mixing makes the streams independent and
individually reproducible, bit for bit, across runs and platforms. Every
draw takes a running Generator. A study draws its replications in order,
a slab of rows per draw_slab call, from one running generator per rung,
plus one per kind of variate for a coupled slab (RngStream.streams); the
single draws are row 0 of a one-row slab.

A coupled pair (nu, rho) counts the first n and the first N ~ Poisson(n)
balls of one categorical stream. It is drawn N first, as Poissonization
reads it, and seen at m groups of M/m cells (draw_slab with groups=m, a
CoupledGroups slab; m = M, one cell per group, by default): N ~ Poisson(n),
the k = |N - n| extra balls fall on cells, and the min(n, N) common balls
are one multinomial over the cells those balls touch and, for each group,
the rest of it. So nu and rho are drawn only in the touched cells, the only
ones where they differ, and their group counts are sums: O(m + k) variates
per row at any n/M, with the exact joint law of the group counts and of
the differing cells. sum_j |nu_j - rho_j| = k on every row, and the
shorter sample lies inside the longer one. A row with k > M places its
extra balls by one multinomial over the cells, which keeps every row at
O(M) memory for any n <= MAX_N. The rows of a slab are drawn together
(_grouped_slab), each kind of variate from its own stream of
RngStream.streams, so that row r still depends only on the rows before it:
every N from the running generator, the extra balls in row order from a
second stream, and every row's common balls by one 2-D multinomial from a
third.

A multinomial row of at least _LONG_ROW cells is the nu of a coupled row
drawn rho first (_coupled_row): rho is one row of independent Poisson(n p_j)
counts, so N is its total, and nu is rho plus or minus the k balls between
the two samples, or both are rebuilt from N by two multinomials if k > M.
One Poisson row plus or minus its O(sqrt(n)) balls costs less than numpy's
multinomial, which draws one binomial per cell (0.6 of its time on the
9009 blocks of the criterion-9 sweep). Shorter rows, where the per-row
work of that route dominates, take numpy's multinomial in one call per
slab.
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
# 9: a coupled pair at m < M groups draws N, its |N - n| extra balls, then
# its common balls by one multinomial over the touched cells and the rest of
# each group, on every gap rung (was: R at the groups, then the touched
# cells given R; same law; full coupled rows, multinomial and Poissonized
# draws unchanged).
# 10: the rows of a grouped coupled slab at m < M are drawn together, from
# three streams of the rung: every N from its running generator, the extra
# balls from a second and the common balls from a third (RngStream.streams;
# same law; full coupled rows, multinomial and Poissonized draws unchanged).
# 11: every coupled slab is a grouped one, drawn N first at m = M groups by
# default: draw_coupled, coupled slabs at the cells and gap rungs with
# m = M (was: rho first, row by row; same law; multinomial, Poissonized and
# grouped draws at m < M unchanged).
STREAM_VERSION = 11

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

    def streams(self) -> tuple[Generator, Generator, Generator]:
        """The running generator, as generator() builds it, then the
        generators of a coupled slab's extra and common balls: the
        two children of the stream's SeedSequence (SeedSequence.spawn;
        Generator.spawn is newer than numpy 1.24)."""
        seq = SeedSequence(entropy=[self.seed, self.stream_index])
        return tuple(Generator(PCG64(s)) for s in (seq, *seq.spawn(2)))


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


def _check_totals(message: str, got: np.ndarray, expected) -> None:
    """Refuse the first row whose total in `got` is not `expected`."""
    expected = np.broadcast_to(expected, got.shape)
    bad = np.flatnonzero(got != expected)
    if bad.size:
        raise ValidationError(message.format(got[bad[0]], expected[bad[0]]))


def draw_slab(kind: str, cells: CellModel, n: int, rows: int, gen: Generator | tuple,
              groups: int | None = None) -> np.ndarray | CoupledGroups:
    """rows independent draws of the given kind, in order from gen: a
    running Generator or the three of RngStream.streams, the running one
    first.

    A multinomial or Poissonized slab is an int64 (rows, M) array of
    Multinomial(n, p) rows or of independent Poisson(n * p_j) counts.
    Poissonized slabs and multinomial slabs of rows shorter than _LONG_ROW
    cells take one numpy call; longer multinomial rows are drawn row by row
    as the nu of a coupled row (_coupled_row). Every row passes the checks
    a CountsVector makes: no negative count, and a multinomial row sums to n.

    A coupled slab is a CoupledGroups of pairs (nu, rho) seen at `groups` =
    m groups, a divisor of M (M by default, where V and R are nu and rho),
    its rows drawn together, N first, each kind of variate from its own of
    the three streams (_grouped_slab). A slab from three streams is that
    many one-row slabs drawn in order from them; a lone Generator serves as
    all three, and then a slab no longer equals its one-row draws."""
    _check_n(n)
    if groups is not None and kind != COUPLED:
        raise ValidationError(f"only coupled draws are drawn at groups, not {kind!r}")
    streams = gen if isinstance(gen, tuple) else (gen,) * 3
    gen = streams[0]
    if kind == COUPLED:
        m = cells.M if groups is None else groups
        check_group_count(cells.M, m)
        return CoupledGroups.collect(n, *_grouped_slab(cells, n, rows, streams, _Layout(cells, n, m)))
    if kind == MULTINOMIAL and cells.M < _LONG_ROW:
        slab = gen.multinomial(n, cells.p, size=rows)
    elif kind == MULTINOMIAL:
        layout, slab = _Layout(cells, n, cells.M), np.empty((rows, cells.M), dtype=np.int64)
        for i in range(rows):
            slab[i] = _coupled_row(cells, n, gen, layout)[1]
    elif kind == POISSONIZED:
        slab = gen.poisson(n * cells.p, size=(rows, cells.M))
    else:
        raise ValidationError(f"unknown counts kind {kind!r}")
    slab = np.ascontiguousarray(slab, dtype=np.int64)
    if slab.min(initial=0) < 0:
        raise ValidationError("counts must be nonnegative")
    if kind == MULTINOMIAL:
        _check_totals("multinomial counts sum to {}, expected {}", slab.sum(axis=1), n)
    return slab


@dataclass(frozen=True, eq=False)
class CoupledGroups:
    """A slab of coupled pairs (nu, rho) seen at m groups of M/m cells.

    V and R are the int64 (rows, m) group counts of nu and of rho, one row
    per replication, and iterating the slab yields them: at m = M they are
    nu and rho. The cells where nu and rho differ are listed row by row:
    `row`, `cell`, and the counts `nu` and `rho` there. `revealed` counts
    the cells whose counts were drawn beyond the groups, summed over the
    rows: the cells a row's |N - n| extra balls touch, or all M cells of a
    row whose extra balls were drawn over the cells (|N - n| > M)."""

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
    def collect(cls, n: int, N: np.ndarray, pair: tuple, differ: tuple, revealed: int) -> "CoupledGroups":
        """The group counts pair = (V, R) and differing cells differ = (row,
        cell, nu, rho) of rows with Poisson totals N, checked: no negative
        count, V sums to n, R to N and |nu - rho| to |N - n| on every row."""
        (V, R), (row, cell, nu, rho) = pair, differ
        if min(a.min(initial=0) for a in (V, R, nu, rho)) < 0:
            raise ValidationError("counts must be nonnegative")
        _check_totals("multinomial counts sum to {}, expected {}", V.sum(axis=1), n)
        _check_totals("poissonized counts sum to {}, expected {}", R.sum(axis=1), N)
        _check_totals("coupled counts differ by {:g} balls, expected |N - n| = {}",
                      np.bincount(row, np.abs(nu - rho), minlength=V.shape[0]), np.abs(N - n))
        return cls(V, R, row, cell, nu, rho, revealed)


class _Layout:
    """What every coupled row of a slab at m groups reads: the positive
    cells, the cumulative sum of their p after a leading 0 (`edges`), the
    group probabilities q and, for rows drawn rho first, the Poisson means
    n q."""

    def __init__(self, cells: CellModel, n: int, m: int):
        self.m, self.width = m, cells.M // m
        self.positive = np.flatnonzero(cells.p > 0)
        self.edges = np.concatenate(([0.0], np.cumsum(cells.p[self.positive])))
        q = _block_sums(cells.p, m)
        self.means = n * q
        # one group's q is sum(p), which can round above 1, a probability
        # that numpy's multinomial refuses
        self.q = np.minimum(q, 1.0)

    def cells_of(self, u: np.ndarray) -> np.ndarray:
        """The cells of categorical balls, one per uniform u, looked up in
        the cumulative p of the positive cells (fastest when u is sorted).
        The last positive cell takes every u at or above the second-last
        cumulative value, so a rounded-up u * total stays in range."""
        edges = self.edges
        return self.positive[np.searchsorted(edges[1:-1], u * edges[-1], side="right")]


def _coupled_row(cells: CellModel, n: int, gen: Generator, layout: _Layout):
    """(N, nu, rho) of one coupled row over the cells, drawn rho first: the
    route of long multinomial rows, which keep nu.

    rho ~ Poisson(n p) cell by cell and N is its total. If N < n, nu adds
    n - N new balls, sorted uniforms looked up in the cumulative p; if
    N > n, it removes N - n of rho's balls, drawn without replacement,
    sorted and mapped to their cells through the running sum of rho. When
    |N - n| > M the pair is rebuilt from N by two multinomials over the
    cells (common and extra balls), which keeps the row at O(M) memory."""
    R = gen.poisson(layout.means)
    N = int(R.sum())
    k = abs(N - n)
    if k > cells.M:
        common, extra = gen.multinomial([min(N, n), k], cells.p)
        return (N, common + extra, common) if N < n else (N, common, common + extra)
    if N < n:
        return N, R + np.bincount(layout.cells_of(np.sort(gen.random(k))), minlength=cells.M), R
    if N > n:
        picks = np.sort(gen.choice(N, k, replace=False, shuffle=False))
        return N, R - np.bincount(np.searchsorted(np.cumsum(R), picks, side="right"), minlength=cells.M), R
    return N, R, R


def _grouped_slab(cells: CellModel, n: int, rows: int, streams: tuple, layout: _Layout):
    """(N, (V, R), (row, cell, nu, rho), revealed) of `rows` coupled rows
    seen at the layout's m groups, N first, drawn together from the
    three streams (gen_n, gen_extra, gen_common).

    Every N ~ Poisson(n) comes from gen_n. The k = |N - n| extra balls of
    the rows come from gen_extra in row order: a run of rows with k <= M
    takes one uniform per ball, looked up in sorted order in the cumulative
    p of the positive cells; a row with k > M, one multinomial over the
    cells. The cells a row's balls touch, T, are listed with nu and rho
    there, by row, then by cell. The min(n, N) common balls of every row
    are one 2-D multinomial from gen_common over a table whose row holds
    zero padding, then each group's rest, max(0, q_g - the p of its
    touched cells), then the p of T: numpy gives the last column the
    remainder, so that column must be a real category, and a zero column
    draws no variate, so each row draws what it would alone. Row r thus
    depends only on the rows before it, in any slab.

    Per group, C counts the common balls and E the extra ones, both summed
    in int64 (counts reach 2**62, where a float sum is no longer exact).
    The first n balls are nu and the first N are rho: V = C + E and R = C
    if N < n, V = C and R = C + E if N > n; at T each is the common count
    plus, for the longer sample, the new one. revealed sums |T| over the
    rows, M for a row with k > M."""
    gen_n, gen_extra, gen_common = streams
    m, width = layout.m, layout.width
    N = gen_n.poisson(n, size=rows)
    k = np.abs(N - n)
    over = k > cells.M
    parts, start = [], 0
    for r in [*np.flatnonzero(over).tolist(), rows]:
        if start < r:
            run = k[start:r]
            u = gen_extra.random(int(run.sum()))
            # each ball as row * M + cell (far below 2**63 for any M whose
            # cells fit in memory), its cell looked up in sorted order
            order, balls = np.argsort(u), np.repeat(np.arange(start, r) * cells.M, run)
            balls[order] += layout.cells_of(u[order])
            balls.sort()
            # where each run of equal balls starts, then the ball count
            first = np.ones(balls.size + 1, dtype=bool)
            np.not_equal(balls[1:], balls[:-1], out=first[1:-1])
            ends = np.flatnonzero(first)
            parts.append((*np.divmod(balls[ends[:-1]], cells.M), np.diff(ends)))
        if r < rows:
            extra = gen_extra.multinomial(k[r], cells.p)
            touched = np.flatnonzero(extra)
            parts.append((np.full(touched.size, r), touched, extra[touched]))
        start = r + 1
    row, cell, new = (np.concatenate(a) for a in zip(*parts))
    # each touched cell's (row, group), ascending
    key = row * m + cell // width
    E = np.zeros(rows * m, dtype=np.int64)
    np.add.at(E, key, new)
    t, p = np.bincount(row, minlength=rows), cells.p[cell]
    # the table, flat: row r's m rests start at lead[r], its touched p follow
    W = m + int(t.max())
    lead = np.arange(rows) * W + (W - m) - t
    at_rest = lead[:, None] + np.arange(m)
    at_touched = np.arange(row.size) + (lead + m - (np.cumsum(t) - t))[row]
    table = np.zeros(rows * W)
    table[at_rest] = np.maximum(0.0, layout.q - np.bincount(key, p, minlength=rows * m).reshape(rows, m))
    table[at_touched] = p
    drawn = gen_common.multinomial(np.minimum(N, n), table.reshape(rows, W)).reshape(-1)
    C, common = drawn[at_rest], drawn[at_touched]
    np.add.at(C.reshape(-1), key, common)
    less, E = N < n, E.reshape(rows, m)
    differ = row, cell, common + new * less[row], common + new * ~less[row]
    revealed = cells.M * int(over.sum()) + int(t[~over].sum())
    return N, (C + E * less[:, None], C + E * ~less[:, None]), differ, revealed


def draw_multinomial(cells: CellModel, n: int, gen: Generator) -> CountsVector:
    """One Multinomial(n, p) count vector."""
    return CountsVector(MULTINOMIAL, draw_slab(MULTINOMIAL, cells, n, 1, gen)[0], n=n)


def draw_poissonized(cells: CellModel, n: int, gen: Generator) -> CountsVector:
    """Independent Poisson(n * p_j) counts; the total is the realized N."""
    return CountsVector(POISSONIZED, draw_slab(POISSONIZED, cells, n, 1, gen)[0], n=n)


def draw_coupled(cells: CellModel, n: int, gen: Generator) -> tuple[CountsVector, CountsVector]:
    """A coupled pair (nu, rho): fixed-n multinomial counts and Poissonized
    counts of the first n and the first N ~ Poisson(n) balls of one
    categorical stream, row 0 of a one-row coupled slab.

    sum_j |nu_j - rho_j| = |N - n| exactly for every realization, which is
    what the Poissonization coupling bound needs. Marginally rho_j are
    independent Poisson(n * p_j).
    """
    nu, rho = draw_slab(COUPLED, cells, n, 1, gen)
    return CountsVector(MULTINOMIAL, nu[0], n=n), CountsVector(POISSONIZED, rho[0], n=n)
