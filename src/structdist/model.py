"""Core domain types (cell-probability models, step CDFs), the one
grouping operation (the sums of m contiguous equal blocks of a vector) and
the one share of counts that every estimate is read as (_estimate).

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Absolute tolerance for probability sums. Generators produce telescoping
# sums that are exact to rounding, so this can be tight.
PROB_TOL = 1e-12

# The largest size a run accepts (M, or a study's reps * m values * x
# values): numpy rejects 2**60 or more 8-byte elements with a bare ValueError.
_MAX_SIZE = 2**59


def _float_or_array(v):
    """A float for a 0-d result (a scalar came in), else the array."""
    return float(v) if np.ndim(v) == 0 else v


def _as_x(x) -> np.ndarray:
    """The x argument of a CDF as a float array; every CDF here rejects a NaN x."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise ValidationError("x must not be NaN")
    return xs


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class CellModel:
    """A multinomial cell-probability vector p_1..p_M; the ground truth of every
    experiment. Grouping M cells into m blocks gives another CellModel, with
    M = m and p the block sums q_1..q_m (see group_model). Equal by value and,
    like the array it holds, unhashable."""

    M: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float_vector(self.p, "p"))
        if self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")
        if self.p.shape[0] != self.M:
            raise ValidationError(f"p has length {self.p.shape[0]}, expected M={self.M}")
        bad = np.flatnonzero(~(self.p >= 0))  # a NaN fails too
        if bad.size:
            j = int(bad[0])
            raise ValidationError(f"cell probability p[{j}]={self.p[j]} is not >= 0")
        total = float(np.sum(self.p))
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValidationError(f"cell probabilities sum to {total!r}, expected 1 within {PROB_TOL}")
        self.p.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, CellModel):
            return NotImplemented
        return self.M == other.M and np.array_equal(self.p, other.p)


class StepCdf:
    """A right-continuous step distribution function with finitely many jumps.

    Stored as aggregated (location, mass) pairs: locations strictly
    increasing, every mass > 0, masses summing to 1. Ties at exactly-equal
    floating locations are merged, so a model with M cells yields at most M
    distinct jumps and sup-distance computations are exact.
    """

    __slots__ = ("locations", "masses", "_levels")

    def __init__(self, locations, masses):
        locations = _as_float_vector(locations, "locations")
        masses = _as_float_vector(masses, "masses")
        if locations.shape != masses.shape:
            raise ValidationError("locations and masses must have equal length")
        if locations.size == 0:
            raise ValidationError("a StepCdf needs at least one jump")
        # written so that a NaN fails each check
        if not np.all(np.diff(locations) > 0):
            raise ValidationError("jump locations must be strictly increasing")
        if not np.all(masses > 0):
            raise ValidationError("every jump mass must be positive")
        total = float(np.sum(masses))
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValidationError(f"jump masses sum to {total!r}, expected 1 within {PROB_TOL}")
        self.locations = locations
        self.masses = masses
        # F before the first jump and after each; the last is the total, free of cumsum drift
        self._levels = np.concatenate(([0.0], np.cumsum(masses)))
        self._levels[-1] = total
        self.locations.flags.writeable = False
        self.masses.flags.writeable = False

    @classmethod
    def from_values(cls, values) -> "StepCdf":
        """Empirical CDF of `values`, each with mass 1/len; equal values are
        merged. Its level after each jump is exact: the number of values at
        or below it over len, the share an estimate reads."""
        v = _as_float_vector(values, "values")
        if v.size == 0:
            raise ValidationError("a StepCdf needs at least one jump")
        locs, multiplicity = np.unique(v, return_counts=True)
        cdf = cls(locs, multiplicity / v.size)
        cdf._levels[1:] = np.cumsum(multiplicity) / v.size
        return cdf

    @property
    def n_jumps(self) -> int:
        return int(self.locations.size)

    def __call__(self, x):
        """F(x) = total mass at locations <= x (right-continuous); a float for a scalar x."""
        return _float_or_array(self._levels[np.searchsorted(self.locations, _as_x(x), side="right")])

    def __eq__(self, other):
        if not isinstance(other, StepCdf):
            return NotImplemented
        return (
            self.locations.shape == other.locations.shape
            and bool(np.all(self.locations == other.locations))
            and bool(np.all(self.masses == other.masses))
        )

    def __repr__(self):
        return f"StepCdf({self.n_jumps} jumps on [{self.locations[0]:g}, {self.locations[-1]:g}])"


# ---------- operations ----------

def structural_cdf(cells: CellModel) -> StepCdf:
    """Empirical CDF of the scaled cell probabilities M*p_j, each with mass 1/M
    (for a grouped model, of m*q_j, each with mass 1/m)."""
    return StepCdf.from_values(cells.M * cells.p)


def divisors_of(M: int) -> list[int]:
    """The positive divisors of M >= 1, ascending."""
    if M < 1:
        raise ValidationError(f"M must be a positive integer, got {M}")
    small = [d for d in range(1, int(math.isqrt(M)) + 1) if M % d == 0]
    return sorted(set(small + [M // d for d in small]))


def nearest_divisor(M: int, m: int) -> int:
    """The divisor of M >= 1 closest to m (ties go to the smaller divisor).
    Scans outward from m, m - r before m + r, for at most isqrt(M) // 32
    steps, so a divisor at distance r costs O(r); past that budget it lists
    every divisor, a loop of isqrt(M) steps, 32 times the scan's."""
    if M >= 1:
        m = min(max(m, 1), M)  # M is nearest to any m >= M, 1 to any m <= 1
        # with m within the budget the downward range reaches 1, which divides M
        steps = min(m, math.isqrt(M) // 32)
        for lo, hi in zip(range(m, m - steps, -1), range(m, m + steps)):
            if M % lo == 0:
                return lo
            if M % hi == 0:
                return hi
    return min(divisors_of(M), key=lambda d: (abs(d - m), d))


def check_group_count(M: int, m: int) -> None:
    """Reject a group count m that is not a positive divisor of M >= 1,
    naming the nearest divisor (nearest_divisor itself rejects M < 1)."""
    if M < 1 or m < 1 or M % m != 0:
        raise ValidationError(f"m={m} does not divide M={M}; nearest divisor is {nearest_divisor(M, max(m, 1))}")


def _block_sums(a: np.ndarray, m: int) -> np.ndarray:
    """Sums over m contiguous equal blocks of the last axis of `a`, in the
    order given; leading axes (one row per replication) are kept."""
    check_group_count(a.shape[-1], m)
    return a.reshape(*a.shape[:-1], m, -1).sum(axis=-1)


def _estimate(counts: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The estimate at each x: the share of the counts that are <= its K.
    counts may carry leading axes (one row per replication); the result
    then has those axes followed by one entry per K."""
    return np.count_nonzero(counts[..., None, :] <= K[:, None], axis=-1) / counts.shape[-1]


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Running sums of the last axis of `a` after a leading zero, so that
    every block sum is the difference of two entries (_prefix_block_sums)."""
    c = np.zeros((*a.shape[:-1], a.shape[-1] + 1), dtype=a.dtype)
    np.cumsum(a, axis=-1, out=c[..., 1:])
    return c


def _prefix_block_sums(c: np.ndarray, m: int) -> np.ndarray:
    """_block_sums(a, m) from c = _prefix_sums(a): one strided difference,
    O(m) per row however short the blocks are (exact for integer a)."""
    L = c.shape[-1] - 1
    check_group_count(L, m)
    k = L // m
    return c[..., k::k] - c[..., :L:k]


def group_model(cells: CellModel, m: int) -> CellModel:
    """The grouped model: m cells whose probabilities q_j are the block sums
    of the cell probabilities over m contiguous groups of size M/m."""
    return CellModel(m, _block_sums(cells.p, m))


def _sup_to_function(locations: np.ndarray, values: np.ndarray, cdf):
    """Exact sup |S(x) - F(x)| over all x, for each step CDF S along the last
    axis against any CDF F that takes arrays: S jumps at the sorted
    `locations` to `values`, where a location may repeat and S's value
    there is that of its last entry (the end of its run). S is constant
    between its jumps and F monotone, so the sup is at a jump x, from the
    right (S(x) against F(x), at each run's end) or the left (the previous
    run's value against F(x-), at each run's start, read at the float just
    below x, which is F(x) only where F is continuous at x). For strictly
    increasing locations every entry is a run; a 1-D input gives a float,
    leading axes (one step CDF per row) an array of sups."""
    values = np.broadcast_to(values, locations.shape)
    ends = np.ones(locations.shape, dtype=bool)
    np.not_equal(locations[..., 1:], locations[..., :-1], out=ends[..., :-1])
    starts = np.ones_like(ends)
    starts[..., 1:] = ends[..., :-1]
    before = np.zeros(locations.shape)
    before[..., 1:] = values[..., :-1]
    right = np.where(ends, np.abs(values - cdf(locations)), 0.0).max(axis=-1)
    left = np.where(starts, np.abs(before - cdf(np.nextafter(locations, -np.inf))), 0.0).max(axis=-1)
    return _float_or_array(np.maximum(right, left))


def sup_distance(step, cdf) -> float:
    """Exact sup |step(x) - F(x)| for a StepCdf step against any CDF F that
    takes arrays, a StepCdf too. An estimate (a CountsVector) on either side
    is read as its StepCdf `cdf`: its lattice index maps the float just below
    a jump back onto the jump, so calling it cannot give a left limit."""
    step = getattr(step, "cdf", step)
    return _sup_to_function(step.locations, step._levels[1:], getattr(cdf, "cdf", cdf))
