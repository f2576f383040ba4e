"""Core domain types: cell-probability models, grouping schemes, step CDFs.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Absolute tolerance for probability sums. Generators produce telescoping
# sums that are exact to rounding, so this can be tight.
PROB_TOL = 1e-12


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CellModel:
    """A multinomial cell-probability vector p_1..p_M; the ground truth of every
    experiment. Grouping M cells into m blocks gives another CellModel, with
    M = m and p the block sums q_1..q_m (see group_model)."""

    M: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float_vector(self.p, "p"))
        if self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")
        if self.p.shape[0] != self.M:
            raise ValidationError(f"p has length {self.p.shape[0]}, expected M={self.M}")
        if np.any(self.p < 0):
            j = int(np.argmin(self.p))
            raise ValidationError(f"cell probability p[{j}]={self.p[j]} is negative")
        total = float(np.sum(self.p))
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"cell probabilities sum to {total!r}, expected 1 within {PROB_TOL}")
        self.p.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, CellModel):
            return NotImplemented
        return self.M == other.M and np.array_equal(self.p, other.p)


@dataclass(frozen=True)
class GroupingScheme:
    """Partition of M cells into m contiguous groups of equal size k, M = k*m.

    With ordered=True the cells are sorted by ascending probability before
    the blocks are cut; the same permutation must then be applied to any
    count vector grouped under this scheme (see grouping_permutation).
    """

    M: int
    m: int
    k: int
    ordered: bool = False

    def __post_init__(self):
        if self.M < 1 or self.m < 1 or self.k < 1:
            raise ValidationError(f"M, m, k must be positive, got ({self.M}, {self.m}, {self.k})")
        if self.k * self.m != self.M:
            raise ValidationError(f"scheme requires M = k*m exactly, got {self.k}*{self.m} != {self.M}")
        if self.m > self.M:
            raise ValidationError(f"m={self.m} exceeds M={self.M}")


class StepCdf:
    """A right-continuous step distribution function with finitely many jumps.

    Stored as aggregated (location, mass) pairs: locations strictly
    increasing, every mass > 0, masses summing to 1. Ties at exactly-equal
    floating locations are merged, so a model with M cells yields at most M
    distinct jumps and sup-distance computations are exact.
    """

    __slots__ = ("locations", "masses", "_cum")

    def __init__(self, locations, masses):
        locations = _as_float_vector(locations, "locations")
        masses = _as_float_vector(masses, "masses")
        if locations.shape != masses.shape:
            raise ValidationError("locations and masses must have equal length")
        if locations.size == 0:
            raise ValidationError("a StepCdf needs at least one jump")
        if np.any(np.diff(locations) <= 0):
            raise ValidationError("jump locations must be strictly increasing")
        if np.any(masses <= 0):
            raise ValidationError("every jump mass must be positive")
        total = float(np.sum(masses))
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"jump masses sum to {total!r}, expected 1 within {PROB_TOL}")
        self.locations = locations
        self.masses = masses
        self._cum = np.cumsum(masses)
        # guard against drift in long cumsums; last entry is the total mass
        self._cum[-1] = total
        self.locations.flags.writeable = False
        self.masses.flags.writeable = False

    @classmethod
    def from_values(cls, values, weights=None) -> "StepCdf":
        """Empirical CDF of `values`, optionally weighted; equal values are merged."""
        values = _as_float_vector(values, "values")
        if weights is None:
            weights = np.full(values.shape, 1.0 / values.size)
        else:
            weights = _as_float_vector(weights, "weights")
        order = np.argsort(values, kind="stable")
        v = values[order]
        w = weights[order]
        locs, start = np.unique(v, return_index=True)
        masses = np.add.reduceat(w, start)
        return cls(locs, masses)

    @property
    def n_jumps(self) -> int:
        return int(self.locations.size)

    def __call__(self, x):
        """F(x) = total mass at locations <= x (right-continuous)."""
        idx = np.searchsorted(self.locations, x, side="right")
        return self._value_at_index(idx)

    def before(self, x):
        """Left limit F(x-) = total mass at locations < x."""
        idx = np.searchsorted(self.locations, x, side="left")
        return self._value_at_index(idx)

    def _value_at_index(self, idx):
        cum = np.concatenate(([0.0], self._cum))
        out = cum[idx]
        if np.isscalar(idx) or np.ndim(idx) == 0:
            return float(out)
        return out

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


def grouping_permutation(cells: CellModel, scheme: GroupingScheme) -> np.ndarray:
    """The cell permutation the scheme applies before cutting blocks.

    Identity unless scheme.ordered, in which case cells are sorted by
    ascending probability (stable). Computed once on the model and reused
    for count vectors so model and counts always group consistently.
    """
    if scheme.M != cells.M:
        raise ValidationError(f"scheme.M={scheme.M} does not match cells.M={cells.M}")
    if scheme.ordered:
        return np.argsort(cells.p, kind="stable")
    return np.arange(cells.M)


def group_model(cells: CellModel, scheme: GroupingScheme) -> CellModel:
    """The grouped model: m cells whose probabilities are the block sums q_j
    of the cell probabilities over groups of size k."""
    perm = grouping_permutation(cells, scheme)
    q = cells.p[perm].reshape(scheme.m, scheme.k).sum(axis=1)
    return CellModel(scheme.m, q)


def sup_distance(a: StepCdf, b: StepCdf) -> float:
    """Exact sup |a(x) - b(x)|, evaluated at and just before every jump of either CDF."""
    grid = np.union1d(a.locations, b.locations)
    at = np.abs(a(grid) - b(grid))
    before = np.abs(a.before(grid) - b.before(grid))
    return float(max(at.max(), before.max()))


def sup_distance_to_function(step: StepCdf, cdf, *, grid=None) -> float:
    """Exact sup |step(x) - F(x)| against a continuous CDF F.

    Between consecutive jumps the step function is constant and F is
    monotone, so the supremum is attained at a jump location, approached
    from the left or the right; F's continuity makes both one-sided values
    equal to F at the jump. Extra `grid` points may be supplied when F has
    its own jumps.
    """
    xs = step.locations if grid is None else np.union1d(step.locations, grid)
    f = np.asarray([float(cdf(float(x))) for x in xs])
    at = np.abs(step(xs) - f)
    before = np.abs(step.before(xs) - f)
    return float(max(at.max(), before.max()))
