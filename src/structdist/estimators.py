"""The frequency-based estimators of the structural distribution function.

All four variants (natural / grouped, fixed-n / Poissonized counts) are
empirical CDFs of scaled counts: with size cells (natural) or groups
(grouped), every count c carries mass 1/size at c * size / n, so the jumps
sit on the lattice {0, s, 2s, ...} with s = size/n. An estimate is kept as
its integer counts and evaluated on that lattice: at x it is the share of
counts <= K = lattice_floor(x n / size). This module owns the convention;
the study kernel evaluates every replication through the same two helpers.
The natural estimator is the grouped one with m = size; groups are blocks
of the counts in the order given (sort them first to order by probability).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import lattice_floor
from .errors import ValidationError
from .model import StepCdf, _block_sums
from .sampling import CountsVector

NATURAL = "natural"
GROUPED = "grouped"


def _lattice_index(x_grid, n: int, size: int) -> np.ndarray:
    """K = lattice_floor(x n / size) per x: the largest count the estimate at x
    includes (K = x itself at x = +-inf, which includes every count or none)."""
    return np.array([lattice_floor(x * n / size) if math.isfinite(x) else x for x in x_grid])


def _estimate(counts: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The estimate at each x: the share of the counts that are <= its K.
    counts may carry leading axes (one row per replication); the result
    then has those axes followed by one entry per K."""
    return np.count_nonzero(counts[..., None, :] <= K[:, None], axis=-1) / counts.shape[-1]


@dataclass(frozen=True)
class EstimatorOutput:
    """An estimated structural CDF, kept as the integer counts that induce it.

    counts holds the grouped (or raw) counts in group order, n the sample
    size and kind the pair (form, sampling). Calling the output at x gives
    the share of counts <= lattice_floor(x n / size); cdf is the same step
    function as a StepCdf, with jumps at the float values count * (size / n).
    """

    counts: np.ndarray
    n: int
    kind: tuple[str, str]

    @property
    def size(self) -> int:
        return int(self.counts.size)

    @property
    def cdf(self) -> StepCdf:
        return StepCdf.from_values(self.counts * (self.size / self.n))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        vals = _estimate(self.counts, _lattice_index(xs.ravel().tolist(), self.n, self.size))
        return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)

    def __eq__(self, other):
        if not isinstance(other, EstimatorOutput):
            return NotImplemented
        return self.n == other.n and self.kind == other.kind and np.array_equal(self.counts, other.counts)


def grouped_estimator(counts: CountsVector, m: int) -> EstimatorOutput:
    """Empirical CDF of (m/n) * grouped-count_j, each group carrying mass 1/m.

    The groups are m contiguous equal blocks of the counts in the order
    given; m must divide counts.size. With m = counts.size every block is
    one cell, so the output is the natural estimator.
    """
    grouped = _block_sums(counts.counts, m)
    return EstimatorOutput(grouped, counts.n, (NATURAL if m == counts.size else GROUPED, counts.kind))


def natural_estimator(counts: CountsVector) -> EstimatorOutput:
    """Empirical CDF of (M/n) * count_j, each cell carrying mass 1/M."""
    return grouped_estimator(counts, counts.size)


def check_regime(M: int, n: int, m: int, alpha: float = 0.1, threshold: float = 5.0) -> dict:
    """Finite-sample diagnostics for the asymptotic regime conditions.

    Reports lambda_hat = n/M and the ratios n/(m log m) and
    n/(m (log m)^(1/(2 alpha))). The boolean flags compare the ratios to a
    heuristic threshold (default 5.0) and are diagnostic only: the
    underlying conditions are asymptotic and admit no finite-n verdict.
    """
    if M < 1 or n < 1 or m < 1:
        raise ValidationError("M, n, m must be positive")
    if not 0 < alpha < 1 / 6:
        raise ValidationError(f"alpha must lie in (0, 1/6), got {alpha}")
    log_m = math.log(m)
    ratio_grouping = math.inf if m == 1 else n / (m * log_m)
    ratio_rate = math.inf if m == 1 else n / (m * log_m ** (1.0 / (2.0 * alpha)))
    note = ""
    if m == M:
        note = "natural-estimator regime (k=1); grouping consistency theory does not apply"
    return {
        "lambda_hat": n / M,
        "ratio_grouping": ratio_grouping,
        "ratio_rate": ratio_rate,
        "in_regime_grouping": ratio_grouping > threshold,
        "in_regime_rate": ratio_rate > threshold,
        "threshold": threshold,
        "alpha": alpha,
        "note": note,
    }
