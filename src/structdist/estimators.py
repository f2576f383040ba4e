"""The frequency-based estimators of the structural distribution function.

All four variants (natural / grouped, fixed-n / Poissonized counts) are
empirical CDFs of scaled counts: with size cells (natural) or groups
(grouped), every count c carries mass 1/size at c * size / n, so the jumps
sit on the lattice {0, s, 2s, ...} with s = size/n. An estimate is kept as
its integer counts and evaluated on that lattice: at x it is the share of
counts <= K = lattice_floor(x n / size), by `asymptotics._lattice_index`,
the int64 form of `_lattice_ks`, the one index of every estimate, study and
the Poisson-mixture limit.
`_estimate` and `_jumps` (the one jump table) serve the studies and the CLI.
The natural estimator is the grouped one with m = size; groups are blocks
of the counts in the order given (sort them first to order by probability).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _lattice_index
from .errors import ValidationError
from .model import StepCdf, _block_sums, _float_or_array
from .sampling import CountsVector

NATURAL = "natural"
GROUPED = "grouped"

# check_regime's rate exponent (in (0, 1/6)) and the ratio above which a flag reads true
REGIME_ALPHA = 0.1
REGIME_THRESHOLD = 5.0


def _estimate(counts: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The estimate at each x: the share of the counts that are <= its K.
    counts may carry leading axes (one row per replication); the result
    then has those axes followed by one entry per K."""
    return np.count_nonzero(counts[..., None, :] <= K[:, None], axis=-1) / counts.shape[-1]


def _jumps(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The jump table of the estimate of counts from a sample of size n: for
    each distinct count v, ascending, its location v * (size / n) and the
    share of the counts that are <= v."""
    values, multiplicity = np.unique(counts, return_counts=True)
    return values * (counts.size / n), np.cumsum(multiplicity) / counts.size


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
        return _float_or_array(_estimate(self.counts, _lattice_index(xs, self.n, self.size)).reshape(xs.shape))

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


def check_regime(M: int, n: int, m: int) -> dict:
    """Finite-sample diagnostics for the asymptotic regime conditions.

    Reports lambda_hat = n/M and the ratios n/(m log m) and
    n/(m (log m)^(1/(2 REGIME_ALPHA))). The boolean flags compare the ratios
    to the heuristic REGIME_THRESHOLD and are diagnostic only: the
    underlying conditions are asymptotic and admit no finite-n verdict.
    """
    if M < 1 or n < 1 or m < 1:
        raise ValidationError("M, n, m must be positive")
    log_m = math.log(m)
    ratio_grouping = math.inf if m == 1 else n / (m * log_m)
    ratio_rate = math.inf if m == 1 else n / (m * log_m ** (1.0 / (2.0 * REGIME_ALPHA)))
    note = ""
    if m == M:
        note = "natural-estimator regime (k=1); grouping consistency theory does not apply"
    return {
        "lambda_hat": n / M,
        "ratio_grouping": ratio_grouping,
        "ratio_rate": ratio_rate,
        "in_regime_grouping": ratio_grouping > REGIME_THRESHOLD,
        "in_regime_rate": ratio_rate > REGIME_THRESHOLD,
        "threshold": REGIME_THRESHOLD,
        "alpha": REGIME_ALPHA,
        "note": note,
    }
