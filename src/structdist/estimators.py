"""The frequency-based estimators of the structural distribution function.

All four variants (natural / grouped, fixed-n / Poissonized counts) are
empirical CDFs of scaled counts. Jump locations live on the lattice
{0, s, 2s, ...} with s = size/n; the integer counts are kept alongside the
step CDF so lattice statements can be checked exactly rather than within
floating tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import GroupingScheme, StepCdf
from .sampling import CountsVector, group_counts

NATURAL = "natural"
GROUPED = "grouped"


@dataclass(frozen=True)
class EstimatorOutput:
    """An estimated structural CDF plus the integer counts that induced it.

    scale is the lattice spacing size/n; every jump location equals
    count * scale for some realized integer count. counts keeps the grouped
    (or raw) integer vector in group order for downstream re-evaluation.
    """

    cdf: StepCdf
    scale: float
    form: str
    sampling: str
    counts: np.ndarray
    n: int
    size: int

    @property
    def kind(self) -> tuple[str, str]:
        return (self.form, self.sampling)

    def __call__(self, x):
        return self.cdf(x)


def _build(counts: CountsVector, size: int, n: int, form: str) -> EstimatorOutput:
    scale = size / n
    values = counts.counts.astype(np.float64) * scale
    cdf = StepCdf.from_values(values)
    return EstimatorOutput(
        cdf=cdf,
        scale=scale,
        form=form,
        sampling=counts.kind,
        counts=counts.counts,
        n=n,
        size=size,
    )


def natural_estimator(counts: CountsVector, M: int | None = None, n: int | None = None) -> EstimatorOutput:
    """Empirical CDF of (M/n) * count_j, each cell carrying mass 1/M."""
    M = counts.size if M is None else M
    n = counts.n if n is None else n
    if counts.size != M:
        raise ValidationError(f"counts length {counts.size} does not match M={M}")
    if counts.n != n:
        raise ValidationError(f"counts were drawn with n={counts.n}, not n={n}")
    return _build(counts, M, n, NATURAL)


def grouped_estimator(
    counts: CountsVector,
    scheme: GroupingScheme,
    n: int | None = None,
    permutation=None,
) -> EstimatorOutput:
    """Empirical CDF of (m/n) * grouped-count_j, each group carrying mass 1/m.

    With k=1 this reproduces natural_estimator bit for bit: the grouping is
    the identity on the integer counts and both paths scale by size/n.
    """
    n = counts.n if n is None else n
    if counts.n != n:
        raise ValidationError(f"counts were drawn with n={counts.n}, not n={n}")
    grouped = group_counts(counts, scheme, permutation=permutation)
    return _build(grouped, scheme.m, n, NATURAL if scheme.k == 1 else GROUPED)


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
