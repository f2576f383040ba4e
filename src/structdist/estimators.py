"""The frequency-based estimators of the structural distribution function.

All four variants (natural / grouped, fixed-n / Poissonized counts) are
empirical CDFs of scaled counts: with size cells (natural) or groups
(grouped), every count c carries mass 1/size at c * size / n, so the jumps
sit on the lattice {0, s, 2s, ...} with s = size/n. An estimate is the
CountsVector of its counts: the grouped estimator is the natural estimator
of the m group counts, which are multinomial (Poisson) counts of the
grouped model. At x it is the share of counts <= K = lattice_floor(x n /
size), by `asymptotics._lattice_index` and `model._estimate`, the one index
and share of every estimate, study and the Poisson-mixture limit; its
`cdf`, whose levels are those exact shares, gives the CLI its jump table.
Groups are blocks of the counts in the order given (sort them first to
order by probability).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import _block_sums
from .sampling import CountsVector

# check_regime's rate exponent (in (0, 1/6)) and the ratio above which a flag reads true
REGIME_ALPHA = 0.1
REGIME_THRESHOLD = 5.0


def grouped_estimator(counts: CountsVector, m: int) -> CountsVector:
    """The CountsVector of m groups, whose estimate is the empirical CDF of
    (m/n) * group count, each group carrying mass 1/m; kind and n are kept.

    The groups are m contiguous equal blocks of the counts in the order
    given; m must divide counts.size. With m = counts.size every block is
    one cell, so the output equals counts: the natural estimator.
    """
    return CountsVector(counts.kind, _block_sums(counts.counts, m), counts.n)


def natural_estimator(counts: CountsVector) -> CountsVector:
    """Empirical CDF of (M/n) * count_j, each cell carrying mass 1/M: a CountsVector equal to counts."""
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
