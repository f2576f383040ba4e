"""Exact reference values the benchmark checks the package's outputs against.

Nothing here imports structdist: every value is derived from the paper's
closed forms, so a wrong answer from the package cannot also corrupt its
reference.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import special

# Stated Monte Carlo gates. A pooled mean must stay within the Bernstein
# radius at false-alarm rate ALPHA, which holds for rare-event cells where a
# normal z does not; a pooled variance may sit at most Z_GATE standard errors
# from its exact value.
ALPHA = 1e-7
Z_GATE = 5.0
# The package's quadrature tolerance for mixture CDFs (asymptotics.CDF_TOL).
CDF_TOL = 1e-6
# Gross-error gate for the table-generator mixture CDF. The package's
# quadrature misses CDF_TOL on piecewise-constant densities (the integrand
# jumps at every knot); the measured error is reported next to this gate.
TABLE_GATE = 1e-3
# Gate for the bracketed structural limit of a table generator
# (generators.LIMIT_ABS_TOL).
LIMIT_TOL = 1e-6
# Criterion 10: |mse - bias^2 - var (R-1)/R| on every study cell.
RESIDUAL_GATE = 1e-10
# How far a probability may leave [0, 1] by float rounding. The package's
# StepCdf keeps its summed mass as the top of the CDF and guarantees that sum
# only within model.PROB_TOL = 1e-12 of 1 (the ingest CDF of corpus seed 84
# ends at 1 + 2.2e-16).
PROB_TOL = 1e-12


def in_unit(v: float) -> bool:
    """v lies in [0, 1] up to PROB_TOL."""
    return -PROB_TOL <= v <= 1.0 + PROB_TOL


def example_group_probs(m: int) -> np.ndarray:
    """q_j = G(j/m) - G((j-1)/m) for G(x) = 2x - x^2, in closed form."""
    j = np.arange(1, m + 1, dtype=float)
    return (2.0 - (2.0 * j - 1.0) / m) / m


def lattice_points(x: float, n: int, m: int) -> tuple[int, int]:
    """(K, K_float): K = floor(x n / m) in exact arithmetic, and the largest
    count the package's floating comparison count * (m/n) <= x admits.

    The two differ only when x n / m is an integer whose float product
    rounds up; both conventions are accepted at such cells and reported.
    """
    K = math.floor(Fraction(x) * n / m)
    K_float = K if float(K) * (m / n) <= x else K - 1
    return K, K_float


def group_indicator_probs(x: float, n: int, m: int, K: int, poissonized: bool) -> np.ndarray:
    """P(count_j <= K) for each group of the worked example."""
    q = example_group_probs(m)
    if poissonized:
        return special.pdtr(K, n * q)
    return special.bdtr(K, n, q)


def mean_deviation(mean: float, P: np.ndarray, m: int, reps: int) -> tuple[float, float]:
    """(ratio, z) of a pooled grouped-estimator mean against its exact value.

    Over reps replications the estimate sums reps * m indicators 1{count_j <= K},
    whose variance is at most V = reps * sum_j P_j (1 - P_j): exactly so for
    independent Poissonized groups, and as a bound for negatively associated
    multinomial ones. Bernstein then bounds the count deviation by
    L/3 + sqrt(L^2/9 + 2 V L), L = log(2/ALPHA); ratio is the deviation over
    that radius (the gate is ratio <= 1) and z the deviation in units of sqrt(V).
    """
    V = reps * float(np.sum(P * (1.0 - P)))
    dev = abs(mean - float(np.sum(P)) / m) * m * reps
    L = math.log(2.0 / ALPHA)
    z = dev / math.sqrt(V) if V > 0 else (0.0 if dev <= 1e-9 else math.inf)
    return dev / (L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * V * L)), z


def grouped_moments(P: np.ndarray, m: int) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of (1/m) sum_j B_j for
    independent Bernoulli(P_j): exact for Poissonized counts."""
    k2 = P * (1.0 - P)
    k4 = k2 * (1.0 - 6.0 * k2)
    var = float(np.sum(k2))
    return float(np.sum(P)) / m, var / m**2, (float(np.sum(k4)) + 3.0 * var * var) / m**4


def var_se(var: float, mu4: float, reps: int) -> float:
    """Standard error of the ddof=1 sample variance from the exact moments."""
    return math.sqrt(max(0.0, (mu4 - var * var * (reps - 3) / (reps - 1)) / reps))


def example_mixture_cdf(x: float, lam: float) -> float:
    """Closed form of the Poisson-mixture CDF for g(u) = 2(1-u):
    (1/2 lam) sum_{k<=K} P(k+1, 2 lam) with K = floor(lam x)."""
    if x < 0:
        return 0.0
    K = math.floor(lam * x)
    k = np.arange(K + 1, dtype=float)
    return min(1.0, float(np.sum(special.gammainc(k + 1.0, 2.0 * lam))) / (2.0 * lam))


def table_slopes(u: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Piece widths and densities of a piecewise-linear G."""
    widths = np.diff(u)
    return widths, np.diff(G) / widths


def table_mixture_cdf(x: float, lam: float, widths: np.ndarray, slopes: np.ndarray) -> float:
    """Exact mixture CDF for a piecewise-constant density: the integral is a
    finite sum of piece widths times Poisson CDFs."""
    if x < 0:
        return 0.0
    K = math.floor(lam * x)
    return min(1.0, float(np.sum(widths * special.pdtr(K, lam * slopes))))


def table_structural_cdf(x: float, widths: np.ndarray, slopes: np.ndarray) -> float:
    """F(x) = Leb{u : g(u) <= x}, exact for a piecewise-constant g."""
    return float(np.sum(widths[slopes <= x]))


def bounds_table(n: int, m: np.ndarray, tau: float, c: float) -> np.ndarray:
    """Columns (Tn, bias_bound, mse_bound, m_n) of the leading-order bounds."""
    m = m.astype(float)
    smoothing = m >= n ** (1.0 / 3.0)
    base = (24.0 * tau) ** (1.0 / 3.0)
    T = np.where(smoothing, base * (n / m) ** (1.0 / 3.0), c ** (-1.0 / 3.0) * base * m ** (2.0 / 3.0))
    r = m / n
    bias = (
        (4.0 / (9.0 * math.pi)) * r * r * T**3
        + (1.0 / (2.0 * math.pi)) * r * T * T
        + (c / (2.0 * math.pi)) * T * T / (m * m)
        + 24.0 * tau / (math.pi * T)
    )
    lead = (9.0 / (4.0 * math.pi**2)) * (24.0 * tau) ** (4.0 / 3.0) * r ** (2.0 / 3.0)
    mse = np.where(smoothing, lead, 0.0) + 1.0 / (4.0 * m)
    m_n = (math.pi**6 / (6**3 * (24.0 * tau) ** 4)) ** 0.2 * n**0.4
    return np.column_stack([T, bias, mse, np.full(m.size, m_n)])


def corpus_cdf(text: str, m: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(n, M, jump locations, CDF values) of the frequency-ordered grouped
    estimator, recounted from the whitespace-separated corpus."""
    counts = np.sort(np.fromiter(Counter(text.split()).values(), dtype=np.int64))
    n, M = int(counts.sum()), counts.size
    padded = np.concatenate([np.zeros((-M) % m, dtype=np.int64), counts])
    values = padded.reshape(m, -1).sum(axis=1).astype(np.float64) * (m / n)
    locs, multiplicity = np.unique(values, return_counts=True)
    return n, M, locs, np.cumsum(multiplicity) / m
