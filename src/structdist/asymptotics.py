"""Limit laws and error bounds for the frequency estimators.

Deterministic numerics only: characteristic functions of the scaled count
distribution and their two limits, the Poisson-mixture limit of the natural
estimator, the smoothing (Esseen-type) bias bound with its optimal cutoff,
the MSE bounds with the optimal group count, and Poisson concentration
bounds. Monte Carlo counterparts live in the study module.

The limit laws are integrals over u in (0,1] of a function h of the
density g(u): the mixture CDF integrates P(Poisson(lambda g(u)) <= K), the
two limit characteristic functions exp(w g(u)). One function, _over_u,
computes every such integral: as the exact finite sum over the (width,
slope) pieces of a table generator, whose density is piecewise constant,
or for a smooth generator by QUADPACK's 21-point Gauss-Kronrod rule,
bisected adaptively in numpy: each round evaluates g and h once, as arrays,
on the nodes of every subinterval it bisects, and a complex h takes the
same one pass. Either way a NaN total raises NumericError, and so does a
quadrature that needs more than _QUAD_LIMIT subintervals or bisects one a
few ulps wide. The mixture CDF and the bounds take arrays and evaluate each
distinct quantity once.

scipy is imported where it is called, by the mixture CDF (scipy.special's
pdtr), so importing this module does not load it: only the mixture CDF
pays for it, on first use. Nothing here imports scipy.integrate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .generators import SmoothGenerator
from .model import CellModel, _as_x, _float_or_array

CHAR_TOL = 1e-8  # quadrature abs tolerance for characteristic functions
CDF_TOL = 1e-6  # quadrature abs tolerance for mixture CDFs
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the bias/MSE bounds.

    lambda_: limit of n/M.  tau: uniform bound on the limit density.
    c: the L2 constant in the step-density approximation integral(f_m - g)^2
    <= c/m^2; the midpoint-rule constant for a Lipschitz density is
    (sup|g'|)^2 / 12, which `for_generator` uses. c = 0 (a flat density, as
    for `uniform`) is exact and drops the L2 term. lambda_ is validated and
    carried, but no bound reads it: esseen_bias_bound, optimal_T, mse_bound
    and optimal_m read only tau and c.
    """

    lambda_: float
    tau: float
    c: float

    def __post_init__(self):
        for name, value in (("lambda", self.lambda_), ("tau", self.tau)):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.c < math.inf:
            raise ValidationError(f"c must be nonnegative and finite, got {self.c}")

    @classmethod
    def for_generator(cls, gen: SmoothGenerator, lambda_: float) -> "BoundParams":
        return cls(lambda_=lambda_, tau=gen.tau, c=gen.g_deriv_bound**2 / 12.0)


# Relative distance within which lattice_floor treats y as an integer: a few
# ulps, the rounding a product like x * n / m picks up (3 * (4/3) = 4,
# 0.35 * 300 = 104.99999999999999). A wider guard would round true
# non-integers up, e.g. 0.9999999991 * 999999 / 3 = 333332.9997 to 333333.
LATTICE_REL_GUARD = 4 * np.finfo(float).eps


def lattice_floor(y: float) -> int:
    """floor(y), treating values within LATTICE_REL_GUARD (relative) of an
    integer as that integer (floating products like 3 * (4/3) must land on 4)."""
    nearest = round(y)
    if abs(y - nearest) <= LATTICE_REL_GUARD * (1.0 + abs(y)):
        return int(nearest)
    return int(math.floor(y))


def _lattice_ks(xs, n, size) -> list:
    """K = lattice_floor(x n / size) per x, flattened, as exact Python
    numbers: the largest count that a step function with jumps at
    count * size / n includes at x. K = -1 for x < 0 (-0.0 is not) and +inf
    where x n / size is +inf (x = +inf, or a finite x whose product
    overflows); NaN is rejected."""
    xs = _as_x(xs).ravel()
    with np.errstate(over="ignore"):
        y = xs * n / size
    return [-1 if x < 0 else v if v == math.inf else lattice_floor(v) for x, v in zip(xs.tolist(), y.tolist())]


_INT64_MAX = np.iinfo(np.int64).max


def _lattice_index(xs, n, size) -> np.ndarray:
    """The K of _lattice_ks as an int64 array, compared with int64 counts at
    full speed: a K beyond int64 (+inf, or a finite K >= 2**63) is clipped to
    2**63 - 1, which no count exceeds, so every estimate stays the same."""
    return np.array([min(K, _INT64_MAX) for K in _lattice_ks(xs, n, size)], dtype=np.int64)


def _check_lambda(lambda_: float) -> None:
    if not 0 < lambda_ < math.inf:
        raise ValidationError(f"lambda must be positive and finite, got {lambda_}")


# QUADPACK's 21-point Gauss-Kronrod rule (qk21; Piessens et al., QUADPACK,
# 1983) on [-1, 1]: the Kronrod nodes +-x_j (x_10 = 0) with weights _WGK[j],
# and the 10-point Gauss rule on the nodes +-x_j of odd j, with weights _WG.
# The Kronrod sum is exact for polynomials of degree <= 31.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = np.array((0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077208980010441, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821))
_WG = np.array((0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                0.295524224714752870173892994651338))
# the nodes -x_0..-x_10 then x_0..x_9, and the Kronrod weight of each
_NODES = np.concatenate((-np.array(_XGK), _XGK[:-1]))
_NODE_WEIGHTS = np.concatenate((_WGK, _WGK[:-1]))
_EPS = float(np.finfo(float).eps)
_QUAD_REL = 1.49e-8  # relative tolerance, scipy.integrate.quad's default


def _kronrod(f, lo: np.ndarray, hi: np.ndarray):
    """qk21 on each subinterval [lo_i, hi_i]: the Kronrod integrals of f,
    QUADPACK's error estimates and their caps resasc (the integral of
    |f - mean|), from one call of f on all the nodes.
    The sums run over the pairs f(c - h x_j) + f(c + h x_j), as QUADPACK's
    do, in one fixed order."""
    half = (hi - lo) / 2
    fv = f((((lo + hi) / 2)[:, None] + half[:, None] * _NODES).ravel()).reshape(lo.size, _NODES.size)
    pairs = fv[:, :10] + fv[:, 11:]
    kronrod = (pairs * _WGK[:10]).sum(axis=1) + fv[:, 10] * _WGK[10]
    resabs = (np.abs(fv) * _NODE_WEIGHTS).sum(axis=1) * half
    resasc = (np.abs(fv - kronrod[:, None] / 2) * _NODE_WEIGHTS).sum(axis=1) * half
    err = np.abs((kronrod - (pairs[:, 1::2] * _WG).sum(axis=1)) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0) & (err != 0), resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    return kronrod * half, np.maximum(err, 50 * _EPS * resabs), resasc


def _adaptive_kronrod(f, epsabs: float):
    """integral over [0, 1] of f, which takes a 1-D array of points, by qk21
    bisected adaptively: each round bisects every subinterval whose error
    estimate exceeds its width's share of max(epsabs, 1.49e-8 * |total|),
    calling f once on the nodes of all the new halves. Needing more than
    _QUAD_LIMIT subintervals, or a bisection of one a few ulps wide, raises
    NumericError; an integrand that is NaN on an interval needs both."""
    lo, hi = np.zeros(1), np.ones(1)
    value, err, resasc = _kronrod(f, lo, hi)
    # as in QUADPACK's qags, [0, 1] alone is not enough when its estimate is
    # resasc, the cap that says the rule did not resolve f
    unresolved = bool(err[0] == resasc[0] != 0)
    while True:
        total = value.sum()
        # a NaN total leaves tol at epsabs, and a NaN error estimate is bisected
        tol = max(epsabs, _QUAD_REL * abs(total))
        split = ~(err <= tol * (hi - lo)) | unresolved
        unresolved = False
        if not split.any():
            return total
        a, b, keep = lo[split], hi[split], ~split
        failure = (f"more than {_QUAD_LIMIT} subintervals" if lo.size + a.size > _QUAD_LIMIT
                   else "a subinterval a few ulps wide" if np.any(b - a <= 4 * _EPS * b) else None)
        if failure:
            raise NumericError(f"quadrature over u in (0,1] failed: {failure}, error estimate "
                               f"{err.sum():.3g} against tolerance {tol:.3g}")
        mid = (a + b) / 2
        new_value, new_err, _ = _kronrod(f, np.concatenate((a, mid)), np.concatenate((mid, b)))
        lo, hi = np.concatenate((lo[keep], a, mid)), np.concatenate((hi[keep], mid, b))
        value, err = np.concatenate((value[keep], new_value)), np.concatenate((err[keep], new_err))


def _over_u(h, gen: SmoothGenerator, epsabs: float, at: str):
    """integral over u in (0,1] of h(g(u)), for an h that takes arrays and
    may be complex: for a table generator the exact sum of width * h(slope)
    over its pieces, for a smooth one adaptive qk21 quadrature to epsabs
    (_adaptive_kronrod), a complex h in one pass like a real one, each
    round calling g once on the nodes of all its subintervals. Overflow and
    invalid values inside h are not warned about; a total that is NaN, or
    a quadrature that needs more than _QUAD_LIMIT subintervals or the
    bisection of one a few ulps wide, raises NumericError, the NaN naming
    `at`."""
    with np.errstate(over="ignore", invalid="ignore"):
        if gen.pieces:
            widths, slopes = np.asarray(gen.pieces, dtype=float).T
            total = np.sum(widths * h(slopes)).item()
        else:
            total = _adaptive_kronrod(lambda u: h(gen.g(u)), epsabs).item()
    if np.isnan(total):
        raise NumericError(f"the integral over u in (0,1] is not a number at {at}")
    return total


# ---------- characteristic functions ----------

def phi_m(t: float, model: CellModel, n: int) -> complex:
    """Characteristic function of the scaled group count under Poissonized
    sampling: (1/m) sum_j exp((n/m) z_j (e^{i t m / n} - 1)) with z_j = m q_j,
    for the grouped model (m, q) (a cell model is its own k=1 grouping)."""
    m = model.M
    z = m * model.p
    ell = n / m
    w = ell * (np.exp(1j * t / ell) - 1.0)
    return complex(np.mean(np.exp(w * z)))


def limit_char_natural(t: float, gen: SmoothGenerator, lambda_: float) -> complex:
    """Fixed-lambda limit of phi_m: integral over u of exp(lambda g(u) (e^{it/lambda} - 1))."""
    _check_lambda(lambda_)
    w = lambda_ * (np.exp(1j * t / lambda_) - 1.0)
    return _over_u(lambda v: np.exp(w * v), gen, CHAR_TOL, f"t={t}, lambda={lambda_}")


def limit_char_grouped(t: float, gen: SmoothGenerator) -> complex:
    """n/m -> infinity limit of phi_m: the characteristic function of g(U),
    integral over u of exp(i t g(u))."""
    w = 1j * t
    return _over_u(lambda v: np.exp(w * v), gen, CHAR_TOL, f"t={t}")


# ---------- the Poisson-mixture limit of the natural estimator ----------

def poisson_mixture_cdf(x, gen: SmoothGenerator, lambda_: float):
    """CDF of Y/lambda where Y | Z=z is Poisson(lambda z) and Z has the
    limiting structural CDF (Y degenerate at 0 on {Z=0}).

    Evaluates integral over (0,1] of P(Poisson(lambda g(u)) <= K) du with
    K = _lattice_ks(x, lambda, 1), by _over_u to CDF_TOL.
    P(Poisson(mu) <= K) = pdtr(K, mu) is 1 at mu=0, so the zero-density
    atom needs no special casing, and 0 at mu=inf, so a lambda * slope that
    overflows is right.

    x is a scalar (float out) or an array (array out). The CDF is constant
    between the lattice points k/lambda, so each distinct K is evaluated
    once. It is 0 for x < 0 and 1 where lambda x is +inf; NaN is rejected.
    A quadrature that fails, or an exact sum that is NaN, raises NumericError.
    """
    from scipy import special

    _check_lambda(lambda_)
    xs = np.asarray(x, dtype=float)
    Ks = _lattice_ks(xs, lambda_, 1)

    def at(K) -> float:
        return _over_u(lambda v: special.pdtr(K, lambda_ * v), gen, CDF_TOL, f"lambda={lambda_}, K={K:g}")

    values = {K: 0.0 if K < 0 else 1.0 if K == math.inf else min(1.0, max(0.0, at(K))) for K in set(Ks)}
    return _float_or_array(np.array([values[K] for K in Ks]).reshape(xs.shape))


# ---------- smoothing bias bound and its optimal cutoff ----------
#
# The bound functions take a group count m, or an array of them (T in
# esseen_bias_bound likewise), and pick the regime per element; a scalar in
# gives a float out. A bound whose constants overflow the float range (tau =
# 1e80 puts (24 tau)^4 beyond it) says nothing, so it raises NumericError.

def _finite_bound(fn):
    """fn, raising NumericError when it overflows: on Python's OverflowError
    or a non-finite entry of its result (numpy's warnings are silenced)."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = fn(*args, **kwargs)
            if np.all(np.isfinite((out.m_n, out.bound_value) if isinstance(out, OptimalGroupCount) else out)):
                return out
        except OverflowError:
            pass
        raise NumericError(f"{fn.__name__}: the bound overflows the float range for these constants")

    return checked


def _group_counts(m) -> np.ndarray:
    ms = np.asarray(m, dtype=float)
    if np.any(ms < 1):
        raise ValidationError(f"m must be >= 1, got {ms[ms < 1].flat[0]:g}")
    return ms


@_finite_bound
def esseen_bias_bound(m, n: int, T, params: BoundParams):
    """The four-term smoothing bound on |E(estimate at x) - F(x)|, any x.

    Vacuous (> 1) at small n; callers should treat values >= 1 as
    uninformative rather than clamp them.
    """
    ms = _group_counts(m)
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise ValidationError(f"T must be positive, got {T[T <= 0].flat[0]:g}")
    r = ms / n
    return _float_or_array(
        (4.0 / (9.0 * math.pi)) * r * r * T**3
        + (1.0 / (2.0 * math.pi)) * r * T * T
        + (params.c / (2.0 * math.pi)) * T * T / (ms * ms)
        + 24.0 * params.tau / (math.pi * T)
    )


@_finite_bound
def optimal_T(m, n: int, params: BoundParams):
    """Cutoff equating the dominant terms of the smoothing bound.

    (24 tau)^(1/3) (n/m)^(1/3) when the group count dominates (m >= n^(1/3),
    or any m when c = 0 and there is no L2 term);
    c^(-1/3) (24 tau)^(1/3) m^(2/3) in the opposite regime where the
    step-density L2 term dominates.
    """
    ms = _group_counts(m)
    base = (24.0 * params.tau) ** (1.0 / 3.0)
    by_groups = base * (n / ms) ** (1.0 / 3.0)
    if params.c == 0:
        return _float_or_array(by_groups)
    return _float_or_array(
        np.where(ms >= n ** (1.0 / 3.0), by_groups, params.c ** (-1.0 / 3.0) * base * ms ** (2.0 / 3.0))
    )


@_finite_bound
def mse_bound(m, n: int, params: BoundParams, regime: str = "auto"):
    """Leading-order MSE bound for the grouped estimator.

    regime="smoothing": (9 / 4 pi^2) (24 tau)^(4/3) (m/n)^(2/3) + 1/(4m),
    the squared-bias-plus-variance tradeoff valid for m well above n^(1/3).
    regime="variance": 1/(4m), valid for m well below n^(1/3) where the bias
    is negligible. regime="auto" switches at m = n^(1/3) (the boundary uses
    the smoothing branch). Remainder terms are dropped throughout.

    optimal_m minimizes the smoothing branch without that range restriction;
    see its docstring for when its m_n falls below n^(1/3).
    """
    if regime not in ("auto", "smoothing", "variance"):
        raise ValidationError(f"regime must be auto, smoothing, or variance; got {regime!r}")
    ms = _group_counts(m)
    smoothing = ms >= n ** (1.0 / 3.0) if regime == "auto" else regime == "smoothing"
    lead = (9.0 / (4.0 * math.pi**2)) * (24.0 * params.tau) ** (4.0 / 3.0) * (ms / n) ** (2.0 / 3.0)
    return _float_or_array(np.where(smoothing, lead, 0.0) + 1.0 / (4.0 * ms))


@dataclass(frozen=True)
class OptimalGroupCount:
    """The group count minimizing the smoothing-regime MSE bound, with the bound value there."""

    m_n: float
    bound_value: float


@_finite_bound
def optimal_m(n: int, params: BoundParams) -> OptimalGroupCount:
    """m_n = (pi^6 / (6^3 (24 tau)^4))^(1/5) n^(2/5), the exact unconstrained
    minimizer of the smoothing-regime bound; bound_value is the documented
    (non-sharp) upper bound (33/4) ((24 tau)^2 / (6 pi^3))^(2/5) n^(-2/5).

    m_n minimizes the bound; it is not an estimate of the group count that
    minimizes the true MSE, which can lie far from it. With coeff the factor
    in front of n^(2/5), m_n < n^(1/3) whenever n < coeff^(-15) (about
    1.7e18 for tau = 2), so m_n then lies outside the range m well above
    n^(1/3) where mse_bound's smoothing branch is stated to hold."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    t24 = 24.0 * params.tau
    coeff = (math.pi**6 / (6**3 * t24**4)) ** (1.0 / 5.0)
    m_n = coeff * n ** (2.0 / 5.0)
    bound = (33.0 / 4.0) * (t24**2 / (6.0 * math.pi**3)) ** (2.0 / 5.0) * n ** (-2.0 / 5.0)
    return OptimalGroupCount(m_n=m_n, bound_value=bound)


# ---------- Poisson concentration ----------

def bernstein_poisson_tail(mean: float, epsilon: float) -> float:
    """Bernstein-type bound on P(|X - EX| / sqrt(EX) >= eps) for X Poisson:
    2 exp(-eps^2 / (2 + eps (EX)^(-1/2))), capped at 1; EX and eps positive and finite."""
    if not 0 < mean < math.inf:
        raise ValidationError(f"mean must be positive and finite, got {mean}")
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    val = 2.0 * math.exp(-(epsilon**2) / (2.0 + epsilon / math.sqrt(mean)))
    return min(1.0, val)

