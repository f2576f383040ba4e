"""Limit laws and error bounds for the frequency estimators.

Deterministic numerics only: characteristic functions of the scaled count
distribution and their two limits, the Poisson-mixture limit of the natural
estimator, the smoothing (Esseen-type) bias bound with its optimal cutoff,
the MSE bounds with the optimal group count, and Poisson concentration
bounds. Monte Carlo counterparts live in the study module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import quad

from .errors import ValidationError
from .generators import SmoothGenerator
from .model import CellModel, GroupedModel

CHAR_TOL = 1e-8  # quadrature abs tolerance for characteristic functions
CDF_TOL = 1e-6  # quadrature abs tolerance for mixture CDFs
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the bias/MSE bounds.

    lambda_: limit of n/M.  tau: uniform bound on the limit density.
    c: the L2 constant in the step-density approximation integral(f_m - g)^2
    <= c/m^2; the midpoint-rule constant for a Lipschitz density is
    (sup|g'|)^2 / 12, which `for_generator` uses as default.  alpha: the
    exponent in the rate condition, restricted to (0, 1/6).
    """

    lambda_: float
    tau: float
    c: float
    alpha: float = 0.1

    def __post_init__(self):
        if self.lambda_ <= 0:
            raise ValidationError(f"lambda must be positive, got {self.lambda_}")
        if self.tau <= 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.c <= 0:
            raise ValidationError(f"c must be positive, got {self.c}")
        if not 0 < self.alpha < 1 / 6:
            raise ValidationError(f"alpha must lie in (0, 1/6), got {self.alpha}")

    @classmethod
    def for_generator(cls, gen: SmoothGenerator, lambda_: float, alpha: float = 0.1) -> "BoundParams":
        return cls(lambda_=lambda_, tau=gen.tau, c=gen.g_deriv_bound**2 / 12.0, alpha=alpha)


@dataclass(frozen=True)
class LimitLaw:
    """The limit of an estimator: a CDF plus a description of the mixture behind it."""

    cdf: Callable[[float], float]
    lambda_: float
    description: str


def lattice_floor(y: float, rel_guard: float = 1e-9) -> int:
    """floor(y), treating values within a tiny relative distance of an
    integer as that integer (floating products like 3 * (4/3) must land on 4)."""
    nearest = round(y)
    if abs(y - nearest) <= rel_guard * (1.0 + abs(y)):
        return int(nearest)
    return int(math.floor(y))


def _model_z(model) -> np.ndarray:
    """The scaled probabilities size * prob_j, the jump support of the structural CDF."""
    if isinstance(model, CellModel):
        return model.M * model.p
    if isinstance(model, GroupedModel):
        return model.m * model.q
    raise ValidationError(f"expected CellModel or GroupedModel, got {type(model).__name__}")


def _quad_u(f, gen: SmoothGenerator, epsabs: float) -> float:
    """integral over u in (0,1] of f(u), split at the generator's density knots."""
    knots = gen.knots
    return quad(f, 0.0, 1.0, epsabs=epsabs, points=knots or None, limit=_QUAD_LIMIT + len(knots))[0]


def _quad_complex(f, gen: SmoothGenerator, epsabs: float) -> complex:
    return complex(_quad_u(lambda u: f(u).real, gen, epsabs), _quad_u(lambda u: f(u).imag, gen, epsabs))


# ---------- characteristic functions ----------

def phi_m(t: float, model, n: int) -> complex:
    """Characteristic function of the scaled group count under Poissonized
    sampling: (1/m) sum_j exp((n/m) z_j (e^{i t m / n} - 1)) with z_j = m q_j."""
    z = _model_z(model)
    m = z.size
    ell = n / m
    w = ell * (np.exp(1j * t / ell) - 1.0)
    return complex(np.mean(np.exp(w * z)))


def limit_char_natural(t: float, gen: SmoothGenerator, lambda_: float) -> complex:
    """Fixed-lambda limit of phi_m: integral over u of exp(lambda g(u) (e^{it/lambda} - 1))."""
    if lambda_ <= 0:
        raise ValidationError(f"lambda must be positive, got {lambda_}")
    w = lambda_ * (np.exp(1j * t / lambda_) - 1.0)
    return _quad_complex(lambda u: np.exp(w * float(gen.g(u))), gen, CHAR_TOL)


def limit_char_grouped(t: float, gen: SmoothGenerator) -> complex:
    """n/m -> infinity limit of phi_m: the characteristic function of g(U),
    integral over u of exp(i t g(u))."""
    return _quad_complex(lambda u: np.exp(1j * t * float(gen.g(u))), gen, CHAR_TOL)


# ---------- the Poisson-mixture limit of the natural estimator ----------

def poisson_mixture_cdf(x: float, gen: SmoothGenerator, lambda_: float) -> float:
    """CDF of Y/lambda where Y | Z=z is Poisson(lambda z) and Z has the
    limiting structural CDF (Y degenerate at 0 on {Z=0}).

    Evaluates integral over (0,1] of P(Poisson(lambda g(u)) <= floor(lambda x)) du.
    P(Poisson(mu) <= K) = gammaincc(K+1, mu), which is 1 at mu=0, so the
    zero-density atom needs no special casing.
    """
    if lambda_ <= 0:
        raise ValidationError(f"lambda must be positive, got {lambda_}")
    if x < 0:
        return 0.0
    K = lattice_floor(lambda_ * x)
    val = _quad_u(lambda u: float(special.gammaincc(K + 1, lambda_ * float(gen.g(u)))), gen, CDF_TOL)
    return min(1.0, max(0.0, val))


def natural_limit_law(gen: SmoothGenerator, lambda_: float) -> LimitLaw:
    return LimitLaw(
        cdf=lambda x: poisson_mixture_cdf(x, gen, lambda_),
        lambda_=lambda_,
        description=(
            "scaled Poisson mixture: Y/lambda with Y | Z=z ~ Poisson(lambda z), "
            "Z distributed as the limiting structural CDF, Y = 0 on {Z=0}"
        ),
    )


# ---------- smoothing bias bound and its optimal cutoff ----------

def esseen_bias_bound(m: int, n: int, T: float, params: BoundParams) -> float:
    """The four-term smoothing bound on |E(estimate at x) - F(x)|, any x.

    Vacuous (> 1) at small n; callers should treat values >= 1 as
    uninformative rather than clamp them.
    """
    if T <= 0:
        raise ValidationError(f"T must be positive, got {T}")
    r = m / n
    return (
        (4.0 / (9.0 * math.pi)) * r * r * T**3
        + (1.0 / (2.0 * math.pi)) * r * T * T
        + (params.c / (2.0 * math.pi)) * T * T / (m * m)
        + 24.0 * params.tau / (math.pi * T)
    )


def optimal_T(m: int, n: int, params: BoundParams) -> float:
    """Cutoff equating the dominant terms of the smoothing bound.

    (24 tau)^(1/3) (n/m)^(1/3) when the group count dominates (m >= n^(1/3));
    c^(-1/3) (24 tau)^(1/3) m^(2/3) in the opposite regime where the
    step-density L2 term dominates.
    """
    base = (24.0 * params.tau) ** (1.0 / 3.0)
    if m >= n ** (1.0 / 3.0):
        return base * (n / m) ** (1.0 / 3.0)
    return params.c ** (-1.0 / 3.0) * base * m ** (2.0 / 3.0)


def mse_bound(m: int, n: int, params: BoundParams, regime: str = "auto") -> float:
    """Leading-order MSE bound for the grouped estimator.

    regime="smoothing": (9 / 4 pi^2) (24 tau)^(4/3) (m/n)^(2/3) + 1/(4m),
    the squared-bias-plus-variance tradeoff valid for m well above n^(1/3).
    regime="variance": 1/(4m), valid for m well below n^(1/3) where the bias
    is negligible. regime="auto" switches at m = n^(1/3) (the boundary uses
    the smoothing branch). Remainder terms are dropped throughout.

    optimal_m minimizes the smoothing branch without that range restriction;
    see its docstring for when its m_n falls below n^(1/3).
    """
    if regime == "auto":
        regime = "smoothing" if m >= n ** (1.0 / 3.0) else "variance"
    if regime == "smoothing":
        lead = (9.0 / (4.0 * math.pi**2)) * (24.0 * params.tau) ** (4.0 / 3.0) * (m / n) ** (2.0 / 3.0)
        return lead + 1.0 / (4.0 * m)
    if regime == "variance":
        return 1.0 / (4.0 * m)
    raise ValidationError(f"regime must be auto, smoothing, or variance; got {regime!r}")


@dataclass(frozen=True)
class OptimalGroupCount:
    """The group count minimizing the smoothing-regime MSE bound, with the bound value there."""

    m_n: float
    bound_value: float


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
    2 exp(-eps^2 / (2 + eps (EX)^(-1/2))), capped at 1."""
    if mean <= 0:
        raise ValidationError(f"mean must be positive, got {mean}")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    val = 2.0 * math.exp(-(epsilon**2) / (2.0 + epsilon / math.sqrt(mean)))
    return min(1.0, val)


def poissonization_union_bound(model: GroupedModel, n: int, delta: float) -> float:
    """Union bound over the m groups on max_j |(m/n) count_j - m q_j| >= delta
    for Poissonized group counts: 2 m exp(-(n/m) delta^2 / (2c + delta)) with
    c = max_j m q_j, capped at 1. At m=1 this is the single-cell Bernstein
    form with the deviation rescaled to the z scale."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    z = _model_z(model)
    c = float(np.max(z))
    if c == 0.0:
        return 0.0  # all groups empty with probability 1, no deviation possible
    m = model.m
    val = 2.0 * m * math.exp(-(n / m) * delta**2 / (2.0 * c + delta))
    return min(1.0, val)
