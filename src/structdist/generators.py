"""Cell models built from a smooth generating distribution on (0, 1].

A generator is a nondecreasing G on [0,1] with G(0)=0, G(1)=1 and density
g; cells are the increments p_j = G(j/M) - G((j-1)/M). The limiting
structural distribution is the CDF of g(U) with U uniform on (0,1].
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, ValidationError
from .model import CellModel, GroupedModel

AUDIT_GRID = 10_000  # grid size for the numeric generator audit


@dataclass(frozen=True)
class SmoothGenerator:
    """A generating distribution G with density g and its analytic bounds.

    G and g both take arrays. tau bounds |g| and g_deriv_bound bounds |g'|;
    both are treated as known analytic inputs (the error bounds consume
    them), but `audit` checks them numerically on a grid. `limit_cdf` is the
    exact CDF of g(U); limit_sdf needs it. `bounded_density` is False for
    generators whose density blows up (they remain usable for sampling but
    sit outside the error-bound hypotheses). `knots` lists the points in
    (0,1) where g jumps, so quadratures over u can split there.
    """

    name: str
    G: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    tau: float
    g_deriv_bound: float
    limit_cdf: Optional[Callable[[float], float]] = None
    bounded_density: bool = True
    knots: tuple[float, ...] = ()

    def audit(self, grid: int = AUDIT_GRID, slack: float = 1e-9) -> dict:
        """Numerically verify the declared invariants of (G, g, tau, g_deriv_bound).

        Returns a record of the measured quantities; raises NumericError if
        G fails to be a distribution function on [0,1] or the declared
        bounds are violated beyond `slack`.
        """
        u = np.linspace(0.0, 1.0, grid + 1)
        Gu = np.asarray(self.G(u), dtype=float)
        if abs(Gu[0]) > 1e-12 or abs(Gu[-1] - 1.0) > 1e-12:
            raise NumericError(f"generator {self.name!r}: G(0)={Gu[0]!r}, G(1)={Gu[-1]!r}; expected 0 and 1")
        if np.any(np.diff(Gu) < -1e-12):
            raise NumericError(f"generator {self.name!r}: G is not nondecreasing on the audit grid")
        # density is defined on (0,1]; skip u=0
        gu = np.asarray(self.g(u[1:]), dtype=float)
        g_max = float(np.max(gu))
        g_min = float(np.min(gu))
        slopes = np.diff(gu) / np.diff(u[1:])
        slope_max = float(np.max(np.abs(slopes))) if slopes.size else 0.0
        if self.bounded_density and g_max > self.tau + slack:
            raise NumericError(f"generator {self.name!r}: observed sup g = {g_max} exceeds declared tau = {self.tau}")
        if self.bounded_density and slope_max > self.g_deriv_bound + max(slack, 1e-6 * slope_max):
            raise NumericError(
                f"generator {self.name!r}: observed sup |g'| ~ {slope_max} exceeds declared bound {self.g_deriv_bound}"
            )
        # inf_g is exposed without a verdict: some bound hypotheses want the
        # density bounded away from zero, and that call is the consumer's.
        return {
            "sup_g": g_max,
            "inf_g": g_min,
            "sup_abs_g_slope": slope_max,
            "in_bound_hypotheses": bool(self.bounded_density),
        }


def example_generator() -> SmoothGenerator:
    """The worked example: G(x) = 2x - x**2, g(x) = 2(1-x), limit CDF x/2 on [0, 2]."""

    def G(x):
        return 2.0 * x - x * x

    def g(u):
        return 2.0 * (1.0 - np.asarray(u, dtype=float))

    def F(x: float) -> float:
        if x < 0.0:
            return 0.0
        if x > 2.0:
            return 1.0
        return 0.5 * x

    return SmoothGenerator("example", G, g, tau=2.0, g_deriv_bound=2.0, limit_cdf=F)


def uniform_generator() -> SmoothGenerator:
    """G(x) = x: all cells equal, g == 1, limit CDF a unit step at 1."""

    def F(x: float) -> float:
        return 1.0 if x >= 1.0 else 0.0

    return SmoothGenerator(
        "uniform",
        G=lambda x: np.asarray(x, dtype=float),
        g=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        tau=1.0,
        g_deriv_bound=0.0,
        limit_cdf=F,
    )


def table_generator(path: str, name: Optional[str] = None) -> SmoothGenerator:
    """Generator from a CSV of (u, G(u)) pairs, interpolated piecewise linearly.

    The density is piecewise constant (the chord slopes), so the limit CDF
    is exact: F(x) sums the widths of the pieces with slope <= x. tau is the
    largest slope and g_deriv_bound a finite-difference Lipschitz proxy
    across knots.
    """
    us, Gs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                us.append(float(row[0]))
                Gs.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"bad table row {row!r} in {path}") from exc
    u = np.asarray(us, dtype=float)
    Gv = np.asarray(Gs, dtype=float)
    if u.size < 2 or np.any(np.diff(u) <= 0):
        raise ValidationError(f"table {path}: need >= 2 rows with strictly increasing u")
    if abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12 or abs(Gv[0]) > 1e-12 or abs(Gv[-1] - 1.0) > 1e-12:
        raise ValidationError(f"table {path}: must span (0,0) to (1,1)")
    if np.any(np.diff(Gv) < 0):
        raise NumericError(f"table {path}: G values decrease somewhere; not a distribution function")
    widths = np.diff(u)
    slopes = np.diff(Gv) / widths

    def G(x):
        return np.interp(x, u, Gv)

    def g(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(u, t, side="left") - 1, 0, slopes.size - 1)
        return slopes[idx]

    def F(x: float) -> float:
        return min(1.0, float(np.sum(widths[slopes <= x])))

    if slopes.size > 1:
        lip = float(np.max(np.abs(np.diff(slopes)) / (0.5 * (widths[:-1] + widths[1:]))))
    else:
        lip = 0.0
    return SmoothGenerator(
        name or f"table:{path}",
        G,
        g,
        tau=float(np.max(slopes)),
        g_deriv_bound=lip,
        limit_cdf=F,
        knots=tuple(float(v) for v in u[1:-1]),
    )


def by_name(spec: str) -> SmoothGenerator:
    """Resolve a generator from its CLI name: "example", "uniform", or "table:<path>"."""
    if spec == "example":
        return example_generator()
    if spec == "uniform":
        return uniform_generator()
    if spec.startswith("table:"):
        return table_generator(spec[len("table:"):])
    raise ValidationError(f"unknown generator {spec!r}; expected example, uniform, or table:<path>")


# ---------- operations ----------

def cells_from_generator(gen: SmoothGenerator, M: int) -> CellModel:
    """p_j = G(j/M) - G((j-1)/M); the sum telescopes to G(1) - G(0) = 1 exactly."""
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    grid = np.asarray(gen.G(np.arange(M + 1) / M), dtype=float)
    p = np.diff(grid)
    if np.any(p < 0):
        j = int(np.argmin(p))
        raise NumericError(f"generator {gen.name!r} is not monotone: p[{j}] = {p[j]} < 0 at M={M}")
    return CellModel(M, p)


def limit_sdf(gen: SmoothGenerator) -> Callable[[float], float]:
    """The limiting structural CDF: F(x) = Leb{u in (0,1] : g(u) <= x}.

    This is the generator's exact `limit_cdf`; a generator without one is
    rejected.
    """
    if gen.limit_cdf is None:
        raise ValidationError(f"generator {gen.name!r} has no limit_cdf; supply the exact CDF of g(U)")
    return gen.limit_cdf


def step_density(model) -> Callable[[np.ndarray], np.ndarray]:
    """The step density: value M*p_j on ((j-1)/M, j/M] (or m*q_j for grouped models)."""
    if isinstance(model, CellModel):
        size, vec = model.M, model.p
    elif isinstance(model, GroupedModel):
        size, vec = model.m, model.q
    else:
        raise ValidationError(f"expected CellModel or GroupedModel, got {type(model).__name__}")
    heights = size * vec

    def f(t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0) or np.any(t > 1):
            raise ValidationError("step density is defined on (0, 1]")
        # t in ((j-1)/M, j/M] maps to block j; ceil with an exactness guard
        idx = np.clip(np.ceil(t * size - 1e-12).astype(int) - 1, 0, size - 1)
        out = heights[idx]
        return float(out) if np.ndim(t) == 0 else out

    return f


def density_sup_gap(model, density, points_per_cell: int = 4) -> float:
    """sup_t |f_M(t) - g(t)| over (0,1], sampled at cell endpoints and interior points.

    Exact for monotone g (per-cell sup of |const - monotone| sits at a cell
    endpoint); interior points cover mild non-monotonicity.
    """
    f = step_density(model)
    size = model.M if isinstance(model, CellModel) else model.m
    offs = np.linspace(0.0, 1.0, points_per_cell + 1)[1:]  # (0,1] offsets within each cell
    t = ((np.arange(size)[:, None] + offs[None, :]) / size).ravel()
    g = np.asarray(density(t), dtype=float)
    return float(np.max(np.abs(f(t) - g)))


def density_l2_gap(model, density) -> float:
    """integral over (0,1] of (f_M(t) - g(t))^2, by per-cell quadrature.

    The error-bound constant c promises this is <= c/size^2; for a density
    with |g'| <= L and cell averages as heights, equality holds at
    c = L^2/12 when g is linear.
    """
    from scipy.integrate import quad

    f = step_density(model)
    size = model.M if isinstance(model, CellModel) else model.m
    edges = np.arange(size + 1) / size
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        # stay strictly inside the cell: f is discontinuous at edges
        total += quad(
            lambda t: (float(f(t)) - float(density(t))) ** 2,
            a + 1e-15,
            b,
            epsabs=1e-12,
        )[0]
    return total
