"""Cell models built from a smooth generating distribution on (0, 1].

A generator is a nondecreasing G on [0,1] with G(0)=0, G(1)=1 and density
g; cells are the increments p_j = G(j/M) - G((j-1)/M). The limiting
structural distribution is the CDF of g(U) with U uniform on (0,1]. A
tabulated G is piecewise linear; its generator carries the (width, slope)
pieces of its density so that the limit laws are exact sums over them.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, ValidationError
from .model import _MAX_SIZE, CellModel, _as_x, _block_sums, _float_or_array, check_group_count


@dataclass(frozen=True)
class SmoothGenerator:
    """A generating distribution G with density g and its analytic bounds.

    G, g and limit_cdf take arrays (limit_cdf a float for a scalar; it
    rejects a NaN x through model._as_x). tau bounds |g| and g_deriv_bound
    bounds |g'|; both are known analytic inputs that the error bounds
    consume unchecked. `limit_cdf` is the exact CDF of g(U); limit_sdf
    needs it. `pieces` lists the (width, slope) pairs of a
    piecewise-constant density in order over (0,1]; where it is set the
    limit laws are exact finite sums over the pieces instead of quadratures
    over u. It is empty for a smooth density.
    """

    name: str
    G: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    tau: float
    g_deriv_bound: float
    limit_cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    pieces: tuple[tuple[float, float], ...] = ()


def example_generator() -> SmoothGenerator:
    """The worked example: G(x) = 2x - x**2, g(x) = 2(1-x), limit CDF x/2 on [0, 2]."""

    def G(x):
        return 2.0 * x - x * x

    def g(u):
        return 2.0 * (1.0 - np.asarray(u, dtype=float))

    def F(x):
        return _float_or_array(np.minimum(np.maximum(0.5 * _as_x(x), 0.0), 1.0))

    return SmoothGenerator("example", G, g, tau=2.0, g_deriv_bound=2.0, limit_cdf=F)


def uniform_generator() -> SmoothGenerator:
    """G(x) = x: all cells equal, g == 1, limit CDF a unit step at 1."""

    def F(x):
        return _float_or_array(np.where(_as_x(x) >= 1.0, 1.0, 0.0))

    return SmoothGenerator(
        "uniform",
        G=lambda x: np.asarray(x, dtype=float),
        g=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        tau=1.0,
        g_deriv_bound=0.0,
        limit_cdf=F,
    )


def table_generator(path: str) -> SmoothGenerator:
    """Generator from a CSV of (u, G(u)) pairs, interpolated piecewise linearly.

    The density is piecewise constant (the chord slopes), so the limit CDF
    is exact: F(x) sums the widths of the pieces with slope <= x (a running
    sum in slope order). The same (width, slope) pieces make the limit laws
    in asymptotics exact sums.
    tau is the largest slope and g_deriv_bound a finite-difference
    Lipschitz proxy across knots.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"table {path}: invalid UTF-8 at byte offset {e.start}") from e
    us, Gs = [], []
    for row in csv.reader(io.StringIO(text, newline="")):
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            us.append(float(row[0]))
            Gs.append(float(row[1]))
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"bad table row {row!r} in {path}") from exc
    u = np.asarray(us, dtype=float)
    Gv = np.asarray(Gs, dtype=float)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(Gv))):
        raise ValidationError(f"table {path}: every u and G(u) must be finite")
    if u.size < 2 or np.any(np.diff(u) <= 0):
        raise ValidationError(f"table {path}: need >= 2 rows with strictly increasing u")
    if abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12 or abs(Gv[0]) > 1e-12 or abs(Gv[-1] - 1.0) > 1e-12:
        raise ValidationError(f"table {path}: must span (0,0) to (1,1)")
    if np.any(np.diff(Gv) < 0):
        raise NumericError(f"table {path}: G values decrease somewhere; not a distribution function")
    widths = np.diff(u)
    slopes = np.diff(Gv) / widths
    pieces = tuple(zip(widths.tolist(), slopes.tolist()))

    def G(x):
        return np.interp(x, u, Gv)

    def g(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(u, t, side="left") - 1, 0, slopes.size - 1)
        return slopes[idx]

    order = np.argsort(slopes, kind="stable")
    by_slope = slopes[order]
    levels = np.minimum(1.0, np.concatenate(([0.0], np.cumsum(widths[order]))))

    def F(x):
        return _float_or_array(levels[np.searchsorted(by_slope, _as_x(x), side="right")])

    if slopes.size > 1:
        lip = float(np.max(np.abs(np.diff(slopes)) / (0.5 * (widths[:-1] + widths[1:]))))
    else:
        lip = 0.0
    return SmoothGenerator(
        f"table:{path}",
        G,
        g,
        tau=float(np.max(slopes)),
        g_deriv_bound=lip,
        limit_cdf=F,
        pieces=pieces,
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
    return _grouped_cells(gen, M, M)


# Grid points of G that _grouped_cells reads at once: whole groups, at
# least one, so a chunk is longer only when a single group is. At 2^14 a
# chunk's float arrays stay under 128 KiB, which glibc's allocator serves
# from its heap instead of mapping fresh pages for each: the sweep's
# cells_s (M = 333333, 9009 groups) read 2.9 ms per call at 2^14 against
# 3.3 ms at 2^13 and 5.1 ms at 2^15 (three runs of 15 study calls each,
# 2-vCPU VM).
_GRID_CHUNK = 1 << 14


def _grouped_cells(gen: SmoothGenerator, M: int, m: int) -> CellModel:
    """The M cells p_j = G(j/M) - G((j-1)/M) grouped into m equal blocks,
    built a chunk of whole groups at a time; the one place G is read.

    Each chunk reads G on its part of the grid j/M, checks that every cell
    is >= 0 (so a NaN fails too) and takes their block sums, each group's
    cells summed alone and in order, as group_model does. No M-length array
    is built unless m = M or one group holds more than _GRID_CHUNK cells.
    """
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if M > _MAX_SIZE:
        raise ValidationError(f"M must be <= 2**59, got {M}")
    check_group_count(M, m)
    k = M // m
    step = max(1, _GRID_CHUNK // k)  # groups per chunk
    p = np.empty(m)
    for start in range(0, m, step):
        stop = min(m, start + step)
        cells = np.diff(np.asarray(gen.G(np.arange(start * k, stop * k + 1) / M), dtype=float))
        bad = np.flatnonzero(~(cells >= 0))
        if bad.size:
            j = int(bad[0])
            raise NumericError(
                f"generator {gen.name!r} is not monotone: p[{start * k + j}] = {cells[j]} is not >= 0 at M={M}"
            )
        p[start:stop] = _block_sums(cells, stop - start)
    return CellModel(m, p)


def limit_sdf(gen: SmoothGenerator) -> Callable[[np.ndarray], np.ndarray]:
    """The limiting structural CDF: F(x) = Leb{u in (0,1] : g(u) <= x}.

    This is the generator's exact `limit_cdf`; a generator without one is
    rejected.
    """
    if gen.limit_cdf is None:
        raise ValidationError(f"generator {gen.name!r} has no limit_cdf; supply the exact CDF of g(U)")
    return gen.limit_cdf
