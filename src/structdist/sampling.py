"""Seeded sampling of multinomial and Poissonized cell counts.

A CountsVector keeps the cell order of its model; grouped_estimator groups it.

Streams are addressed by (seed, stream_index): the pair feeds a
SeedSequence, whose avalanche mixing makes the substreams independent and
individually reproducible, bit for bit, across runs and platforms. A study
draws its replications in order from one running generator per rung, a
slab of rows in one numpy call (draw_slab); the single draws are row 0 of
a one-row slab.

The coupled draw materializes only counts, never the underlying categorical
stream: the fixed-n vector is drawn first, then |N - n| draws are added
(a multinomial increment) or removed (a uniform subsample of the realized
counts, i.e. a multivariate hypergeometric). This is equal in law to
counting the first n and first N entries of one categorical stream and
keeps memory at O(M + |N - n|).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .errors import ValidationError
from .model import CellModel

MULTINOMIAL = "multinomial"
POISSONIZED = "poissonized"

# Version of the seeded stream contract: which draws a (seed, substream)
# pair feeds. 1: run_mse_study drew every replication over all M cells.
# 2: it draws over the L = lcm(m_values) blocks of cells (same law).
# 3: consistency_trend draws at its m groups (same law), and every study
# evaluates at x through the exact lattice index K = lattice_floor(x n / m).
# 4: replication r of a study rung is the r-th row drawn from substream
# `rung` (was: substream rung * reps + r), so the first r replications do
# not depend on reps (same law; single draws unchanged).
STREAM_VERSION = 4

_U64 = (1 << 64) - 1

# The largest n a draw accepts: numpy draws counts in int64 and rejects
# Poisson means near 2**63, and its multivariate hypergeometric (which
# draw_coupled uses) needs a total below 10**9.
MAX_N = 2**62
MAX_COUPLED_N = 10**9 - 1


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: base seed plus a replication substream
    index, each an integer in [0, 2**64 - 1]; anything else is rejected
    rather than wrapped, so two different seeds never share a stream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        seed, index = int(self.seed), int(self.stream_index)
        if not (0 <= seed <= _U64 and 0 <= index <= _U64):
            raise ValidationError(
                f"seed and stream index must lie in [0, 2**64 - 1], got seed={seed}, stream_index={index}"
            )
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_index", index)

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(entropy=[self.seed, self.stream_index])))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, index)


@dataclass(frozen=True)
class CountsVector:
    """Realized cell counts with their sampling metadata.

    For multinomial counts the total is the nominal sample size n; for
    Poissonized counts it is the realized Poisson total N_realized.
    """

    kind: str
    counts: np.ndarray
    n: int
    N_realized: Optional[int] = None  # default: n (multinomial) or the counts total (poissonized)

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1:
            raise ValidationError("counts must be a 1-D vector")
        if self.kind not in (MULTINOMIAL, POISSONIZED):
            raise ValidationError(f"unknown counts kind {self.kind!r}")
        if counts.min(initial=0) < 0:
            raise ValidationError("counts must be nonnegative")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        total = int(counts.sum())
        if self.N_realized is None:
            object.__setattr__(self, "N_realized", self.n if self.kind == MULTINOMIAL else total)
        expected = self.n if self.kind == MULTINOMIAL else self.N_realized
        if total != expected:
            raise ValidationError(f"{self.kind} counts sum to {total}, expected {expected}")
        counts.flags.writeable = False

    @property
    def size(self) -> int:
        return int(self.counts.size)


def _check_n(n: int, limit: int = MAX_N) -> None:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > limit:
        raise ValidationError(f"n must be <= {limit}, got {n}")


def _live(rng) -> Generator:
    """Draw ops take a fresh RngStream (single consumer) or an already
    running Generator, from which a study rung draws all its replications."""
    return rng.generator() if isinstance(rng, RngStream) else rng


def draw_slab(kind: str, cells: CellModel, n: int, rows: int, rng) -> np.ndarray:
    """rows independent count vectors of the given kind, drawn in order in
    one numpy call as the rows of an int64 (rows, M) matrix:
    Multinomial(n, p) rows, or independent Poisson(n * p_j) counts. The
    matrix passes the checks a CountsVector makes on each row: no negative
    count, and every multinomial row sums to n."""
    _check_n(n)
    gen = _live(rng)
    if kind == MULTINOMIAL:
        counts = gen.multinomial(n, cells.p, size=rows)
    elif kind == POISSONIZED:
        counts = gen.poisson(n * cells.p, size=(rows, cells.M))
    else:
        raise ValidationError(f"unknown counts kind {kind!r}")
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if counts.min(initial=0) < 0:
        raise ValidationError("counts must be nonnegative")
    if kind == MULTINOMIAL:
        totals = counts.sum(axis=1)
        if (totals != n).any():
            raise ValidationError(f"multinomial counts sum to {totals[totals != n][0]}, expected {n}")
    return counts


def draw_multinomial(cells: CellModel, n: int, rng) -> CountsVector:
    """One Multinomial(n, p) count vector."""
    return CountsVector(MULTINOMIAL, draw_slab(MULTINOMIAL, cells, n, 1, rng)[0], n=n, N_realized=n)


def draw_poissonized(cells: CellModel, n: int, rng) -> CountsVector:
    """Independent Poisson(n * p_j) counts; the total is the realized N."""
    counts = draw_slab(POISSONIZED, cells, n, 1, rng)[0]
    return CountsVector(POISSONIZED, counts, n=n, N_realized=int(counts.sum()))


def draw_coupled(cells: CellModel, n: int, rng) -> tuple[CountsVector, CountsVector]:
    """A coupled pair (nu, rho): fixed-n multinomial counts and Poissonized counts
    built from the same notional categorical stream.

    The construction guarantees sum_j |nu_j - rho_j| = |N - n| exactly for
    every realization, which is what the Poissonization coupling bound needs.
    Marginally rho_j are independent Poisson(n * p_j). n is at most
    MAX_COUPLED_N.
    """
    _check_n(n, MAX_COUPLED_N)
    gen = _live(rng)
    nu = gen.multinomial(n, cells.p)
    N = int(gen.poisson(n))
    if N > n:
        rho = nu + gen.multinomial(N - n, cells.p)
    elif N < n:
        rho = gen.multivariate_hypergeometric(nu, N)
    else:
        rho = nu.copy()
    return (
        CountsVector(MULTINOMIAL, nu, n=n, N_realized=n),
        CountsVector(POISSONIZED, rho, n=n, N_realized=N),
    )
