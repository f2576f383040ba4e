"""Seeded sampling of multinomial and Poissonized cell counts.

A CountsVector keeps the cell order of its model; grouped_estimator groups it.

Replications are addressed by (seed, stream_index): the pair feeds a
SeedSequence, whose avalanche mixing makes the substreams independent and
individually reproducible, bit for bit, across runs and platforms.

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
STREAM_VERSION = 3

_U64 = (1 << 64) - 1


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


def _live(rng) -> Generator:
    """Draw ops take a fresh RngStream (single consumer) or an already
    running Generator when one replication needs several sequential draws."""
    return rng.generator() if isinstance(rng, RngStream) else rng


def draw_multinomial(cells: CellModel, n: int, rng) -> CountsVector:
    """One Multinomial(n, p) count vector."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    counts = _live(rng).multinomial(n, cells.p)
    return CountsVector(MULTINOMIAL, counts, n=n, N_realized=n)


def draw_poissonized(cells: CellModel, n: int, rng) -> CountsVector:
    """Independent Poisson(n * p_j) counts; the total is the realized N."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    counts = _live(rng).poisson(n * cells.p)
    return CountsVector(POISSONIZED, counts, n=n, N_realized=int(counts.sum()))


def draw_coupled(cells: CellModel, n: int, rng) -> tuple[CountsVector, CountsVector]:
    """A coupled pair (nu, rho): fixed-n multinomial counts and Poissonized counts
    built from the same notional categorical stream.

    The construction guarantees sum_j |nu_j - rho_j| = |N - n| exactly for
    every realization, which is what the Poissonization coupling bound needs.
    Marginally rho_j are independent Poisson(n * p_j).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
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
