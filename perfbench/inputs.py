"""Seeded inputs the benchmark writes at set-up: a concave table generator,
a Zipf corpus and the x-grids of the numerics workload.

The same seed gives the same bytes. Sizes are fixed and only positions and
values move with the seed, so the cost of a pass barely depends on it.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

TABLE_KNOTS = 32
CORPUS_TOKENS = 200_000
CORPUS_VOCAB = 20_000
ZIPF_EXPONENT = 1.07
EXAMPLE_LAMBDAS = (0.5, 3.0, 10.0, 30.0)
EXAMPLE_POINTS = 50
TABLE_LAMBDA = 3.0
# Where lambda*x sits between lattice points and the quadrature meets many
# knot discontinuities; a pass's cost then does not depend on the seed.
TABLE_POINTS = (0.55, 1.15)
LIMIT_POINTS = 50
_LATTICE_GAP = 1e-6  # keep lambda*x this far from an integer


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), tag])


def write_table(path: Path, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A concave piecewise-linear G with TABLE_KNOTS pieces: jittered knots,
    strictly decreasing slopes. Returns the (u, G) values as written."""
    rng = rng_for(seed, 1)
    i = np.arange(1, TABLE_KNOTS, dtype=float)
    u = np.concatenate(([0.0], (i + rng.uniform(-0.3, 0.3, i.size)) / TABLE_KNOTS, [1.0]))
    slopes = np.linspace(2.0, 0.1, TABLE_KNOTS) * np.exp(rng.uniform(-0.01, 0.01, TABLE_KNOTS))
    slopes = np.sort(slopes)[::-1]
    G = np.concatenate(([0.0], np.cumsum(np.diff(u) * slopes)))
    G /= G[-1]
    G[-1] = 1.0
    text = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(u, G))
    path.write_text("# u,G(u)\n" + text, encoding="utf-8")
    return u, G


def write_corpus(path: Path, seed: int) -> None:
    """CORPUS_TOKENS lowercase words drawn from a Zipf law over CORPUS_VOCAB
    random words, twelve to a line."""
    rng = rng_for(seed, 2)
    lengths = rng.integers(3, 10, CORPUS_VOCAB)
    letters = "".join(np.array(list("abcdefghijklmnopqrstuvwxyz"))[rng.integers(0, 26, lengths.sum())])
    ends = np.cumsum(lengths)
    vocab = [letters[e - k:e] for e, k in zip(ends, lengths)]
    weights = np.arange(1, CORPUS_VOCAB + 1, dtype=float) ** -ZIPF_EXPONENT
    draws = rng.choice(CORPUS_VOCAB, CORPUS_TOKENS, p=weights / weights.sum())
    words = [vocab[k] for k in draws]
    lines = (" ".join(words[i:i + 12]) for i in range(0, len(words), 12))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def x_grid(seed: int, tag: int, size: int, hi: float, lambdas) -> tuple[float, ...]:
    """Sorted uniform points on (0, hi) with every lambda*x off the integer lattice."""
    rng = rng_for(seed, tag)
    out = []
    while len(out) < size:
        x = float(rng.uniform(0.0, hi))
        if all(abs(lam * x - round(lam * x)) > _LATTICE_GAP for lam in lambdas):
            out.append(x)
    return tuple(sorted(out))


def write_all(workdir: Path, seed: int) -> dict:
    """Write the numerics inputs under workdir and return their description."""
    workdir.mkdir(parents=True, exist_ok=True)
    table = workdir / "table.csv"
    corpus = workdir / "corpus.txt"
    u, G = write_table(table, seed)
    write_corpus(corpus, seed)
    return {
        "table": table,
        "corpus": corpus,
        "u": u,
        "G": G,
        "example_grid": x_grid(seed, 3, EXAMPLE_POINTS, 2.2, EXAMPLE_LAMBDAS),
        "table_grid": tuple(c + float(rng_for(seed, 4).uniform(-0.05, 0.05)) for c in TABLE_POINTS),
        "limit_grid": x_grid(seed, 5, LIMIT_POINTS, 2.2, ()),
    }
