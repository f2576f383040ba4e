"""Seeded draws, the multinomial/Poisson coupling, and count grouping."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from structdist import (
    MULTINOMIAL,
    POISSONIZED,
    CellModel,
    CountsVector,
    RngStream,
    ValidationError,
    cells_from_generator,
    draw_coupled,
    draw_multinomial,
    draw_poissonized,
    example_generator,
    grouped_estimator,
    group_model,
)
from structdist.sampling import MAX_COUPLED_N, MAX_N, draw_slab

CELLS6 = CellModel(6, [0.05, 0.10, 0.15, 0.20, 0.24, 0.26])


# ---------- streams ----------

def test_same_stream_reproduces_bits():
    a = RngStream(123, 7).generator().integers(0, 2**63, size=16)
    b = RngStream(123, 7).generator().integers(0, 2**63, size=16)
    np.testing.assert_array_equal(a, b)


def test_substreams_differ():
    a = RngStream(123).substream(0).generator().integers(0, 2**63, size=16)
    b = RngStream(123).substream(1).generator().integers(0, 2**63, size=16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_stream_rejects_seeds_outside_64_bits(seed, index):
    """-1 and 2**64 - 1 used to be masked onto one stream; now each side of
    the range is an error, for the seed and the substream index alike."""
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*64 - 1\]"):
        RngStream(seed, index)
    if index == 0:
        with pytest.raises(ValidationError):
            RngStream(0).substream(seed)


def test_stream_keeps_the_64_bit_range_ends():
    for value in (0, 2**64 - 1):
        stream = RngStream(value, value)
        assert (stream.seed, stream.stream_index) == (value, value)
        stream.generator()
    assert RngStream(np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_draws_accept_stream_or_live_generator():
    vec_a = draw_multinomial(CELLS6, 60, RngStream(5))
    vec_b = draw_multinomial(CELLS6, 60, RngStream(5).generator())
    np.testing.assert_array_equal(vec_a.counts, vec_b.counts)


# ---------- counts vectors ----------

def test_counts_vector_defaults_and_validation():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3], n=6)
    assert vec.N_realized == 6 and vec.size == 3
    pois = CountsVector(POISSONIZED, [4, 1], n=3)
    assert pois.N_realized == 5  # realized total, not the nominal n

    with pytest.raises(ValidationError):
        CountsVector("bootstrap", [1], n=1)
    with pytest.raises(ValidationError):
        CountsVector(MULTINOMIAL, [1, -1], n=0)
    with pytest.raises(ValidationError):
        CountsVector(MULTINOMIAL, [1, 2], n=5)  # sum mismatch


def test_counts_are_read_only():
    vec = draw_multinomial(CELLS6, 30, RngStream(1))
    with pytest.raises(ValueError):
        vec.counts[0] = 99


# ---------- marginal draws ----------

def test_multinomial_total_and_moments():
    reps, n = 2000, 60
    gen = RngStream(2024).generator()
    first = np.empty(reps)
    for r in range(reps):
        vec = draw_multinomial(CELLS6, n, gen)
        assert int(vec.counts.sum()) == n
        first[r] = vec.counts[0]
    mean, se = n * CELLS6.p[0], np.sqrt(n * CELLS6.p[0] * (1 - CELLS6.p[0]) / reps)
    assert abs(first.mean() - mean) < 5 * se


def test_poissonized_moments_and_realized_total():
    reps, n = 2000, 60
    gen = RngStream(2025).generator()
    last = np.empty(reps)
    for r in range(reps):
        vec = draw_poissonized(CELLS6, n, gen)
        assert vec.N_realized == int(vec.counts.sum())
        last[r] = vec.counts[-1]
    mean = n * CELLS6.p[-1]
    se = np.sqrt(mean / reps)
    assert abs(last.mean() - mean) < 5 * se
    assert abs(last.var(ddof=1) - mean) < 5 * mean * np.sqrt(2.0 / (reps - 1))


@pytest.mark.parametrize("M", [1, 10])
def test_draws_reach_the_largest_n(M):
    cells = CellModel(M, np.full(M, 1.0 / M))
    assert int(draw_multinomial(cells, MAX_N, RngStream(0)).counts.sum()) == MAX_N
    assert draw_poissonized(cells, MAX_N, RngStream(0)).N_realized > 0
    assert (draw_slab(MULTINOMIAL, cells, MAX_N, 3, RngStream(0)).sum(axis=1) == MAX_N).all()
    slabs = [lambda c, n, rng, kind=kind: draw_slab(kind, c, n, 3, rng) for kind in (MULTINOMIAL, POISSONIZED)]
    for draw in (draw_multinomial, draw_poissonized, *slabs):
        with pytest.raises(ValidationError, match=f"n must be <= {MAX_N}, got {MAX_N + 1}"):
            draw(cells, MAX_N + 1, RngStream(0))


@pytest.mark.parametrize("kind, draw", [(MULTINOMIAL, draw_multinomial), (POISSONIZED, draw_poissonized)])
def test_slab_rows_are_successive_single_draws(kind, draw):
    """A slab of rows is, row by row and bit for bit, that many single
    draws in order from the same running generator, which it leaves in the
    same state."""
    slab_gen, single_gen = RngStream(77, 3).generator(), RngStream(77, 3).generator()
    slab = draw_slab(kind, CELLS6, 60, 9, slab_gen)
    assert slab.dtype == np.int64 and slab.shape == (9, 6)
    for row in slab:
        assert np.array_equal(row, draw(CELLS6, 60, single_gen).counts)
    assert slab_gen.bit_generator.state == single_gen.bit_generator.state


class FixedDraws:
    """A stand-in generator whose every draw returns the given counts."""

    def __init__(self, counts):
        self.counts = counts

    def multinomial(self, n, p, size):
        return np.array(self.counts)

    def poisson(self, lam, size):
        return np.array(self.counts)


@pytest.mark.parametrize("kind", [MULTINOMIAL, POISSONIZED])
def test_slab_checks_every_row_as_a_counts_vector_does(kind):
    cells, ok = CellModel(3, [0.2, 0.3, 0.5]), [[1, 2, 3], [0, 6, 0]]
    slab = draw_slab(kind, cells, 6, 2, FixedDraws(np.array(ok, dtype=np.float64)))
    assert slab.dtype == np.int64 and slab.tolist() == ok
    with pytest.raises(ValidationError, match="counts must be nonnegative"):
        draw_slab(kind, cells, 6, 2, FixedDraws([[1, 2, 3], [7, -1, 0]]))
    bad_total = FixedDraws([[1, 2, 3], [1, 2, 2]])
    if kind == MULTINOMIAL:
        with pytest.raises(ValidationError, match="multinomial counts sum to 5, expected 6"):
            draw_slab(kind, cells, 6, 2, bad_total)
    else:  # a Poissonized row's total is its realized N
        assert draw_slab(kind, cells, 6, 2, bad_total).sum(axis=1).tolist() == [6, 5]
    with pytest.raises(ValidationError, match="unknown counts kind 'bootstrap'"):
        draw_slab("bootstrap", cells, 6, 2, FixedDraws(ok))


# ---------- the coupling ----------

def test_coupled_l1_identity_exact():
    # the whole point of the coupling: total count disagreement is |N - n|
    stream = RngStream(909)
    for r in range(300):
        nu, rho = draw_coupled(CELLS6, 40, stream.substream(r))
        assert nu.kind == MULTINOMIAL and rho.kind == POISSONIZED
        assert int(np.abs(nu.counts - rho.counts).sum()) == abs(rho.N_realized - 40)
        assert int(nu.counts.sum()) == 40
        assert int(rho.counts.sum()) == rho.N_realized


def test_coupled_draw_reaches_its_largest_n():
    cells = CellModel(10, np.full(10, 0.1))
    # seed 1 draws N < n, so the removal path (the hypergeometric draw) runs
    nu, rho = draw_coupled(cells, MAX_COUPLED_N, RngStream(1))
    assert rho.N_realized < nu.n == MAX_COUPLED_N
    assert int(np.abs(nu.counts - rho.counts).sum()) == MAX_COUPLED_N - rho.N_realized
    for n in (MAX_COUPLED_N + 1, 10**20):
        with pytest.raises(ValidationError, match=f"n must be <= {MAX_COUPLED_N}"):
            draw_coupled(cells, n, RngStream(1))


def test_coupled_poisson_marginal_moments():
    reps, n = 3000, 50
    gen = RngStream(4242).generator()
    vals = np.empty(reps)
    for r in range(reps):
        _, rho = draw_coupled(CELLS6, n, gen)
        vals[r] = rho.counts[2]
    mean = n * CELLS6.p[2]
    se = np.sqrt(mean / reps)
    assert abs(vals.mean() - mean) < 5 * se


def test_grouped_counts_of_coupled_match_direct_poisson_in_law():
    """Two routes to Poissonized group counts must agree in distribution:
    drawing Poisson(n*q_j) directly, versus grouping the coupled rho."""
    cells = cells_from_generator(example_generator(), 12)
    gm = group_model(cells, 4)
    n, reps = 60, 10_000
    direct = np.empty(reps)
    via_coupling = np.empty(reps)
    base = RngStream(31337)
    for r in range(reps):
        gen = base.substream(r).generator()
        direct[r] = draw_poissonized(gm, n, gen).counts[0]
        _, rho = draw_coupled(cells, n, gen)
        via_coupling[r] = grouped_estimator(rho, 4).counts[0]
    stat, _ = ks_2samp(direct, via_coupling)
    assert stat < 1.628 * np.sqrt(2.0 / reps)  # 1% critical value
    expect = n * gm.p[0]
    assert abs(direct.mean() - expect) < 5 * np.sqrt(expect / reps)
    assert abs(via_coupling.mean() - expect) < 5 * np.sqrt(expect / reps)


# ---------- grouping counts ----------

def test_group_counts_block_sums():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4], n=10)
    out = grouped_estimator(vec, 2)
    np.testing.assert_array_equal(out.counts, [3, 7])
    assert out.n == 10 and out.kind[1] == MULTINOMIAL


def test_group_counts_k1_is_identity():
    vec = draw_multinomial(CELLS6, 30, RngStream(8))
    out = grouped_estimator(vec, 6)
    np.testing.assert_array_equal(out.counts, vec.counts)


def test_group_counts_preserves_poisson_metadata():
    vec = draw_poissonized(CELLS6, 30, RngStream(9))
    out = grouped_estimator(vec, 3)
    assert out.counts.sum() == vec.N_realized and out.n == 30
    assert out.kind[1] == POISSONIZED


def test_group_counts_length_checks():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3], n=6)
    for m in (2, 4, 0):
        with pytest.raises(ValidationError, match="does not divide M=3"):
            grouped_estimator(vec, m)
