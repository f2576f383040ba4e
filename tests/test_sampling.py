"""Seeded draws, the multinomial/Poisson coupling, and count grouping."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp, poisson

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
from structdist.generators import table_generator
from structdist.sampling import COUPLED, MAX_N, CoupledGroups, draw_slab
from structdist.study import _natural_gap

CELLS6 = CellModel(6, [0.05, 0.10, 0.15, 0.20, 0.24, 0.26])
# the shortest multinomial rows drawn as the nu of a coupled row
LONG = cells_from_generator(example_generator(), 1 << 12)


# ---------- streams ----------

def test_same_stream_reproduces_bits():
    a = RngStream(123, 7).generator().integers(0, 2**63, size=16)
    b = RngStream(123, 7).generator().integers(0, 2**63, size=16)
    np.testing.assert_array_equal(a, b)


def test_substreams_differ():
    a = RngStream(123, 0).generator().integers(0, 2**63, size=16)
    b = RngStream(123, 1).generator().integers(0, 2**63, size=16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_stream_rejects_seeds_outside_64_bits(seed, index):
    """-1 and 2**64 - 1 used to be masked onto one stream; now each side of
    the range is an error, for the seed and the stream index alike."""
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*64 - 1\]"):
        RngStream(seed, index)


@pytest.mark.parametrize("field", ["seed", "stream_index"])
@pytest.mark.parametrize("value", [1.7, 1.0, "3", True], ids=["float", "whole-float", "str", "bool"])
def test_stream_rejects_seeds_that_are_not_integers(field, value):
    """1.7 used to be truncated onto the stream of seed 1 and "3" read as
    3; a seed or stream index must be an integer, and a bool is not one."""
    args = {"seed": 1, "stream_index": 0, field: value}
    with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
        RngStream(**args)


def test_stream_keeps_the_64_bit_range_ends():
    for value in (0, 2**64 - 1):
        stream = RngStream(value, value)
        assert (stream.seed, stream.stream_index) == (value, value)
        stream.generator()
    assert RngStream(np.uint64(2**64 - 1)).seed == 2**64 - 1


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


def test_counts_vector_total_is_derived_not_set():
    """N_realized is the counts' total: it cannot be passed in, or set, to
    disagree with them."""
    with pytest.raises(TypeError, match="N_realized"):
        CountsVector(MULTINOMIAL, [1, 2, 3], n=6, N_realized=7)
    vec = CountsVector(POISSONIZED, [4, 1], n=3)
    with pytest.raises(AttributeError):
        vec.N_realized = 7
    assert vec.N_realized == 5


def test_counts_are_read_only():
    vec = draw_multinomial(CELLS6, 30, RngStream(1).generator())
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


@pytest.mark.parametrize("M", [1, 10, 1 << 12])
def test_draws_reach_the_largest_n(M):
    """At n = MAX_N, |N - n| is about 2**31 > M, so every coupled row, at
    cells or at groups, and every multinomial row of at least 2**12 cells,
    is rebuilt from N."""
    cells = CellModel(M, np.full(M, 1.0 / M))
    gen = RngStream(0).generator()
    assert int(draw_multinomial(cells, MAX_N, gen).counts.sum()) == MAX_N
    assert draw_poissonized(cells, MAX_N, gen).N_realized > 0
    assert (draw_slab(MULTINOMIAL, cells, MAX_N, 3, gen).sum(axis=-1) == MAX_N).all()
    nu, rho = draw_slab(COUPLED, cells, MAX_N, 3, gen)
    assert (nu.sum(axis=-1) == MAX_N).all() and (np.abs(rho.sum(axis=-1) - MAX_N) > M).all()
    pairs = draw_slab(COUPLED, cells, MAX_N, 3, gen, groups=1)  # one group
    assert (pairs.V == MAX_N).all() and pairs.revealed == (3 * M if M > 1 else 0)
    kinds = (MULTINOMIAL, POISSONIZED, COUPLED)
    slabs = [lambda c, n, rng, kind=kind: draw_slab(kind, c, n, 3, rng) for kind in kinds]
    slabs.append(lambda c, n, rng: draw_slab(COUPLED, c, n, 3, rng, groups=1))
    for draw in (draw_multinomial, draw_poissonized, draw_coupled, *slabs):
        with pytest.raises(ValidationError, match=f"n must be <= {MAX_N}, got {MAX_N + 1}"):
            draw(cells, MAX_N + 1, gen)


@pytest.mark.parametrize("kind, draw, cells, n", [
    (MULTINOMIAL, draw_multinomial, CELLS6, 60),
    (MULTINOMIAL, draw_multinomial, LONG, 3 * LONG.M),  # rows with N < n and N > n
    (POISSONIZED, draw_poissonized, CELLS6, 60),
    (COUPLED, draw_coupled, CELLS6, 60),
], ids=["multinomial-draw_multinomial", "multinomial-long", "poissonized-draw_poissonized",
      "coupled-draw_coupled"])
def test_slab_rows_are_successive_single_draws(kind, draw, cells, n):
    """A slab of rows is, row by row and bit for bit, that many single
    draws in order from the same running generator, which it leaves in the
    same state; a coupled slab holds the two vectors (nu, rho)."""
    slab_gen, single_gen = RngStream(77, 3).generator(), RngStream(77, 3).generator()
    slab = draw_slab(kind, cells, n, 9, slab_gen)
    vectors = 2 if kind == COUPLED else 1
    assert slab.dtype == np.int64 and slab.shape == (vectors, 9, cells.M)
    for r in range(9):
        single = draw(cells, n, single_gen)
        for row, vec in zip(slab[:, r], single if kind == COUPLED else (single,)):
            assert np.array_equal(row, vec.counts)
    assert slab_gen.bit_generator.state == single_gen.bit_generator.state


def test_long_multinomial_rows_have_the_exact_law():
    """A multinomial row of 2**12 cells is the nu of a coupled row, bit for
    bit, from the same generator. At n = 2**24, |N - n| has standard
    deviation M, so rows with N < n, with N > n and with |N - n| > M (rebuilt
    from N) all occur. Every row sums to n, and the sums of 8 equal blocks
    of cells have the Multinomial(n, q) means n q_i, variances
    n q_i (1 - q_i) and covariances -n q_i q_j within 4 standard errors."""
    n, rows = 1 << 24, 500
    gen = RngStream(2026).generator()
    slabs = [draw_slab(MULTINOMIAL, LONG, n, rows, gen)[0]]
    nu, rho = draw_slab(COUPLED, LONG, n, rows, RngStream(2026).generator())
    assert np.array_equal(slabs[0], nu)
    excess = rho.sum(axis=1) - n
    assert (excess < 0).any() and (excess > 0).any()
    assert (np.abs(excess) > LONG.M).any() and (np.abs(excess) <= LONG.M).any()
    slabs += [draw_slab(MULTINOMIAL, LONG, n, rows, gen)[0] for _ in range(5)]
    counts = np.vstack(slabs)
    assert (counts.sum(axis=1) == n).all()
    q = group_model(LONG, 8).p
    centred = counts.reshape(counts.shape[0], 8, -1).sum(axis=2) - n * q
    products = centred[:, :, None] * centred[:, None, :]  # (row, i, j)
    cov = np.where(np.eye(8, dtype=bool), n * q * (1 - q), -n * np.outer(q, q))
    R = centred.shape[0]
    mean_z = centred.mean(axis=0) / (centred.std(axis=0, ddof=1) / np.sqrt(R))
    cov_z = (products.mean(axis=0) - cov) / (products.std(axis=0, ddof=1) / np.sqrt(R))
    assert np.abs(mean_z).max() < 4.0, mean_z
    assert np.abs(cov_z).max() < 4.0, cov_z


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
    assert slab.dtype == np.int64 and slab.tolist() == [ok]
    with pytest.raises(ValidationError, match="counts must be nonnegative"):
        draw_slab(kind, cells, 6, 2, FixedDraws([[1, 2, 3], [7, -1, 0]]))
    bad_total = FixedDraws([[1, 2, 3], [1, 2, 2]])
    if kind == MULTINOMIAL:
        with pytest.raises(ValidationError, match="multinomial counts sum to 5, expected 6"):
            draw_slab(kind, cells, 6, 2, bad_total)
    else:  # a Poissonized row's total is its realized N
        assert draw_slab(kind, cells, 6, 2, bad_total).sum(axis=-1).tolist() == [[6, 5]]
    with pytest.raises(ValidationError, match="unknown counts kind 'bootstrap'"):
        draw_slab("bootstrap", cells, 6, 2, FixedDraws(ok))


# ---------- the coupling ----------

class CoupledDraws:
    """A stand-in generator for coupled rows: each draw returns the next
    value given for its kind: a Poisson row rho, the uniforms of the balls
    nu adds, the indices of rho's balls nu removes, or the (common, extra)
    multinomial pair of a row rebuilt from N."""

    def __init__(self, rho, uniforms=(), picks=(), pairs=()):
        self.rho, self.uniforms, self.picks, self.pairs = map(iter, (rho, uniforms, picks, pairs))

    def poisson(self, lam):
        return np.array(next(self.rho))

    def random(self, size):
        return np.array(next(self.uniforms))

    def choice(self, a, size, replace, shuffle):
        return np.array(next(self.picks))

    def multinomial(self, n, p):
        return np.array(next(self.pairs))


def test_coupled_slab_checks_every_row_as_a_counts_vector_does():
    cells = CellModel(3, [0.2, 0.3, 0.5])
    # row 0: N = 4 < 6, nu adds balls at u = 0.1 and 0.9 (cells 0 and 2);
    # row 1: N = 8 > 6, nu removes balls 0 and 5 of rho (cells 0 and 2);
    # row 2: N = 10, so |N - n| = 4 > M and the pair is rebuilt from N
    draws = CoupledDraws(rho=[[1, 2.0, 1], [1, 4, 3], [2, 5, 3]], uniforms=[[0.1, 0.9]], picks=[[0, 5]],
                         pairs=[[[1, 2, 3], [0, 4, 0]]])
    slab = draw_slab(COUPLED, cells, 6, 3, draws)
    assert slab.dtype == np.int64
    assert slab.tolist() == [[[2, 2, 2], [0, 4, 2], [1, 2, 3]], [[1, 2, 1], [1, 4, 3], [1, 6, 3]]]
    with pytest.raises(ValidationError, match="counts must be nonnegative"):  # N = n: nu is rho
        draw_slab(COUPLED, cells, 6, 1, CoupledDraws(rho=[[1, -1, 6]]))
    with pytest.raises(ValidationError, match="multinomial counts sum to 5, expected 6"):  # one ball short
        draw_slab(COUPLED, cells, 6, 1, CoupledDraws(rho=[[1, 2, 1]], uniforms=[[0.1]]))
    with pytest.raises(ValidationError, match="multinomial counts sum to 5, expected 6"):  # one ball too many
        draw_slab(COUPLED, cells, 6, 1, CoupledDraws(rho=[[1, 4, 3]], picks=[[0, 1, 5]]))
    with pytest.raises(ValidationError, match="poissonized counts sum to 9, expected 10"):  # rebuilt rho short
        draw_slab(COUPLED, cells, 6, 1, CoupledDraws(rho=[[2, 5, 3]], pairs=[[[1, 2, 3], [0, 3, 0]]]))


def test_coupled_l1_identity_exact():
    # the whole point of the coupling: total count disagreement is |N - n|
    for r in range(300):
        nu, rho = draw_coupled(CELLS6, 40, RngStream(909, r).generator())
        assert nu.kind == MULTINOMIAL and rho.kind == POISSONIZED
        assert int(np.abs(nu.counts - rho.counts).sum()) == abs(rho.N_realized - 40)
        assert int(nu.counts.sum()) == 40


@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.integers(0, 5), min_size=1, max_size=40).filter(any), n=st.integers(1, 500),
       rows=st.integers(1, 20), seed=st.integers(0, 2**64 - 1))
@example(p=[0, 1, 2], n=60, rows=20, seed=1)  # a leading zero cell
@example(p=[3, 1, 0], n=60, rows=20, seed=2)  # a trailing zero cell
@example(p=[0, 0, 4, 0], n=60, rows=20, seed=3)  # one positive cell between zeros
def test_coupled_rows_differ_by_exactly_the_poisson_excess(p, n, rows, seed):
    """On every row of a coupled slab, over any model, n and row count,
    nu sums to n, and nu and rho differ in exactly |N - n| balls, N being
    rho's total: sum_j |nu_j - rho_j| = |N - n|. A zero-probability cell
    holds no ball in either sample."""
    weights = np.array(p, dtype=float)
    cells = CellModel(weights.size, weights / weights.sum())
    nu, rho = draw_slab(COUPLED, cells, n, rows, RngStream(seed).generator())
    N = rho.sum(axis=1)
    assert (nu.sum(axis=1) == n).all()
    assert not nu[:, weights == 0].any() and not rho[:, weights == 0].any()
    assert np.array_equal(np.abs(nu - rho).sum(axis=1), np.abs(N - n))
    # the shorter sample is contained in the longer one, ball for ball
    assert ((nu <= rho) | (N < n)[:, None]).all() and ((rho <= nu) | (N > n)[:, None]).all()


@pytest.mark.parametrize("cells, n, rebuilt", [
    (cells_from_generator(example_generator(), 200), 400, False),  # every row adds or removes balls
    (CELLS6, 10**12, True),  # every row has |N - n| > M and is rebuilt from N
], ids=["balls", "rebuilt"])
def test_coupled_pair_has_the_exact_joint_law(cells, n, rebuilt):
    """Over 20000 coupled rows, cell by cell: nu_j has the Binomial(n, p_j)
    mean and variance, rho_j the Poisson(n p_j) mean and variance, and
    Cov(nu_j, rho_j) = E[min(n, N)] p_j (1 - p_j), since the min(n, N)
    common balls are the only ones both samples hold. Every estimate lies
    within 4 standard errors of its exact value."""
    R = 20000
    slab = draw_slab(COUPLED, cells, n, R, RngStream(4242).generator())
    assert ((np.abs(slab[1].sum(axis=1) - n) > cells.M) == rebuilt).all()
    nu, rho = slab.astype(float)
    p = cells.p
    # E|N - n| = 2 n P(N = n) for an integer Poisson mean n, and min = (n + N - |N - n|) / 2
    e_min = n * (1.0 - float(poisson.pmf(n, n)))
    exact = {
        "nu mean": (nu.mean(axis=0), n * p),
        "rho mean": (rho.mean(axis=0), n * p),
        "nu var": (nu.var(axis=0, ddof=1), n * p * (1 - p)),
        "rho var": (rho.var(axis=0, ddof=1), n * p),
        "cov": (((nu - nu.mean(axis=0)) * (rho - rho.mean(axis=0))).sum(axis=0) / (R - 1), e_min * p * (1 - p)),
    }
    cu, cr = nu - n * p, rho - n * p
    se = {  # plug-in standard errors of each estimate
        "nu mean": nu.std(axis=0, ddof=1) / np.sqrt(R),
        "rho mean": rho.std(axis=0, ddof=1) / np.sqrt(R),
        "nu var": (cu**2).std(axis=0, ddof=1) / np.sqrt(R),
        "rho var": (cr**2).std(axis=0, ddof=1) / np.sqrt(R),
        "cov": (cu * cr).std(axis=0, ddof=1) / np.sqrt(R),
    }
    for name, (got, want) in exact.items():
        z = (got - want) / se[name]
        assert np.abs(z).max() < 4.0, (name, z)


def test_coupled_draw_reaches_its_largest_n():
    cells = CellModel(10, np.full(10, 0.1))
    gen = RngStream(1).generator()
    for _ in range(4):  # N < n and N > n both occur
        nu, rho = draw_coupled(cells, MAX_N, gen)
        assert nu.N_realized == nu.n == MAX_N
        assert int(np.abs(nu.counts - rho.counts).sum()) == abs(MAX_N - rho.N_realized)
    for n in (MAX_N + 1, 10**20):
        with pytest.raises(ValidationError, match=f"n must be <= {MAX_N}"):
            draw_coupled(cells, n, gen)


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
    for r in range(reps):
        gen = RngStream(31337, r).generator()
        direct[r] = draw_poissonized(gm, n, gen).counts[0]
        _, rho = draw_coupled(cells, n, gen)
        via_coupling[r] = grouped_estimator(rho, 4).counts[0]
    stat, _ = ks_2samp(direct, via_coupling)
    assert stat < 1.628 * np.sqrt(2.0 / reps)  # 1% critical value
    expect = n * gm.p[0]
    assert abs(direct.mean() - expect) < 5 * np.sqrt(expect / reps)
    assert abs(via_coupling.mean() - expect) < 5 * np.sqrt(expect / reps)


# ---------- coupled pairs seen at groups ----------

def check_grouped(pairs, cells, n, m):
    """The exact invariants of every row of a CoupledGroups slab: V sums to
    n and R to N; the listed cells of a row are distinct, sorted, positive
    and differ, by |N - n| balls in all, and within each group they account
    for V - R; a cell never holds more than its group, and the shorter
    sample lies inside the longer one."""
    V, R = pairs
    rows, width = V.shape[0], cells.M // m
    N = R.sum(axis=1)
    assert V.shape == R.shape == (rows, m) and V.dtype == R.dtype == np.int64
    assert (V.sum(axis=1) == n).all() and (V >= 0).all() and (R >= 0).all()
    row, cell, nu, rho = pairs.row, pairs.cell, pairs.nu, pairs.rho
    assert np.array_equal(row, np.sort(row)) and (nu != rho).all() and (nu >= 0).all() and (rho >= 0).all()
    assert ((row[1:] != row[:-1]) | (cell[1:] > cell[:-1])).all()
    assert (cells.p[cell] > 0).all()
    assert np.array_equal(np.bincount(row, np.abs(nu - rho), minlength=rows), np.abs(N - n))
    per_group = np.zeros((rows, m), dtype=np.int64)
    np.add.at(per_group, (row, cell // width), nu - rho)
    assert np.array_equal(per_group, V - R)
    assert (nu <= V[row, cell // width]).all() and (rho <= R[row, cell // width]).all()
    assert ((nu >= rho) == (N[row] < n)).all()
    return N


@pytest.mark.parametrize("cells, n, m", [
    (CELLS6, 60, 6),
    (CELLS6, 10**12, 6),  # every row rebuilt from N
    (cells_from_generator(example_generator(), 40), 120, 40),
    (cells_from_generator(example_generator(), 1000), 3000, 1000),
    (cells_from_generator(example_generator(), 1000), 10**6, 1000),  # rows with |N - n| above and below M
])
def test_grouped_rows_at_one_cell_per_group_are_the_coupled_slab(cells, n, m):
    """At m = M a grouped slab is the full coupled slab: V and R are its nu
    and rho bit for bit, the generator ends in the same state, the
    differing cells are read off the rows and none is revealed beyond the
    groups."""
    full_gen, grouped_gen = RngStream(5, 1).generator(), RngStream(5, 1).generator()
    nu, rho = draw_slab(COUPLED, cells, n, 30, full_gen)
    pairs = draw_slab(COUPLED, cells, n, 30, grouped_gen, groups=m)
    assert isinstance(pairs, CoupledGroups) and pairs.revealed == 0
    assert np.array_equal(pairs.V, nu) and np.array_equal(pairs.R, rho)
    assert full_gen.bit_generator.state == grouped_gen.bit_generator.state
    row, cell = np.nonzero(nu != rho)
    assert np.array_equal(pairs.row, row) and np.array_equal(pairs.cell, cell)
    assert np.array_equal(pairs.nu, nu[row, cell]) and np.array_equal(pairs.rho, rho[row, cell])
    check_grouped(pairs, cells, n, m)


@st.composite
def grouped_models(draw):
    """(m, cell weights): m groups of 1 to 5 cells each, some weights 0."""
    m, width = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return m, draw(st.lists(st.integers(0, 5), min_size=m * width, max_size=m * width).filter(any))


@settings(max_examples=60, deadline=None)
@given(model=grouped_models(), n=st.integers(1, 400), rows=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
@example(model=(3, [0, 0, 1, 0, 0, 3]), n=200, rows=12, seed=1)  # zero cells within and across groups
@example(model=(1, [1, 2]), n=10**6, rows=4, seed=2)  # extra balls drawn over the cells on every row
@example(model=(1, [2, 4, 3, 1]), n=1, rows=1, seed=0)  # one group whose q = sum(p) rounds above 1, N = n
def test_grouped_rows_keep_every_invariant(model, n, rows, seed):
    """Over any model, group count and width, n and row count, every row of
    a grouped slab keeps the exact invariants (check_grouped); no ball
    lands on or leaves a zero-probability cell; a row at m < M groups
    reveals the cells it lists, or all M cells when its extra balls are
    drawn over the cells (|N - n| > M), and a slab at m = M none; and a
    slab of rows is that many one-row grouped draws in order from the same
    three streams, which it leaves in the same states."""
    m, weights = model[0], np.array(model[1], dtype=float)
    cells, width = CellModel(weights.size, weights / weights.sum()), weights.size // m
    gen, single = RngStream(seed).streams(), RngStream(seed).streams()
    pairs = draw_slab(COUPLED, cells, n, rows, gen, groups=m)
    N = check_grouped(pairs, cells, n, m)
    zero_groups = cells.p.reshape(m, -1).sum(axis=1) == 0
    assert not pairs.V[:, zero_groups].any() and not pairs.R[:, zero_groups].any()
    over_cells = np.abs(N - n) > cells.M
    revealed = cells.M * over_cells.sum() + np.count_nonzero(~over_cells[pairs.row])
    assert pairs.revealed == (revealed if width > 1 else 0)
    for r in range(rows):
        V, R = draw_slab(COUPLED, cells, n, 1, single, groups=m)
        assert np.array_equal(V[0], pairs.V[r]) and np.array_equal(R[0], pairs.R[r])
    assert [g.bit_generator.state for g in gen] == [g.bit_generator.state for g in single]


def test_grouped_rows_of_a_table_with_a_flat_piece(tmp_path):
    """A table whose G is flat on [0.2, 0.35] has zero-probability cells
    inside two groups at M = 40, m = 8: over rows with N < n and N > n, no
    listed cell is one of them, and every invariant holds."""
    path = tmp_path / "flat.csv"
    path.write_text("0,0\n0.2,0.3\n0.35,0.3\n1,1\n")
    cells = cells_from_generator(table_generator(str(path)), 40)
    zero = np.flatnonzero(cells.p == 0)
    assert zero.size and len(set(zero // 5)) == 2 and (cells.p.reshape(8, 5).sum(axis=1) > 0).all()
    pairs = draw_slab(COUPLED, cells, 80, 2000, RngStream(17).streams(), groups=8)
    N = check_grouped(pairs, cells, 80, 8)
    assert (N < 80).any() and (N > 80).any()
    assert not np.isin(pairs.cell, zero).any()


def test_grouped_rows_rebuilt_from_n():
    """When |N - n| > M a row draws its extra balls by one multinomial over
    the cells: such rows occur, each reveals all M cells, every row keeps
    every invariant, and V has the Multinomial(n, q) means within 4
    standard errors."""
    n, rows = 10**8, 400
    pairs = draw_slab(COUPLED, CELLS6, n, rows, RngStream(23).streams(), groups=3)
    N = check_grouped(pairs, CELLS6, n, 3)
    over_cells = np.abs(N - n) > CELLS6.M
    assert over_cells.any()
    assert pairs.revealed == CELLS6.M * over_cells.sum() + np.count_nonzero(~over_cells[pairs.row])
    q = group_model(CELLS6, 3).p
    z = (pairs.V.mean(axis=0) - n * q) / np.sqrt(n * q * (1 - q) / rows)
    assert np.abs(z).max() < 4.0, z


@pytest.mark.parametrize("n", [400, 20000])
def test_grouped_pairs_have_the_exact_law(n):
    """Over 20000 rows at M = 200 cells in m = 8 groups, n/M = 2 and 100
    (rows with N < n and with N > n): V has the Multinomial(n, q) means
    n q_i, variances n q_i (1 - q_i) and covariances -n q_i q_j; R has the
    Poisson(n q) means and variances, and Cov(V_i, R_i) =
    E[min(n, N)] q_i (1 - q_i), all within 4 standard errors."""
    cells, m, rows = cells_from_generator(example_generator(), 200), 8, 20000
    pairs = draw_slab(COUPLED, cells, n, rows, RngStream(4243).streams(), groups=m)
    N = check_grouped(pairs, cells, n, m)
    assert (N < n).any() and (N > n).any()
    q = group_model(cells, m).p
    V, R = (a - n * q for a in pairs)
    cov = np.where(np.eye(m, dtype=bool), n * q * (1 - q), -n * np.outer(q, q))
    e_min = n * (1.0 - float(poisson.pmf(n, n)))
    exact = {  # (products whose means are estimated, their exact means)
        "V mean": (V, 0.0),
        "V cov": (V[:, :, None] * V[:, None, :], cov),
        "R mean": (R, 0.0),
        "R var": (R**2, n * q),
        "V R cov": (V * R, e_min * q * (1 - q)),
    }
    for name, (products, want) in exact.items():
        z = (products.mean(axis=0) - want) / (products.std(axis=0, ddof=1) / np.sqrt(rows))
        assert np.abs(z).max() < 4.0, (name, z)


@pytest.mark.parametrize("M, m, n", [(40, 4, 120), (30, 3, 30), (20, 2, 200)])
def test_grouped_natural_gap_matches_full_rows(M, m, n):
    """The natural gap read from a grouped slab's differing cells has the
    law of the gap of full coupled rows: over 10000 rows each, its mean and
    its second moment lie within 4 standard errors of the full rows'."""
    cells, rows = cells_from_generator(example_generator(), M), 10000
    pairs = draw_slab(COUPLED, cells, n, rows, RngStream(M).streams(), groups=m)
    grouped = _natural_gap(pairs.row, pairs.nu, pairs.rho, rows).astype(float)
    nu, rho = draw_slab(COUPLED, cells, n, rows, RngStream(M, 1).generator())
    row, cell = np.nonzero(nu != rho)
    full = _natural_gap(row, nu[row, cell], rho[row, cell], rows).astype(float)
    for power in (1, 2):
        a, b = grouped**power, full**power
        z = (a.mean() - b.mean()) / np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / rows)
        assert abs(z) < 4.0, (power, z)


def test_grouped_slab_checks_its_groups_and_cells():
    """A grouped draw is a coupled one at a divisor of M, and a slab whose
    listed cells have a negative count, or do not differ by |N - n| balls,
    is refused."""
    with pytest.raises(ValidationError, match="only coupled draws are drawn at groups"):
        draw_slab(MULTINOMIAL, CELLS6, 60, 2, RngStream(1).generator(), groups=3)
    with pytest.raises(ValidationError, match="m=4 does not divide M=6"):
        draw_slab(COUPLED, CELLS6, 60, 2, RngStream(1).generator(), groups=4)
    slab, Ns = np.array([[[30, 30]], [[28, 30]]]), np.array([58])
    row, cell = np.array([0]), np.array([1])
    with pytest.raises(ValidationError, match=r"coupled counts differ by 1 balls, expected \|N - n\| = 2"):
        CoupledGroups.collect(slab, 60, Ns, (row, cell, np.array([3]), np.array([2])), 1)
    with pytest.raises(ValidationError, match="counts must be nonnegative"):
        CoupledGroups.collect(slab, 60, Ns, (row, cell, np.array([0]), np.array([-2])), 1)
    ok = CoupledGroups.collect(slab, 60, Ns, (row, cell, np.array([4]), np.array([2])), 1)
    assert ok.revealed == 1 and ok.row.tolist() == [0]


def test_grouped_rows_keep_exact_totals_at_the_largest_n():
    """At n = 2**62 - 1, above a float's exact integers, the group counts of
    a slab at m < M are summed in int64: V sums to n and R to N exactly, on
    6 cells and on 2**12 (|N - n| is about 2**31 > M there, so the extra
    balls are one multinomial over the cells)."""
    n = MAX_N - 1
    for cells, m in ((CELLS6, 3), (LONG, 64)):
        pairs = draw_slab(COUPLED, cells, n, 3, RngStream(62).streams(), groups=m)
        N = check_grouped(pairs, cells, n, m)
        assert [int(v) for v in pairs.V.sum(axis=1)] == [n] * 3 and (np.abs(N - n) > cells.M).all()


class CountingGenerator:
    """A Generator that counts the variates its draws return and records
    each draw's name and arguments."""

    def __init__(self, gen):
        self.gen, self.variates, self.calls = gen, 0, []

    def __getattr__(self, name):
        draw = getattr(self.gen, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.variates += np.size(out)
            self.calls.append((name, args))
            return out
        return counted


def test_grouped_row_draws_what_its_balls_touch_at_any_n_over_m():
    """At n/M = 1000 (M = 1000, n = 10**6, m = 250 groups of 4 cells), a
    slab of 60 rows drawn at the groups takes per row one Poisson N, its
    k = |N - n| extra balls (one multinomial over the M cells if k > M),
    and one row of the common balls' multinomial: zero padding, which draws
    no variate, then the m groups' rest and the p of the cells those balls
    touch, T. So a row draws 1 + min(k, M) + m + |T| variates, at most
    1 + m + 2 min(k, M). It does not grow with n/M: a full row takes M
    Poisson variates plus its balls."""
    cells, n, m, rows = cells_from_generator(example_generator(), 1000), 10**6, 250, 60
    gen_n, gen_extra, gen_common = streams = tuple(CountingGenerator(g) for g in RngStream(9).streams())
    pairs = draw_slab(COUPLED, cells, n, rows, streams, groups=m)
    k = np.abs(check_grouped(pairs, cells, n, m) - n)
    touched = np.bincount(pairs.row, minlength=rows)
    assert gen_n.variates == rows and gen_extra.variates == np.minimum(k, cells.M).sum()
    assert (touched <= np.minimum(k, cells.M)).all()
    ((name, (_, table)),) = gen_common.calls
    assert name == "multinomial" and table.shape == (rows, m + touched.max())
    for r, (t, T) in enumerate(zip(touched, np.split(pairs.cell, np.cumsum(touched)[:-1]))):
        real = table[r, table.shape[1] - m - t:]
        assert not table[r, :table.shape[1] - m - t].any() and np.array_equal(real[m:], cells.p[T])
        assert real.size == m + t <= m + min(k[r], cells.M)
    assert k.min() <= cells.M < k.max()


# ---------- grouping counts ----------

def test_group_counts_block_sums():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4], n=10)
    out = grouped_estimator(vec, 2)
    np.testing.assert_array_equal(out.counts, [3, 7])
    assert out.n == 10 and out.kind == MULTINOMIAL


def test_group_counts_k1_is_identity():
    vec = draw_multinomial(CELLS6, 30, RngStream(8).generator())
    out = grouped_estimator(vec, 6)
    np.testing.assert_array_equal(out.counts, vec.counts)


def test_group_counts_preserves_poisson_metadata():
    vec = draw_poissonized(CELLS6, 30, RngStream(9).generator())
    out = grouped_estimator(vec, 3)
    assert out.counts.sum() == vec.N_realized and out.n == 30
    assert out.kind == POISSONIZED


def test_group_counts_length_checks():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3], n=6)
    for m in (2, 4, 0):
        with pytest.raises(ValidationError, match="does not divide M=3"):
            grouped_estimator(vec, m)
