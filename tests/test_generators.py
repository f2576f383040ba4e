"""Generator-to-cells pipeline: declared bounds, frozen cell vectors, limit CDFs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structdist import (
    CellModel,
    NumericError,
    SmoothGenerator,
    ValidationError,
    by_name,
    cells_from_generator,
    example_generator,
    group_model,
    limit_sdf,
    table_generator,
    uniform_generator,
)
from structdist.generators import _GRID_CHUNK, _grouped_cells


# ---------- the two built-in generators ----------

def test_example_cells_M5_frozen():
    # increments of 2x - x^2 on a 5-cell grid, computed by hand
    cells = cells_from_generator(example_generator(), 5)
    np.testing.assert_allclose(cells.p, [0.36, 0.28, 0.20, 0.12, 0.04], atol=1e-15)


def test_cells_sum_to_one_telescoping():
    for M in (1, 2, 17, 1000):
        cells = cells_from_generator(example_generator(), M)
        assert abs(float(cells.p.sum()) - 1.0) < 1e-12


def test_uniform_cells_are_equal():
    cells = cells_from_generator(uniform_generator(), 8)
    np.testing.assert_allclose(cells.p, np.full(8, 0.125), atol=1e-15)


def test_generators_take_arrays():
    u = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(uniform_generator().G(u), u)
    np.testing.assert_array_equal(example_generator().G(u), [0.0, 0.4375, 1.0])


@pytest.mark.parametrize("gen", [example_generator(), uniform_generator()], ids=lambda g: g.name)
def test_declared_bounds_hold_on_the_density(gen):
    # tau and g_deriv_bound feed the error bounds through BoundParams.for_generator
    u = np.linspace(0.0, 1.0, 10_001)[1:]
    g = gen.g(u)
    assert np.max(np.abs(g)) <= gen.tau
    assert np.max(np.abs(np.diff(g) / np.diff(u))) <= gen.g_deriv_bound * (1.0 + 1e-9)


def test_cells_from_generator_rejects_non_monotone_G():
    # G oscillates below zero slope yet still spans (0,0)-(1,1)
    wiggly = SmoothGenerator(
        "wiggly",
        G=lambda x: x + 0.3 * np.sin(2.0 * np.pi * x),
        g=lambda u: 1.0 + 0.6 * np.pi * np.cos(2.0 * np.pi * np.asarray(u, dtype=float)),
        tau=1.0 + 0.6 * np.pi,
        g_deriv_bound=1.2 * np.pi**2,
    )
    with pytest.raises(NumericError):
        cells_from_generator(wiggly, 50)  # some increment is negative


def test_by_name_resolves_and_rejects():
    assert by_name("example").name == "example"
    assert by_name("uniform").name == "uniform"
    with pytest.raises(ValidationError):
        by_name("cauchy")


# ---------- block probabilities against the smooth density ----------

def test_block_probabilities_hit_density_midpoints():
    # for a quadratic G the block increment equals the midpoint density value
    gen = example_generator()
    cells = cells_from_generator(gen, 1000)
    gm = group_model(cells, 40)
    mids = (np.arange(40) + 0.5) / 40
    np.testing.assert_allclose(40 * gm.p, gen.g(mids), atol=1e-12)


# ---------- limiting structural CDF ----------

def test_limit_sdf_example_closed_form():
    F = limit_sdf(example_generator())
    assert F(-0.5) == 0.0
    assert F(1.0) == 0.5
    assert F(2.0) == 1.0
    assert F(2.5) == 1.0


def test_limit_sdf_uniform_is_unit_step():
    F = limit_sdf(uniform_generator())
    assert F(0.999) == 0.0
    assert F(1.0) == 1.0


def _write_table(path, n_knots=2001):
    # tabulate G(u) = 2u - u^2; chord slopes approximate g = 2(1-u)
    us = np.linspace(0.0, 1.0, n_knots)
    with open(path, "w") as fh:
        fh.write("# u, G(u)\n")
        for u, G in zip(us, 2 * us - us**2):
            fh.write(f"{float(u)!r},{float(G)!r}\n")
    return str(path)


def test_table_generator_round_trip(tmp_path):
    path = _write_table(tmp_path / "table.csv")
    tab = table_generator(path)
    assert tab.name == f"table:{path}"
    assert tab.tau == pytest.approx(2.0, abs=1e-3)
    np.testing.assert_allclose(
        cells_from_generator(tab, 5).p, [0.36, 0.28, 0.20, 0.12, 0.04], atol=1e-7
    )


def test_table_generator_pieces_are_its_widths_and_slopes(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("0,0\n0.25,0\n0.5,0.5\n1,1\n")
    assert table_generator(str(path)).pieces == ((0.25, 0.0), (0.25, 2.0), (0.5, 1.0))
    # smooth generators have none, so their limit laws stay quadratures
    assert example_generator().pieces == () and uniform_generator().pieces == ()


def test_limit_sdf_bracketing_matches_closed_form(tmp_path):
    # the table generator's exact piecewise-constant limit against the smooth closed form
    tab = table_generator(_write_table(tmp_path / "table.csv"))
    F_num = limit_sdf(tab)
    F_exact = limit_sdf(example_generator())
    for x in np.linspace(0.0, 2.0, 41):
        assert abs(F_num(float(x)) - F_exact(float(x))) < 1e-6
    assert F_num(-1.0) == 0.0
    assert F_num(2.5) == pytest.approx(1.0, abs=1e-9)


def test_limit_sdf_is_monotone_numeric_path(tmp_path):
    tab = table_generator(_write_table(tmp_path / "t.csv", n_knots=101))
    F = limit_sdf(tab)
    vals = [F(float(x)) for x in np.linspace(-0.1, 2.1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_limit_sdf_table_is_exact_width_sum(tmp_path):
    # slopes 0, 2, 1 on widths 1/4, 1/4, 1/2: the flat piece is an atom at 0
    path = tmp_path / "flat.csv"
    path.write_text("0,0\n0.25,0\n0.5,0.5\n1,1\n")
    F = limit_sdf(table_generator(str(path)))
    assert F(-0.1) == 0.0
    assert F(0.0) == 0.25
    assert F(0.999) == 0.25
    assert F(1.0) == 0.75
    assert F(1.999) == 0.75
    assert F(2.0) == 1.0
    assert F(3.0) == 1.0


@pytest.fixture(scope="module")
def limits(tmp_path_factory):
    """The three limit CDFs by name; the table's slopes 0, 2, 1 make it jump
    at 0, 1 and 2 = tau, the example's support ends at 2, uniform jumps at 1."""
    path = tmp_path_factory.mktemp("table") / "flat.csv"
    path.write_text("0,0\n0.25,0\n0.5,0.5\n1,1\n")
    gens = (example_generator(), uniform_generator(), table_generator(str(path)))
    return {name: limit_sdf(gen) for name, gen in zip(("example", "uniform", "table"), gens)}


# x < 0, -0.0, +-inf, the exact jumps 0, 1 and 2, and x beyond tau = 2
_LIMIT_X = st.one_of(
    st.floats(-3.0, 5.0, allow_nan=False),
    st.sampled_from([-math.inf, -1.0, -5e-324, -0.0, 0.0, 1.0, 2.0, 2.5, math.inf]),
)


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(_LIMIT_X, min_size=1, max_size=10), name=st.sampled_from(["example", "uniform", "table"]))
def test_limit_cdf_array_equals_scalar_calls(limits, xs, name):
    F = limits[name]
    scalars = [F(x) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert F(np.array(xs)).tolist() == scalars
    assert F(np.array(xs).reshape(-1, 1)).ravel().tolist() == scalars


def test_limit_sdf_requires_limit_cdf():
    gen = example_generator()
    bare = SmoothGenerator("bare", gen.G, gen.g, tau=2.0, g_deriv_bound=2.0)
    with pytest.raises(ValidationError, match="limit_cdf"):
        limit_sdf(bare)


def test_table_generator_rejections(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnot-a-number,0.5\n1,1\n")
    with pytest.raises(ValidationError):
        table_generator(str(bad))

    bad.write_text("0,0\n1,0.7\n")  # does not reach (1,1)
    with pytest.raises(ValidationError):
        table_generator(str(bad))

    bad.write_text("0,0\n0.5,0.9\n0.7,0.5\n1,1\n")  # G decreases
    with pytest.raises(NumericError):
        table_generator(str(bad))

    for row in ("0.5,nan", "nan,0.5", "0.5,inf"):  # every comparison with NaN is false
        bad.write_text(f"0,0\n{row}\n1,1\n")
        with pytest.raises(ValidationError, match="must be finite"):
            table_generator(str(bad))

    bad.write_bytes(b"0,0\n0.5,0.5\xff\n1,1\n")  # not UTF-8: named by its byte offset
    with pytest.raises(ValidationError, match="invalid UTF-8 at byte offset 11$"):
        table_generator(str(bad))


# ---------- grouped cells without the M-cell vector ----------

def _jittered_table(path, seed, n_knots=64):
    # a piecewise-linear G with jittered knots and random slopes, whose
    # group probabilities differ in the last bit between block sums of the
    # cells and direct differences of G on the group grid
    rng = np.random.default_rng(seed)
    i = np.arange(1, n_knots, dtype=float)
    u = np.concatenate(([0.0], (i + rng.uniform(-0.3, 0.3, i.size)) / n_knots, [1.0]))
    G = np.concatenate(([0.0], np.cumsum(np.diff(u) * rng.uniform(0.0, 3.0, n_knots))))
    G /= G[-1]
    G[-1] = 1.0
    path.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(u, G)))
    return table_generator(str(path))


@pytest.mark.parametrize("seed", [3, 8])
def test_limit_sdf_table_matches_the_masked_width_sum(tmp_path, seed):
    """F reads a running sum of the widths in slope order; the direct sum of
    the widths with slope <= x adds them in another order, so the two agree
    to one rounding per piece, at each slope, just below it and between."""
    tab = _jittered_table(tmp_path / "t.csv", seed)
    widths, slopes = np.array(tab.pieces).T
    xs = np.concatenate((slopes, np.nextafter(slopes, -np.inf), np.linspace(-0.5, 3.5, 101)))
    direct = [min(1.0, float(np.sum(widths[slopes <= x]))) for x in xs.tolist()]
    np.testing.assert_allclose(limit_sdf(tab)(xs), direct, rtol=0, atol=slopes.size * np.finfo(float).eps)


GROUPINGS = [(333333, 9009), (1000, 200), (1000, 40), (1000, 1000), (250, 10), (1000, 25), (4000, 50),
             (90, 5), (48, 3),  # see test_telescoped_groups_differ_from_the_cell_sums
             (3 * _GRID_CHUNK, 3), (100_000, 2), (100_000, 1)]  # groups longer than a chunk


@pytest.mark.parametrize("M, m", GROUPINGS, ids=lambda v: str(v))
def test_grouped_cells_are_the_grouped_cell_model_bit_for_bit(tmp_path, M, m):
    # against a whole-grid read of G written here, so the chunked reader is
    # checked against an independent one
    for gen in (example_generator(), uniform_generator(), _jittered_table(tmp_path / "t0.csv", 0),
                _jittered_table(tmp_path / "t15.csv", 15)):
        cells = CellModel(M, np.diff(gen.G(np.arange(M + 1) / M)))
        assert cells_from_generator(gen, M) == cells, gen.name
        assert _grouped_cells(gen, M, m) == group_model(cells, m), gen.name


@pytest.mark.parametrize("gen, M, m", [(example_generator(), 90, 5), (uniform_generator(), 48, 3)],
                         ids=["example", "uniform"])
def test_telescoped_groups_differ_from_the_cell_sums(gen, M, m):
    # why _grouped_cells sums the cells: G(i/m) - G((i-1)/m) is the same
    # probability rounded once, not through the sum, and can differ in the
    # last bit, which the draws would then see
    grouped = group_model(CellModel(M, np.diff(gen.G(np.arange(M + 1) / M))), m).p
    telescoped = cells_from_generator(gen, m).p
    assert not np.array_equal(telescoped, grouped)
    np.testing.assert_allclose(telescoped, grouped, rtol=0, atol=1e-15)
    assert np.array_equal(_grouped_cells(gen, M, m).p, grouped)


def _dip(M, j):
    # G(u) = u except at the grid point j/M, pushed below G((j-1)/M): the one
    # decrease sits inside a group, so G is monotone on every coarser grid
    return SmoothGenerator("dip", G=lambda x: np.where(x == j / M, (j - 2) / M, x),
                           g=lambda u: np.ones_like(u), tau=1.0, g_deriv_bound=0.0)


def _nan(M, j):
    # G(u) = u except at the grid point j/M, where it is NaN: both cells
    # beside it are NaN, which no check written as "< 0" would see
    return SmoothGenerator("nan", G=lambda x: np.where(x == j / M, np.nan, x),
                           g=lambda u: np.ones_like(u), tau=1.0, g_deriv_bound=0.0)


def _heavy():
    # total mass 1 + 1e-9: every cell is fine, their sum is not
    return SmoothGenerator("heavy", G=lambda x: x * (1.0 + 1e-9), g=lambda u: np.ones_like(u),
                           tau=1.0, g_deriv_bound=0.0)


@pytest.mark.parametrize("gen, error", [(_dip(1000, 31), NumericError), (_nan(1000, 31), NumericError),
                                        (_heavy(), ValidationError)], ids=["dip", "nan", "heavy"])
def test_grouped_cells_reject_what_the_cells_reject(gen, error):
    with pytest.raises(error) as ref:
        cells_from_generator(gen, 1000)
    for m in (1, 10, 40, 1000):
        with pytest.raises(error) as got:
            _grouped_cells(gen, 1000, m)
        assert str(got.value) == str(ref.value)
    if error is NumericError:
        assert "p[30] = " in str(ref.value)  # the first cell that is not >= 0
        assert cells_from_generator(gen, 40).M == 40  # fine on the group grid


def test_grouped_cells_reject_bad_shapes_first():
    # a bad M or m is named before G is read, so the dip is never seen
    with pytest.raises(ValidationError, match="M must be >= 1, got 0"):
        _grouped_cells(_dip(1000, 31), 0, 1)
    with pytest.raises(ValidationError, match="m=7 does not divide M=1000; nearest divisor is 8"):
        _grouped_cells(_dip(1000, 31), 1000, 7)

