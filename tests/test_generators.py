"""Generator-to-cells pipeline: declared bounds, frozen cell vectors, limit CDFs."""

import numpy as np
import pytest

from structdist import (
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
