"""Step-CDF and grouping primitives: exact arithmetic, no Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structdist import (
    CellModel,
    StepCdf,
    ValidationError,
    divisors_of,
    group_model,
    structural_cdf,
    sup_distance,
    sup_distance_to_function,
)


# ---------- StepCdf construction ----------

def test_from_values_merges_ties_and_sorts():
    cdf = StepCdf.from_values([2.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cdf.locations, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cdf.masses, [0.25, 0.5, 0.25])
    assert cdf.n_jumps == 3


def test_from_values_weighted():
    cdf = StepCdf.from_values([0.0, 1.0], weights=[0.125, 0.875])
    np.testing.assert_array_equal(cdf.masses, [0.125, 0.875])


def test_right_continuity_and_left_limits():
    cdf = StepCdf([0.5, 1.5], [0.25, 0.75])
    assert cdf(0.5) == 0.25          # mass at the jump counts
    assert cdf.before(0.5) == 0.0    # left limit does not
    assert cdf(1.0) == 0.25
    assert cdf.before(1.5) == 0.25
    assert cdf(1.5) == 1.0
    assert cdf(-10.0) == 0.0 and cdf(10.0) == 1.0


def test_vectorized_evaluation_matches_scalar():
    cdf = StepCdf.from_values([1.0, 2.0, 2.0, 5.0])
    xs = np.array([-1.0, 1.0, 1.5, 2.0, 4.9, 5.0, 6.0])
    vec = cdf(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == cdf(float(x))


def test_equality_and_hash_by_value():
    a = StepCdf.from_values([1.0, 2.0])
    b = StepCdf([1.0, 2.0], [0.5, 0.5])
    assert a == b
    assert a != StepCdf([1.0, 2.5], [0.5, 0.5])
    # StepCdf defines value equality and no hash, so it cannot be hashed
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize(
    "locations, masses",
    [
        ([], []),                          # no jumps
        ([1.0, 1.0], [0.5, 0.5]),          # duplicate location
        ([2.0, 1.0], [0.5, 0.5]),          # decreasing locations
        ([1.0, 2.0], [0.0, 1.0]),          # zero mass
        ([1.0, 2.0], [0.6, 0.6]),          # masses exceed 1
        ([[1.0]], [[1.0]]),                # not 1-D
    ],
)
def test_stepcdf_rejects_bad_input(locations, masses):
    with pytest.raises(ValidationError):
        StepCdf(locations, masses)


def test_jump_arrays_are_read_only():
    cdf = StepCdf.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        cdf.locations[0] = 0.0


# ---------- sup distance ----------

def test_sup_distance_is_exact_on_shifted_steps():
    a = StepCdf([1.0], [1.0])
    b = StepCdf([2.0], [1.0])
    # on [1, 2) the two CDFs differ by exactly 1
    assert sup_distance(a, b) == 1.0
    assert sup_distance(a, a) == 0.0


def test_sup_distance_symmetry():
    a = StepCdf.from_values([0.0, 1.0, 2.0])
    b = StepCdf.from_values([0.5, 1.0, 2.5, 2.5])
    assert sup_distance(a, b) == sup_distance(b, a)


def test_sup_distance_to_function_hits_left_limit():
    # F(x) = x on [0,1] versus a single step at 0.5: gap 0.5 approached
    # from both sides of the jump.
    step = StepCdf([0.5], [1.0])
    d = sup_distance_to_function(step, lambda x: min(max(x, 0.0), 1.0))
    assert d == 0.5


def test_sup_distance_to_function_extra_grid_points():
    step = StepCdf([1.0], [1.0])
    target = StepCdf([0.25], [1.0])  # discontinuous target needs its own grid
    d = sup_distance_to_function(step, lambda x: float(target(x)), grid=[0.25])
    assert d == 1.0


# Step CDFs with jumps on the quarter lattice in [-2.5, 2.5]: equal values
# are frequent, so ties, shared jumps and coinciding CDFs all occur.
quarter_values = st.lists(st.integers(-10, 10), min_size=1, max_size=30).map(lambda v: np.array(v) / 4)
step_cdfs = quarter_values.map(StepCdf.from_values)


@settings(max_examples=200, deadline=None)
@given(a=step_cdfs, b=step_cdfs, c=step_cdfs)
def test_sup_distance_is_a_metric(a, b, c):
    assert sup_distance(a, b) == sup_distance(b, a)
    assert sup_distance(a, a) == 0.0
    assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c) + 1e-12


@settings(max_examples=200, deadline=None)
@given(a=step_cdfs, b=step_cdfs)
def test_sup_distance_matches_a_dense_grid(a, b):
    # every jump is a multiple of 1/4, so the eighths hit each jump and a
    # point of every interval between jumps, where both CDFs are constant
    grid = np.arange(-24, 25) / 8
    assert sup_distance(a, b) == float(np.abs(a(grid) - b(grid)).max())


@settings(max_examples=200, deadline=None)
@given(
    values=quarter_values,
    weights=st.lists(st.integers(1, 9), min_size=30, max_size=30),
)
def test_from_values_keeps_the_mass_and_merges_ties(values, weights):
    w = np.array(weights[: values.size], dtype=float)
    w /= w.sum()
    cdf = StepCdf.from_values(values, weights=w)
    np.testing.assert_array_equal(cdf.locations, np.unique(values))
    for loc, mass in zip(cdf.locations, cdf.masses):
        assert mass == pytest.approx(w[values == loc].sum(), abs=1e-15)
    assert abs(cdf.masses.sum() - w.sum()) <= 1e-12
    assert cdf(np.inf) == cdf(cdf.locations[-1]) == pytest.approx(1.0, abs=1e-12)
    assert cdf.before(cdf.locations[0]) == 0.0


# ---------- cell and grouped models ----------

def test_cell_model_validation():
    CellModel(3, [0.2, 0.3, 0.5])
    with pytest.raises(ValidationError):
        CellModel(3, [0.2, 0.3])           # length mismatch
    with pytest.raises(ValidationError):
        CellModel(2, [0.7, 0.4])           # sum != 1
    with pytest.raises(ValidationError):
        CellModel(2, [-0.1, 1.1])          # negative entry


def test_structural_cdf_scales_by_M():
    cells = CellModel(4, [0.1, 0.2, 0.3, 0.4])
    cdf = structural_cdf(cells)
    np.testing.assert_allclose(cdf.locations, [0.4, 0.8, 1.2, 1.6])
    np.testing.assert_array_equal(cdf.masses, [0.25, 0.25, 0.25, 0.25])


def test_grouping_scheme_requires_exact_factorization():
    cells = CellModel(6, [1 / 6] * 6)
    assert [group_model(cells, m).M for m in divisors_of(6)] == [1, 2, 3, 6]
    for m, nearest in ((4, 3), (0, 1), (-2, 1), (7, 6)):
        with pytest.raises(ValidationError, match=f"m={m} does not divide M=6; nearest divisor is {nearest}$"):
            group_model(cells, m)


def test_group_model_sums_adjacent_blocks():
    cells = CellModel(4, [0.1, 0.2, 0.3, 0.4])
    gm = group_model(cells, 2)
    assert isinstance(gm, CellModel) and gm.M == 2
    np.testing.assert_allclose(gm.p, [0.3, 0.7])
    cdf = structural_cdf(gm)
    np.testing.assert_allclose(cdf.locations, [0.6, 1.4])
    assert group_model(cells, 4) == cells  # m = M: one cell per group


def test_ordered_scheme_sorts_cells_before_grouping():
    # group_model cuts blocks in the order given; an ordered grouping sorts first
    cells = CellModel(4, [0.4, 0.1, 0.3, 0.2])
    np.testing.assert_allclose(group_model(cells, 2).p, [0.5, 0.5])
    ordered = CellModel(4, cells.p[np.argsort(cells.p, kind="stable")])
    np.testing.assert_array_equal(ordered.p, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(group_model(ordered, 2).p, [0.3, 0.7])


def test_grouped_model_validation():
    # a grouped model is a CellModel over the m groups and validates as one
    with pytest.raises(ValidationError):
        CellModel(2, [0.6, 0.6])
    gm = group_model(CellModel(6, [0.1] * 4 + [0.3, 0.3]), 3)
    assert gm == CellModel(3, [0.2, 0.2, 0.6])
