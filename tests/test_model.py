"""Step-CDF and grouping primitives: exact arithmetic, no Monte Carlo."""

import numpy as np
import pytest

from structdist import (
    CellModel,
    GroupedModel,
    GroupingScheme,
    StepCdf,
    ValidationError,
    group_model,
    grouped_structural_cdf,
    grouping_permutation,
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


def test_csv_rows_prepends_zero_anchor():
    cdf = StepCdf.from_values([1.0, 3.0])
    rows = cdf.csv_rows()
    # anchor sits 2% of the span left of the first jump, at height zero
    assert rows[0] == (0.96, 0.0)
    assert rows[1:] == [(1.0, 0.5), (3.0, 1.0)]


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
    GroupingScheme(6, 3, 2)
    with pytest.raises(ValidationError):
        GroupingScheme(6, 4, 2)
    with pytest.raises(ValidationError):
        GroupingScheme(6, 3, 0)


def test_group_model_sums_adjacent_blocks():
    cells = CellModel(4, [0.1, 0.2, 0.3, 0.4])
    gm = group_model(cells, GroupingScheme(4, 2, 2))
    np.testing.assert_allclose(gm.q, [0.3, 0.7])
    cdf = grouped_structural_cdf(gm)
    np.testing.assert_allclose(cdf.locations, [0.6, 1.4])


def test_ordered_scheme_sorts_cells_before_grouping():
    cells = CellModel(4, [0.4, 0.1, 0.3, 0.2])
    scheme = GroupingScheme(4, 2, 2, ordered=True)
    perm = grouping_permutation(cells, scheme)
    np.testing.assert_array_equal(cells.p[perm], [0.1, 0.2, 0.3, 0.4])
    gm = group_model(cells, scheme)
    np.testing.assert_allclose(gm.q, [0.3, 0.7])


def test_grouping_permutation_checks_M():
    cells = CellModel(4, [0.25] * 4)
    with pytest.raises(ValidationError):
        grouping_permutation(cells, GroupingScheme(6, 3, 2))


def test_grouped_model_validation():
    with pytest.raises(ValidationError):
        GroupedModel(2, [0.6, 0.6])
