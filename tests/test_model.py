"""Step-CDF and grouping primitives: exact arithmetic, no Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structdist import (
    POISSONIZED,
    CellModel,
    CountsVector,
    StepCdf,
    ValidationError,
    divisors_of,
    example_generator,
    group_model,
    limit_sdf,
    poisson_mixture_cdf,
    structural_cdf,
    sup_distance,
    table_generator,
    uniform_generator,
)
from structdist.model import _sup_to_function


def jump_table(counts, n):
    """The reference jump table of the estimate of counts from a sample of
    size n: each distinct count v, ascending, at v * (size / n), and the
    exact share of the counts that are <= v."""
    values, multiplicity = np.unique(counts, return_counts=True)
    return values * (counts.size / n), np.cumsum(multiplicity) / counts.size


# ---------- StepCdf construction ----------

def test_from_values_merges_ties_and_sorts():
    cdf = StepCdf.from_values([2.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cdf.locations, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cdf.masses, [0.25, 0.5, 0.25])
    assert cdf.n_jumps == 3


def test_from_values_rejects_no_values_like_the_constructor():
    for build in (lambda: StepCdf.from_values([]), lambda: StepCdf([], [])):
        with pytest.raises(ValidationError, match="a StepCdf needs at least one jump"):
            build()


def test_right_continuity_and_left_limits():
    cdf = StepCdf([0.5, 1.5], [0.25, 0.75])
    assert cdf(0.5) == 0.25          # mass at the jump counts
    assert cdf(np.nextafter(0.5, -np.inf)) == 0.0    # the left limit does not
    assert cdf(1.0) == 0.25
    assert cdf(np.nextafter(1.5, -np.inf)) == 0.25
    assert cdf(1.5) == 1.0
    assert cdf(-10.0) == 0.0 and cdf(10.0) == 1.0


# every CDF of the package, built from a scratch directory (a table needs a file)
NAN_CDFS = {
    "example": lambda tmp: limit_sdf(example_generator()),
    "uniform": lambda tmp: limit_sdf(uniform_generator()),
    "table": lambda tmp: limit_sdf(table_generator(_write(tmp / "t.csv", "0,0\n0.5,0.25\n1,1\n"))),
    "stepcdf": lambda tmp: StepCdf([0.5, 1.5], [0.25, 0.75]),
    "estimate": lambda tmp: CountsVector(POISSONIZED, [0, 3, 5], n=8),
    "mixture": lambda tmp: lambda x: poisson_mixture_cdf(x, uniform_generator(), 3.0),
}


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", list(NAN_CDFS))
def test_every_cdf_rejects_a_nan_x(name, tmp_path):
    F = NAN_CDFS[name](tmp_path)
    assert 0.0 <= F(0.75) <= 1.0
    for x in (np.nan, np.array([0.5, np.nan]), [[np.nan]]):
        with pytest.raises(ValidationError, match="^x must not be NaN$"):
            F(x)


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
    "value",
    [CellModel(2, [0.25, 0.75]), CountsVector(POISSONIZED, [1, 2], 3)],
    ids=["CellModel", "CountsVector"],
)
def test_value_types_holding_an_array_are_unhashable(value):
    # both compare by value; a dataclass field-tuple hash used to reach the
    # array and fail with "unhashable type: 'numpy.ndarray'"
    assert type(value).__hash__ is None
    with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
        hash(value)


@pytest.mark.parametrize(
    "locations, masses",
    [
        ([], []),                          # no jumps
        ([1.0, 1.0], [0.5, 0.5]),          # duplicate location
        ([2.0, 1.0], [0.5, 0.5]),          # decreasing locations
        ([1.0, 2.0], [0.0, 1.0]),          # zero mass
        ([1.0, 2.0], [0.6, 0.6]),          # masses exceed 1
        ([[1.0]], [[1.0]]),                # not 1-D
        ([1.0, np.nan], [0.5, 0.5]),       # NaN location
        ([1.0, 2.0], [np.nan, 1.0]),       # NaN mass
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
    d = sup_distance(step, lambda x: np.clip(x, 0.0, 1.0))
    assert d == 0.5


def test_sup_distance_to_function_reads_a_target_jump_from_the_left():
    """A target with jumps needs no grid of its own: the step is constant
    between its jumps and the target monotone, so its value just below each
    jump is enough; a jump of both at one x cancels."""
    step = StepCdf([1.0], [1.0])
    target = StepCdf([0.25], [1.0])
    assert sup_distance(step, target) == 1.0
    uniform = limit_sdf(uniform_generator())  # a unit step at 1
    assert sup_distance(step, uniform) == 0.0
    assert sup_distance(StepCdf([0.5, 1.0], [0.25, 0.75]), uniform) == 0.25


def brute_sup(step: StepCdf, F, jumps) -> float:
    """max |step - F| over every jump of either, the floats on both sides of
    it and the midpoints between them: both are step functions, constant on
    each open interval between consecutive jumps."""
    xs = np.union1d(step.locations, jumps)
    xs = np.concatenate((xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf), (xs[1:] + xs[:-1]) / 2,
                         [xs[0] - 1.0, xs[-1] + 1.0]))
    return max(abs(float(step(x)) - float(F(x))) for x in xs.tolist())


@pytest.fixture(scope="module")
def step_targets(tmp_path_factory):
    """(F, its jump locations): uniform's unit step at 1, and a table whose
    density is 0.5 on [0, 0.5) and 1.5 on [0.5, 1], so F steps at 0.5 and 1.5."""
    table = tmp_path_factory.mktemp("table") / "two_slopes.csv"
    table.write_text("0,0\n0.5,0.25\n1,1\n")
    return {"uniform": (limit_sdf(uniform_generator()), [1.0]),
            "table": (limit_sdf(table_generator(str(table))), [0.5, 1.5])}


@pytest.mark.parametrize("target", ["uniform", "table"])
@pytest.mark.parametrize("counts, n, expected", [
    ([1, 2, 2, 3], 8, {"uniform": 0.25, "table": 0.25}),
    ([2, 2, 2, 2], 8, {"uniform": 0.0, "table": 0.5}),
    ([1, 1, 3, 3], 8, {"uniform": 0.5, "table": 0.0}),
])
def test_sup_to_a_stepped_limit_is_the_brute_force_sup(step_targets, target, counts, n, expected):
    """Counts of n/m put a jump of the grouped estimate exactly on a jump
    of F; the grouped estimate of [2, 2, 2, 2] (n = 8, m = 4) is uniform's
    limit itself. The jump-table and study routes agree."""
    F, jumps = step_targets[target]
    counts = np.array(counts)
    step = StepCdf.from_values(counts * (counts.size / n))
    assert sup_distance(step, F) == brute_sup(step, F, jumps) == expected[target]
    assert _sup_to_function(*jump_table(counts, n), F) == expected[target]
    shares = np.arange(1, counts.size + 1) / counts.size
    assert _sup_to_function(np.sort(counts) * (counts.size / n), shares, F) == expected[target]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), counts=st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_sup_to_a_stepped_limit_matches_brute_force_on_any_counts(step_targets, k, counts):
    """With n = k m many counts equal n/m = k (or k/2, 3k/2), so the
    estimate and F often jump at one x. The exact levels of from_values
    make the jump table's sup equal to it bit for bit."""
    counts = np.array(counts)
    n = k * counts.size
    for F, jumps in step_targets.values():
        step = StepCdf.from_values(counts * (counts.size / n))
        exact = sup_distance(step, F)
        assert exact == brute_sup(step, F, jumps)
        assert _sup_to_function(*jump_table(counts, n), F) == exact


@st.composite
def count_slabs(draw):
    """A (rows, m) slab of small counts, one estimate per row."""
    m, rows = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.integers(0, 12), min_size=m * rows, max_size=m * rows))).reshape(rows, m)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), counts=count_slabs())
def test_one_sup_per_slab_is_each_rows_exact_sup(step_targets, k, counts):
    """One _sup_to_function call on a slab's sorted counts, where equal
    counts repeat a location, gives each row's exact sup to F: bit for bit
    the sup of the row's own jump table (strictly increasing locations),
    for example, uniform and a table whose F jumps, with n = k m putting
    many jumps of the estimate on jumps of F. sup_distance on the row's
    CountsVector agrees bit for bit: its StepCdf levels are the exact
    shares."""
    rows, m = counts.shape
    n = k * m
    for F in (limit_sdf(example_generator()), *(F for F, _ in step_targets.values())):
        sups = _sup_to_function(np.sort(counts, axis=1) * (m / n), np.arange(1, m + 1) / m, F)
        assert sups.shape == (rows,)
        for row, sup in zip(counts, sups.tolist()):
            assert sup == _sup_to_function(*jump_table(row, n), F)
            assert sup == sup_distance(CountsVector(POISSONIZED, row, n).cdf, F)


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
@given(values=quarter_values)
def test_from_values_keeps_the_mass_and_merges_ties(values):
    cdf = StepCdf.from_values(values)
    np.testing.assert_array_equal(cdf.locations, np.unique(values))
    for loc, mass in zip(cdf.locations, cdf.masses):
        assert mass == pytest.approx(np.count_nonzero(values == loc) / values.size, abs=1e-15)
        assert cdf(loc) == np.count_nonzero(values <= loc) / values.size  # exact levels
    assert abs(cdf.masses.sum() - 1.0) <= 1e-12
    assert cdf(np.inf) == cdf(cdf.locations[-1]) == pytest.approx(1.0, abs=1e-12)
    assert cdf(np.nextafter(cdf.locations[0], -np.inf)) == 0.0


# ---------- cell and grouped models ----------

def test_cell_model_validation():
    CellModel(3, [0.2, 0.3, 0.5])
    with pytest.raises(ValidationError):
        CellModel(3, [0.2, 0.3])           # length mismatch
    with pytest.raises(ValidationError):
        CellModel(2, [0.7, 0.4])           # sum != 1
    with pytest.raises(ValidationError):
        CellModel(2, [-0.1, 1.1])          # negative entry
    with pytest.raises(ValidationError, match=r"p\[1\]=nan is not >= 0"):
        CellModel(3, [0.5, np.nan, 0.5])   # NaN entry, the first one not >= 0


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
