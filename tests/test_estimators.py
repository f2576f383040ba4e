"""Estimator construction: lattices, scaling, grouped/natural equivalence,
and evaluation through the exact lattice index."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from structdist import (
    GROUPED,
    MULTINOMIAL,
    NATURAL,
    POISSONIZED,
    CountsVector,
    EstimatorOutput,
    RngStream,
    StepCdf,
    ValidationError,
    cells_from_generator,
    check_regime,
    draw_multinomial,
    example_generator,
    grouped_estimator,
    lattice_floor,
    natural_estimator,
)
from structdist.estimators import _estimate, _lattice_index


def test_natural_estimator_single_cell():
    vec = CountsVector(MULTINOMIAL, [7], n=7)
    est = natural_estimator(vec)
    # one cell: the scaled count is (M/n)*7 = 1, all mass there
    np.testing.assert_array_equal(est.cdf.locations, [1.0])
    np.testing.assert_array_equal(est.cdf.masses, [1.0])
    assert (est.size, est.n) == (1, 7)
    assert est.kind == (NATURAL, MULTINOMIAL)


def test_natural_estimator_jump_lattice():
    cells = cells_from_generator(example_generator(), 1000)
    vec = draw_multinomial(cells, 3000, RngStream(13))
    est = natural_estimator(vec)
    scale = est.size / est.n
    assert scale == 1000 / 3000
    # every jump is an integer multiple of M/n (up to float round-trip)
    ratios = est.cdf.locations / scale
    np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-9)
    assert est.cdf.locations[0] == 0.0  # unseen cells pile up at zero
    assert abs(est.cdf.masses.sum() - 1.0) < 1e-12


def test_grouped_estimator_masses_and_scale():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4, 5, 9], n=24)
    est = grouped_estimator(vec, 3)
    # grouped counts (3, 7, 14), locations (m/n)*count
    np.testing.assert_allclose(est.cdf.locations, np.array([3.0, 7.0, 14.0]) * 3 / 24)
    np.testing.assert_array_equal(est.cdf.masses, [1 / 3, 1 / 3, 1 / 3])
    assert est.kind == (GROUPED, MULTINOMIAL)
    assert est.size == 3


def test_grouped_estimator_k1_reduces_to_natural():
    vec = draw_multinomial(cells_from_generator(example_generator(), 20), 55, RngStream(3))
    a = natural_estimator(vec)
    b = grouped_estimator(vec, 20)
    assert a.cdf == b.cdf
    assert b.kind[0] == NATURAL  # one cell per group is the natural estimator, and says so


def test_estimator_from_pregrouped_counts_matches_grouping_path():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4, 5, 9], n=24)
    grouped_here = grouped_estimator(vec, 3)
    # block sums [3, 7, 14] scaled by m/n = 3/24
    direct = StepCdf.from_values(np.array([3, 7, 14]) * 3 / 24)
    assert grouped_here.cdf == direct
    np.testing.assert_array_equal(grouped_here.counts, [3, 7, 14])


def test_estimator_output_is_callable():
    vec = CountsVector(MULTINOMIAL, [0, 4], n=4)
    est = natural_estimator(vec)
    assert est(0.0) == 0.5
    assert est(2.0) == 1.0


def test_estimator_output_keeps_counts_n_and_kind_only():
    assert [f.name for f in dataclasses.fields(EstimatorOutput)] == ["counts", "n", "kind"]
    est = grouped_estimator(CountsVector(MULTINOMIAL, [1, 2, 3, 4, 5, 9], n=24), 3)
    assert est.size == est.counts.size == 3
    # cdf is built on demand from the float jump values count * (size / n)
    assert est.cdf == StepCdf.from_values(est.counts * (3 / 24))


def test_estimator_counts_a_lattice_count_the_float_comparison_drops():
    # m=10, n=3000: 525 * (10/3000) rounds above 1.75, but 525 = 1.75 * 3000 / 10
    counts = [525, 525, 250, 250, 250, 250, 250, 250, 250, 200]
    est = grouped_estimator(CountsVector(MULTINOMIAL, counts, n=3000), 10)
    assert 525 * (10 / 3000) > 1.75
    assert est(1.75) == 1.0
    assert est.cdf(1.75) == pytest.approx(0.8)  # the float comparison leaves both 525s out


def test_estimator_evaluates_at_the_lattice_index():
    vec = draw_multinomial(cells_from_generator(example_generator(), 1000), 3000, RngStream(5))
    est = grouped_estimator(vec, 40)
    xs = np.array([[-0.5, 0.0, 0.25], [1.0, 1.75, 7.0]])
    expect = [[np.count_nonzero(est.counts <= lattice_floor(x * 3000 / 40)) / 40 for x in row] for row in xs]
    np.testing.assert_array_equal(est(xs), expect)
    assert est(xs).shape == (2, 3)
    assert all(type(est(x)) is float and est(x) == e for x, e in zip(xs.ravel(), np.ravel(expect)))
    assert est(np.inf) == 1.0 and est(-np.inf) == 0.0


def test_estimator_excludes_a_count_just_above_the_guard():
    # 0.9999999991 * 999999 / 3 = 333332.9997: a count of 333333 lies above x
    counts = [333332, 333333, 333334]
    est = natural_estimator(CountsVector(MULTINOMIAL, counts, n=999999))
    assert est(0.9999999991) == est.cdf(0.9999999991) == 1 / 3


def test_estimator_outputs_compare_by_value():
    a = natural_estimator(CountsVector(MULTINOMIAL, [1, 2, 3], n=6))
    b = natural_estimator(CountsVector(MULTINOMIAL, [1, 2, 3], n=6))
    assert (a == b) is True
    assert (a == natural_estimator(CountsVector(MULTINOMIAL, [1, 3, 2], n=6))) is False
    assert (a == natural_estimator(CountsVector(POISSONIZED, [1, 2, 3], n=6))) is False
    assert (a == grouped_estimator(CountsVector(MULTINOMIAL, [1, 2, 3], n=6), 3)) is True


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 5000), min_size=1, max_size=40),
    n=st.integers(1, 10**6),
)
def test_estimate_at_lattice_points_is_the_exact_share(counts, n):
    m = len(counts)
    est = natural_estimator(CountsVector(POISSONIZED, counts, n=n))
    arr = np.asarray(counts)
    Ks = np.arange(arr.max() + 2)
    expect = np.searchsorted(np.sort(arr), Ks, side="right") / m  # #{counts <= K} / m
    np.testing.assert_array_equal(est(Ks * (m / n)), expect)
    # scalar calls agree at each jump and just past it
    for K in np.unique(np.concatenate([arr, arr + 1])):
        assert est(int(K) * (m / n)) == expect[K]


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 500), min_size=1, max_size=60),
    n=st.integers(1, 10**5),
    poissonized=st.booleans(),
)
def test_k1_grouping_is_natural_bit_for_bit(counts, n, poissonized):
    assume(poissonized or sum(counts) > 0)
    vec = CountsVector(POISSONIZED, counts, n=n) if poissonized else CountsVector(MULTINOMIAL, counts, n=sum(counts))
    a = natural_estimator(vec)
    b = grouped_estimator(vec, len(counts))
    assert a.counts.dtype == b.counts.dtype and np.array_equal(a.counts, b.counts)
    assert (a.n, a.kind) == (b.n, b.kind)
    assert a.cdf == b.cdf
    assert a == b


# ---------- regime diagnostics ----------

@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.lists(st.integers(0, 40), min_size=6, max_size=6), min_size=1, max_size=5),
    xs=st.lists(st.one_of(st.floats(-1.0, 30.0), st.just(math.inf), st.just(-math.inf)), min_size=1, max_size=6),
    n=st.integers(1, 200),
)
def test_estimate_on_rows_equals_row_by_row_calls(counts, xs, n):
    """A leading replication axis evaluates each row as a 1-D call would."""
    counts = np.array(counts, dtype=np.int64)
    K = _lattice_index(xs, n, counts.shape[1])
    rows = _estimate(counts, K)
    assert rows.shape == (counts.shape[0], len(xs))
    for r in range(counts.shape[0]):
        assert np.array_equal(rows[r], _estimate(counts[r], K))
    assert np.array_equal(_estimate(counts.reshape(1, *counts.shape), K)[0], rows)


def test_check_regime_frozen_ratios():
    rec = check_regime(1000, 3000, 40)
    assert rec["lambda_hat"] == 3.0
    assert rec["ratio_grouping"] == pytest.approx(3000 / (40 * math.log(40)))
    assert rec["ratio_rate"] == pytest.approx(3000 / (40 * math.log(40) ** 5.0))
    assert rec["in_regime_grouping"] is True
    assert rec["in_regime_rate"] is False  # n = 3000 is far from the rate regime
    assert rec["note"] == ""


def test_check_regime_edge_cases():
    assert check_regime(100, 300, 1)["ratio_grouping"] == math.inf
    assert "natural-estimator" in check_regime(100, 300, 100)["note"]
    with pytest.raises(ValidationError):
        check_regime(0, 10, 1)
    with pytest.raises(ValidationError):
        check_regime(100, 300, 10, alpha=0.5)
