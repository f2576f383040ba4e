"""Estimator construction: lattices, scaling, grouped/natural equivalence."""

import math

import numpy as np
import pytest

from structdist import (
    GROUPED,
    MULTINOMIAL,
    NATURAL,
    CellModel,
    CountsVector,
    GroupingScheme,
    RngStream,
    StepCdf,
    ValidationError,
    cells_from_generator,
    check_regime,
    draw_multinomial,
    example_generator,
    grouped_estimator,
    grouping_permutation,
    natural_estimator,
)


def test_natural_estimator_single_cell():
    vec = CountsVector(MULTINOMIAL, [7], n=7)
    est = natural_estimator(vec)
    # one cell: the scaled count is (M/n)*7 = 1, all mass there
    np.testing.assert_array_equal(est.cdf.locations, [1.0])
    np.testing.assert_array_equal(est.cdf.masses, [1.0])
    assert est.scale == 1.0 / 7.0
    assert est.kind == (NATURAL, MULTINOMIAL)


def test_natural_estimator_jump_lattice():
    cells = cells_from_generator(example_generator(), 1000)
    vec = draw_multinomial(cells, 3000, RngStream(13))
    est = natural_estimator(vec)
    assert est.scale == 1000 / 3000
    # every jump is an integer multiple of M/n (up to float round-trip)
    ratios = est.cdf.locations / est.scale
    np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-9)
    assert est.cdf.locations[0] == 0.0  # unseen cells pile up at zero
    assert abs(est.cdf.masses.sum() - 1.0) < 1e-12


def test_natural_estimator_dimension_checks():
    vec = CountsVector(MULTINOMIAL, [2, 3], n=5)
    with pytest.raises(ValidationError):
        natural_estimator(vec, M=3)
    with pytest.raises(ValidationError):
        natural_estimator(vec, n=6)


def test_grouped_estimator_masses_and_scale():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4, 5, 9], n=24)
    est = grouped_estimator(vec, GroupingScheme(6, 3, 2))
    # grouped counts (3, 7, 14), locations (m/n)*count
    np.testing.assert_allclose(est.cdf.locations, np.array([3.0, 7.0, 14.0]) * 3 / 24)
    np.testing.assert_array_equal(est.cdf.masses, [1 / 3, 1 / 3, 1 / 3])
    assert est.form == GROUPED
    assert est.size == 3


def test_grouped_estimator_k1_reduces_to_natural():
    vec = draw_multinomial(cells_from_generator(example_generator(), 20), 55, RngStream(3))
    a = natural_estimator(vec)
    b = grouped_estimator(vec, GroupingScheme(20, 20, 1))
    assert a.cdf == b.cdf
    assert b.form == NATURAL  # k=1 grouping is the natural estimator, and says so


def test_grouped_estimator_ordered_scheme_needs_permutation():
    cells = CellModel(4, [0.4, 0.1, 0.3, 0.2])
    scheme = GroupingScheme(4, 2, 2, ordered=True)
    vec = CountsVector(MULTINOMIAL, [8, 1, 5, 2], n=16)
    with pytest.raises(ValidationError):
        grouped_estimator(vec, scheme)
    est = grouped_estimator(vec, scheme, permutation=grouping_permutation(cells, scheme))
    np.testing.assert_allclose(est.cdf.locations, np.array([3.0, 13.0]) * 2 / 16)


def test_estimator_from_pregrouped_counts_matches_grouping_path():
    vec = CountsVector(MULTINOMIAL, [1, 2, 3, 4, 5, 9], n=24)
    grouped_here = grouped_estimator(vec, GroupingScheme(6, 3, 2))
    # block sums [3, 7, 14] scaled by m/n = 3/24
    direct = StepCdf.from_values(np.array([3, 7, 14]) * 3 / 24)
    assert grouped_here.cdf == direct
    np.testing.assert_array_equal(grouped_here.counts, [3, 7, 14])


def test_estimator_output_is_callable():
    vec = CountsVector(MULTINOMIAL, [0, 4], n=4)
    est = natural_estimator(vec)
    assert est(0.0) == 0.5
    assert est(2.0) == 1.0


# ---------- regime diagnostics ----------

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
