"""Limit laws and error bounds: frozen arithmetic plus independent oracles.

Every frozen constant below was computed from a closed form (noted inline)
or an independent quadrature/Monte Carlo oracle before being pinned.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from structdist import (
    BoundParams,
    CellModel,
    RngStream,
    ValidationError,
    bernstein_poisson_tail,
    cells_from_generator,
    esseen_bias_bound,
    example_generator,
    group_model,
    lattice_floor,
    limit_char_grouped,
    limit_char_natural,
    limit_sdf,
    mse_bound,
    optimal_T,
    optimal_m,
    phi_m,
    poisson_mixture_cdf,
    poissonization_union_bound,
    table_generator,
    uniform_generator,
)
from structdist.asymptotics import CDF_TOL, CHAR_TOL

EXAMPLE = example_generator()
PARAMS = BoundParams(lambda_=3.0, tau=2.0, c=1.0 / 3.0)

# Poisson-mixture CDF of the worked example at lambda=3: each value equals
# (1/6) * sum_{j<=floor(3x)} P(Poisson(6) > j), cross-checked by quadrature.
MIXTURE_LAMBDA3 = {
    1 / 3: 0.33002833043111157,   # closed form 1/3 - (4/3) e^{-6}
    2 / 3: 0.486366863028335,
    1.0: 0.6278328825655605,
    4 / 3: 0.7469901325127886,
    2.0: 0.9049930618832549,
}


# ---------- params ----------

def test_bound_params_validation():
    with pytest.raises(ValidationError):
        BoundParams(lambda_=0.0, tau=2.0, c=1.0)
    with pytest.raises(ValidationError):
        BoundParams(lambda_=3.0, tau=2.0, c=1.0, alpha=0.2)  # alpha must stay below 1/6


def test_bound_params_from_generator():
    p = BoundParams.for_generator(EXAMPLE, lambda_=3.0)
    assert p.tau == 2.0
    assert p.c == pytest.approx(1.0 / 3.0)  # |g'|^2 / 12


# ---------- lattice floor ----------

def test_lattice_floor_guards_float_noise():
    assert lattice_floor(2.7) == 2
    assert lattice_floor(3.0) == 3
    # 0.1*3 style noise must not drop a whole lattice step
    assert lattice_floor(2.9999999999999996) == 3
    assert lattice_floor(-0.5) == -1


def test_lattice_floor_guard_is_a_few_ulps():
    # products that round off a lattice point land on it
    assert lattice_floor(3 * (4 / 3)) == 4
    assert lattice_floor(0.35 * 300) == 105
    assert lattice_floor(1.75 * 3000 / 10) == 525
    # 0.9999999991 * 999999 / 3 = 333332.9997 is a true non-integer: within
    # 1e-9 relative of 333333, but its floor is 333332
    assert lattice_floor(0.9999999991 * 999999 / 3) == 333332


# ---------- finite characteristic function ----------

def test_phi_m_at_zero_is_one():
    cells = cells_from_generator(EXAMPLE, 50)
    assert phi_m(0.0, cells, 150) == pytest.approx(1.0 + 0.0j)


def test_phi_m_uniform_cells_closed_form():
    cells = CellModel(50, np.full(50, 0.02))
    n = 150
    for t in (0.7, 1.0, 4.0):
        expect = np.exp((n / 50) * (np.exp(1j * t * 50 / n) - 1.0))
        assert phi_m(t, cells, n) == pytest.approx(expect, abs=1e-12)


def test_phi_m_modulus_and_symmetry():
    gm = group_model(cells_from_generator(EXAMPLE, 100), 20)
    for t in (-3.0, -1.0, 0.5, 2.0, 7.0):
        val = phi_m(t, gm, 300)
        assert abs(val) <= 1.0 + 1e-12
        assert phi_m(-t, gm, 300) == pytest.approx(np.conj(val), abs=1e-14)


# ---------- limiting characteristic functions ----------

def test_limit_char_natural_closed_form():
    # for g = 2(1-u) the u-integral has antiderivative (e^{2w} - 1)/(2w)
    for t in (1.0, 2.0, -3.0):
        w = 3.0 * (np.exp(1j * t / 3.0) - 1.0)
        expect = (np.exp(2.0 * w) - 1.0) / (2.0 * w)
        assert limit_char_natural(t, EXAMPLE, 3.0) == pytest.approx(expect, abs=1e-8)
    assert limit_char_natural(0.0, EXAMPLE, 3.0) == pytest.approx(1.0 + 0.0j)


def test_limit_char_natural_uniform_degenerate():
    for t in (0.5, 1.0, 3.0):
        expect = np.exp(3.0 * (np.exp(1j * t / 3.0) - 1.0))
        assert limit_char_natural(t, uniform_generator(), 3.0) == pytest.approx(expect, abs=1e-8)


def test_limit_char_natural_monte_carlo_oracle():
    """Quadrature versus simulation of E exp(i t Poisson(3 g(U)) / 3)."""
    rng = RngStream(606).generator()
    u = rng.uniform(0.0, 1.0, size=10**6)
    y = rng.poisson(3.0 * EXAMPLE.g(u)) / 3.0
    t = 1.0
    samples = np.exp(1j * t * y)
    est = samples.mean()
    se = np.sqrt(samples.real.var(ddof=1) / u.size + samples.imag.var(ddof=1) / u.size)
    assert abs(limit_char_natural(t, EXAMPLE, 3.0) - est) < 3 * se


def test_limit_char_grouped_closed_form():
    for t in (1.0, -2.0):
        expect = (np.exp(2j * t) - 1.0) / (2j * t)
        assert limit_char_grouped(t, EXAMPLE) == pytest.approx(expect, abs=1e-8)
    assert limit_char_grouped(0.0, EXAMPLE) == pytest.approx(1.0 + 0.0j)


# ---------- Poisson mixture CDF ----------

def test_mixture_cdf_frozen_values():
    for x, expect in MIXTURE_LAMBDA3.items():
        assert poisson_mixture_cdf(x, EXAMPLE, 3.0) == pytest.approx(expect, abs=1e-9)


def test_mixture_cdf_closed_form_first_step():
    # on [1/3, 2/3) the mixture equals 1/3 - (4/3) e^{-6}
    expect = 1.0 / 3.0 - (4.0 / 3.0) * math.exp(-6.0)
    assert poisson_mixture_cdf(1 / 3, EXAMPLE, 3.0) == pytest.approx(expect, abs=1e-12)
    assert poisson_mixture_cdf(0.5, EXAMPLE, 3.0) == pytest.approx(expect, abs=1e-12)


def test_mixture_cdf_uniform_is_poisson_cdf():
    # g == 1 collapses the mixture to P(Poisson(3) <= floor(3x))
    assert poisson_mixture_cdf(1 / 3, uniform_generator(), 3.0) == pytest.approx(
        4.0 * math.exp(-3.0), abs=1e-12
    )


def test_mixture_cdf_limits_and_monotonicity():
    assert poisson_mixture_cdf(-1.0, EXAMPLE, 3.0) == 0.0
    assert poisson_mixture_cdf(100.0, EXAMPLE, 3.0) == pytest.approx(1.0, abs=1e-9)
    xs = np.linspace(-0.5, 8.0, 1000)
    vals = [poisson_mixture_cdf(float(x), EXAMPLE, 3.0) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_mixture_exceeds_limit_cdf_at_first_lattice_point():
    # the inconsistency witness: the natural-estimator limit sits far above
    # the true structural CDF at x = 1/3 (gap frozen from quadrature)
    F = limit_sdf(EXAMPLE)
    gap = poisson_mixture_cdf(1 / 3, EXAMPLE, 3.0) - F(1 / 3)
    assert gap == pytest.approx(0.1633616637644449, abs=1e-12)


def _write_table(path, u, G):
    with open(path, "w") as fh:
        for a, b in zip(u, G):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    return str(path)


def _exact_table_mixture(x, lam, u, G):
    # the density is constant on each piece, so the mixture is a finite sum
    widths = np.diff(u)
    slopes = np.diff(G) / widths
    return float(np.sum(widths * special.pdtr(lattice_floor(lam * x), lam * slopes)))


def _concave_table():
    # a concave 32-piece table with jittered knots
    i = np.arange(1, 32)
    u = np.concatenate(([0.0], (i + 0.3 * np.sin(7.0 * i)) / 32, [1.0]))
    G = np.concatenate(([0.0], np.cumsum(np.diff(u) * np.linspace(2.0, 0.1, 32))))
    G /= G[-1]
    G[-1] = 1.0
    return u, G


@pytest.fixture(scope="module")
def concave(tmp_path_factory):
    u, G = _concave_table()
    return table_generator(_write_table(tmp_path_factory.mktemp("tables") / "concave.csv", u, G))


def test_table_mixture_cdf_matches_exact_finite_sum(tmp_path, concave):
    # the mixture is an exact sum over the pieces (a quadrature that ignored
    # the knots missed it by 7e-6 at x = 0.7)
    u, G = _concave_table()
    for x in (0.2, 0.7, 1.15):
        assert abs(poisson_mixture_cdf(x, concave, 3.0) - _exact_table_mixture(x, 3.0, u, G)) <= 1e-15

    # 2000 pieces, more than quad's default subinterval limit of 200
    u = np.linspace(0.0, 1.0, 2001)
    G = 2 * u - u**2
    big = table_generator(_write_table(tmp_path / "big.csv", u, G))
    x = 1 / 3 + 0.01
    assert abs(poisson_mixture_cdf(x, big, 3.0) - _exact_table_mixture(x, 3.0, u, G)) <= 1e-15


@pytest.mark.parametrize("lam", [0.5, 3.0, 10.0, 30.0])
def test_mixture_cdf_array_matches_example_closed_form(lam):
    # g(u) = 2(1-u): the mixture is (1/2 lam) sum_{k<=K} P(k+1, 2 lam), P the
    # regularized lower gamma function; the grid holds every lattice point
    # k/lam up to 2.5 and points between them
    xs = np.concatenate((np.linspace(-0.3, 2.5, 57), np.arange(0, int(2.5 * lam) + 1) / lam))
    expect = [
        0.0 if x < 0 else min(1.0, float(np.sum(special.gammainc(np.arange(lattice_floor(lam * x) + 1) + 1.0, 2 * lam))) / (2 * lam))
        for x in xs.tolist()
    ]
    got = poisson_mixture_cdf(xs, EXAMPLE, lam)
    assert got.shape == xs.shape
    assert float(np.max(np.abs(got - expect))) <= CDF_TOL


_X = st.one_of(
    st.floats(-3.0, 5.0, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1 / 3, 2.0]),
)


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(_X, min_size=1, max_size=10), lam=st.sampled_from([0.5, 3.0, 10.0]), table=st.booleans())
def test_mixture_cdf_array_equals_scalar_calls(concave, xs, lam, table):
    gen = concave if table else EXAMPLE
    vals = poisson_mixture_cdf(np.array(xs), gen, lam)
    scalars = [poisson_mixture_cdf(x, gen, lam) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert vals.tolist() == scalars
    assert poisson_mixture_cdf(np.array(xs).reshape(-1, 1), gen, lam).ravel().tolist() == scalars


def test_mixture_cdf_non_finite_x():
    assert poisson_mixture_cdf(math.inf, EXAMPLE, 3.0) == 1.0
    assert poisson_mixture_cdf(-math.inf, EXAMPLE, 3.0) == 0.0
    # lambda x beyond the float range counts as +inf
    assert poisson_mixture_cdf(1e308, EXAMPLE, 30.0) == 1.0
    with pytest.raises(ValidationError, match="NaN"):
        poisson_mixture_cdf(np.array([0.5, math.nan]), EXAMPLE, 3.0)
    for lam in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="lambda"):
            poisson_mixture_cdf(0.5, EXAMPLE, lam)


def test_table_limit_chars_match_knot_split_quadrature(concave):
    # reference: quadrature of the generator's own g over (0,1], split at the knots
    u, _ = _concave_table()
    knots = u[1:-1]

    def reference(h):
        parts = (
            quad(lambda v: part(h(float(concave.g(v)))), 0.0, 1.0, points=knots, limit=300, epsabs=1e-12)[0]
            for part in (np.real, np.imag)
        )
        return complex(*parts)

    for t in (-3.0, -1.0, 0.5, 3.0):
        w = 3.0 * (np.exp(1j * t / 3.0) - 1.0)
        assert abs(limit_char_natural(t, concave, 3.0) - reference(lambda s: np.exp(w * s))) <= CHAR_TOL
        assert abs(limit_char_grouped(t, concave) - reference(lambda s: np.exp(1j * t * s))) <= CHAR_TOL


# ---------- smoothing-based bias bound ----------

def test_esseen_bound_frozen_value():
    T = optimal_T(40, 3000, PARAMS)
    assert T == pytest.approx(15.326188647871058, rel=1e-12)
    # vacuous at this scale (>1), reported as-is
    assert esseen_bias_bound(40, 3000, T, PARAMS) == pytest.approx(1.5936991483868337, rel=1e-12)


def test_esseen_bound_term_structure():
    b = esseen_bias_bound(40, 3000, 10.0, PARAMS)
    doubled_tau = BoundParams(lambda_=3.0, tau=4.0, c=1.0 / 3.0)
    # only the tail term is linear in tau
    assert esseen_bias_bound(40, 3000, 10.0, doubled_tau) - b == pytest.approx(
        24.0 * 2.0 / (math.pi * 10.0), rel=1e-12
    )
    four_terms = (
        (4.0 / (9.0 * math.pi)) * (40.0 / 3000.0) ** 2 * 10.0**3
        + (1.0 / (2.0 * math.pi)) * (40.0 / 3000.0) * 10.0**2
        + ((1.0 / 3.0) / (2.0 * math.pi)) * 10.0**2 / 40.0**2
        + 24.0 * 2.0 / (math.pi * 10.0)
    )
    assert b == pytest.approx(four_terms, rel=1e-12)


def test_esseen_bound_is_u_shaped_in_T():
    T = optimal_T(40, 3000, PARAMS)
    mid = esseen_bias_bound(40, 3000, T, PARAMS)
    assert esseen_bias_bound(40, 3000, T / 50, PARAMS) > mid
    assert esseen_bias_bound(40, 3000, T * 50, PARAMS) > mid


def test_optimal_T_branches():
    # large-m branch: (24 tau n / m)^(1/3)
    assert optimal_T(40, 3000, PARAMS) == pytest.approx(3600.0 ** (1 / 3), rel=1e-12)
    # small-m branch is n-free: c^(-1/3) (24 tau)^(1/3) m^(2/3)
    small = optimal_T(10, 10**6, PARAMS)
    assert small == pytest.approx(24.328807982293593, rel=1e-12)
    assert small == optimal_T(10, 10**9, PARAMS)


def test_optimal_T_minimizes_dominant_terms():
    # in the large-n regime the first and third terms vanish and the
    # analytic T must sit within 1% of a brute-force grid minimum
    m, n = 10**6, 10**12
    T_star = optimal_T(m, n, PARAMS)
    grid = T_star * np.logspace(-1.0, 1.0, 2001)
    vals = [esseen_bias_bound(m, n, float(T), PARAMS) for T in grid]
    assert abs(float(grid[int(np.argmin(vals))]) - T_star) / T_star < 0.01


def _scalar_bounds(m, n, params):
    # (T, bias bound, auto-regime MSE bound) of one m in Python floats
    base = (24.0 * params.tau) ** (1.0 / 3.0)
    smoothing = m >= n ** (1.0 / 3.0)
    T = base * (n / m) ** (1.0 / 3.0) if smoothing else params.c ** (-1.0 / 3.0) * base * m ** (2.0 / 3.0)
    r = m / n
    bias = (
        (4.0 / (9.0 * math.pi)) * r * r * T**3
        + (1.0 / (2.0 * math.pi)) * r * T * T
        + (params.c / (2.0 * math.pi)) * T * T / (m * m)
        + 24.0 * params.tau / (math.pi * T)
    )
    lead = (9.0 / (4.0 * math.pi**2)) * (24.0 * params.tau) ** (4.0 / 3.0) * (m / n) ** (2.0 / 3.0)
    return T, bias, (lead if smoothing else 0.0) + 1.0 / (4.0 * m)


def test_bounds_take_arrays_and_match_the_scalar_formulas():
    n = 999999
    ms = np.arange(1, 3001)
    T = optimal_T(ms, n, PARAMS)
    got = np.column_stack([T, esseen_bias_bound(ms, n, T, PARAMS), mse_bound(ms, n, PARAMS)])
    expect = np.array([_scalar_bounds(m, n, PARAMS) for m in ms.tolist()])
    assert float(np.max(np.abs(got - expect) / np.abs(expect))) <= 1e-15
    # both regimes occur (n^(1/3) ~ 100) and a scalar still gives a float
    assert type(optimal_T(40, 3000, PARAMS)) is float
    assert type(esseen_bias_bound(40, 3000, 10.0, PARAMS)) is float
    assert type(mse_bound(40, 3000, PARAMS)) is float
    assert mse_bound(ms[:2], n, PARAMS, regime="variance").tolist() == [0.25, 0.125]


def test_bounds_reject_bad_group_counts_and_cutoffs():
    with pytest.raises(ValidationError, match="m must be >= 1, got 0"):
        mse_bound(np.array([3, 0, 5]), 1000, PARAMS)
    with pytest.raises(ValidationError, match="m must be >= 1, got 0.5"):
        optimal_T(0.5, 1000, PARAMS)
    with pytest.raises(ValidationError, match="T must be positive"):
        esseen_bias_bound(np.array([10, 20]), 1000, np.array([1.0, 0.0]), PARAMS)


# ---------- MSE bounds and the optimal group count ----------

def test_mse_bound_frozen_and_branches():
    assert mse_bound(40, 3000, PARAMS) == pytest.approx(2.2423793073204012, rel=1e-12)
    # below the m ~ n^(1/3) threshold only the variance term remains
    assert mse_bound(10, 10**6, PARAMS) == 1.0 / 40.0
    # the boundary m = n^(1/3) takes the smoothing branch
    assert mse_bound(10, 1000, PARAMS) == mse_bound(10, 1000, PARAMS, regime="smoothing")
    assert mse_bound(10, 1000, PARAMS) > mse_bound(10, 1000, PARAMS, regime="variance")
    with pytest.raises(ValidationError):
        mse_bound(10, 1000, PARAMS, regime="exact")


def test_mse_bound_decreasing_in_n_smoothing_regime():
    assert mse_bound(40, 3000, PARAMS) > mse_bound(40, 30000, PARAMS) > mse_bound(40, 300000, PARAMS)


def test_optimal_m_frozen_values():
    out = optimal_m(10**6, PARAMS)
    assert out.m_n == pytest.approx(15.300164744301798, rel=1e-12)
    assert out.bound_value == pytest.approx(0.08986831337957246, rel=1e-12)
    assert optimal_m(10**8, PARAMS).m_n == pytest.approx(96.53751317174138, rel=1e-12)
    # the constant in front of n^(2/5)
    coef = (math.pi**6 / (6**3 * 48.0**4)) ** 0.2
    assert coef == pytest.approx(0.0609110529535636, rel=1e-10)
    assert out.m_n == pytest.approx(coef * 10 ** (6 * 0.4), rel=1e-12)


def test_optimal_m_power_law():
    p = optimal_m(10**6, PARAMS).m_n
    assert optimal_m(32 * 10**6, PARAMS).m_n == pytest.approx(4.0 * p, rel=1e-12)


def test_optimal_m_matches_integer_argmin_of_smoothing_bound():
    n = 10**8
    target = optimal_m(n, PARAMS).m_n
    argmin = min(range(1, 1001), key=lambda m: mse_bound(m, n, PARAMS, regime="smoothing"))
    assert abs(argmin - target) / target < 0.15


# ---------- concentration bounds ----------

def test_bernstein_frozen_value_and_cap():
    # 2 exp(-9 / (2 + 3/2)) = 2 e^{-18/7}
    assert bernstein_poisson_tail(4.0, 3.0) == pytest.approx(2.0 * math.exp(-18.0 / 7.0), rel=1e-12)
    assert bernstein_poisson_tail(4.0, 1e-9) == 1.0  # capped
    assert bernstein_poisson_tail(100.0, 3.0) < bernstein_poisson_tail(100.0, 2.0)


def test_union_bound_matches_formula():
    gm = group_model(cells_from_generator(EXAMPLE, 1000), 40)
    c = float(np.max(40 * gm.p))
    n, delta = 6000, 0.5
    expect = min(1.0, 2 * 40 * math.exp(-(n / 40) * delta**2 / (2 * c + delta)))
    assert poissonization_union_bound(gm, n, delta) == pytest.approx(expect, rel=1e-12)
    assert 0.0 < poissonization_union_bound(gm, n, delta) < 1.0


def test_union_bound_single_group_is_bernstein_like():
    gm = CellModel(1, [1.0])
    n, delta = 100, 0.4
    expect = min(1.0, 2.0 * math.exp(-n * delta**2 / (2.0 + delta)))
    assert poissonization_union_bound(gm, n, delta) == pytest.approx(expect, rel=1e-12)


def test_union_bound_vanishes_in_n():
    gm = group_model(cells_from_generator(EXAMPLE, 1000), 40)
    vals = [poissonization_union_bound(gm, n, 0.5) for n in (10**4, 10**5, 10**6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-20
