"""Limit laws and error bounds: frozen arithmetic plus independent oracles.

Every frozen constant below was computed from a closed form (noted inline)
or an independent quadrature/Monte Carlo oracle before being pinned.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from structdist import (
    BoundParams,
    CellModel,
    NumericError,
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
    table_generator,
    uniform_generator,
)
from structdist import asymptotics
from structdist.asymptotics import CDF_TOL, CHAR_TOL, _kronrod, _over_u
from structdist.generators import SmoothGenerator

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
# The numpy and scipy versions MIXTURE_LAMBDA3 was frozen under
MIXTURE_PINNED_UNDER = {"numpy": "2.4.6", "scipy": "1.17.1"}


# ---------- params ----------

def test_bound_params_validation():
    with pytest.raises(ValidationError):
        BoundParams(lambda_=0.0, tau=2.0, c=1.0)
    with pytest.raises(ValidationError):
        BoundParams(lambda_=3.0, tau=0.0, c=1.0)
    with pytest.raises(ValidationError, match="^c must be nonnegative and finite, got -1.0$"):
        BoundParams(lambda_=3.0, tau=2.0, c=-1.0)
    # every field must be finite; the message names it
    for field, bad in (("lambda", float("nan")), ("tau", float("nan")), ("c", float("inf")), ("c", float("nan"))):
        kw = {"lambda_": 3.0, "tau": 2.0, "c": 1.0, ("lambda_" if field == "lambda" else field): bad}
        sign = "nonnegative" if field == "c" else "positive"
        with pytest.raises(ValidationError, match=f"^{field} must be {sign} and finite, got {bad}$"):
            BoundParams(**kw)


def test_bound_params_from_generator():
    p = BoundParams.for_generator(EXAMPLE, 3.0)
    assert p.lambda_ == 3.0
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


# y = a n / (b m) is an integer or at least 1/(b m) from one. Here
# 4 eps (b m + a n) < 1, so the guard 4 eps (1 + y) is narrower than that
# gap and the float product's few ulps of error: lattice_floor must give
# the exact floor.
@settings(max_examples=500, deadline=None)
@given(a=st.integers(1, 10**4), b=st.integers(1, 10**4), m=st.integers(1, 10**4), n=st.integers(1, 10**9))
def test_lattice_floor_is_the_exact_floor_of_a_rational_x_n_over_m(a, b, m, n):
    # x = a / b as the studies compute K = lattice_floor(x * n / m)
    assert lattice_floor((a / b) * n / m) == (a * n) // (b * m)


@settings(max_examples=500, deadline=None)
@given(k=st.integers(1, 10**4), a=st.integers(1, 10**4), b=st.integers(1, 10**4))
def test_lattice_floor_is_the_exact_floor_of_k_times_a_ratio(k, a, b):
    # covers 3 * (4/3) = 4
    assert lattice_floor(k * (a / b)) == (k * a) // b


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

def test_mixture_cdf_frozen_values(pinned_under):
    note = pinned_under(**MIXTURE_PINNED_UNDER)
    for x, expect in MIXTURE_LAMBDA3.items():
        assert poisson_mixture_cdf(x, EXAMPLE, 3.0) == pytest.approx(expect, abs=1e-9), note


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


# ---------- the quadrature over u ----------

# a smooth density with no closed-form mixture: g(u) = (pi/2) sin(pi u),
# G(u) = (1 - cos(pi u)) / 2; every limit law integrates it by quadrature
SINE = SmoothGenerator(
    "sine",
    G=lambda x: (1.0 - np.cos(np.pi * np.asarray(x, dtype=float))) / 2.0,
    g=lambda u: np.pi / 2.0 * np.sin(np.pi * np.asarray(u, dtype=float)),
    tau=np.pi / 2.0,
    g_deriv_bound=np.pi**2 / 2.0,
)


def _quad(f, epsabs):
    # scipy's QAGS as the reference, the real and imaginary parts apart
    parts = [quad(lambda u: part(f(u)), 0.0, 1.0, epsabs=epsabs, limit=500)[0] for part in (np.real, np.imag)]
    return complex(*parts)


def test_kronrod_rule_is_exact_on_polynomials_of_degree_31():
    identity = dataclasses.replace(SINE, g=lambda u: u)
    for d in range(32):
        assert abs(_kronrod(lambda u: u**d, np.zeros(1), np.ones(1))[0][0] - 1.0 / (d + 1)) <= 1e-15, d
        assert abs(_over_u(lambda v: v**d, identity, CDF_TOL, f"d={d}") - 1.0 / (d + 1)) <= 1e-15, d


@pytest.mark.parametrize("lam", [0.5, 3.0, 30.0, 1000.0])
def test_smooth_limit_laws_match_scipy_quad(lam):
    xs = np.concatenate((np.linspace(0.0, 1.8, 10), [1.0 / lam]))
    got = poisson_mixture_cdf(xs, SINE, lam)
    for x, value in zip(xs.tolist(), got.tolist()):
        K = lattice_floor(lam * x)
        assert abs(value - _quad(lambda u: special.pdtr(K, lam * SINE.g(u)), 1e-12).real) <= CDF_TOL, x
    for t in (-3.0, 0.5, 3.0, 30.0):
        w = lam * (np.exp(1j * t / lam) - 1.0)
        assert abs(limit_char_natural(t, SINE, lam) - _quad(lambda u: np.exp(w * SINE.g(u)), 1e-13)) <= CHAR_TOL
        assert abs(limit_char_grouped(t, SINE) - _quad(lambda u: np.exp(1j * t * SINE.g(u)), 1e-13)) <= CHAR_TOL


def test_quadrature_that_needs_too_many_subintervals_is_a_numeric_error(monkeypatch):
    # lambda = 1000 on the example needs 4 subintervals at x = 1
    poisson_mixture_cdf(1.0, EXAMPLE, 1000.0)
    monkeypatch.setattr(asymptotics, "_QUAD_LIMIT", 3)
    with pytest.raises(NumericError, match="^quadrature over u in \\(0,1\\] failed: more than 3 subintervals"):
        poisson_mixture_cdf(1.0, EXAMPLE, 1000.0)


def test_quadrature_over_a_jump_is_a_numeric_error():
    # a density that jumps at 1/3, a point no bisection of (0,1] reaches:
    # the subinterval holding the jump is bisected until it is a few ulps wide
    step = dataclasses.replace(SINE, g=lambda u: np.where(np.asarray(u) < 1 / 3, 2.0, 0.5))
    with pytest.raises(NumericError, match="^quadrature over u in \\(0,1\\] failed: a subinterval a few ulps wide"):
        poisson_mixture_cdf(0.5, step, 3.0)


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


def test_a_flat_density_has_c_zero_and_no_l2_term():
    """uniform's density is flat, so c = 0 is exact: the L2 term vanishes,
    optimal_T takes the group-count branch at every m (finite, never inf or
    NaN) and the bias bound loses only its c term."""
    params = BoundParams.for_generator(uniform_generator(), 3.0)
    assert params.c == 0.0
    ms = np.array([1, 2, 10, 50, 3000])
    T = optimal_T(ms, 3000, params)
    np.testing.assert_allclose(T, (24.0 * params.tau * 3000 / ms) ** (1 / 3), rtol=1e-15)
    assert optimal_T(2, 3000, params) == T[1]
    with_c = dataclasses.replace(params, c=1.0)
    gap = esseen_bias_bound(ms, 3000, T, with_c) - esseen_bias_bound(ms, 3000, T, params)
    np.testing.assert_allclose(gap, T * T / (2.0 * math.pi * ms * ms), rtol=1e-12, atol=1e-15)


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


@pytest.mark.parametrize("tau", [1e80, 1e200, 1e308])
def test_bounds_that_overflow_are_numeric_errors(tau):
    """(24 tau)^4 in optimal_m overflows from tau = 1e80 on, 24 tau itself at
    1e308; no bound returns inf, nan or the 0.0 an overflowed power gives."""
    params = BoundParams(lambda_=3.0, tau=tau, c=1.0 / 3.0)
    with pytest.raises(NumericError, match="optimal_m: the bound overflows"):
        optimal_m(100, params)
    if tau == 1e308:
        for bound in (lambda: optimal_T(3, 100, params), lambda: esseen_bias_bound(3, 100, 1.0, params),
                      lambda: mse_bound(np.array([3, 50]), 100, params)):
            with pytest.raises(NumericError, match="overflows the float range"):
                bound()


def test_failed_mixture_quadrature_is_a_numeric_error():
    # at lambda = 1e308 pdtr is NaN on an interval of u where lambda g(u)
    # nears the float maximum, which the quadrature bisects without end
    with pytest.raises(NumericError, match="quadrature over u in \\(0,1\\] failed"):
        poisson_mixture_cdf(1.0, EXAMPLE, 1e308)


def test_exact_mixture_sum_that_is_nan_is_a_numeric_error(concave):
    # at lambda = 1e308 scipy's pdtr is NaN for K and mu near the float
    # maximum, which the clamp to [0, 1] used to write as 0.0; a slope > 1
    # overflowed lambda * slope with a RuntimeWarning
    with pytest.raises(NumericError, match="is not a number at lambda=1e"):
        poisson_mixture_cdf(0.5, concave, 1e308)
    # the characteristic function sums over the same pieces: t * slope
    # overflows to an infinite phase, whose exp is NaN
    with pytest.raises(NumericError, match="is not a number at t=1e"):
        limit_char_grouped(1e308, concave)
    # an infinite mean puts no mass at any finite K, without a warning
    assert poisson_mixture_cdf(np.array([-1.0, 1e-300, np.inf]), concave, 1e308).tolist() == [0.0, 0.0, 1.0]


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

@pytest.mark.parametrize("mean, epsilon, message", [
    (math.nan, 1.0, "mean must be positive and finite, got nan"),
    (math.inf, 1.0, "mean must be positive and finite, got inf"),
    (0.0, 1.0, "mean must be positive and finite, got 0.0"),
    (4.0, math.nan, "epsilon must be positive and finite, got nan"),
    (4.0, math.inf, "epsilon must be positive and finite, got inf"),
    (4.0, -1.0, "epsilon must be positive and finite, got -1.0"),
], ids=["mean-nan", "mean-inf", "mean-0", "eps-nan", "eps-inf", "eps-negative"])
def test_bernstein_rejects_a_mean_or_epsilon_not_positive_and_finite(mean, epsilon, message):
    # every comparison with NaN is false, so each check must be one that NaN fails
    with pytest.raises(ValidationError, match=message):
        bernstein_poisson_tail(mean, epsilon)


def test_bernstein_frozen_value_and_cap():
    # 2 exp(-9 / (2 + 3/2)) = 2 e^{-18/7}
    assert bernstein_poisson_tail(4.0, 3.0) == pytest.approx(2.0 * math.exp(-18.0 / 7.0), rel=1e-12)
    assert bernstein_poisson_tail(4.0, 1e-9) == 1.0  # capped
    assert bernstein_poisson_tail(100.0, 3.0) < bernstein_poisson_tail(100.0, 2.0)
