"""Monte Carlo study engine: determinism, aggregation identities, audits."""

import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binom, poisson

import structdist.model as model
import structdist.sampling as sampling
import structdist.study as study
from structdist import (
    MULTINOMIAL,
    POISSONIZED,
    CountsVector,
    NumericError,
    RngStream,
    SmoothGenerator,
    StudyConfig,
    ValidationError,
    cells_from_generator,
    consistency_trend,
    decomposition_residual,
    divisors_of,
    draw_coupled,
    draw_multinomial,
    draw_poissonized,
    example_generator,
    group_model,
    grouped_estimator,
    lattice_floor,
    limit_sdf,
    natural_estimator,
    nearest_divisor,
    poissonization_gap,
    poisson_tail_audit,
    run_mse_study,
    sup_distance,
    sweep_m,
    variance_audit,
)
from structdist.asymptotics import _lattice_index
from structdist.model import _estimate
from structdist.sampling import COUPLED, MAX_N, STREAM_VERSION, draw_slab
from structdist.study import _natural_gap

X7 = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)


def grouped_example(M, m):
    """The example model grouped into m blocks: a CellModel with M = m."""
    return group_model(cells_from_generator(example_generator(), M), m)


def exact_mean(q, n, x, poissonized):
    """E F_hat(x) = (1/m) sum_j P(count_j <= K): group counts are Binomial(n, q_j)
    (Poisson(n q_j) when Poissonized), and K = lattice_floor(x n / m) is the
    largest count the estimate at x includes."""
    m = q.size
    K = lattice_floor(x * n / m)
    P = poisson.cdf(K, n * q) if poissonized else binom.cdf(K, n, q)
    return float(P.mean())


# ---------- config ----------

def test_divisor_helpers():
    assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
    assert divisors_of(1) == [1]
    assert nearest_divisor(1000, 30) == 25
    assert nearest_divisor(16, 3) == 2  # tie between 2 and 4 goes to the smaller
    assert nearest_divisor(1000, 40) == 40
    assert nearest_divisor(12, 100) == 12 and nearest_divisor(12, -5) == 1
    # 99991 is prime: no divisor within the scan's budget of m, so it falls back
    assert nearest_divisor(99991, 50000) == 99991
    assert nearest_divisor(99991, 49996) == 1  # a tie at distance 49995
    assert nearest_divisor(10**16 + 61, 3) == 1  # three steps, not 10**8
    for M in (0, -3):
        with pytest.raises(ValidationError, match="positive"):
            divisors_of(M)
        with pytest.raises(ValidationError, match="positive"):
            nearest_divisor(M, 5)


@pytest.mark.parametrize("m, nearest, lists_divisors", [(9, 1, False), (10, 1, True), (10**6, 99991, False), (-5, 1, False)])
def test_nearest_divisor_scans_isqrt_over_32_steps(monkeypatch, m, nearest, lists_divisors):
    """M = 99991 is prime and isqrt(M) // 32 = 9: from m = 9 the scan
    reaches 1 within its budget; from m = 10 it stops at 2 and lists the
    divisors. An m beyond M or below 1 starts the scan at M or at 1."""
    listed = []
    monkeypatch.setattr(model, "divisors_of", lambda M: listed.append(M) or [1, M])
    assert nearest_divisor(99991, m) == nearest
    assert listed == ([99991] if lists_divisors else [])


@settings(max_examples=300, deadline=None)
@given(M=st.integers(1, 10**5), m=st.integers(1, 2 * 10**5))
def test_nearest_divisor_is_the_nearest_of_all_divisors(M, m):
    assert nearest_divisor(M, m) == min(divisors_of(M), key=lambda d: (abs(d - m), d))


def test_config_normalizes_sequences():
    cfg = StudyConfig("example", M=100, n=300, m_values=[10, 20], x_grid=[0.5, 1.0], reps=2, seed=1)
    assert cfg.m_values == (10, 20)
    assert cfg.x_grid == (0.5, 1.0)


def test_config_rejects_non_divisor_and_suggests():
    with pytest.raises(ValidationError, match="25"):
        StudyConfig("example", M=1000, n=3000, m_values=(30,), x_grid=(1.0,), reps=1, seed=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=0, n=300, m_values=(1,), x_grid=(1.0,), reps=1),
        dict(M=100, n=0, m_values=(10,), x_grid=(1.0,), reps=1),
        dict(M=100, n=300, m_values=(), x_grid=(1.0,), reps=1),
        dict(M=100, n=300, m_values=(10,), x_grid=(), reps=1),
        dict(M=100, n=300, m_values=(10,), x_grid=(1.0, 0.5), reps=1),  # unsorted
        dict(M=100, n=300, m_values=(10,), x_grid=(1.0,), reps=0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        StudyConfig("example", seed=0, **kwargs)


# ---------- MSE study ----------

def test_single_rep_has_zero_variance():
    cfg = StudyConfig("example", M=100, n=300, m_values=(10,), x_grid=(1.0,), reps=1, seed=4)
    rep = run_mse_study(cfg)
    cell = rep.cell(10, 1.0)
    assert cell.var_hat == 0.0 and cell.se_mean == 0.0 and cell.se_var == 0.0
    assert cell.mse_hat == pytest.approx(cell.bias_hat**2, abs=1e-15)


def test_uniform_generator_degenerate_target():
    # the uniform limit CDF steps at 1, so F(0.5) = 0 and the MSE at 0.5 is
    # just the mean of the squared estimates
    cfg = StudyConfig("uniform", M=100, n=300, m_values=(10,), x_grid=(0.5,), reps=50, seed=5)
    rep = run_mse_study(cfg)
    assert rep.f_values == (0.0,)
    cell = rep.cell(10, 0.5)
    assert cell.mse_hat == pytest.approx(cell.bias_hat**2 + cell.var_hat * 49 / 50, abs=1e-15)
    assert cell.mean_hat == cell.bias_hat


def test_regression_baseline_and_rerun_identity():
    """Fixed seed, fixed config: the report must be bit-reproducible, and its
    headline number is pinned as a regression baseline."""
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(40,), x_grid=(1.0,), reps=500, seed=8675309)
    rep1 = run_mse_study(cfg)
    rep2 = run_mse_study(cfg)
    assert rep1.cells == rep2.cells
    cell = rep1.cell(40, 1.0)
    assert cell.mse_hat == 0.0008012500000000009
    exact = exact_mean(grouped_example(1000, 40).p, 3000, 1.0, poissonized=False)
    assert exact == pytest.approx(0.5064978, abs=1e-7)
    assert abs(cell.mean_hat - exact) <= 4.0 * cell.se_mean


LCM_MS = (10, 40, 100)  # lcm = 200 blocks of 5 cells at M = 1000
LCM_XS = (0.25, 0.5, 1.0, 1.75)  # 1.75 is a lattice point for m = 10


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_draws_lcm_blocks_and_evaluates_like_stepcdf(poissonized):
    """Replication r is the r-th draw over the lcm(m_values) = 200 blocks
    from the running generator of stream 0; each estimate at x equals
    the grouped estimator at x and its StepCdf at the lattice point
    K (m/n), K = lattice_floor(x n / m). At
    m = 10 the grid point x = 1.75 is the lattice point of K = 525, where the
    StepCdf's float comparison 525 * (10/3000) <= 1.75 fails: a count of 525
    must be counted."""
    M, n = 1000, 3000
    cfg = StudyConfig("example", M=M, n=n, m_values=LCM_MS, x_grid=LCM_XS, reps=200, seed=2718,
                      poissonized=poissonized)
    est = run_mse_study(cfg).estimates
    blocks = grouped_example(M, 200)
    draw = draw_poissonized if poissonized else draw_multinomial
    rng = RngStream(cfg.seed).generator()
    hits = 0
    for r in range(cfg.reps):
        vec = draw(blocks, n, rng)
        for i, m in enumerate(LCM_MS):
            grouped = grouped_estimator(vec, m)
            K = np.array([lattice_floor(x * n / m) for x in LCM_XS])
            np.testing.assert_allclose(est[i, :, r], grouped.cdf(K * (m / n)), rtol=0, atol=1e-15)
            assert np.array_equal(est[i, :, r], grouped(LCM_XS))
            if m == 10 and 525 in grouped.counts:
                hits += 1
                assert est[i, LCM_XS.index(1.75), r] == np.count_nonzero(grouped.counts <= 525) / 10
    assert hits > 0


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_means_match_exact_marginals(poissonized):
    """Drawing at the block level keeps the law: every Monte Carlo mean is
    within 4 SE of the exact Binomial (Poisson) marginal mean."""
    M, n = 1000, 3000
    cfg = StudyConfig("example", M=M, n=n, m_values=LCM_MS, x_grid=LCM_XS, reps=2000, seed=31337,
                      poissonized=poissonized)
    rep = run_mse_study(cfg)
    for m in LCM_MS:
        q = grouped_example(M, m).p
        for x in LCM_XS:
            cell = rep.cell(m, x)
            assert cell.se_mean > 0.0
            assert abs(cell.mean_hat - exact_mean(q, n, x, poissonized)) <= 4.0 * cell.se_mean, (m, x)


@st.composite
def small_studies(draw):
    """A StudyConfig with M <= 60, up to 3 of M's divisors as m_values, up to
    12 reps and a sorted x-grid that includes lattice points and +-inf."""
    M = draw(st.integers(1, 60))
    m_values = draw(st.lists(st.sampled_from(divisors_of(M)), min_size=1, max_size=3, unique=True))
    xs = draw(st.lists(st.one_of(st.floats(-0.5, 4.0), st.integers(0, 32).map(lambda k: k / 8),
                                 st.sampled_from((-np.inf, np.inf))), min_size=1, max_size=5))
    return StudyConfig("example", M=M, n=draw(st.integers(1, 300)), m_values=m_values, x_grid=sorted(xs),
                       reps=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**64 - 1)),
                       poissonized=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(cfg=small_studies())
def test_slab_estimates_are_the_grouped_estimator_on_each_draw(cfg):
    """estimates[i, :, r] is the grouped estimator, at the i-th m, of the
    r-th draw over the lcm(m_values) blocks from the running generator of
    stream 0, bit for bit."""
    est = run_mse_study(cfg).estimates
    L = int(np.lcm.reduce(cfg.m_values))
    blocks = grouped_example(cfg.M, L)
    draw = draw_poissonized if cfg.poissonized else draw_multinomial
    rng = RngStream(cfg.seed).generator()
    for r in range(cfg.reps):
        vec = draw(blocks, cfg.n, rng)
        for i, m in enumerate(cfg.m_values):
            assert np.array_equal(est[i, :, r], grouped_estimator(vec, m)(cfg.x_grid))


@pytest.mark.parametrize("rows", [1, 3])
def test_slab_boundaries_leave_every_study_unchanged(monkeypatch, rows):
    """With _SLAB shrunk so that 10 reps span >= 3 slabs of at most `rows`
    rows, all three studies report exactly what one slab gives."""
    cfg = StudyConfig("example", M=120, n=360, m_values=(4, 6, 12), x_grid=X7, reps=10, seed=3, poissonized=True)
    gap_cfg = StudyConfig("example", M=40, n=120, m_values=(1,), x_grid=(0.5, 1.0, 1.5), reps=10, seed=4)
    ladder = ((60, 180, 6), (120, 360, 6))
    calls = {
        "mse": (lambda: run_mse_study(cfg), 12 * len(X7)),
        # the gap's first rung: m = 8 comparisons per x and 8 isqrt(n) gap events
        "gap": (lambda: poissonization_gap(gap_cfg, n_ladder=(120, 240)), 8 * 3 + 8 * 10),
        "trend": (lambda: consistency_trend(ladder, "example", reps=10, seed=5), 6),
    }
    whole = {name: call() for name, (call, _) in calls.items()}
    assert whole["mse"].timings["slabs"] == 1 and whole["mse"].timings["draws"] == 10

    sizes = []
    slabs = study._slabs

    def spy(*args, **kwargs):
        for span, counts in slabs(*args, **kwargs):
            sizes.append(span.stop - span.start)
            yield span, counts

    monkeypatch.setattr(study, "_slabs", spy)
    for name, (call, width) in calls.items():
        monkeypatch.setattr(study, "_SLAB", rows * width)
        sizes.clear()
        split = call()
        assert len(sizes) >= 3 and max(sizes) <= rows, name
        assert split == whole[name], name
        if name == "mse":
            assert split.timings["slabs"] == len(sizes)
            assert np.array_equal(split.estimates, whole[name].estimates)


# each study at reps replications, with the width _slabs divides _SLAB by
# (a coupled study's later rungs are wider than its first)
PREFIX_STUDIES = {
    "multinomial": (lambda reps, seed: run_mse_study(
        StudyConfig("example", M=60, n=180, m_values=(4, 6), x_grid=X7, reps=reps, seed=seed)), 12 * len(X7)),
    "poissonized": (lambda reps, seed: run_mse_study(
        StudyConfig("example", M=60, n=180, m_values=(4, 6), x_grid=X7, reps=reps, seed=seed, poissonized=True)),
        12 * len(X7)),
    "coupled": (lambda reps, seed: poissonization_gap(
        StudyConfig("example", M=40, n=120, m_values=(1,), x_grid=(0.5, 1.0, 1.5), reps=reps, seed=seed),
        n_ladder=(120, 240)), 8 * 3 + 8 * 10),
    # n/M = 100 on 40 and 80 cells: rows with |N - n| > M, whose extra balls
    # are one multinomial, among rows whose extra balls are uniforms
    "coupled_over": (lambda reps, seed: poissonization_gap(
        StudyConfig("example", M=40, n=4000, m_values=(1,), x_grid=(0.5, 1.0, 1.5), reps=reps, seed=seed),
        n_ladder=(4000, 8000)), 20 * 3 + 8 * 40),
    "trend": (lambda reps, seed: consistency_trend(((60, 180, 6), (120, 360, 6)), "example", reps=reps, seed=seed),
              6),
    # L = 4096 blocks: each multinomial row is the nu of a coupled row
    "long": (lambda reps, seed: run_mse_study(
        StudyConfig("example", M=8192, n=24576, m_values=(2048, 4096), x_grid=X7, reps=reps, seed=seed)),
        4096 * len(X7)),
}


def drawn_rows(name, reps, seed, rows):
    """Run a PREFIX_STUDIES study in slabs of at most `rows` rows (None: one
    slab); return its result and, per rung, every count matrix it drew,
    stacked in replication order."""
    call, width = PREFIX_STUDIES[name]
    rungs = []
    slabs = study._slabs

    def spy(*args, **kwargs):
        drawn = []
        rungs.append(drawn)
        for span, counts in slabs(*args, **kwargs):
            drawn.append(counts)
            yield span, counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study, "_slabs", spy)
        if rows is not None:
            mp.setattr(study, "_SLAB", rows * width)
        result = call(reps, seed)
    return result, [[np.vstack(mats) for mats in zip(*drawn)] for drawn in rungs]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PREFIX_STUDIES)), seed=st.integers(0, 2**64 - 1), r=st.integers(1, 6),
       extra=st.integers(0, 10), rows=st.one_of(st.none(), st.integers(1, 5)))
@example(name="long", seed=2026, r=3, extra=7, rows=2)
# the first rung's rows 0 to 4 have |N - n| > M at rows 0 and 3 only, so
# both the one slab of 5 rows and the slabs of 3 mix the two routes
@example(name="coupled_over", seed=2026, r=5, extra=6, rows=3)
def test_first_replications_do_not_depend_on_reps_or_slab_size(name, seed, r, extra, rows):
    """Replication r is the r-th row drawn from its rung's running
    generator: the first r replications of every rung, and for
    run_mse_study their estimates, are bit-identical whether the study runs
    r replications in one slab or r + extra in slabs of at most `rows`."""
    short, short_rows = drawn_rows(name, r, seed, None)
    long, long_rows = drawn_rows(name, r + extra, seed, rows)
    assert len(short_rows) == len(long_rows) >= 1
    for a, b in zip(short_rows, long_rows):
        assert len(a) == len(b) and all(np.array_equal(x, y[:r]) for x, y in zip(a, b))
    if name in ("multinomial", "poissonized", "long"):
        assert np.array_equal(short.estimates, long.estimates[..., :r])


def per_cell_summary(m, x, fx, vals):
    """The per-cell reductions the vectorized summary must reproduce bit for bit."""
    reps = vals.size
    mean = float(np.mean(vals))
    mse = float(np.mean((vals - fx) ** 2))
    if reps == 1:
        return (m, x, mean, mean - fx, 0.0, mse, 0.0, 0.0)
    var = float(np.var(vals, ddof=1))
    d2 = (vals - mean) ** 2
    m4 = float(np.mean(d2 * d2))
    se_var = math.sqrt(max(0.0, (m4 - var * var * (reps - 3) / (reps - 1)) / reps))
    return (m, x, mean, mean - fx, var, mse, math.sqrt(var / reps), se_var)


@pytest.mark.parametrize("reps", [1, 2, 3, 333])
def test_summary_matches_per_cell_reductions(reps):
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(10, 40, 100), x_grid=X7, reps=reps, seed=reps,
                      poissonized=True)
    rep = run_mse_study(cfg)
    expect = [per_cell_summary(m, x, rep.f_values[j], rep.estimates[i, j])
              for i, m in enumerate(cfg.m_values) for j, x in enumerate(cfg.x_grid)]
    assert [dataclasses.astuple(c) for c in rep.cells] == expect


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_estimates_0_below_zero_and_1_where_the_index_overflows(poissonized):
    # at 1e300 the index is a finite K beyond int64, at 1e308 the product overflows
    cfg = StudyConfig("example", M=12, n=36, m_values=(2, 3, 12), x_grid=(-1e-20, 1e300, 1e308), reps=5, seed=4,
                      poissonized=poissonized)
    est = run_mse_study(cfg).estimates
    assert (est[:, 0] == 0.0).all() and (est[:, 1:] == 1.0).all()


def test_report_equality_ignores_wall_time():
    cfg = StudyConfig("example", M=100, n=300, m_values=(10,), x_grid=(1.0,), reps=3, seed=6)
    rep1, rep2 = run_mse_study(cfg), run_mse_study(cfg)
    assert rep1 == rep2  # wall_time differs but does not participate
    assert rep1.wall_time >= 0.0


def test_report_cell_lookup():
    cfg = StudyConfig("example", M=100, n=300, m_values=(10, 20), x_grid=(0.5, 1.0), reps=2, seed=7)
    rep = run_mse_study(cfg)
    assert len(rep.cells) == 4
    assert rep.cell(20, 0.5).m == 20
    with pytest.raises(KeyError):
        rep.cell(11, 0.5)


def test_decomposition_residual_is_tiny():
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(25,), x_grid=X7, reps=100, seed=12, poissonized=True)
    rep = run_mse_study(cfg)
    assert max(decomposition_residual(c, cfg.reps) for c in rep.cells) < 1e-10


# ---------- audits and sweeps ----------

def test_variance_audit_requires_poissonized():
    cfg = StudyConfig("example", M=100, n=300, m_values=(10,), x_grid=(1.0,), reps=3, seed=8)
    with pytest.raises(ValidationError):
        variance_audit(cfg)


def test_variance_audit_small_run():
    cfg = StudyConfig(
        "example", M=1000, n=3000, m_values=(10, 40), x_grid=X7, reps=400, seed=505, poissonized=True
    )
    audit = variance_audit(cfg)
    assert len(audit.rows) == 14
    assert audit.all_ok
    for row in audit.rows:
        assert row.var_hat <= 1.0 / (4.0 * row.m) + 4.0 * row.se_var


def test_sweep_needs_three_points():
    with pytest.raises(ValidationError):
        sweep_m(StudyConfig("example", M=100, n=300, m_values=(10, 20), x_grid=(1.0,), reps=2, seed=9))


def test_sweep_reports_argmin():
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(5, 25, 125), x_grid=X7, reps=40, seed=10)
    sweep = sweep_m(cfg)
    assert sweep.m_values == (5, 25, 125)
    assert len(sweep.mse_values) == 3
    assert sweep.argmin_m == sweep.m_values[int(np.argmin(sweep.mse_values))]


# ---------- Poissonization gap ladder ----------

def test_gap_ladder_decays_with_n():
    """Coupled natural estimators: the sup gap obeys |N-n|/M on every draw
    and the mean squared grouped gap decays along a geometric n-ladder."""
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(25,), x_grid=(0.5, 1.0, 1.5), reps=60, seed=77)
    rep = poissonization_gap(cfg, n_ladder=(3000, 30000, 300000))
    assert [r.n for r in rep.rungs] == [3000, 30000, 300000]
    for rung in rep.rungs:
        assert rung.bound_violations == 0
        assert rung.M == max(1, round(rung.n / 3.0))  # lambda held at n/M = 3
    gaps = [r.mean_sq_gap_avg for r in rep.rungs]
    assert gaps[0] > gaps[1] > gaps[2]
    # fitted decay of the mean squared gap in n (0.84 on this seed under
    # stream version 10; 0.68 to 1.09 over seeds 0 to 39)
    assert 0.5 <= rep.decay_exponent <= 2.0


@settings(max_examples=200, deadline=None)
@given(
    M=st.integers(1, 60),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    xs=st.lists(st.one_of(st.floats(0.0, 4.0), st.integers(0, 32).map(lambda k: k / 8)), min_size=1, max_size=6),
)
def test_gap_kernel_matches_stepcdf_references(M, n, seed, xs):
    """On one coupled draw of full rows, the integer natural gap read from
    the cells where nu and rho differ, over M, is the StepCdf sup distance
    and at most |N - n|. poissonization_gap (reps=1) reports that gap for the
    first pair its rung draws at its m groups, and the squared gap of that
    pair's grouped estimates, which equal the StepCdf values wherever
    K = lattice_floor(x n / m) is the count the float comparison
    count * (m/n) <= x picks too."""
    xs = sorted(xs)
    cells = cells_from_generator(example_generator(), M)
    nu, rho = draw_coupled(cells, n, RngStream(seed).generator())
    differ = np.flatnonzero(nu.counts != rho.counts)
    (gap,) = _natural_gap(np.zeros_like(differ), nu.counts[differ], rho.counts[differ], 1)
    assert abs(gap / M - sup_distance(natural_estimator(nu).cdf, natural_estimator(rho).cdf)) <= 1e-15
    assert gap <= abs(rho.N_realized - n)

    cfg = StudyConfig("example", M=M, n=n, m_values=(1,), x_grid=xs, reps=1, seed=seed)
    rung = poissonization_gap(cfg).rungs[0]
    assert rung.M == M
    m = rung.m
    pairs = draw_slab(COUPLED, cells, n, 1, RngStream(seed).streams(), groups=m)
    (gap,) = _natural_gap(pairs.row, pairs.nu, pairs.rho, 1)
    assert gap <= abs(int(pairs.R.sum()) - n)
    assert rung.mean_sup_gap_natural == gap / M and rung.bound_violations == 0

    K = _lattice_index(xs, n, m)
    ks = np.arange(K.max() + 2)
    agree = K == np.array([ks[ks * (m / n) <= x].max() for x in xs])
    halves = []
    for vec in (CountsVector(MULTINOMIAL, pairs.V[0], n=n), CountsVector(POISSONIZED, pairs.R[0], n=n)):
        halves.append(_estimate(vec.counts, K))
        est = grouped_estimator(vec, m)
        assert np.array_equal(halves[-1], est(xs))
        np.testing.assert_allclose(halves[-1][agree], est.cdf(np.asarray(xs))[agree], rtol=0, atol=1e-15)
    assert np.array_equal(rung.mean_sq_gap, (halves[0] - halves[1]) ** 2)


@pytest.mark.parametrize("M, n", [(30, 90), (8, 2000), (200, 50)])
def test_natural_gap_of_a_slab_is_each_rows_stepcdf_sup(M, n):
    """Over a slab of 60 full coupled rows, whose rows differ in as many
    cells as their |N - n| balls touch (none where N = n), the gap of each
    row, over M, is the StepCdf sup distance between its natural
    estimators, as one row alone gives it."""
    cells, rows = cells_from_generator(example_generator(), M), 60
    nu, rho = draw_slab(COUPLED, cells, n, rows, RngStream(M, n).generator())
    row, cell = np.nonzero(nu != rho)
    gaps = _natural_gap(row, nu[row, cell], rho[row, cell], rows)
    assert len(set(np.bincount(row, minlength=rows).tolist())) > 2
    for r in range(rows):
        a, b = (natural_estimator(CountsVector(kind, v[r], n=n)) for kind, v in ((MULTINOMIAL, nu), (POISSONIZED, rho)))
        assert abs(gaps[r] / M - sup_distance(a.cdf, b.cdf)) <= 1e-15


@pytest.mark.parametrize("rows", [None, 7])
def test_gap_sums_replications_in_order(monkeypatch, rows):
    """Each rung's mean squared grouped gap is a running sum over the
    replications in order, whole or in slabs of at most 7 rows, as a
    row-by-row loop over one-row grouped draws and the public grouped
    estimator adds it up (a pairwise sum differs in the last bits on this
    config). Rung i draws its pairs at its m groups in order from the three
    streams of stream i: replication r is the r-th grouped row drawn."""
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(40,), x_grid=X7, reps=66, seed=1)
    ladder = (3000, 12000)
    if rows is not None:
        # the first rung's width, m = 25 comparisons per x and 8 isqrt(n) gap events
        monkeypatch.setattr(study, "_SLAB", rows * (25 * len(X7) + 8 * math.isqrt(3000)))
    rungs = poissonization_gap(cfg, n_ladder=ladder).rungs
    for i, (rung, n) in enumerate(zip(rungs, ladder)):
        cells = cells_from_generator(example_generator(), rung.M)
        rng = RngStream(cfg.seed, i).streams()
        sq = np.zeros(len(X7))
        for r in range(cfg.reps):
            V, R = draw_slab(COUPLED, cells, n, 1, rng, groups=rung.m)
            nu, rho = CountsVector(MULTINOMIAL, V[0], n=n), CountsVector(POISSONIZED, R[0], n=n)
            sq += (grouped_estimator(nu, rung.m)(X7) - grouped_estimator(rho, rung.m)(X7)) ** 2
        assert rung.mean_sq_gap == tuple(sq / cfg.reps)


def test_gap_rung_builds_one_layout_and_draws_one_slab(monkeypatch):
    """A 16-replication gap rung at n/M = 3 on M = 10**6 cells builds its
    _Layout once and draws its rows in one slab: a slab is sized by what a
    grouped row holds (m comparisons per x and its gap events), not by M per
    x, which gave one row and one layout per slab."""
    layouts, slabs = [], []
    build, draw = sampling._Layout, study.draw_slab
    monkeypatch.setattr(sampling, "_Layout", lambda *args: layouts.append(args) or build(*args))
    monkeypatch.setattr(study, "draw_slab", lambda *args: slabs.append(args[3]) or draw(*args))
    cfg = StudyConfig("example", M=10**6, n=3 * 10**6, m_values=(1,), x_grid=X7, reps=16, seed=8)
    rep = poissonization_gap(cfg)
    assert len(layouts) == 1 and slabs == [16] and rep.timings["slabs"] == 1
    assert rep.rungs[0].m < rep.rungs[0].M and rep.rungs[0].bound_violations == 0


@pytest.mark.parametrize("ladder", [(300.9,), (True,), (300, "600")], ids=["float", "bool", "str"])
def test_gap_ladder_rejects_ns_that_are_not_integers(ladder):
    """300.9 used to run at n = 300 and True at n = 1."""
    cfg = StudyConfig("example", M=100, n=300, m_values=(10,), x_grid=(1.0,), reps=2, seed=1)
    with pytest.raises(ValidationError, match="every n of the ladder must be an integer"):
        poissonization_gap(cfg, n_ladder=ladder)


def test_gap_ladder_single_rung_has_no_exponent():
    cfg = StudyConfig("example", M=300, n=900, m_values=(10,), x_grid=(1.0,), reps=5, seed=14)
    rep = poissonization_gap(cfg, n_ladder=(900,))
    assert rep.decay_exponent is None
    assert len(rep.rungs) == 1


# ---------- consistency trend ----------

def test_consistency_trend_decreases():
    ladder = ((250, 750, 10), (1000, 3000, 25))
    trend = consistency_trend(ladder, "example", reps=40, seed=11)
    assert len(trend) == 2
    assert trend[0] > trend[1]
    assert trend[1] < 0.15


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_consistency_trend_replays_group_draws(poissonized):
    """Rung i, replication r is the r-th draw of the m group counts from
    the running generator of stream i; the mean sup distance equals the
    StepCdf reference added in replication order."""
    ladder = ((250, 750, 10), (1000, 3000, 25))
    reps, seed = 30, 23
    trend = consistency_trend(ladder, "example", reps=reps, seed=seed, poissonized=poissonized)
    M, n, m = ladder[1]
    groups = grouped_example(M, m)
    draw = draw_poissonized if poissonized else draw_multinomial
    F = limit_sdf(example_generator())
    rng = RngStream(seed, 1).generator()
    total = 0.0
    for r in range(reps):
        est = grouped_estimator(draw(groups, n, rng), m)
        total += sup_distance(est.cdf, F)
    assert trend[1] == total / reps


@pytest.mark.parametrize("reps", [0, -2])
def test_consistency_trend_rejects_reps_below_one(reps):
    with pytest.raises(ValidationError, match=f"reps must be >= 1, got {reps}"):
        consistency_trend(((100, 300, 10),), "example", reps=reps, seed=1)


@pytest.mark.parametrize("name, value", [("reps", 2.5), ("reps", "2"), ("reps", True), ("seed", 1.5), ("seed", "1"),
                                         ("seed", True)])
def test_consistency_trend_rejects_reps_and_seeds_that_are_not_integers(name, value):
    """seed=1.5 used to run on seed 1 and reps=2.5 to end in a TypeError;
    both go through the integer check StudyConfig makes."""
    args = {"reps": 2, "seed": 1, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
        consistency_trend(((100, 300, 10),), "example", **args)


def test_consistency_trend_rejects_non_divisor_m():
    # every rung is checked before any draw; the message names the nearest divisor
    with pytest.raises(ValidationError, match="m=12 does not divide M=100; nearest divisor is 10"):
        consistency_trend(((100, 300, 10), (100, 300, 12)), "example", reps=5, seed=1)
    with pytest.raises(ValidationError, match="m=0 does not divide M=100"):
        consistency_trend(((100, 300, 0),), "example", reps=5, seed=1)


# ---------- the block model comes from the generator ----------

def test_studies_reject_a_dip_inside_one_group_like_the_cells(monkeypatch):
    """G dips below its previous grid value at 31/1000 only, inside a group
    of every m below, so it is monotone on each group grid; the studies
    still check the cell grid and fail with the cells' own error."""
    dip = SmoothGenerator("dip", G=lambda x: np.where(x == 0.031, 0.029, x),
                          g=lambda u: np.ones_like(u), tau=1.0, g_deriv_bound=0.0,
                          limit_cdf=lambda x: np.where(np.asarray(x) >= 1.0, 1.0, 0.0))
    with pytest.raises(NumericError) as ref:
        cells_from_generator(dip, 1000)
    assert "p[30]" in str(ref.value)
    monkeypatch.setattr(study, "by_name", lambda name: dip)
    cfg = StudyConfig("dip", M=1000, n=3000, m_values=(10, 40), x_grid=(1.0,), reps=2, seed=1)
    with pytest.raises(NumericError) as got:
        run_mse_study(cfg)
    assert str(got.value) == str(ref.value)
    with pytest.raises(NumericError) as got:
        consistency_trend(((1000, 3000, 40),), "dip", reps=2, seed=1)
    assert str(got.value) == str(ref.value)


SWEEP_MS = (3, 7, 13, 21, 33, 39, 63, 143, 273, 693, 1287, 3003, 9009)


def _peak_bytes(run) -> int:
    run()  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mse_study_and_trend_build_no_cell_vector():
    # one float64 vector of the M = 333333 cells takes 8 M bytes, and the
    # cell path peaks above that
    M = 333333
    cfg = StudyConfig("example", M=M, n=999999, m_values=SWEEP_MS, x_grid=X7, reps=2, seed=1)
    assert _peak_bytes(lambda: group_model(cells_from_generator(example_generator(), M), 9009)) > 8 * M
    assert _peak_bytes(lambda: run_mse_study(cfg)) < 8 * M
    assert _peak_bytes(lambda: consistency_trend(((M, 999999, 21),), "example", reps=2, seed=1)) < 8 * M


# The numpy and scipy versions every seeded pin of this module was frozen under
PINNED_UNDER = {"numpy": "2.4.6", "scipy": "1.17.1"}

# sha256 of estimates.tobytes() and of repr(cells): the estimates of sweep
# frozen under stream version 7 (its 9009-block rows are the nu of coupled
# rows), of audit and uniform under version 4 (versions 5, 6 and 8 changed
# only the coupled draw, 7 only multinomial rows of at least 2**12 cells);
# the cells of all three re-frozen when se_var took the fourth moment by two
# squarings instead of pow, which moves it by at most 2.8e-15 relative here
FROZEN_STREAMS = [
    (StudyConfig("example", M=333333, n=999999, m_values=SWEEP_MS, x_grid=X7, reps=20, seed=909),
     "102302f1340695afe80cb15ef18b3913a2e175ab1922a18af131421a8a8934a5",
     "9751f21ffbda696ea11d11d8e2e7f1ebfc8115897b81af4b501dc72abb4ca3e8"),
    (StudyConfig("example", M=1000, n=3000, m_values=(10, 40, 100), x_grid=X7, reps=400, seed=505,
                 poissonized=True),
     "b8d84d651a6b793b3a004bebc4bf48be0b997606c40af79d0614888b544a0e17",
     "036262b9cf06402394b2df8ab09f55668bc1061e2ace494192ccc72c6a8c74d9"),
    (StudyConfig("uniform", M=1000, n=3000, m_values=(10, 40, 100), x_grid=(0.5, 1.0, 1.5), reps=50, seed=5),
     "3cbcdceae5c299c6ff9d7ae4593e27dcd39559c5f104b96f0ec1a079d2733d18",
     "2e5b61765fcd8ee1132f2e817a36626b2b14dbf44a9bd706af87f846a3c8936a"),
]


@pytest.mark.parametrize("cfg, estimates_sha, cells_sha", FROZEN_STREAMS, ids=["sweep", "audit", "uniform"])
def test_seeded_stream_is_frozen(pinned_under, cfg, estimates_sha, cells_sha):
    """A change to the seeded stream must bump STREAM_VERSION and re-freeze
    these digests on purpose; it cannot slip through unnoticed."""
    assert STREAM_VERSION == 10
    rep, note = run_mse_study(cfg), pinned_under(**PINNED_UNDER)
    assert hashlib.sha256(rep.estimates.tobytes()).hexdigest() == estimates_sha, note
    assert hashlib.sha256(repr(rep.cells).encode()).hexdigest() == cells_sha, note


def test_seeded_trend_is_frozen(pinned_under):
    assert STREAM_VERSION == 10
    note = pinned_under(**PINNED_UNDER)
    ladder = ((250, 750, 10), (1000, 3000, 25), (4000, 12000, 50))
    assert consistency_trend(ladder, "example", reps=50, seed=11) == (0.12759999999999994, 0.08256666666666668,
                                                                       0.0519833333333333), note
    ladder = ((1000, 3000, 40), (1000, 3000, 200))
    trend = consistency_trend(ladder, "uniform", reps=20, seed=3, poissonized=True)
    assert trend == (0.5425000000000001, 0.48375), note


def test_seeded_gap_is_frozen(pinned_under):
    """The coupled stream of version 10, pinned by the rungs' summaries and
    the sha256 of repr(rungs): both rungs draw their pairs at their groups,
    N first, each slab's rows together from the rung's three streams."""
    assert STREAM_VERSION == 10
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(40,), x_grid=X7, reps=30, seed=21)
    rep, note = poissonization_gap(cfg, n_ladder=(3000, 12000)), pinned_under(**PINNED_UNDER)
    assert [(r.M, r.m, r.mean_sq_gap_avg, r.mean_sup_gap_natural, r.bound_violations) for r in rep.rungs] == [
        (1000, 25, 0.00021333333333333355, 0.008533333333333334, 0),
        (4000, 40, 5.059523809523816e-05, 0.0036, 0),
    ], note
    assert rep.decay_exponent == 1.0380179455162701, note
    assert hashlib.sha256(repr(rep.rungs).encode()).hexdigest() == (
        "d03687c80d6308b54429bc85193e0ffee2d93b3b1c2f8899454182fbe9c6b3b8"), note


def test_a_failing_pin_names_the_frozen_and_the_running_versions(pinned_under):
    message = pinned_under(numpy="1.0.0", scipy="0.9.0")
    assert message.startswith("pinned under numpy 1.0.0 and scipy 0.9.0; running numpy ")
    assert np.__version__ in message and scipy.__version__ in message


def test_gap_report_times_its_stages():
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(10,), x_grid=(0.5, 1.0), reps=6, seed=3)
    start = time.perf_counter()
    rep = poissonization_gap(cfg, n_ladder=(3000, 12000))
    wall = time.perf_counter() - start
    t = rep.timings
    assert set(t) == {"cells_s", "draw_s", "gap_s", "evaluate_s", "draws", "slabs", "cells_revealed"}
    assert t["draws"] == 12 and t["slabs"] == 2
    # every row is drawn at its groups and reveals only the cells its
    # |N - n| extra balls touch, at most |N - n| (under 3 sqrt(n) here)
    assert 0 < t["cells_revealed"] <= 6 * 3 * (math.isqrt(3000) + math.isqrt(12000))
    stages = [t[k] for k in ("cells_s", "draw_s", "gap_s", "evaluate_s")]
    assert all(v >= 0.0 for v in stages) and sum(stages) <= wall
    assert dataclasses.replace(rep, timings={}) == rep  # timings do not enter equality


@pytest.mark.parametrize("means, epsilons, message", [
    ((4.0, 0.0), (1.0,), "mean must be positive, finite and <= .*, got 0.0"),
    ((-1.0,), (1.0,), "mean must be positive, finite and <= .*, got -1.0"),
    ((math.nan,), (1.0,), "mean must be positive, finite and <= .*, got nan"),
    ((math.inf,), (1.0,), "mean must be positive, finite and <= .*, got inf"),
    ((2.0 * MAX_N,), (1.0,), "mean must be positive, finite and <= .*, got 9.2"),
    ((4.0,), (1.0, 0.0), "epsilon must be positive and finite, got 0.0"),
    ((4.0,), (-2.0,), "epsilon must be positive and finite, got -2.0"),
    ((4.0,), (math.nan,), "epsilon must be positive and finite, got nan"),
    ((4.0,), (math.inf,), "epsilon must be positive and finite, got inf"),
], ids=["mean-0", "mean-negative", "mean-nan", "mean-inf", "mean-above-max", "eps-0", "eps-negative", "eps-nan",
        "eps-inf"])
def test_poisson_tail_audit_rejects_bad_means_and_epsilons(means, epsilons, message):
    """Every mean and epsilon is checked before the first draw, so a bad one
    is a ValidationError, never numpy's ValueError or a RuntimeWarning."""
    with pytest.raises(ValidationError, match=message):
        poisson_tail_audit(means, epsilons, draws=10, seed=1)


@pytest.mark.parametrize("draws", [2.5, 10.0, "10", True], ids=["float", "whole-float", "str", "bool"])
def test_poisson_tail_audit_rejects_draws_that_are_not_integers(draws):
    """2.5 used to end in numpy's bare TypeError."""
    with pytest.raises(ValidationError, match=f"draws must be an integer, got {draws!r}"):
        poisson_tail_audit((4.0,), (1.0,), draws=draws, seed=1)


def test_poisson_tail_audit_accepts_the_largest_mean():
    (row,) = poisson_tail_audit((float(MAX_N),), (1.0,), draws=10, seed=1)
    assert row.mean == MAX_N and 0.0 <= row.freq <= row.bound <= 1.0
