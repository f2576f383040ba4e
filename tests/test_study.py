"""Monte Carlo study engine: determinism, aggregation identities, audits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, poisson

import structdist.study as study
from structdist import (
    RngStream,
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
    run_mse_study,
    sup_distance,
    sup_distance_to_function,
    sweep_m,
    variance_audit,
)
from structdist.estimators import _estimate, _lattice_index
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
    for M in (0, -3):
        with pytest.raises(ValidationError, match="positive"):
            divisors_of(M)
        with pytest.raises(ValidationError, match="positive"):
            nearest_divisor(M, 5)


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
    assert cell.mse_hat == 0.0007462500000000007
    exact = exact_mean(grouped_example(1000, 40).p, 3000, 1.0, poissonized=False)
    assert exact == pytest.approx(0.5064978, abs=1e-7)
    assert abs(cell.mean_hat - exact) <= 4.0 * cell.se_mean


LCM_MS = (10, 40, 100)  # lcm = 200 blocks of 5 cells at M = 1000
LCM_XS = (0.25, 0.5, 1.0, 1.75)  # 1.75 is a lattice point for m = 10


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_draws_lcm_blocks_and_evaluates_like_stepcdf(poissonized):
    """Replication r is one draw over the lcm(m_values) = 200 blocks on
    substream r; each estimate at x equals the grouped estimator at x and its
    StepCdf at the lattice point K (m/n), K = lattice_floor(x n / m). At
    m = 10 the grid point x = 1.75 is the lattice point of K = 525, where the
    StepCdf's float comparison 525 * (10/3000) <= 1.75 fails: a count of 525
    must be counted."""
    M, n = 1000, 3000
    cfg = StudyConfig("example", M=M, n=n, m_values=LCM_MS, x_grid=LCM_XS, reps=200, seed=2718,
                      poissonized=poissonized)
    est = run_mse_study(cfg).estimates
    blocks = grouped_example(M, 200)
    draw = draw_poissonized if poissonized else draw_multinomial
    base = RngStream(cfg.seed)
    hits = 0
    for r in range(cfg.reps):
        vec = draw(blocks, n, base.substream(r).generator())
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
    draw over the lcm(m_values) blocks on substream r, bit for bit."""
    est = run_mse_study(cfg).estimates
    L = int(np.lcm.reduce(cfg.m_values))
    blocks = grouped_example(cfg.M, L)
    draw = draw_poissonized if cfg.poissonized else draw_multinomial
    for r in range(cfg.reps):
        vec = draw(blocks, cfg.n, RngStream(cfg.seed).substream(r))
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
        "gap": (lambda: poissonization_gap(gap_cfg, n_ladder=(120, 240)), 40 * 3),
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


def per_cell_summary(m, x, fx, vals):
    """The per-cell reductions the vectorized summary must reproduce bit for bit."""
    reps = vals.size
    mean = float(np.mean(vals))
    mse = float(np.mean((vals - fx) ** 2))
    if reps == 1:
        return (m, x, mean, mean - fx, 0.0, mse, 0.0, 0.0)
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - mean) ** 4))
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
    # fitted decay of the mean squared gap in n (frozen run: ~0.92)
    assert 0.5 <= rep.decay_exponent <= 2.0


@settings(max_examples=200, deadline=None)
@given(
    M=st.integers(1, 60),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    xs=st.lists(st.one_of(st.floats(0.0, 4.0), st.integers(0, 32).map(lambda k: k / 8)), min_size=1, max_size=6),
)
def test_gap_kernel_matches_stepcdf_references(M, n, seed, xs):
    """On one coupled draw (reps=1), poissonization_gap's integer natural gap
    over M is the StepCdf sup distance and at most |N - n|, and its grouped
    estimates equal the StepCdf values wherever K = lattice_floor(x n / m)
    is the count the float comparison count * (m/n) <= x picks too."""
    xs = sorted(xs)
    cfg = StudyConfig("example", M=M, n=n, m_values=(1,), x_grid=xs, reps=1, seed=seed)
    rung = poissonization_gap(cfg).rungs[0]
    assert rung.M == M
    nu, rho = draw_coupled(cells_from_generator(example_generator(), M), n, RngStream(seed).substream(0))
    gap = _natural_gap(nu.counts, rho.counts)
    assert abs(gap / M - sup_distance(natural_estimator(nu).cdf, natural_estimator(rho).cdf)) <= 1e-15
    assert gap <= abs(rho.N_realized - n)
    assert rung.mean_sup_gap_natural == gap / M and rung.bound_violations == 0

    m = rung.m
    K = _lattice_index(xs, n, m)
    ks = np.arange(K.max() + 2)
    agree = K == np.array([ks[ks * (m / n) <= x].max() for x in xs])
    halves = []
    for vec in (nu, rho):
        halves.append(_estimate(vec.counts.reshape(m, -1).sum(axis=1), K))
        est = grouped_estimator(vec, m)
        assert np.array_equal(halves[-1], est(xs))
        np.testing.assert_allclose(halves[-1][agree], est.cdf(np.asarray(xs))[agree], rtol=0, atol=1e-15)
    assert np.array_equal(rung.mean_sq_gap, (halves[0] - halves[1]) ** 2)


@pytest.mark.parametrize("rows", [None, 7])
def test_gap_sums_replications_in_order(monkeypatch, rows):
    """Each rung's mean squared grouped gap is a running sum over the
    replications in order, whole or in slabs of 7 rows, as a row-by-row loop
    over the public draw and grouped estimator adds it up (a pairwise sum
    differs in the last bits on this config)."""
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(40,), x_grid=X7, reps=66, seed=1)
    ladder = (3000, 12000)
    if rows is not None:
        monkeypatch.setattr(study, "_SLAB", rows * 4000 * len(X7))
    rungs = poissonization_gap(cfg, n_ladder=ladder).rungs
    base = RngStream(cfg.seed)
    for i, (rung, n) in enumerate(zip(rungs, ladder)):
        cells = cells_from_generator(example_generator(), rung.M)
        sq = np.zeros(len(X7))
        for r in range(cfg.reps):
            nu, rho = draw_coupled(cells, n, base.substream(i * cfg.reps + r))
            sq += (grouped_estimator(nu, rung.m)(X7) - grouped_estimator(rho, rung.m)(X7)) ** 2
        assert rung.mean_sq_gap == tuple(sq / cfg.reps)


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
    """Rung i, replication r draws the m group counts from substream
    i * reps + r; the mean sup distance matches the StepCdf reference."""
    ladder = ((250, 750, 10), (1000, 3000, 25))
    reps, seed = 30, 23
    trend = consistency_trend(ladder, "example", reps=reps, seed=seed, poissonized=poissonized)
    M, n, m = ladder[1]
    groups = grouped_example(M, m)
    draw = draw_poissonized if poissonized else draw_multinomial
    F = limit_sdf(example_generator())
    base = RngStream(seed)
    ref = []
    for r in range(reps):
        est = grouped_estimator(draw(groups, n, base.substream(reps + r)), m)
        ref.append(sup_distance_to_function(est.cdf, F))
    assert abs(trend[1] - sum(ref) / reps) <= 1e-15


@pytest.mark.parametrize("reps", [0, -2])
def test_consistency_trend_rejects_reps_below_one(reps):
    with pytest.raises(ValidationError, match=f"reps must be >= 1, got {reps}"):
        consistency_trend(((100, 300, 10),), "example", reps=reps, seed=1)


def test_consistency_trend_rejects_non_divisor_m():
    # every rung is checked before any draw; the message names the nearest divisor
    with pytest.raises(ValidationError, match="m=12 does not divide M=100; nearest divisor is 10"):
        consistency_trend(((100, 300, 10), (100, 300, 12)), "example", reps=5, seed=1)
    with pytest.raises(ValidationError, match="m=0 does not divide M=100"):
        consistency_trend(((100, 300, 0),), "example", reps=5, seed=1)
