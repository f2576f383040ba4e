"""Monte Carlo study engine: determinism, aggregation identities, audits."""

import numpy as np
import pytest
from scipy.stats import binom, poisson

from structdist import (
    CellModel,
    GroupingScheme,
    RngStream,
    StudyConfig,
    ValidationError,
    cells_from_generator,
    consistency_trend,
    decomposition_residual,
    divisors_of,
    draw_multinomial,
    draw_poissonized,
    example_generator,
    group_model,
    grouped_estimator,
    nearest_divisor,
    poissonization_gap,
    run_mse_study,
    sweep_m,
    variance_audit,
)

X7 = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)


def grouped_q(M, m):
    cells = cells_from_generator(example_generator(), M)
    return group_model(cells, GroupingScheme(M, m, M // m)).q


def exact_mean(q, n, x, poissonized):
    """E F_hat(x) = (1/m) sum_j P(count_j <= K): group counts are Binomial(n, q_j)
    (Poisson(n q_j) when Poissonized), and K is the largest count with
    count * (m/n) <= x in floating point, the estimator's own comparison."""
    m = q.size
    ks = np.arange(n + 1)
    K = int(ks[ks * (m / n) <= x].max())
    P = poisson.cdf(K, n * q) if poissonized else binom.cdf(K, n, q)
    return float(P.mean())


# ---------- config ----------

def test_divisor_helpers():
    assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
    assert divisors_of(1) == [1]
    assert nearest_divisor(1000, 30) == 25
    assert nearest_divisor(16, 3) == 2  # tie between 2 and 4 goes to the smaller
    assert nearest_divisor(1000, 40) == 40


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
    exact = exact_mean(grouped_q(1000, 40), 3000, 1.0, poissonized=False)
    assert exact == pytest.approx(0.5064978, abs=1e-7)
    assert abs(cell.mean_hat - exact) <= 4.0 * cell.se_mean


LCM_MS = (10, 40, 100)  # lcm = 200 blocks of 5 cells at M = 1000
LCM_XS = (0.25, 0.5, 1.0, 1.75)  # 1.75 is a lattice point for m = 10


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_draws_lcm_blocks_and_evaluates_like_stepcdf(poissonized):
    """Replication r is one draw over the lcm(m_values) = 200 blocks on
    substream r; each estimate equals the grouped estimator's StepCdf on that
    draw, up to the last bit of its summed 1/m masses."""
    M, n = 1000, 3000
    cfg = StudyConfig("example", M=M, n=n, m_values=LCM_MS, x_grid=LCM_XS, reps=200, seed=2718,
                      poissonized=poissonized)
    est = run_mse_study(cfg).estimates
    blocks = CellModel(200, grouped_q(M, 200))
    draw = draw_poissonized if poissonized else draw_multinomial
    base = RngStream(cfg.seed)
    for r in range(cfg.reps):
        vec = draw(blocks, n, base.substream(r).generator())
        for i, m in enumerate(LCM_MS):
            ref = grouped_estimator(vec, GroupingScheme(200, m, 200 // m), n=n).cdf(np.asarray(LCM_XS))
            np.testing.assert_allclose(est[i, :, r], ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_study_means_match_exact_marginals(poissonized):
    """Drawing at the block level keeps the law: every Monte Carlo mean is
    within 4 SE of the exact Binomial (Poisson) marginal mean."""
    M, n = 1000, 3000
    cfg = StudyConfig("example", M=M, n=n, m_values=LCM_MS, x_grid=LCM_XS, reps=2000, seed=31337,
                      poissonized=poissonized)
    rep = run_mse_study(cfg)
    for m in LCM_MS:
        q = grouped_q(M, m)
        for x in LCM_XS:
            cell = rep.cell(m, x)
            assert cell.se_mean > 0.0
            assert abs(cell.mean_hat - exact_mean(q, n, x, poissonized)) <= 4.0 * cell.se_mean, (m, x)


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
