"""Estimation of the structural distribution function of a multinomial model
with many rare cells: natural and grouped estimators, their limit laws,
bias/MSE bounds, and a seeded Monte Carlo study harness."""

from types import ModuleType as _ModuleType

from .asymptotics import (
    BoundParams,
    OptimalGroupCount,
    bernstein_poisson_tail,
    esseen_bias_bound,
    lattice_floor,
    limit_char_grouped,
    limit_char_natural,
    mse_bound,
    optimal_T,
    optimal_m,
    phi_m,
    poisson_mixture_cdf,
)
from .errors import NumericError, StructDistError, ValidationError
from .estimators import check_regime, grouped_estimator, natural_estimator
from .generators import (
    SmoothGenerator,
    by_name,
    cells_from_generator,
    example_generator,
    limit_sdf,
    table_generator,
    uniform_generator,
)
from .ingest import Corpus, estimate_from_corpus, tokenize
from .model import (
    CellModel,
    StepCdf,
    divisors_of,
    group_model,
    nearest_divisor,
    structural_cdf,
    sup_distance,
)
from .sampling import (
    MULTINOMIAL,
    POISSONIZED,
    STREAM_VERSION,
    CountsVector,
    RngStream,
    draw_coupled,
    draw_multinomial,
    draw_poissonized,
)
from .study import (
    GapRung,
    MseCell,
    MseReport,
    PoissonizationGapReport,
    PoissonTailRow,
    StudyConfig,
    SweepReport,
    VarianceAudit,
    VarianceAuditRow,
    consistency_trend,
    decomposition_residual,
    poisson_tail_audit,
    poissonization_gap,
    run_mse_study,
    sweep_m,
    variance_audit,
)

__version__ = "0.1.0"

# the imported names; importing them also binds the submodules, which are not API
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
