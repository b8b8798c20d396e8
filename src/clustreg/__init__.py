"""Clusterwise linear regression with constrained, data-driven variance shrinkage."""

from .model import (
    Dataset,
    ModelParams,
    Responsibilities,
    InvalidParameterError,
    log_likelihood,
    posterior_probs,
    classify,
    min_variance_ratio,
)
from .em import (
    Variant,
    ConstraintSpec,
    EmConfig,
    FitResult,
    STOP_REASONS,
    SingularComponentError,
    NumericalError,
    m_step_betas,
    m_step_variances,
    homoscedastic_variance,
    clamp_variances,
    initialize,
    run_em,
    multi_start_fit,
)
from .tuning import (
    CvConfig,
    CvReport,
    CvRow,
    default_c_grid,
    make_split,
    cv_loglik,
    select_c,
    fit_conc,
)
from .metrics import MseReport, adjusted_rand, param_mse, bic
from .simulate import (
    STUDY_COLUMNS,
    ScenarioSpec,
    StudyConfig,
    draw_inverse_gamma,
    draw_scenario,
    run_study,
)
from . import io

__version__ = "0.1.0"
