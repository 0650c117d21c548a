"""Wasserstein projection estimators for circular distributions."""

from .circular import (
    CircularSample,
    DiscreteCircularDist,
    circ_dist,
    discrete_from_sample,
    load_sample,
    make_sample,
    normalize_angle,
)
from .estimate import (
    EstimatorSpec,
    FitResult,
    circular_sq_error,
    invert_bessel_ratio,
    mle,
    mle_ssvm,
    mle_von_mises,
    mle_wrapped_cauchy,
    wasserstein_fit,
)
from .families import (
    FamilyParams,
    family_cdf,
    family_fisher,
    family_logpdf,
    family_pdf,
    family_quantile,
    family_sample,
)
from .harness import ExperimentConfig, MseTable, mse_ratio, run_experiment
from .optimize import (
    BoxConstraints,
    OptimizerReport,
    powell_min,
    select_kth,
)
from .transport import (
    GridCdf,
    grid_cdf_of,
    w1_grid,
    wp_general,
)

__version__ = "0.1.0"
