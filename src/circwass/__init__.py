"""Wasserstein projection estimators for circular distributions."""

from .circular import (
    CircularSample,
    DiscreteCircularDist,
    circ_dist,
    discrete_from_sample,
    empirical_cdf,
    load_sample,
    make_sample,
    normalize_angle,
)
from .estimate import (
    EstimatorSpec,
    FitResult,
    circular_sq_error,
    invert_bessel_ratio,
    mle_ssvm,
    mle_von_mises,
    mle_wrapped_cauchy,
    wasserstein_fit,
)
from .families import (
    FamilyParams,
    bessel_i,
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
    convex_min_1d,
    diff_evolution_min,
    powell_min,
    select_kth,
)
from .transport import (
    GridCdf,
    discretize_family_equal_mass,
    grid_cdf_of,
    shift_cost,
    w1_cdf_search,
    w1_grid,
    wp_discrete,
    wp_general,
)

__version__ = "0.1.0"
