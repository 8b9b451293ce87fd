"""Poincare series, weighted Bergman kernels and very-ampleness
certificates on the unit disc with its Bergman metric."""

__version__ = "0.1.0"

from .errors import (
    DiscformsError, BoundaryPoint, NonUnitary, BudgetExceeded,
    InsufficientBall, UnboundedSeed, QuadratureDiverged, TargetNotReached,
    DegenerateBasis, ConfigError,
)
from .geometry import bergman_metric, distance, mobius, mobius_jacobian
from .group import (
    GroupElement, FuchsianGroup, OrbitBall, enumerate_ball, orbit_counts,
    preset_genus2_octagon, load_group,
)
from .domain import FundamentalDomain, dirichlet_domain, disc_domain
from .series import (
    SeedFunction, SeriesValue, weight_sum, poincare_eval, poincare_values,
    norm_pl, lemma22_check, polynomial_approx,
)
from .kernels import (
    weighted_kernel, weighted_kernel_series, kernel_transformation_check,
    reproducing_check, cm_constant, relative_poincare, roundtrip_check,
)
from .seshadri import (
    injectivity_radius, density, cutoff_a, psi_values,
    quasi_psh_check, seshadri_lower_bound, SeshadriReport,
    ampleness_thresholds,
)
from .embedding import eval_sections, very_ampleness_scan
