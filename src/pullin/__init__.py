"""pullin: a numerical laboratory for radial nonlinear eigenvalue problems.

Computes bifurcation branches, pull-in voltages and pull-in distances of
-Δu = λ f(x) F(u) on unit balls of real dimension N by radial shooting,
stability spectra of the linearized operator, the analytic voltage/distance
bounds, and the power-law-weight reduction to fractional dimension.
"""

from .bounds import (BoundReport, DomainStats, ball_stats, energy_norm_bound,
                     eigenvalue_lower_bound, exp_supnorm_bound,
                     exp_supnorm_constant, log_weight_integral,
                     mems_ball_supnorm_bound, mems_ball_supnorm_closed_form,
                     mems_profile_constant, mems_supnorm_bound,
                     mems_supnorm_constant, power_supnorm_bound,
                     power_supnorm_constant, pullin_distance_lower,
                     pullin_voltage_upper, radial_decay_constant,
                     stability_necessary_check)
from .branch import (Branch, BranchPoint, ProblemSpec, RadialSolution,
                     ShootResult, default_m_grid, dudlambda, minimal_solution,
                     shoot, solve_branch)
from .errors import (BeyondPullInError, BracketError, DomainValidationError,
                     NoCrossingError, PullInError, QuadratureError)
from .geometry import volume_unit_ball
from .nonlinearity import (Family, Nonlinearity, VoltageConstants,
                           exponential, mems_inverse_power, power_growth)
from .powerlaw import (MEMS_CRITICAL_DIMENSION, REGULAR_CRITICAL_DIMENSION,
                       EnvelopePair, RateProfile, Regularity, SingularExtremal,
                       TransformResult, alpha_critical_mems,
                       asymptotic_envelopes, classify_regularity,
                       dim_transform, extremal_voltage_rate, singular_extremal)
from .spectral import EigenPair, lambda1_ball, mu1

__version__ = "0.1.0"
