"""pullin: a numerical laboratory for radial nonlinear eigenvalue problems.

Computes bifurcation branches, pull-in voltages and pull-in distances of
-Δu = λ f(x) F(u) on unit balls of real dimension N by radial shooting,
stability spectra of the linearized operator, the analytic voltage/distance
bounds, and the power-law-weight reduction to fractional dimension.

`import pullin` loads only the modules that need no scipy (`errors`,
`geometry`, `nonlinearity`, `powerlaw`).  The names from `bounds`, `branch`
and `spectral`, which need scipy, are imported on first use.
"""

import importlib as _importlib

from .errors import (BeyondPullInError, BracketError, DomainValidationError,
                     NoCrossingError, PullInError, QuadratureError)
from .geometry import volume_unit_ball
from .nonlinearity import (Family, Nonlinearity, VoltageConstants,
                           exponential, mems_inverse_power, power_growth)
from .powerlaw import (MEMS_CRITICAL_DIMENSION, REGULAR_CRITICAL_DIMENSION,
                       EnvelopePair, Regularity, SingularExtremal,
                       TransformResult, alpha_critical_mems,
                       asymptotic_envelopes, classify_regularity,
                       dim_transform, singular_extremal)

_LAZY = {
    "bounds": """BoundReport DomainStats ball_stats energy_norm_bound
        eigenvalue_lower_bound exp_supnorm_bound exp_supnorm_constant
        mems_ball_supnorm_bound
        mems_ball_supnorm_closed_form mems_supnorm_bound mems_supnorm_constant power_supnorm_bound power_supnorm_constant
        pullin_distance_lower pullin_voltage_upper radial_decay_constant
        stability_necessary_check""".split(),
    "branch": """Branch BranchPoint ProblemSpec RadialSolution ShootResult
        default_m_grid dudlambda minimal_solution shoot solve_branch""".split(),
    "spectral": "EigenPair lambda1_ball mu1".split(),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(_importlib.import_module("." + module, __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *(name for names in _LAZY.values() for name in names)})


__version__ = "0.1.0"
