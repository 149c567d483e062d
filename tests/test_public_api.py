import importlib
import sys
import types

import pytest

import pullin

# The public surface of `pullin`: a name joins or leaves it only with an
# edit of this list.
EXPORTED = sorted("""
    BeyondPullInError BoundReport Branch BranchPoint BracketError
    DomainStats DomainValidationError EigenPair EnvelopePair Family
    MEMS_CRITICAL_DIMENSION NoCrossingError Nonlinearity ProblemSpec
    PullInError QuadratureError REGULAR_CRITICAL_DIMENSION RadialSolution
    Regularity ShootResult SingularExtremal TransformResult
    VoltageConstants alpha_critical_mems asymptotic_envelopes ball_stats
    classify_regularity default_m_grid dim_transform dudlambda
    eigenvalue_lower_bound energy_norm_bound exp_supnorm_bound
    exp_supnorm_constant exponential lambda1_ball
    mems_ball_supnorm_bound mems_ball_supnorm_closed_form
    mems_inverse_power mems_supnorm_bound
    mems_supnorm_constant minimal_solution mu1 power_growth
    power_supnorm_bound power_supnorm_constant pullin_distance_lower
    pullin_voltage_upper radial_decay_constant shoot singular_extremal
    solve_branch stability_necessary_check volume_unit_ball
""".split())


def _is_submodule(value) -> bool:
    return isinstance(value, types.ModuleType) and value.__name__.startswith("pullin.")


def test_exported_names_are_pinned():
    # dir() lists the names imported on first use before that use; pullin's
    # own submodules appear as attributes once imported anywhere and are not
    # pinned, but any other module is
    public = sorted(name for name in dir(pullin)
                    if not name.startswith("_") and not _is_submodule(getattr(pullin, name)))
    assert public == EXPORTED


def test_each_name_imported_on_first_use_is_its_modules_object():
    for module, names in pullin._LAZY.items():
        source = importlib.import_module(f"pullin.{module}")
        for name in names:
            assert getattr(pullin, name) is getattr(source, name), name


def test_an_unknown_name_is_refused_and_submodules_still_import():
    with pytest.raises(AttributeError, match="'nope'"):
        pullin.nope
    with pytest.raises(ImportError):
        from pullin import nope  # noqa: F401
    from pullin import bounds
    assert bounds is sys.modules["pullin.bounds"]


# The evaluation surface of `Nonlinearity`: one unchecked formula per
# family (`derivative`) and the checked `value` and `deriv` on top of it,
# and the family's scaling symmetry (`scaling_law`).
NONLINEARITY = sorted("""
    deriv deriv_inverse derivative endpoint family is_singular label p
    scaling_law value voltage_constants
""".split())


def test_nonlinearity_attributes_are_pinned():
    public = sorted(name for name in dir(pullin.exponential()) if not name.startswith("_"))
    assert public == NONLINEARITY
