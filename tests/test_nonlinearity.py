import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pullin import (DomainValidationError, exponential, mems_inverse_power,
                    power_growth)

FAMILIES = [exponential(), mems_inverse_power(2.0), mems_inverse_power(3.5),
            power_growth(2.0), power_growth(4.0)]


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_value_at_zero_is_one(F):
    assert F.value(0.0) == 1.0


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_increasing_and_convex_on_grid(F):
    hi = 1.0 - 1e-6 if F.is_singular else 50.0
    u = np.linspace(0.0, hi, 500)
    assert np.all(F.deriv(u) > 0)
    assert np.all(F.derivative(2)(u) >= 0)


def test_domain_rejection():
    mems = mems_inverse_power(2.0)
    with pytest.raises(DomainValidationError):
        mems.value(1.0)
    with pytest.raises(DomainValidationError):
        mems.value(np.array([0.2, 1.3]))
    with pytest.raises(DomainValidationError):
        exponential().value(-0.1)
    with pytest.raises(DomainValidationError):
        exponential().deriv_inverse(-1.0)


def test_family_parameter_validation():
    with pytest.raises(DomainValidationError):
        mems_inverse_power(0.0)
    with pytest.raises(DomainValidationError):
        power_growth(1.0)
    # an infinite exponent would give nan constants and overflowing shots
    with pytest.raises(DomainValidationError):
        mems_inverse_power(math.inf)
    with pytest.raises(DomainValidationError):
        power_growth(math.inf)


def test_deriv_inverse_clamps_below_slope_at_zero():
    # F'(0) is 1, p, p for the three families
    assert exponential().deriv_inverse(0.5) == 0.0
    assert mems_inverse_power(2.0).deriv_inverse(1.9) == 0.0
    assert power_growth(3.0).deriv_inverse(2.5) == 0.0


def test_deriv_inverse_frozen_values():
    # solve 2/(1-v)^3 = 16 by hand: (1-v)^3 = 1/8 -> v = 1/2
    assert mems_inverse_power(2.0).deriv_inverse(16.0) == pytest.approx(0.5, abs=1e-14)
    # solve e^v = e -> v = 1
    assert exponential().deriv_inverse(math.e) == pytest.approx(1.0, abs=1e-14)
    # solve 2(1+v) = 4 -> v = 1
    assert power_growth(2.0).deriv_inverse(4.0) == pytest.approx(1.0, abs=1e-14)


def _bisect_deriv_inverse(F, z, lo, hi):
    # independent oracle: bisection on F'(v) = z
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if F.deriv(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("F,z,hi", [
    (mems_inverse_power(2.0), 16.0, 1.0 - 1e-12),
    (mems_inverse_power(3.5), 7.7, 1.0 - 1e-12),
    (exponential(), 12.3, 50.0),
    (power_growth(2.5), 9.0, 50.0),
])
def test_deriv_inverse_against_bisection(F, z, hi):
    expected = _bisect_deriv_inverse(F, z, 0.0, hi)
    assert F.deriv_inverse(z) == pytest.approx(expected, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_deriv_inverse_roundtrip_regular(u):
    for F in (exponential(), power_growth(2.0), power_growth(3.3)):
        assert F.deriv_inverse(float(F.deriv(u))) == pytest.approx(u, abs=1e-10, rel=1e-10)


@given(st.floats(min_value=0.0, max_value=1.0 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_deriv_inverse_roundtrip_singular(u):
    for F in (mems_inverse_power(2.0), mems_inverse_power(4.2)):
        assert F.deriv_inverse(float(F.deriv(u))) == pytest.approx(u, abs=1e-10, rel=1e-10)


def test_voltage_constants_frozen():
    # sup of u(1-u)^2 at u=1/3 gives 4/27; integral of (1-u)^2 gives 1/3
    B, C = mems_inverse_power(2.0).voltage_constants()
    assert B == pytest.approx(4.0 / 27.0, rel=1e-15)
    assert C == pytest.approx(1.0 / 3.0, rel=1e-15)
    # sup of u e^-u at u=1 gives 1/e; integral of e^-u gives 1
    B, C = exponential().voltage_constants()
    assert B == pytest.approx(1.0 / math.e, rel=1e-15)
    assert C == pytest.approx(1.0, rel=1e-15)
    # sup of u/(1+u)^2 at u=1 gives 1/4; integral of (1+u)^-2 gives 1
    B, C = power_growth(2.0).voltage_constants()
    assert B == pytest.approx(0.25, rel=1e-15)
    assert C == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_voltage_constants_against_oracles(F):
    # grid search for the sup, refined around the maximizer
    hi = 1.0 - 1e-9 if F.is_singular else 50.0
    xs = np.linspace(1e-9, hi, 20001)
    ratio = xs / F.value(xs)
    i = int(np.argmax(ratio))
    for _ in range(2):
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], 20001)
        ratio = xs / F.value(xs)
        i = int(np.argmax(ratio))
    B, C = F.voltage_constants()
    assert B == pytest.approx(float(ratio[i]), rel=1e-6)

    # adaptive quadrature with analytic tail beyond 50 for the regular families
    if F.is_singular:
        oracle, _ = quad(lambda u: 1.0 / F.value(u), 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    else:
        head, _ = quad(lambda u: 1.0 / F.value(u), 0.0, 50.0, epsabs=1e-13, epsrel=1e-12)
        tail = math.exp(-50.0) if F.family.value == "exponential" \
            else 51.0 ** (1.0 - F.p) / (F.p - 1.0)
        oracle = head + tail
    assert C == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_derivatives_against_sympy(F):
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    if F.family.value == "exponential":
        expr = sympy.exp(u)
    elif F.is_singular:
        expr = (1 - u) ** (-sympy.Float(F.p))
    else:
        expr = (1 + u) ** sympy.Float(F.p)
    points = [0.0, 0.3, 0.9] if F.is_singular else [0.0, 0.7, 5.0]
    for order, method in enumerate((F.value, F.deriv, F.derivative(2), F.derivative(3))):
        d = sympy.diff(expr, u, order)
        for x in points:
            assert method(x) == pytest.approx(float(d.subs(u, x)), rel=1e-12)


@pytest.mark.parametrize("F, center_value", [
    (exponential(), lambda level: level),
    (mems_inverse_power(2.0), lambda level: -np.expm1(-level)),
    (power_growth(3.0), np.expm1),
], ids=lambda v: v.label() if hasattr(v, "label") else "")
def test_the_scaling_law_maps_levels_to_center_values(F, center_value):
    law = F.scaling_law()
    levels = np.array([1e-6, 0.3, 2.0, 9.0])
    np.testing.assert_allclose(law.center_value(levels), center_value(levels), rtol=1e-14)
    # near m = 1, m itself keeps only the digits of 1 - m = e^(-ℓ)
    np.testing.assert_allclose(law.level(law.center_value(levels)), levels, rtol=1e-12)
    # w₀ dropped by d is w at center value m = d/(1 - σd) rescaled: d, d/(1+d)
    # and d/(1-d) for σ = 0, -1 and +1
    for d in (1e-6, 0.3, 0.7):
        assert law.center_value(law.drop_level(d)) == pytest.approx(d / (1.0 - law.sigma * d),
                                                                    rel=1e-14)
