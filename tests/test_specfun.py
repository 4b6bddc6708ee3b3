"""Special-function and quadrature contracts.

Reference values are frozen from the independent oracles defined at the
top of this module (plain quadrature of the defining integrals), which
the tests also re-run so drift in either side is caught.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from relaysec.specfun import (
    ConvergenceError,
    QuadratureSpec,
    bessel_k1,
    exp_scaled_e1,
    integrate_semi_infinite,
)


def ei_oracle(x: float) -> float:
    """Ei(x) for x < 0 by quadrature of the defining integral.

    Ei(-y) = -int_1^inf e^(-y*u)/u du, mapped to (0, 1).
    """
    y = -x

    def f(u):
        w = 1.0 - u
        s = 1.0 + u / w
        return math.exp(-y * s) / s / (w * w)

    val = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return -val


def k1_oracle(x: float) -> float:
    """K1(x) by quadrature of int_0^inf e^(-x*cosh u) * cosh u du."""

    def f(u):
        return math.exp(-x * math.cosh(u)) * math.cosh(u)

    return scipy.integrate.quad(f, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


EI_MINUS_ONE = -0.21938393439552027  # ei_oracle(-1.0)
K1_ONE = 0.6019072301972346          # k1_oracle(1.0)


def ei_via_scaled_e1(x: float) -> float:
    """Ei(x) for x < 0 through the identity Ei(-y) = -e^(-y) * [e^y E1(y)]."""
    return -math.exp(x) * exp_scaled_e1(-x)


class TestExponentialIntegral:
    """The outage brackets' Ei(-y), evaluated through ``exp_scaled_e1``."""

    def test_reference_value(self):
        assert ei_oracle(-1.0) == pytest.approx(EI_MINUS_ONE, abs=1e-12)
        assert ei_via_scaled_e1(-1.0) == pytest.approx(EI_MINUS_ONE, rel=1e-10)
        assert exp_scaled_e1(1.0) == pytest.approx(-math.e * scipy.special.expi(-1.0), rel=1e-12)
        assert f"{exp_scaled_e1(1.0):.6f}" == "0.596347"

    def test_oracle_agreement_on_grid(self):
        for x in (-0.01, -0.3, -2.0, -7.5, -30.0):
            assert ei_via_scaled_e1(x) == pytest.approx(ei_oracle(x), rel=1e-10)

    def test_log_divergence_near_zero(self):
        # Ei(x) ~ euler_gamma + ln|x| for small |x|.
        assert ei_via_scaled_e1(-1e-8) < -17.0

    def test_x_ei_vanishes_at_zero(self):
        assert abs(1e-9 * ei_via_scaled_e1(-1e-9)) < 1e-7

    def test_domain_error(self):
        # Ei on the positive axis would need the scaled E1 at y <= 0.
        with pytest.raises(ValueError):
            exp_scaled_e1(0.0)
        with pytest.raises(ValueError):
            exp_scaled_e1(-1.0)

    def test_negative_and_decreasing(self):
        # The derivative e^x / x is negative on x < 0, so Ei falls from
        # 0- toward -inf as x approaches zero from below.
        xs = np.linspace(-20.0, -1e-3, 400)
        vals = [ei_via_scaled_e1(x) for x in xs]
        assert all(v < 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestExpScaledE1:
    def test_matches_mpmath(self):
        for y in (1e-3, 0.1, 1.0, 10.0, 499.0, 501.0, 700.0, 1e4, 1e6):
            with mpmath.workdps(30):
                ref = float(mpmath.exp(y) * mpmath.e1(y))
            assert exp_scaled_e1(y) == pytest.approx(ref, rel=1e-12)

    def test_consistent_with_ei(self):
        y = 2.5
        assert exp_scaled_e1(y) == pytest.approx(-math.exp(y) * scipy.special.expi(-y), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_scaled_e1(0.0)


class TestBesselK1:
    def test_reference_value(self):
        assert k1_oracle(1.0) == pytest.approx(K1_ONE, abs=1e-12)
        assert bessel_k1(1.0) == pytest.approx(K1_ONE, rel=1e-10)

    def test_small_argument_limit(self):
        # x*K1(x) -> 1 as x -> 0+
        assert abs(0.001 * bessel_k1(0.001) - 1.0) < 1e-5

    def test_monotone_decrease(self):
        assert bessel_k1(10.0) < bessel_k1(1.0)

    def test_x_k1_bounded_and_decreasing(self):
        xs = np.linspace(0.01, 20.0, 200)
        vals = [x * bessel_k1(x) for x in xs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k1(0.0)
        with pytest.raises(ValueError):
            bessel_k1(-1.0)


class TestSemiInfiniteQuadrature:
    def test_unit_exponential(self):
        assert integrate_semi_infinite(lambda z: math.exp(-z), 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_gamma_two(self):
        assert integrate_semi_infinite(lambda z: z * math.exp(-z), 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_shifted_exponential_family(self):
        # Closed-form antiderivative on randomized (scale, lower) pairs.
        rng = np.random.default_rng(11)
        spec = QuadratureSpec()
        for _ in range(100):
            gamma = float(10.0 ** rng.uniform(-2.0, 4.0))
            lower = float(rng.uniform(0.0, 5.0 * gamma))
            got = integrate_semi_infinite(lambda z: math.exp(-z / gamma), lower, spec)
            expected = gamma * math.exp(-lower / gamma)
            assert got == pytest.approx(expected, rel=spec.rel_tol * 50)

    def test_focus_points_pass_through(self):
        got = integrate_semi_infinite(lambda z: math.exp(-z), 0.0, focus=[0.3, 2.0, math.inf])
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_convergence_error(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: math.exp(-z / 1000.0) * math.sin(z) ** 2, 0.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
