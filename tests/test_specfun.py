"""Special-function and quadrature contracts.

Reference values are frozen from the independent oracles defined at the
top of this module (plain quadrature of the defining integrals), which
the tests also re-run so drift in either side is caught.  The functions
are also held to 30-digit mpmath across their branch switches, and the
quadrature to scipy's QUADPACK on the integrands of the closed forms;
scipy and mpmath are test oracles only, never loaded by the package.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from relaysec import analytic, specfun
from relaysec.model import LinkGains, Scheme, SchemeId, SelectionMode, SystemParams
from relaysec.specfun import (
    ConvergenceError,
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


def _switch_grid(lo: float, hi: float, switch: float) -> list[float]:
    """A log grid over [lo, hi] plus points packed on both sides of a branch switch."""
    return [
        *np.geomspace(lo, hi, 300),
        *(switch * (1.0 + d) for d in np.linspace(-0.05, 0.05, 41)),
        math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf),
    ]


class TestExpScaledE1:
    def test_mpmath_oracle_across_branches(self):
        # Power series below y = 1, continued fraction from there on.
        with mpmath.workdps(30):
            for y in _switch_grid(1e-300, 1e6, 1.0):
                ref = float(mpmath.exp(y) * mpmath.e1(y))
                assert abs(exp_scaled_e1(y) - ref) <= 1e-13 * ref, y

    def test_matches_mpmath(self):
        for y in (1e-3, 0.1, 1.0, 10.0, 499.0, 501.0, 700.0, 1e4, 1e6):
            with mpmath.workdps(30):
                ref = float(mpmath.exp(y) * mpmath.e1(y))
            assert exp_scaled_e1(y) == pytest.approx(ref, rel=1e-12)

    def test_first_term_from_two_to_the_54(self):
        # There e^y E1(y) = (1/y)(1 - 1/y + ...), and the fraction's steps
        # stalled one ulp below 1 on about one y in seven, 2.44e300 among them.
        for y in (2.0 ** 54, 2.4428670689408225e300, *np.geomspace(2.0 ** 54, 1e308, 300)):
            assert exp_scaled_e1(float(y)) == pytest.approx(1.0 / y, rel=1e-15), y

    def test_stalled_fractions_settle(self):
        # Steps a few ulps from 1, never exactly 1, ran the loop out; a
        # random.Random(1) log-uniform scan of 30,000 y in [1, 2^60) found these.
        for y in (438020268454.70325, 201749763365.59735):
            with mpmath.workdps(40):
                ref = float(mpmath.exp(y) * mpmath.e1(y))
            assert abs(exp_scaled_e1(y) - ref) <= 4.0 * math.ulp(ref), y

    def test_consistent_with_ei(self):
        y = 2.5
        assert exp_scaled_e1(y) == pytest.approx(-math.exp(y) * scipy.special.expi(-y), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_scaled_e1(0.0)


class TestBesselK1:
    def test_mpmath_oracle_across_branches(self):
        # Series up to x = 2, Steed's continued fraction above.
        with mpmath.workdps(30):
            for x in _switch_grid(1e-6, 700.0, 2.0):
                ref = float(mpmath.besselk(1, x))
                assert abs(bessel_k1(x) - ref) <= 1e-12 * ref, x

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
        for _ in range(100):
            gamma = float(10.0 ** rng.uniform(-2.0, 4.0))
            lower = float(rng.uniform(0.0, 5.0 * gamma))
            got = integrate_semi_infinite(lambda z: math.exp(-z / gamma), lower)
            expected = gamma * math.exp(-lower / gamma)
            assert got == pytest.approx(expected, rel=specfun.REL_TOL * 50)

    def test_empty_interval_from_infinity(self):
        # A threshold beyond the float range leaves nothing to integrate; a
        # ratio like the CJ integrands' phi is nan there.
        assert integrate_semi_infinite(lambda z: math.exp(-z) * z / (z + 1.0), math.inf) == 0.0

    def test_focus_points_pass_through(self):
        got = integrate_semi_infinite(lambda z: math.exp(-z), 0.0, focus=[0.3, 2.0, math.inf])
        assert got == pytest.approx(1.0, abs=1e-10)

    @staticmethod
    def _tighten(monkeypatch, max_subdivisions):
        """The tolerance contract at 1e-12 with ``max_subdivisions`` subintervals."""
        monkeypatch.setattr(specfun, "ABS_TOL", 1e-12)
        monkeypatch.setattr(specfun, "REL_TOL", 1e-12)
        monkeypatch.setattr(specfun, "MAX_SUBDIVISIONS", max_subdivisions)

    def test_convergence_error(self, monkeypatch):
        self._tighten(monkeypatch, 1)
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: math.exp(-z / 1000.0) * math.sin(z) ** 2, 0.0)

    def test_max_subdivisions_is_honoured(self, monkeypatch):
        # Every bisection evaluates two new halves of 15 nodes each, so N
        # subintervals cost 15 * (2N - 1) evaluations when none converges.
        calls = []

        def f(z):
            calls.append(z)
            return math.exp(-z / 1000.0) * math.sin(z) ** 2

        for n in (1, 2, 7, 40):
            calls.clear()
            self._tighten(monkeypatch, n)
            with pytest.raises(ConvergenceError, match=f"after {n} subdivisions"):
                integrate_semi_infinite(f, 0.0)
            assert len(calls) == 15 * (2 * n - 1)

    def test_focus_intervals_count_towards_the_limit(self, monkeypatch):
        self._tighten(monkeypatch, 4)
        with pytest.raises(ConvergenceError, match="after 4 subdivisions"):
            integrate_semi_infinite(
                lambda z: math.exp(-z / 1000.0) * math.sin(z) ** 2, 0.0, focus=[1.0, 2.0, 3.0]
            )

    def test_nodes_that_round_to_one(self):
        # At this scale the subintervals next to u = 1 narrow to ~1e-16, where
        # a GK15 node rounds to u = 1 (z = inf) and counts 0; the map puts no
        # node where the mass lies, so the tolerance is missed.
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: math.exp(-z / 1e13) / 1e13, 0.0)
        # A focus point one ulp below u = 1 leaves a subinterval all of whose
        # nodes round to u = 1; counted as 0, it hid all but 7e-14 of the mass.
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: math.exp(-z / 1e16) / 1e16, 0.0, focus=[9e15])

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: math.nan if z > 2.0 else math.exp(-z), 0.0)


def _quadpack_oracle(f, lower: float, focus) -> float:
    """The same mapped integral by scipy's QUADPACK, at tighter tolerances."""

    def transformed(u):
        w = 1.0 - u
        return f(lower + u / w) / (w * w)

    points = None
    if focus:
        points = sorted({(z - lower) / (1.0 + z - lower) for z in focus if lower < z < math.inf})
    return scipy.integrate.quad(
        transformed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=500, points=points
    )[0]


# The five closed forms that integrate: (scheme, mode, K drawn from [low, high)).
_INTEGRATING_FORMS = (
    ("cj", "full", (1, 2)),  # sop_cj_single
    ("af", "full", (2, 12)),  # sop_af_multi
    ("af", "select-csi", (2, 12)),  # sop_af_select_csi
    ("af", "select-nocsi", (2, 12)),  # sop_af_select_nocsi
    ("cj", "select-nocsi", (2, 12)),  # sop_cj_select_nocsi
)


class TestClosedFormIntegrands:
    """integrate_semi_infinite against QUADPACK on each closed form's integrand."""

    @pytest.mark.parametrize("scheme,mode,k_range", _INTEGRATING_FORMS)
    def test_agrees_with_quadpack(self, scheme, mode, k_range, monkeypatch):
        seen = []

        def recording(f, lower, focus=None):
            value = integrate_semi_infinite(f, lower, focus)
            seen.append((f, lower, focus, value))
            return value

        monkeypatch.setattr(specfun, "integrate_semi_infinite", recording)
        rng = np.random.default_rng(2024)
        for _ in range(12):
            gab, gar, grb = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
            params = SystemParams(
                rho=10.0 ** rng.uniform(0.0, 4.0), k_antennas=int(rng.integers(*k_range)),
                rate=float(rng.uniform(0.1, 3.0)), scheme=SchemeId(Scheme(scheme), SelectionMode(mode)),
            )
            analytic.analytic_sop(LinkGains(gab, gar, grb), params)
        assert len(seen) == 12
        for f, lower, focus, value in seen:
            ref = _quadpack_oracle(f, lower, focus)
            assert abs(value - ref) <= max(specfun.ABS_TOL, specfun.REL_TOL * abs(ref)), (lower, focus)
