"""Closed-form outage expressions: identities, reductions, limits, oracles.

Expected values that are not algebraically trivial come from independent
oracles: a Beta-function resummation of the order-statistics sum, the
alternating order-statistics sums of the selection outages evaluated in
big-float arithmetic, single-expectation forms of the multi-antenna AF
outage, and light Monte Carlo cross-checks (the full-budget calibration
is the ``validate`` check that the acceptance suite runs at 10^6 trials).
"""

import itertools
import math
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SCHEMES
from relaysec import LinkGains, McConfig, PowerAllocation, SchemeId, SystemParams, db_to_linear
from relaysec import analytic, specfun
from relaysec.analytic import UnsupportedAnalytic, cj_phi, threshold_t
from relaysec.cli import main
from relaysec.model import FULL_POWER, Scheme, SelectionMode
from relaysec.montecarlo import estimate_sop
from relaysec.specfun import ConvergenceError

AF = SchemeId(Scheme.AF)
CJ = SchemeId(Scheme.CJ)
CJ_SEL_NOCSI = SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI)
EVERY_MODE = frozenset(SelectionMode)

# The variants each asymptotic limit describes: its scheme, and the modes it
# holds for at every K, or None where it holds at K = 1 only.
LIMIT_SPEC = {
    "dt_high_snr": (Scheme.DT, None),
    "af_high_snr": (Scheme.AF, None),
    "af_strong_second_hop": (Scheme.AF, None),
    "cj_strong_second_hop": (Scheme.CJ, None),
    "af_weak_second_hop": (Scheme.AF, None),
    "cj_high_snr": (Scheme.CJ, {SelectionMode.FULL_ARRAY}),
    "cj_select_nocsi_large_k": (Scheme.CJ, {SelectionMode.SELECT_NOCSI}),
    "dt_weak_first_hop": (Scheme.DT, EVERY_MODE),
    "af_weak_first_hop": (Scheme.AF, EVERY_MODE),
    "cj_weak_first_hop": (Scheme.CJ, EVERY_MODE),
    "cj_weak_second_hop": (Scheme.CJ, EVERY_MODE),
}


def limit_describes(which, params):
    limit_scheme, modes = LIMIT_SPEC[which]
    in_mode = params.k_antennas == 1 if modes is None else params.scheme.mode in modes
    return params.scheme.scheme is limit_scheme and in_mode


def has_closed_form(params):
    # CJ has no closed form on the full array or under selection with CSI.
    return params.k_antennas == 1 or params.scheme not in (
        SchemeId(Scheme.CJ), SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI)
    )


def assert_in_range(call, params):
    """``call()`` is a float in [0, 1], or it misses a quadrature tolerance."""
    try:
        value = call()
    except ConvergenceError:
        return
    assert isinstance(value, float) and 0.0 <= value <= 1.0, (value, params)


def assert_contract(gains, params):
    """The closed form and every limit of ``params``: a value in [0, 1], a
    refusal where the variant has none, or a missed quadrature tolerance."""
    calls = [(has_closed_form(params), partial(analytic.analytic_sop, gains, params))]
    calls += [(limit_describes(which, params), partial(analytic.limits, gains, params, which))
              for which in LIMIT_SPEC]
    for supported, call in calls:
        if supported:
            assert_in_range(call, params)
        else:
            with pytest.raises(UnsupportedAnalytic):
                call()


def cj_floor_quad_oracle(gains, params):
    """Full-array CJ high-SNR floor, 1 - T^{-(K-1)} E[(W/(W+d))^{K-1}], by QUADPACK.

    W is Erlang-K at unit scale and d = K (gamma_ar + gamma_rb) / gamma_rb;
    the expectation is split at the Erlang peak so QUADPACK cannot step over it.
    """
    k = params.k_antennas
    log_t = 2.0 * params.rate * math.log(2.0)
    d = k * (gains.gamma_ar + gains.gamma_rb) / gains.gamma_rb

    def f(w):
        return math.exp(
            (k - 1) * (2.0 * math.log(w) - math.log(w + d) - log_t) - w - math.lgamma(k)
        )

    head = scipy.integrate.quad(f, 0.0, k, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
    tail = scipy.integrate.quad(f, k, math.inf, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
    return 1.0 - (head + tail)


def dt_select_beta_oracle(gains, params):
    """Resummation of the best-antenna outage via the Beta function."""
    k = params.k_antennas
    two_r = 2.0 ** params.rate
    a = two_r * gains.gamma_ar / gains.gamma_ab
    expo = math.exp(-(two_r - 1.0) / (params.rho * gains.gamma_ab))
    return 1.0 - k * expo * scipy.special.beta(a + 1.0, k)


def af_multi_single_integral_oracle(gains, params):
    """Multi-antenna AF outage as one expectation over the beamforming fraction."""
    k = params.k_antennas
    rho = params.rho
    two2r = 2.0 ** (2.0 * params.rate)
    c = two2r - 1.0
    kappa = k * (gains.gamma_ar + 1.0 / rho)
    lognorm = -k * math.log(gains.gamma_rb) - math.lgamma(k)

    def integrand(s):
        v = s / (s + kappa)
        logpdf = lognorm + (k - 1) * math.log(s) - s / gains.gamma_rb
        return math.exp(logpdf) * (1.0 + (two2r - v) * gains.gamma_ar / gains.gamma_ab) ** (-k)

    ev = scipy.integrate.quad(
        lambda u: integrand(u / (1.0 - u)) / (1.0 - u) ** 2,
        0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200,
    )[0]
    return 1.0 - math.exp(-c / (rho * gains.gamma_ab)) * ev


def af_multi_mp_oracle(gains, params):
    """Multi-antenna AF outage as one big-float expectation over the
    Erlang-K second-hop gain, split at K + j*sqrt(K) so its peak is resolved."""
    k = params.k_antennas
    with mpmath.workdps(30):
        gab, gar, grb, rho = (
            mpmath.mpf(v) for v in (gains.gamma_ab, gains.gamma_ar, gains.gamma_rb, params.rho)
        )
        c = mpmath.mpf(2) ** (2 * mpmath.mpf(params.rate)) - 1
        m = k * (gar + 1 / rho)

        def integrand(w):
            log_pdf = (k - 1) * mpmath.log(w) - w - mpmath.loggamma(k)
            return mpmath.exp(log_pdf - k * mpmath.log1p(gar * (c + m / (grb * w + m)) / gab))

        edges = [k + j * mpmath.sqrt(k) for j in range(-8, 9)]
        ev = mpmath.quad(integrand, [0] + [x for x in edges if x > 0] + [mpmath.inf])
        return float(1 - mpmath.exp(-c / (rho * gab)) * ev)


def cj_single_mp_oracle(gains, params):
    """SOP = 1 - (1/gamma_rb) int_t^inf exp(-c/(gamma_ar phi(z)) - z/gamma_rb) dz at 30 digits,
    written as the outage below t plus the outage above it, with breakpoints
    spread over the transition layer just above t."""
    with mpmath.workdps(30):
        gar, grb, rho = (mpmath.mpf(v) for v in (gains.gamma_ar, gains.gamma_rb, params.rho))
        two2r = mpmath.mpf(2) ** (2 * mpmath.mpf(params.rate))
        c = two2r - 1
        s = gar + grb + 1 / rho
        t = (c + mpmath.sqrt(c * c + 4 * rho * two2r * s)) / (2 * rho)

        def integrand(x):
            z = grb * x
            phi = rho * z / (z + s) - two2r / (z + 1 / rho)
            if phi <= 0:  # at t itself, up to rounding
                return mpmath.exp(-x)
            return -mpmath.expm1(-c / (gar * phi)) * mpmath.exp(-x)

        x0 = t / grb
        edges = [x0 + mpmath.mpf(10) ** j for j in range(-14, 3)]
        return float(-mpmath.expm1(-x0) + mpmath.quad(integrand, [x0, *edges, mpmath.inf]))


def _sum_digits(k):
    # The alternating sums cancel like C(K-1, K/2)^2 ~ 4^K: 0.6*K digits.
    return int(0.6 * k) + 30


def dt_select_sum_oracle(gains, params):
    """Best-antenna DT outage as the order-statistics alternating sum."""
    k = params.k_antennas
    with mpmath.workdps(_sum_digits(k)):
        gab, gar = mpmath.mpf(gains.gamma_ab), mpmath.mpf(gains.gamma_ar)
        two_r = mpmath.mpf(2) ** mpmath.mpf(params.rate)
        total = mpmath.fsum(
            mpmath.binomial(k - 1, n) * (-1) ** n * gab / (two_r * gar + gab * (n + 1))
            for n in range(k)
        )
        return float(1 - k * mpmath.exp(-(two_r - 1) / (params.rho * gab)) * total)


def _ei_bracket_mp(mu, beta, q):
    x = mu * beta * q
    return 1 / mpmath.mpf(q) + mu * (beta - 1) * mpmath.exp(x) * mpmath.ei(-x)


def af_select_sum_oracle(gains, params, csi):
    """AF selection outage as the order-statistics alternating sums.

    A single sum without second-hop CSI, a double one with it.  Both
    indices run 0..K-1 so the K = 1 case collapses to the single-antenna
    expression (the 1-based range sometimes quoted for the double sum
    drops the leading term and contradicts that reduction).
    """
    k = params.k_antennas
    with mpmath.workdps(_sum_digits(k)):
        gab, gar, grb, rho = (
            mpmath.mpf(v) for v in (gains.gamma_ab, gains.gamma_ar, gains.gamma_rb, params.rho)
        )
        two2r = mpmath.mpf(2) ** (2 * mpmath.mpf(params.rate))
        c = two2r - 1
        mu = (gar + 1 / rho) / grb
        total = mpmath.mpf(0)
        for n in range(k):
            den = c * gar + gab * (n + 1)
            beta_n = (two2r * gar + gab * (n + 1)) / den
            if csi:
                bracket = k * mpmath.fsum(
                    mpmath.binomial(k - 1, m) * (-1) ** m * _ei_bracket_mp(mu, beta_n, m + 1)
                    for m in range(k)
                )
            else:
                bracket = _ei_bracket_mp(mu, beta_n, 1)
            total += mpmath.binomial(k - 1, n) * (-1) ** n * gab * bracket / den
        return float(1 - k * mpmath.exp(-c / (rho * gab)) * total)


def cj_select_nocsi_mp_oracle(gains, params):
    """SOP = 1 - e^{-t/gamma_rb} + (1/gamma_rb) int_t^inf (1 - e^{-c/(gamma_ar phi(z))})^K e^{-z/gamma_rb} dz
    at 40 digits, in z itself, with breakpoints every three decades above t.
    The integral stops at t + 120 gamma_rb, where e^{-120} leaves nothing at 40 digits."""
    with mpmath.workdps(40):
        gar, grb, rho = (mpmath.mpf(v) for v in (gains.gamma_ar, gains.gamma_rb, params.rho))
        two2r = mpmath.mpf(2) ** (2 * mpmath.mpf(params.rate))
        c = two2r - 1
        s = gar + grb + 1 / rho
        t = (c + mpmath.sqrt(c * c + 4 * rho * two2r * s)) / (2 * rho)

        def integrand(z):
            phi = rho * z / (z + s) - two2r / (z + 1 / rho)
            if phi <= 0:  # at t itself, up to rounding
                return mpmath.mpf(0)
            return mpmath.exp(params.k_antennas * mpmath.log(-mpmath.expm1(-c / (gar * phi))) - z / grb)

        edges = [t + mpmath.mpf(10) ** j for j in range(-14, int(mpmath.ceil(mpmath.log10(grb))), 3)]
        return float(-mpmath.expm1(-t / grb) + mpmath.quad(integrand, [t, *edges, t + 120 * grb]) / grb)


def strong_second_hop_settings(n, seed):
    """Selection-CJ settings with a second hop of 90-200 dB, whose decay
    length in z lies far beyond the last node of a unit-scale quadrature map."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gains_db = (rng.uniform(0.0, 60.0), rng.uniform(-10.0, 30.0), rng.uniform(90.0, 200.0))
        rho, rate = db_to_linear(rng.uniform(30.0, 120.0)), float(rng.uniform(0.05, 12.0))
        params = SystemParams(rho=rho, rate=rate, k_antennas=int(rng.choice([2, 8, 64])), scheme=CJ_SEL_NOCSI)
        yield LinkGains(*(db_to_linear(v) for v in gains_db)), params


def weak_second_hop_settings(n, seed):
    """Selection-CJ settings with a second hop of 1e-10 to 0.3, a first hop
    within three decades of it, and rho within a decade of
    (gamma_ar + gamma_rb) / gamma_rb^2, where the threshold t is of the
    order of gamma_rb, so both terms of the outage count."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        grb = float(10.0 ** rng.uniform(-10.0, math.log10(0.3)))
        gar = grb * float(10.0 ** rng.uniform(-3.0, 3.0))
        rho = (gar + grb) / grb ** 2 * float(10.0 ** rng.uniform(-1.0, 1.0))
        gains = LinkGains(db_to_linear(rng.uniform(-10.0, 30.0)), gar, grb)
        params = SystemParams(rho=rho, rate=float(rng.uniform(0.05, 4.0)),
                              k_antennas=int(rng.choice([1, 2, 8, 64])), scheme=CJ_SEL_NOCSI)
        yield gains, params


def random_settings(n, seed, k_max=1):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-10.0, 10.0, 3)))
        rho = db_to_linear(rng.uniform(0.0, 30.0))
        k = int(rng.integers(1, k_max + 1))
        yield gains, SystemParams(rho=rho, rate=0.1, k_antennas=k)


def large_array_settings(seed, ks):
    """One point per K with a weak eavesdropping link, so large arrays
    leave the outage well inside (0, 1) instead of saturating it."""
    rng = np.random.default_rng(seed)
    for k in ks:
        gains = LinkGains(
            db_to_linear(rng.uniform(0.0, 10.0)),
            db_to_linear(rng.uniform(-20.0, -5.0)),
            db_to_linear(rng.uniform(-10.0, 10.0)),
        )
        rho = db_to_linear(rng.uniform(0.0, 30.0))
        yield gains, SystemParams(rho=rho, rate=float(rng.uniform(0.0, 1.5)), k_antennas=k)


class TestPositiveSecrecyDirect:
    def test_symmetric_gains(self):
        assert analytic.p_pos_dt(LinkGains(1.0, 1.0, 1.0)) == pytest.approx(0.5)

    def test_three_to_one(self):
        assert analytic.p_pos_dt(LinkGains(3.0, 1.0, 1.0)) == pytest.approx(0.75)

    def test_strong_eavesdropper_kills_secrecy(self):
        assert analytic.p_pos_dt(LinkGains(1.0, 1e12, 1.0)) < 1e-11


class TestDirectTransmission:
    def test_zero_rate_complement(self):
        for gains, params in random_settings(20, seed=1):
            p0 = SystemParams(rho=params.rho, rate=0.0)
            assert analytic.sop_dt_single(gains, p0) == pytest.approx(
                1.0 - analytic.p_pos_dt(gains), abs=1e-9
            )

    def test_high_snr_limit(self, fig1_gains):
        params = SystemParams(rho=db_to_linear(80.0), rate=0.1)
        assert analytic.sop_dt_single(fig1_gains, params) == pytest.approx(
            analytic.limits(fig1_gains, params, "dt_high_snr"), abs=1e-6
        )

    def test_gain_monotonicity(self):
        base = LinkGains(1.0, 1.0, 1.0)
        params = SystemParams(rho=10.0, rate=0.1)
        up_ar = LinkGains(1.0, 2.0, 1.0)
        up_ab = LinkGains(2.0, 1.0, 1.0)
        v = analytic.sop_dt_single(base, params)
        assert analytic.sop_dt_single(up_ar, params) > v
        assert analytic.sop_dt_single(up_ab, params) < v


class TestAmplifyForwardSingle:
    def test_zero_rate_complement(self):
        for gains, params in random_settings(20, seed=2):
            p0 = SystemParams(rho=params.rho, rate=0.0)
            assert analytic.sop_af_single(gains, p0) == pytest.approx(
                1.0 - analytic.p_pos_af(gains, p0), abs=1e-9
            )

    def test_p_pos_perfect_relay_link(self):
        gains = LinkGains(1.0, 1.0, 1e9)
        assert analytic.p_pos_af(gains, SystemParams(rho=10.0)) == pytest.approx(1.0, abs=1e-6)

    def test_strong_second_hop_limit(self):
        gains = LinkGains(2.0, 1.0, 1e7)
        params = SystemParams(rho=db_to_linear(15.0), rate=0.1, scheme=AF)
        assert analytic.sop_af_single(gains, params) == pytest.approx(
            analytic.limits(gains, params, "af_strong_second_hop"), abs=1e-5
        )


class TestCooperativeJammingSingle:
    def test_p_pos_high_snr(self):
        gains = LinkGains(1.0, 1.0, 2.0)
        assert analytic.p_pos_cj(gains, SystemParams(rho=1e12)) == pytest.approx(1.0, abs=1e-5)

    def test_p_pos_dead_second_hop(self):
        gains = LinkGains(1.0, 1.0, 1e-9)
        assert analytic.p_pos_cj(gains, SystemParams(rho=10.0)) < 1e-12

    def test_p_pos_monotone_in_second_hop(self):
        params = SystemParams(rho=10.0)
        vals = [
            analytic.p_pos_cj(LinkGains(1.0, 1.0, g), params) for g in (0.5, 2.0, 8.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_zero_rate_complement(self):
        for gains, params in random_settings(20, seed=3):
            p0 = SystemParams(rho=params.rho, rate=0.0)
            assert analytic.sop_cj_single(gains, p0) == pytest.approx(
                1.0 - analytic.p_pos_cj(gains, p0), abs=1e-9
            )

    def test_uncorrected_threshold_breaks_complement(self, fig1_gains):
        # At zero rate the outage is -expm1(-t/gamma_rb), and the paper's
        # root constant gives t = sqrt(s/(2 rho)), s = gamma_ar + gamma_rb + 1/rho.
        p0 = SystemParams(rho=db_to_linear(10.0), rate=0.0)
        s = fig1_gains.gamma_ar + fig1_gains.gamma_rb + 1.0 / p0.rho
        wrong = -math.expm1(-math.sqrt(s / (2.0 * p0.rho)) / fig1_gains.gamma_rb)
        assert abs(wrong - (1.0 - analytic.p_pos_cj(fig1_gains, p0))) > 0.01

    def test_dead_first_hop_outage(self):
        gains = LinkGains(1.0, 1e-9, 2.0)
        assert analytic.sop_cj_single(gains, SystemParams(rho=100.0, rate=0.1)) > 0.999

    @pytest.mark.parametrize("gains,params", [
        # The quadrature used to miss its tolerance here ...
        (LinkGains(db_to_linear(6.73), db_to_linear(-19.36), db_to_linear(39.34)),
         SystemParams(rho=db_to_linear(30.88), rate=2.73)),
        # ... and to return 0.9999999999999963 here.
        (LinkGains(2.62725080291109, 0.004700426752389981, 9076.248522928032),
         SystemParams(rho=12852.793729980967, rate=3.7461742073609883)),
    ], ids=["raised", "wrong"])
    def test_strong_second_hop_points(self, gains, params):
        assert analytic.sop_cj_single(gains, params) == pytest.approx(
            cj_single_mp_oracle(gains, params), abs=1e-10
        )

    def test_matches_mp_oracle_over_the_domain(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-40.0, 40.0, 3)))
            params = SystemParams(rho=db_to_linear(rng.uniform(-10.0, 60.0)), rate=float(rng.uniform(0.0, 4.0)))
            assert analytic.sop_cj_single(gains, params) == pytest.approx(
                cj_single_mp_oracle(gains, params), abs=1e-8
            )


class TestMultiAntennaDirect:
    def test_large_array_saturates(self, fig6_gains):
        params = SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=100)
        assert analytic.sop_dt_multi(fig6_gains, params) > 1.0 - 1e-6

    def test_monotone_in_k(self, fig6_gains):
        vals = [
            analytic.sop_dt_multi(fig6_gains, SystemParams(rho=1000.0, rate=0.1, k_antennas=k))
            for k in range(1, 9)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMultiAntennaAmplifyForward:
    def test_single_antenna_reduction(self):
        for gains, params in random_settings(6, seed=5):
            assert analytic.sop_af_multi(gains, params) == pytest.approx(
                analytic.sop_af_single(gains, params), abs=1e-6
            )

    def test_grows_with_array_size(self, fig6_gains):
        params2 = SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=2)
        params16 = SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=16)
        assert analytic.sop_af_multi(fig6_gains, params16) >= analytic.sop_af_multi(
            fig6_gains, params2
        )

    def test_single_integral_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-8.0, 8.0, 3)))
            params = SystemParams(
                rho=db_to_linear(rng.uniform(0.0, 30.0)),
                rate=float(rng.uniform(0.0, 1.0)),
                k_antennas=int(rng.integers(1, 9)),
            )
            assert analytic.sop_af_multi(gains, params) == pytest.approx(
                af_multi_single_integral_oracle(gains, params), abs=1e-9
            )


class TestSelectionDirect:
    def test_single_antenna_reduction(self):
        for gains, params in random_settings(10, seed=7):
            assert analytic.sop_dt_select(gains, params) == pytest.approx(
                analytic.sop_dt_single(gains, params), abs=1e-12
            )

    def test_beta_function_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-10.0, 10.0, 3)))
            params = SystemParams(
                rho=db_to_linear(rng.uniform(0.0, 30.0)),
                rate=float(rng.uniform(0.0, 1.5)),
                k_antennas=int(rng.integers(1, 9)),
            )
            assert analytic.sop_dt_select(gains, params) == pytest.approx(
                dt_select_beta_oracle(gains, params), abs=1e-12
            )

    def test_nondecreasing_in_k(self, fig7_gains):
        vals = [
            analytic.sop_dt_select(fig7_gains, SystemParams(rho=100.0, rate=0.1, k_antennas=k))
            for k in (1, 2, 4, 8)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_alternating_sum_oracle(self):
        for gains, params in large_array_settings(12, (2, 8, 24, 64)):
            assert analytic.sop_dt_select(gains, params) == pytest.approx(
                dt_select_sum_oracle(gains, params), abs=1e-12
            )

    def test_extended_precision_path_continuous(self, fig7_gains):
        v20 = analytic.sop_dt_select(fig7_gains, SystemParams(rho=100.0, rate=0.1, k_antennas=20))
        v21 = analytic.sop_dt_select(fig7_gains, SystemParams(rho=100.0, rate=0.1, k_antennas=21))
        assert 0.0 <= v20 <= v21 <= 1.0
        assert v21 - v20 < 0.02


class TestSelectionAmplifyForward:
    def test_single_antenna_reductions(self):
        for gains, params in random_settings(10, seed=9):
            af1 = analytic.sop_af_single(gains, params)
            assert analytic.sop_af_select_csi(gains, params) == pytest.approx(af1, abs=1e-9)
            assert analytic.sop_af_select_nocsi(gains, params) == pytest.approx(af1, abs=1e-9)

    def test_missing_csi_never_helps(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-8.0, 8.0, 3)))
            params = SystemParams(
                rho=db_to_linear(rng.uniform(0.0, 30.0)),
                rate=float(rng.uniform(0.0, 1.0)),
                k_antennas=int(rng.integers(2, 9)),
            )
            with_csi = analytic.sop_af_select_csi(gains, params)
            without = analytic.sop_af_select_nocsi(gains, params)
            assert without >= with_csi - 1e-9

    def test_alternating_sum_oracles(self):
        for gains, params in large_array_settings(14, (2, 8, 24, 64)):
            assert analytic.sop_af_select_nocsi(gains, params) == pytest.approx(
                af_select_sum_oracle(gains, params, csi=False), abs=1e-9
            )
            if params.k_antennas <= 24:  # the double sum costs ~1 s at K = 64
                assert analytic.sop_af_select_csi(gains, params) == pytest.approx(
                    af_select_sum_oracle(gains, params, csi=True), abs=1e-9
                )

    def test_extended_precision_path_against_montecarlo(self, fig6_gains):
        params = SystemParams(
            rho=db_to_linear(10.0), rate=0.1, k_antennas=24,
            scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_CSI),
        )
        closed = analytic.sop_af_select_csi(fig6_gains, params)
        sim = estimate_sop(fig6_gains, params, McConfig(trials=150_000, seed=77))
        assert abs(closed - sim.value) < max(4.0 * sim.stderr, 0.005)


class TestSelectionCooperativeJamming:
    def test_level_crossing_solves_phi(self):
        # The focus points of the selection integrand sit where phi(z) = y,
        # y = c / (gamma_ar x*), at or above the threshold t.  Both terms of
        # phi are below rho there, so phi itself is good to a few eps * rho.
        # First hops near 2^{2R}, up to 1e160, keep y near rho, so half the
        # draws cross at rates above 256, where the square of the
        # quadratic's linear coefficient overflows.
        rng = np.random.default_rng(5)
        crossed = high = 0
        for i in range(600):
            rate = float(rng.uniform(0.01, 512.0) if i % 2 else rng.uniform(256.0, 266.0))
            gab, scale, grb = (float(10.0 ** v) for v in rng.uniform(-4.0, 4.0, 3))
            gains = LinkGains(gab, min(1e156, 4.0 ** rate) * scale, grb)
            params = SystemParams(rho=float(10.0 ** rng.uniform(-1.0, 6.0)), rate=rate, k_antennas=8)
            t, phi = threshold_t(gains, params), cj_phi(gains, params)
            c = 2.0 ** (2.0 * params.rate) - 1.0
            for target_x in (4.0 * (1.0 + math.log(8)), 1.0, 0.05):
                y = c / (gains.gamma_ar * target_x)
                root = threshold_t(gains, params, y)
                if y >= params.rho:
                    assert root == math.inf
                    continue
                crossed += 1
                high += params.rate > 256.0
                # Far outside the paper's range the crossing rounds to t itself.
                assert t <= root < math.inf
                assert abs(phi(root / gains.gamma_rb) - y) <= 1e-12 * params.rho
        assert crossed > 800 and high > 400

    def test_mass_below_threshold_keeps_its_digits(self):
        # At zero rate the outage is the mass below t, 1e-10 here, which
        # 1 - exp(-t / gamma_rb) gave as 1.000000083e-10.
        gains = LinkGains(1.0, 1.0, 1e20)
        params = SystemParams(rho=1.0, rate=0.0, k_antennas=4, scheme=CJ_SEL_NOCSI)
        with mpmath.workdps(40):
            s = mpmath.mpf(2) + mpmath.mpf(1e20)
            exact = float(-mpmath.expm1(-(mpmath.sqrt(4 * s) / 2) / mpmath.mpf(1e20)))
        assert analytic.sop_cj_select_nocsi(gains, params) == pytest.approx(exact, rel=1e-12, abs=0.0)
        floor = analytic.limits(gains, params, "cj_select_nocsi_large_k")
        assert floor == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_strong_second_hop_misses_no_mass(self):
        # Most of the outage lies beyond z ~ 1e16, where the quadrature's map
        # has no node; counting a subinterval whose every node rounds to
        # u = 1 as 0 returned 0.0011513.  The reference is a 40-digit mpmath
        # quadrature in z (10^6 trials give 0.001373 +- 0.000037).
        gains = LinkGains(*(db_to_linear(v) for v in (59.24, -3.77, 182.85)))
        params = SystemParams(rho=db_to_linear(85.25), rate=9.37, k_antennas=8, scheme=CJ_SEL_NOCSI)
        assert analytic.sop_cj_select_nocsi(gains, params) == pytest.approx(0.00140039763954897, rel=1e-6)

    def test_second_hops_at_both_ends_meet_the_tolerance(self):
        # Integrated in z, the first two points returned 0.00295 and 0.00631.
        # Integrated in units of max(1, gamma_rb), the next four returned
        # 0.9280969964, 0.999956134758, 0.002378228166 and 0.003516497956: a
        # second hop below 1 decayed faster than the quadrature's unit scale,
        # and the last two lost mass on a layer no focus point marked.  None
        # raised.  Each setting must return a value within the quadrature's
        # tolerance of the oracle.
        pinned = [
            (LinkGains(*(db_to_linear(v) for v in gains_db)),
             SystemParams(rho=db_to_linear(rho_db), rate=rate, k_antennas=k, scheme=CJ_SEL_NOCSI))
            for gains_db, rho_db, rate, k in (((43.08, 19.55, 137.11), 32.79, 10.39, 8),
                                              ((30.03, 9.89, 169.50), 83.64, 13.13, 64),
                                              ((2.42, -35.38, -36.92), 35.50, 0.057, 8),
                                              ((-2.43, -11.71, -42.86), 54.99, 0.166, 1),
                                              ((38.42, 33.20, 21.66), 50.13, 1.244, 2),
                                              ((8.74, 19.46, 5.42), 58.79, 0.156, 2))
        ]
        for gains, params in [*pinned, *strong_second_hop_settings(10, seed=0),
                              *weak_second_hop_settings(8, seed=1)]:
            exact = cj_select_nocsi_mp_oracle(gains, params)
            value = analytic.sop_cj_select_nocsi(gains, params)
            assert abs(value - exact) <= max(specfun.ABS_TOL, specfun.REL_TOL * exact), (gains, params, value, exact)

    def test_large_k_floor(self, fig6_gains):
        params = SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=64, scheme=CJ_SEL_NOCSI)
        floor = analytic.limits(fig6_gains, params, "cj_select_nocsi_large_k")
        assert abs(analytic.sop_cj_select_nocsi(fig6_gains, params) - floor) < 0.01

    def test_nonincreasing_in_k(self, fig6_gains):
        vals = [
            analytic.sop_cj_select_nocsi(
                fig6_gains, SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=k)
            )
            for k in (1, 2, 4, 8, 16)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestLargeArrays:
    def test_forms_stay_in_range_beyond_64(self, fig7_gains):
        for k in (65, 1024):
            params = SystemParams(rho=100.0, rate=0.1, k_antennas=k)
            for fn in (
                analytic.sop_dt_select,
                analytic.sop_af_multi,
                analytic.sop_af_select_csi,
                analytic.sop_af_select_nocsi,
                analytic.sop_cj_select_nocsi,
            ):
                value = fn(fig7_gains, params)
                assert math.isfinite(value) and 0.0 <= value <= 1.0, (fn.__name__, k)

    def test_seeded_domain_stays_in_range(self):
        forms = (
            analytic.sop_dt_multi,
            analytic.sop_dt_select,
            analytic.sop_af_multi,
            analytic.sop_af_select_csi,
            analytic.sop_af_select_nocsi,
            analytic.sop_cj_select_nocsi,
        )
        rng = np.random.default_rng(2026)
        for i in range(3000):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-40.0, 40.0, 3)))
            params = SystemParams(
                rho=db_to_linear(rng.uniform(-10.0, 60.0)),
                rate=float(rng.uniform(0.0, 4.0)),
                k_antennas=int(round(math.exp(rng.uniform(math.log(2), math.log(1024))))),
            )
            fn = forms[i % len(forms)]
            value = fn(gains, params)
            assert math.isfinite(value) and 0.0 <= value <= 1.0, (fn.__name__, gains, params)

    def test_af_multi_resolves_the_erlang_peak(self):
        # An unanchored quadrature steps over the peak at W ~ K and returns 1.
        gains = LinkGains(db_to_linear(20.0), db_to_linear(-10.0), db_to_linear(5.0))
        params = SystemParams(rho=db_to_linear(20.0), rate=0.1, k_antennas=1024)
        assert analytic.sop_af_multi(gains, params) == pytest.approx(
            af_multi_mp_oracle(gains, params), abs=1e-8
        )


class TestRegressionPoints:
    """Points where the alternating-sum forms failed: a quadrature that did
    not converge, and float64 coefficients amplified by the cancellation."""

    @staticmethod
    def _point(k, gains_db, rho_db, rate):
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        return gains, SystemParams(rho=db_to_linear(rho_db), rate=rate, k_antennas=k)

    def test_af_multi_converges(self):
        gains, params = self._point(8, (5.9, 35.0, -25.4), 48.9, 0.0)
        assert analytic.sop_af_multi(gains, params) == pytest.approx(
            af_multi_mp_oracle(gains, params), abs=1e-8
        )

    def test_af_select_csi_k62(self):
        gains, params = self._point(62, (35.06, 14.35, 4.13), 34.27, 2.797)
        assert analytic.sop_af_select_csi(gains, params) == pytest.approx(
            af_select_sum_oracle(gains, params, csi=True), abs=1e-8
        )

    @pytest.mark.parametrize("k", [1, 2, 6, 64, 1024])
    def test_selection_transform_keeps_its_digits_for_large_arguments(self, k):
        # lgamma(1 + s) - lgamma(K + 1 + s) kept no digit by s ~ 1e17, where
        # it read 0 (a transform of K!), and overflowed near s ~ 1e306.
        log_laplace = analytic._log_laplace_max(k)
        for s in (1e-3, 0.5, 99.9, 100.0, 1e4, 1e10, 1e17, 1e100, 1e306, 1.7e308):
            with mpmath.workdps(30):
                exact = mpmath.loggamma(k + 1) - mpmath.fsum(
                    mpmath.log(s) + mpmath.log1p(mpmath.mpf(i) / s) for i in range(1, k + 1)
                )
            assert log_laplace(s) == pytest.approx(float(exact), rel=1e-13, abs=1e-11), s
        assert log_laplace(math.inf) == -math.inf

    def test_dt_select_where_lgamma_lost_its_digits(self):
        # The transform's argument is 1e17 and the direct link leaves
        # e^{-5} of the outage in play; the lgamma difference gave 0.99334.
        gains, params = self._point(2, (-107.0, 60.0, 5.0), 100.0, 1.0)
        assert analytic.sop_dt_select(gains, params) == pytest.approx(
            dt_select_sum_oracle(gains, params), abs=1e-12
        )

    @pytest.mark.parametrize("form,k,rho_db", [
        ("sop_dt_multi", 2, 200.0), ("dt_weak_first_hop", 1, 200.0),
        ("af_weak_first_hop", 1, 200.0), ("dt_high_snr", 1, 20.0),
    ])
    def test_tiny_outages_keep_their_digits(self, form, k, rho_db):
        # A first hop of -200 dB leaves outages near 1e-20, which one minus a
        # number close to one rounded to 0.
        gains, params = self._point(k, (0.0, -200.0, 0.0), rho_db, 0.1)
        scheme = Scheme.AF if form.startswith("af") else Scheme.DT
        params = replace(params, scheme=SchemeId(scheme))
        value = analytic.sop_dt_multi(gains, params) if k > 1 else analytic.limits(gains, params, form)
        with mpmath.workdps(40):
            gab, gar, rho = (mpmath.mpf(v) for v in (gains.gamma_ab, gains.gamma_ar, params.rho))
            two_r = mpmath.mpf(2) ** mpmath.mpf(params.rate)
            exact = {
                "sop_dt_multi": 1 - mpmath.exp(-(two_r - 1) / (rho * gab)) * (1 + two_r * gar / gab) ** -k,
                "dt_weak_first_hop": -mpmath.expm1(-(two_r - 1) / (rho * gab)),
                "af_weak_first_hop": -mpmath.expm1(-(two_r ** 2 - 1) / (rho * gab)),
                "dt_high_snr": two_r * gar / (two_r * gar + gab),
            }[form]
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grb_db", [3070.0, 3080.0, 3082.5])
    @pytest.mark.parametrize("form,k", [("sop_cj_single", 1), ("sop_cj_select_nocsi", 4)])
    def test_cj_at_the_top_of_the_float_range(self, form, k, grb_db):
        # From gamma_rb = 1e307 on, rho z and z + s overflow inside the
        # integral, where phi(z) read inf or inf / inf, then gamma_rb x
        # itself, and the threshold's y s and s / (rho - y); the outage is
        # the one at gamma_rb = 1e300 up to terms of order 1 / gamma_rb.
        for rho_db in (-3.0, 20.0, 40.0):
            params = SystemParams(rho=db_to_linear(rho_db), k_antennas=k)
            top, reference = (getattr(analytic, form)(LinkGains(1.0, 1.0, db_to_linear(db)), params)
                              for db in (grb_db, 3000.0))
            assert top == pytest.approx(reference, abs=2.0 * max(specfun.ABS_TOL, specfun.REL_TOL * reference)), rho_db

    @pytest.mark.parametrize("form,k,expected", [
        ("sop_cj_single", 1, 3.8151960855643543e-10),
        ("sop_cj_select_nocsi", 4, 1.0105482649203523e-11),
    ])
    def test_cj_takes_numpy_scalars_at_the_top_of_the_float_range(self, form, k, expected):
        # The threshold's first root overflows to inf and falls back to its
        # form in units of s; numpy scalars would warn there (an error under
        # the suite's filters), so the types store Python floats.
        gains = LinkGains(1.0, 1.0, np.float64(1e308))
        params = SystemParams(rho=np.float64(1e10), k_antennas=k)
        assert all(type(v) is float for v in (gains.gamma_ab, gains.gamma_ar, gains.gamma_rb, params.rho))
        assert getattr(analytic, form)(gains, params) == expected

    def test_af_select_nocsi_k58(self):
        gains, params = self._point(58, (16.38, 14.36, -30.81), 55.72, 3.754)
        assert analytic.sop_af_select_nocsi(gains, params) == pytest.approx(
            af_select_sum_oracle(gains, params, csi=False), abs=1e-8
        )


class TestLimits:
    def test_cj_high_snr_is_zero(self, fig1_gains, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("K = 1 needs no integral")

        monkeypatch.setattr(analytic.specfun, "integrate_semi_infinite", no_quadrature)
        assert analytic.limits(fig1_gains, SystemParams(rho=1.0, scheme=CJ), "cj_high_snr") == 0.0
        extreme = LinkGains(1.0, db_to_linear(40.0), db_to_linear(-40.0))
        params = SystemParams(rho=1.0, rate=4.0, scheme=CJ)
        assert analytic.limits(extreme, params, "cj_high_snr") == 0.0

    def test_af_high_snr_matches_exact(self, fig1_gains):
        params = SystemParams(rho=db_to_linear(80.0), rate=0.1, scheme=AF)
        lim = analytic.limits(fig1_gains, params, "af_high_snr")
        assert analytic.sop_af_single(fig1_gains, params) == pytest.approx(lim, abs=1e-5)

    def test_af_high_snr_printed_variant_differs(self, fig1_gains):
        params = SystemParams(rho=db_to_linear(50.0), rate=0.1, scheme=AF)
        lim = analytic.limits(fig1_gains, params, "af_high_snr")
        # The paper puts beta1 in place of beta2 in the bracket.
        gab, gar, grb = fig1_gains.gamma_ab, fig1_gains.gamma_ar, fig1_gains.gamma_rb
        c = 2.0 ** (2.0 * params.rate) - 1.0
        beta1 = 1.0 + gar / gab
        printed = 1.0 - gab / (c * gar + gab) * analytic._ei_bracket(gar / grb, beta1)
        assert abs(printed - lim) > 0.01  # the as-printed coefficient is inconsistent

    def test_strong_second_hop_bessel(self):
        gains_far = LinkGains(db_to_linear(5.0), 1.0, db_to_linear(40.0))
        params = SystemParams(rho=db_to_linear(15.0), rate=0.1, scheme=CJ)
        lim = analytic.limits(gains_far, params, "cj_strong_second_hop")
        assert abs(analytic.sop_cj_single(gains_far, params) - lim) < 0.01

    def test_strong_second_hop_at_zero_rate_is_zero(self, fig1_gains):
        # x = sqrt(4c/(rho gar)) is 0 at zero rate, where x K1(x) -> 1.
        params = SystemParams(rho=db_to_linear(10.0), rate=0.0, scheme=CJ)
        assert analytic.limits(fig1_gains, params, "cj_strong_second_hop") == 0.0
        near = SystemParams(rho=db_to_linear(10.0), rate=1e-9, scheme=CJ)
        assert analytic.limits(fig1_gains, near, "cj_strong_second_hop") == pytest.approx(0.0, abs=1e-6)

    def test_weak_first_hop_ordering(self):
        gains = LinkGains(1.0, 1e-6, db_to_linear(5.0))
        for rate in (0.05, 0.1, 0.5, 1.0):
            params = SystemParams(rho=db_to_linear(20.0), rate=rate)
            dt = analytic.limits(gains, params, "dt_weak_first_hop")
            af = analytic.limits(gains, replace(params, scheme=AF), "af_weak_first_hop")
            assert dt <= af

    def test_degenerate_limits(self, fig1_gains):
        params = SystemParams(rho=10.0, rate=0.1, scheme=CJ)
        assert analytic.limits(fig1_gains, params, "cj_weak_second_hop") == 1.0
        assert analytic.limits(fig1_gains, params, "cj_weak_first_hop") == 1.0

    def test_unknown_selector(self, fig1_gains):
        with pytest.raises(ValueError):
            analytic.limits(fig1_gains, SystemParams(rho=1.0), "nonsense")

    def test_cj_multi_high_snr_is_an_unknown_selector(self, fig6_gains, capsys):
        # cj_high_snr covers every K, so the separate full-array selector is gone.
        params = SystemParams(rho=1.0, rate=0.1, k_antennas=2)
        with pytest.raises(ValueError, match="known: dt_high_snr, .*cj_high_snr, "):
            analytic.limits(fig6_gains, params, "cj_multi_high_snr")
        argv = ["point", "--scheme", "cj", "--k", "2", "--method", "asymptotic",
                "--limit", "cj_multi_high_snr"]
        assert main(argv) == 3
        assert "unsupported limit selector 'cj_multi_high_snr'" in capsys.readouterr().err

    def test_cj_multi_high_snr_matches_exact_at_large_snr(self, fig6_gains):
        mc = McConfig(trials=150_000, seed=13)
        params = SystemParams(
            rho=db_to_linear(60.0), rate=0.1, k_antennas=2, scheme=SchemeId(Scheme.CJ)
        )
        const = analytic.limits(fig6_gains, params, "cj_high_snr")
        exact = estimate_sop(fig6_gains, params, mc)
        assert abs(const - exact.value) < max(6.0 * exact.stderr, 0.005)

    @pytest.mark.parametrize("k", [2, 3, 6, 64, 1024])
    def test_cj_high_snr_floor_matches_quadpack(self, k):
        for gains_db, rate in (((5.0, 0.0, 10.0), 0.1), ((0.0, 20.0, -10.0), 0.0),
                               ((0.0, -20.0, 30.0), 0.0), ((-5.0, 3.0, 1.0), 1.45)):
            gains = LinkGains(*(db_to_linear(v) for v in gains_db))
            params = SystemParams(rho=db_to_linear(60.0), rate=rate, k_antennas=k, scheme=CJ)
            floor = analytic.limits(gains, params, "cj_high_snr")
            assert floor == pytest.approx(cj_floor_quad_oracle(gains, params), rel=1e-9, abs=0.0)


    def test_selectors_are_the_specified_ones(self):
        assert set(analytic.LIMIT_VARIANTS) == set(LIMIT_SPEC)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        k=st.integers(2, 1024),
        gains_db=st.tuples(*[st.floats(-40.0, 40.0)] * 3),
        rho_db=st.floats(-10.0, 60.0),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.floats(0.0, 512.0, exclude_max=True)),
    )
    # sqrt(4c / (rho gamma_ar)) overflowed, and K1 at inf did not converge.
    @example(k=2, gains_db=(0.0, 0.0, 0.0), rho_db=0.0, rate=511.0)
    def test_in_range_or_unsupported_as_specified(self, k, gains_db, rho_db, rate):
        # Every selector on every variant, at K = 1 and at a drawn K > 1.
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        for scheme, k_antennas in itertools.product(ALL_SCHEMES, (1, k)):
            params = SystemParams(
                rho=db_to_linear(rho_db), rate=rate, k_antennas=k_antennas, scheme=scheme
            )
            for which in LIMIT_SPEC:
                if limit_describes(which, params):
                    value = analytic.limits(gains, params, which)
                    assert math.isfinite(value) and 0.0 <= value <= 1.0, (which, params)
                else:
                    with pytest.raises(UnsupportedAnalytic):
                        analytic.limits(gains, params, which)


class TestDispatch:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        k=st.integers(2, 1024),
        gains_db=st.tuples(*[st.floats(-40.0, 40.0)] * 3),
        rho_db=st.floats(-10.0, 60.0),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.floats(0.0, 512.0, exclude_max=True)),
        split=st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda fracs: PowerAllocation(*fracs)),
    )
    def test_in_range_or_unsupported_as_specified(self, k, gains_db, rho_db, rate, split):
        # Every variant, at K = 1 and at a drawn K > 1, at full power and at a
        # drawn split: the domain of the limits gate.
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        for scheme, k_antennas in itertools.product(ALL_SCHEMES, (1, k)):
            params = SystemParams(
                rho=db_to_linear(rho_db), rate=rate, k_antennas=k_antennas, scheme=scheme
            )
            for power in (FULL_POWER, split):
                at_power = replace(params, power=power)
                if not has_closed_form(params) or power != FULL_POWER:
                    with pytest.raises(UnsupportedAnalytic):
                        analytic.analytic_sop(gains, at_power)
                else:
                    value = analytic.analytic_sop(gains, at_power)
                    assert math.isfinite(value) and 0.0 <= value <= 1.0, at_power

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        k=st.integers(2, 1024),
        gains_db=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
        rho_db=st.floats(-300.0, 300.0),
        rate=st.floats(0.0, 512.0, exclude_max=True),
    )
    # A quadrature node next to u = 1 rounded to it and divided by zero.
    @example(k=2, gains_db=(0.0, 0.0, 130.0), rho_db=150.0, rate=30.0)
    def test_contract_over_the_cli_reach(self, k, gains_db, rho_db, rate):
        # Every closed form and limit over the dB range the CLI accepts, at
        # K = 1 and at a drawn K.
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        for scheme, k_antennas in itertools.product(ALL_SCHEMES, (1, k)):
            assert_contract(gains, SystemParams(
                rho=db_to_linear(rho_db), rate=rate, k_antennas=k_antennas, scheme=scheme
            ))

    def test_contract_over_the_whole_domain(self):
        # Gains and rho over +-3000 dB, where a product of two of them leaves
        # the float range: each closed form, limit and positive-secrecy
        # probability divided by a product that underflowed to 0, or met
        # inf / inf or an Ei bracket at 0.
        rng = np.random.default_rng(33)
        for i in range(1200):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-3000.0, 3000.0, 3)))
            rho = db_to_linear(rng.uniform(-3000.0, 3000.0))
            rate = (0.0, rng.uniform(0.0, 4.0), rng.uniform(0.0, 512.0))[i % 3]
            k = (1, 2, 64, 1024)[i % 4]
            for scheme in ALL_SCHEMES:
                assert_contract(gains, SystemParams(rho=rho, rate=rate, k_antennas=k, scheme=scheme))
            params = SystemParams(rho=rho, rate=rate)
            for p_pos in (partial(analytic.p_pos_dt, gains), partial(analytic.p_pos_af, gains, params),
                          partial(analytic.p_pos_cj, gains, params)):
                assert_in_range(p_pos, params)

    def test_analytic_dispatch_matches_direct_calls(self, fig7_gains):
        params = SystemParams(
            rho=db_to_linear(10.0), rate=0.1, k_antennas=4,
            scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_CSI),
        )
        assert analytic.analytic_sop(fig7_gains, params) == pytest.approx(
            analytic.sop_af_select_csi(fig7_gains, params)
        )

    def test_montecarlo_only_variants_refuse(self, fig6_gains):
        for scheme in (
            SchemeId(Scheme.CJ, SelectionMode.FULL_ARRAY),
            SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI),
        ):
            params = SystemParams(rho=10.0, rate=0.1, k_antennas=4, scheme=scheme)
            with pytest.raises(UnsupportedAnalytic):
                analytic.analytic_sop(fig6_gains, params)

    def test_split_power_refuses(self):
        # The closed forms assume full power; at this point the AF form
        # returned its full-power value 0.41919... for any allocation.
        params = SystemParams(
            rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.AF),
            power=PowerAllocation(0.1, 0.1, 0.1),
        )
        with pytest.raises(UnsupportedAnalytic, match="full power"):
            analytic.analytic_sop(LinkGains(1.0, 1.0, 1.0), params)
        full = analytic.analytic_sop(LinkGains(1.0, 1.0, 1.0), SystemParams(
            rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.AF)))
        assert full == pytest.approx(0.41919056830568124, rel=1e-12)
