"""Closed-form secrecy outage probabilities and their asymptotic limits.

Each transmission policy (direct, amplify-and-forward, cooperative jamming)
has an exact outage expression for the single-antenna relay; the
multi-antenna beamforming and antenna-selection variants generalize them
where a closed form exists, and single-antenna DT and CJ are evaluated as
their K-antenna forms at K = 1.  Two variants are Monte Carlo only by design:
cooperative jamming with a full beamforming array (K > 1) and cooperative
jamming with CSI-aided antenna selection.  Every asymptotic limit, the
full-array cooperative-jamming floor included, is a closed form.

The K-antenna DT and AF forms condition on the relay's gains.  Write G for
the relay's first-hop gain in units of gamma_ar: the sum of K unit
exponentials under MRC, their maximum under antenna selection.  G enters
only through its Laplace transform L(s) = E[e^{-sG}], which is closed in
both cases, so DT needs no integral and AF one integral of a positive
integrand over the second-hop gain.  Nothing cancels, so every K is
evaluated in double precision by the same route.

This module is a leaf of the package: it imports the model and the special
functions, never the simulator, and each of its functions is a pure
function of the link gains and the system parameters.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from . import specfun
from .model import FULL_POWER, LinkGains, Scheme, SelectionMode, SystemParams


class UnsupportedAnalytic(ValueError):
    """Requested a closed form or limit that does not describe the variant."""


_LEAST_NORMAL, _INF = sys.float_info.min, math.inf  # bound once: _over runs in CJ's integrand


def _over(x: float, a: float, b: float) -> float:
    """x / (a b) for positive a and b, with no division by zero.

    Where the product a b leaves the normal floats (rho gamma_ab, say,
    under- or overflows at the ends of the dB range), x is divided by the
    larger factor and then by the smaller, which overflows only where the
    quotient itself is out of range.
    """
    ab = a * b
    if _LEAST_NORMAL <= ab < _INF:
        return x / ab
    return x / max(a, b) / min(a, b)


def _ei_bracket(mu: float, beta: float) -> float:
    """1 + mu*(beta-1)*e^(mu*beta)*Ei(-mu*beta).

    Uses the exponentially scaled E1 so large mu*beta does not overflow.
    Where mu*beta underflows to 0 the bracket is its limit 1, and where it
    overflows its limit 1/beta.
    """
    y = mu * beta
    if y == 0.0 or y == math.inf:
        return 1.0 if y == 0.0 else 1.0 / beta
    return 1.0 - mu * (beta - 1.0) * specfun.exp_scaled_e1(y)


def _beta2(gains: LinkGains, c: float) -> float:
    """AF's outage-bracket coefficient (2^{2R} gamma_ar + gamma_ab) / (c gamma_ar
    + gamma_ab), c = 2^{2R} - 1; 1 where c gamma_ar overflows.  The paper's
    high-SNR AF limit puts the positive-secrecy coefficient beta1 = 1 +
    gamma_ar / gamma_ab in its place."""
    return 1.0 + gains.gamma_ar / (c * gains.gamma_ar + gains.gamma_ab)


def threshold_t(gains: LinkGains, params: SystemParams, level: float = 0.0) -> float:
    """The z > 0 where ``cj_phi``'s phi(z) = ``level``; inf from ``level`` = rho on, which phi only nears.

    Level 0 gives the threshold t below which cooperative jamming is always
    in outage.  phi(z) = y clears to (rho - y) z^2 - (T - 1 + y (s + 1/rho)) z
    - s (T + y/rho) = 0, T = 2^{2R}, s = gamma_ar + gamma_rb + 1/rho; at y = 0
    the paper prints 2 for the 4 in its discriminant's 4*rho*T*s.  The root
    u + hypot(u, 2^R sqrt(s (1 + y/(rho T)) / (rho - y))), u = (T - 1 + y (s +
    1/rho)) / (2 (rho - y)), is taken again in units of s where y s or
    s / (rho - y) passes the float range, so it overflows only where it is
    out of range, while the discriminant's squared linear term overflows
    above R = 256.  An infinite s puts the root at inf; no term in y forms
    0 * inf at level 0.
    """
    rho = params.rho
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / rho
    if level >= rho or s == math.inf:
        return math.inf
    two2r = 2.0 ** (2.0 * params.rate)
    a = rho - level
    u = (two2r - 1.0 + level * s + level / rho) / (2.0 * a)
    t = u + math.hypot(u, 2.0 ** params.rate * math.sqrt(s * (1.0 + level / (rho * two2r)) / a))
    if t < math.inf:
        return t
    # The same root in units of s, where level s or s / a passed the float range.
    u = ((two2r - 1.0) / s + level * (1.0 + 1.0 / (rho * s))) / (2.0 * a)
    return s * (u + math.hypot(u, 2.0 ** params.rate * math.sqrt((1.0 + level / (rho * two2r)) / (a * s))))


def cj_phi(gains: LinkGains, params: SystemParams) -> Callable[[float], float]:
    """x -> phi(gamma_rb x): cooperative jamming's phi at a second-hop gain x
    in units of gamma_rb.

    phi(z) = rho z / (z + s) - T / (z + 1/rho), T = 2^{2R}, s = gamma_ar +
    gamma_rb + 1/rho, at second-hop gain z.  It is negative below the
    threshold t (``threshold_t``), where jamming is always in outage, and
    above t outage needs a first-hop gain below c / (gamma_ar phi(z)),
    c = T - 1.  Below z_big neither rho z nor z + s can overflow; from
    there on, and at z = inf, where phi takes its limit rho, its first term
    is rho / (1 + s / z).  From x_top on, where gamma_rb x nears the top of
    the float range, phi is taken in units of x, with s / gamma_rb = 1 + mu1.
    """
    rho, grb = params.rho, gains.gamma_rb
    two2r = 2.0 ** (2.0 * params.rate)
    s = gains.gamma_ar + grb + 1.0 / rho
    z_big = 0.5 * min(sys.float_info.max / max(1.0, rho), sys.float_info.max - s)
    x_top = 0.5 * sys.float_info.max / grb if grb > 1.0 else math.inf
    s_x, two2r_x, noise_x = 1.0 + (gains.gamma_ar + 1.0 / rho) / grb, two2r / grb, (1.0 / rho) / grb

    def phi(x: float) -> float:
        if x >= x_top:
            return rho / (1.0 + s_x / x) - two2r_x / (x + noise_x)
        z = grb * x
        if z < z_big:
            return rho * z / (z + s) - two2r / (z + 1.0 / rho)
        return rho / (1.0 + s / z) - two2r / (z + 1.0 / rho)

    return phi


def p_pos_dt(gains: LinkGains) -> float:
    """Probability of a positive secrecy rate under direct transmission (K = 1)."""
    return gains.gamma_ab / (gains.gamma_ar + gains.gamma_ab)


def sop_dt_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of direct transmission, single-antenna relay."""
    return _sop_dt(gains, params, _log_laplace_sum(1))


def p_pos_af(gains: LinkGains, params: SystemParams) -> float:
    """Probability of a positive secrecy rate under AF relaying (K = 1)."""
    mu1 = (gains.gamma_ar + 1.0 / params.rho) / gains.gamma_rb
    return _ei_bracket(mu1, 1.0 + gains.gamma_ar / gains.gamma_ab)


def sop_af_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of AF relaying, single-antenna relay."""
    c = 2.0 ** (2.0 * params.rate) - 1.0
    mu1 = (gains.gamma_ar + 1.0 / params.rho) / gains.gamma_rb
    prefactor = gains.gamma_ab / (c * gains.gamma_ar + gains.gamma_ab) * math.exp(
        -_over(c, params.rho, gains.gamma_ab)
    )
    return 1.0 - prefactor * _ei_bracket(mu1, _beta2(gains, c))


def p_pos_cj(gains: LinkGains, params: SystemParams) -> float:
    """Probability of a positive secrecy rate under cooperative jamming (K = 1)."""
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / params.rho
    return math.exp(-math.sqrt(s / params.rho) / gains.gamma_rb)


def sop_cj_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of cooperative jamming, single-antenna relay."""
    return _sop_cj(gains, params, k=1)


def _log_laplace_sum(k: int) -> Callable[[float], float]:
    """log E[e^{-sG}] for G the sum of K unit exponentials (MRC combining)."""
    return lambda s: -k * math.log1p(s)


def _log_laplace_max(k: int) -> Callable[[float], float]:
    """log E[e^{-sG}] for G the maximum of K unit exponentials (selection).

    The maximum is distributed as sum_i E_i / i (Renyi), so its transform
    is prod_{i=1..K} i / (i + s) = Gamma(K+1) Gamma(1+s) / Gamma(K+1+s).
    The difference of two lgamma values of size s log s keeps none of its
    digits by s ~ 1e17 and overflows near 1e306, where a rate nears 512, so
    from s = 100 on the difference comes from Stirling's series at
    z = 1 + s, w = z + K instead, with log1p carrying the cancellation:
    log Gamma(w) - log Gamma(z) = (z - 1/2) log1p(K/z) + K log w - K
    + (1/w - 1/z)/12 - (1/w^3 - 1/z^3)/360, within 1e-13 of the exact
    difference there.
    """
    head = math.lgamma(k + 1)

    def log_laplace(s: float) -> float:
        if s < 100.0:
            return head + math.lgamma(1.0 + s) - math.lgamma(k + 1 + s)
        if s == math.inf:
            return -math.inf
        z = 1.0 + s
        w = z + k
        rise = (
            (z - 0.5) * math.log1p(k / z) + k * math.log(w) - k
            + (1.0 / w - 1.0 / z) / 12.0 - (1.0 / (w * w * w) - 1.0 / (z * z * z)) / 360.0
        )
        return head - rise

    return log_laplace


def _log_pdf_sum(k: int) -> Callable[[float], float]:
    """Erlang-K log density: the full array's second-hop gain (MRT)."""
    tail = math.lgamma(k)
    return lambda w: (k - 1) * math.log(w) - w - tail


def _erlang_peak(k: int) -> list[float]:
    """Quadrature focus points on the Erlang-K peak, of width sqrt(K) around K."""
    root = math.sqrt(k)
    return [k - 6.0 * root, float(k), k + 6.0 * root]


def _log_pdf_max(k: int) -> Callable[[float], float]:
    """Log density of the maximum of K unit exponentials (best transmit antenna)."""
    head = math.log(k)
    return lambda w: head + (k - 1) * math.log(-math.expm1(-w)) - w


def _log_pdf_exp(w: float) -> float:
    """Unit-exponential log density: a transmit antenna picked without CSI."""
    return -w


def _sop_dt(gains: LinkGains, params: SystemParams, log_laplace: Callable[[float], float]) -> float:
    """Direct-transmission outage given the log transform of the relay's gain over K antennas.

    Secrecy needs |h_ab|^2 > (2^R (1 + rho*gamma_ar*G) - 1) / rho; averaging
    the exponential tail over G leaves L(2^R gamma_ar / gamma_ab).
    """
    two_r = 2.0 ** params.rate
    return -math.expm1(
        -_over(two_r - 1.0, params.rho, gains.gamma_ab)
        + log_laplace(two_r * gains.gamma_ar / gains.gamma_ab)
    )


def sop_dt_multi(gains: LinkGains, params: SystemParams) -> float:
    """Direct-transmission outage with a K-antenna MRC eavesdropping relay."""
    return _sop_dt(gains, params, _log_laplace_sum(params.k_antennas))


def sop_dt_select(gains: LinkGains, params: SystemParams) -> float:
    """Direct-transmission outage when the relay eavesdrops on its best antenna."""
    return _sop_dt(gains, params, _log_laplace_max(params.k_antennas))


def _sop_af(
    gains: LinkGains, params: SystemParams, log_transform: Callable[[float], float],
    log_density: Callable[[float], float], m: float, focus: "list[float] | None" = None,
) -> float:
    """AF outage given the log first-hop transform and the log second-hop density.

    With c = 2^{2R} - 1 and the second-hop gain gamma_rb * W, secrecy needs
    |h_ab|^2 > c/rho + gamma_ar G (c + m / (gamma_rb W + m)), where m is the
    relay's amplification constant.  Averaging over |h_ab|^2 and G gives

        SOP = 1 - e^{-c/(rho gamma_ab)} E_W[L(gamma_ar (c + m/(gamma_rb W + m)) / gamma_ab)],

    an integral of a positive integrand against the density of W.
    ``focus`` marks where that density is concentrated, if it is narrow.
    """
    c = 2.0 ** (2.0 * params.rate) - 1.0
    scale = gains.gamma_ar / gains.gamma_ab
    grb = gains.gamma_rb

    def integrand(w: float) -> float:
        return math.exp(log_transform(scale * (c + m / (grb * w + m))) + log_density(w))

    expectation = specfun.integrate_semi_infinite(integrand, 0.0, focus=focus)
    return min(1.0, max(0.0, 1.0 - math.exp(-_over(c, params.rho, gains.gamma_ab)) * expectation))


def sop_af_multi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with a K-antenna MRC/MRT relay.

    The Erlang-K density of the second-hop gain is a peak of width sqrt(K)
    around K; the quadrature is anchored there or it can step over it.
    """
    k = params.k_antennas
    return _sop_af(
        gains, params, _log_laplace_sum(k), _log_pdf_sum(k),
        m=k * (gains.gamma_ar + 1.0 / params.rho), focus=_erlang_peak(k),
    )


def sop_af_select_csi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with best-antenna selection on both hops."""
    k = params.k_antennas
    return _sop_af(gains, params, _log_laplace_max(k), _log_pdf_max(k), m=gains.gamma_ar + 1.0 / params.rho)


def sop_af_select_nocsi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with best receive antenna and a random transmit antenna."""
    k = params.k_antennas
    return _sop_af(gains, params, _log_laplace_max(k), _log_pdf_exp, m=gains.gamma_ar + 1.0 / params.rho)


def _sop_cj(gains: LinkGains, params: SystemParams, k: int) -> float:
    """Cooperative-jamming outage when the relay eavesdrops on the best of K
    receive antennas and transmits on it, with no second-hop CSI; K = 1 is
    the single-antenna relay.

    With x = z / gamma_rb the second-hop gain is a unit exponential, so the
    integrand decays on the unit scale the quadrature maps with.  Outage
    is certain below the threshold t; above it, the outage probability
    given x is (-expm1(-c / (gamma_ar phi)))^K, which never forms one minus
    a number close to one:

        SOP = -expm1(-t/gamma_rb)
              + int_{t/gamma_rb}^inf (-expm1(-c / (gamma_ar phi(gamma_rb x))))^K e^{-x} dx.

    At zero rate c = 0 and only the first term remains, a function of the
    threshold alone, so the zero-rate complement 1 - P(positive secrecy)
    pins t; the validation suite shows there that the paper's printed root
    constant is wrong.
    """
    c = 2.0 ** (2.0 * params.rate) - 1.0
    gar, grb = gains.gamma_ar, gains.gamma_rb
    t = threshold_t(gains, params)
    head = -math.expm1(-t / grb)
    if c == 0.0:
        return head
    phi = cj_phi(gains, params)

    def integrand(x: float) -> float:
        level = phi(x)
        if level <= 0.0:  # at t itself, up to rounding
            return math.exp(-x)
        # A power, not exp(K log(...)): a base that underflows gives 0.
        return (-math.expm1(-_over(c, gar, level))) ** k * math.exp(-x)

    # The outage given x turns on over a narrow layer above t; anchor
    # subdivision where the exponent c / (gamma_ar phi) passes 4(1 + ln K),
    # 1 and each decade down to 1e-4.
    focus = [threshold_t(gains, params, _over(c, gar, exponent)) / grb
             for exponent in (4.0 * (1.0 + math.log(k)), 1.0, 0.1, 0.01, 1e-3, 1e-4)]
    integral = specfun.integrate_semi_infinite(integrand, t / grb, focus=focus)
    return min(1.0, max(0.0, head + integral))


def sop_cj_select_nocsi(gains: LinkGains, params: SystemParams) -> float:
    """Cooperative-jamming outage with best-receive-antenna selection and no
    second-hop CSI at the relay, which transmits on its receive antenna."""
    return _sop_cj(gains, params, params.k_antennas)


def _cj_full_array_floor(gains: LinkGains, params: SystemParams) -> float:
    """High-SNR outage floor of cooperative jamming with the full K-antenna array.

    In the limit the relay's max-SINR receiver nulls the jamming, and
    outage is the SNR-free event X < P (T (S_B + c) / S_B - 1), with
    T = 2^{2R}, c = K (gamma_ar + gamma_rb), X ~ Exp(gamma_ar) the
    first-hop gain along the jamming direction, P ~ Gamma(K-1, gamma_ar)
    the rest of it and S_B ~ Gamma(K, gamma_rb) the second-hop gain.
    Averaging over X and then P, and writing S_B = gamma_rb W, leaves

        floor = 1 - T^{-(K-1)} E[(W / (W + d))^{K-1}],  d = c / gamma_rb,

    with W Erlang-K at unit scale: one integral, taken in log form.  With
    one antenna nothing is left to null the jamming with and the floor is 0.
    """
    k = params.k_antennas
    if k == 1:
        return 0.0
    log_t = 2.0 * params.rate * math.log(2.0)
    d = k * (gains.gamma_ar + gains.gamma_rb) / gains.gamma_rb
    log_density = _log_pdf_sum(k)

    def integrand(w: float) -> float:
        return math.exp(log_density(w) - (k - 1) * (log_t + math.log1p(d / w)))

    expectation = specfun.integrate_semi_infinite(integrand, 0.0, focus=_erlang_peak(k))
    return min(1.0, max(0.0, 1.0 - expectation))


_EVERY_MODE = frozenset(SelectionMode)

# The variants each asymptotic limit describes: its scheme, and the antenna
# modes it holds for at every K, or None for a limit that holds at K = 1
# only, where every mode coincides.
LIMIT_VARIANTS: dict[str, tuple[Scheme, frozenset[SelectionMode] | None]] = {
    "dt_high_snr": (Scheme.DT, None),
    "af_high_snr": (Scheme.AF, None),
    "cj_high_snr": (Scheme.CJ, frozenset({SelectionMode.FULL_ARRAY})),
    "cj_select_nocsi_large_k": (Scheme.CJ, frozenset({SelectionMode.SELECT_NOCSI})),
    "af_strong_second_hop": (Scheme.AF, None),
    "cj_strong_second_hop": (Scheme.CJ, None),
    "af_weak_second_hop": (Scheme.AF, None),
    "cj_weak_second_hop": (Scheme.CJ, _EVERY_MODE),
    "dt_weak_first_hop": (Scheme.DT, _EVERY_MODE),
    "af_weak_first_hop": (Scheme.AF, _EVERY_MODE),
    "cj_weak_first_hop": (Scheme.CJ, _EVERY_MODE),
}


def _describes(which: str, params: SystemParams) -> bool:
    scheme, modes = LIMIT_VARIANTS[which]
    covered = params.k_antennas == 1 if modes is None else params.scheme.mode in modes
    return params.scheme.scheme is scheme and covered


def default_limit(params: SystemParams) -> str:
    """The first of the high-SNR limits and the CJ no-CSI selection floor that
    describes the variant ``params`` names; ``UnsupportedAnalytic`` if none does."""
    for which in ("dt_high_snr", "af_high_snr", "cj_high_snr", "cj_select_nocsi_large_k"):
        if _describes(which, params):
            return which
    raise UnsupportedAnalytic(f"no built-in asymptote for {params.scheme} with K={params.k_antennas}")


def limits(gains: LinkGains, params: SystemParams, which: str) -> float:
    """Closed-form asymptotic outage values.

    Selectors describe the regime: ``*_high_snr`` (rho to infinity),
    ``*_strong_second_hop`` / ``*_weak_second_hop`` (gamma_rb limits),
    ``*_weak_first_hop`` (gamma_ar to zero) and ``cj_select_nocsi_large_k``
    (antenna-selection floor).  ``LIMIT_VARIANTS`` names the variants each
    one describes.  ``cj_high_snr`` is zero for one antenna and the
    full-array outage floor for more; ``af_high_snr`` is the actual
    high-SNR limit of the exact AF outage, not the one the paper prints.

    Raises ``UnsupportedAnalytic`` for an unknown selector, and for one
    that does not describe ``params.scheme`` at ``params.k_antennas``.
    """
    if which not in LIMIT_VARIANTS:
        raise UnsupportedAnalytic(
            f"unsupported limit selector {which!r}; known: {', '.join(LIMIT_VARIANTS)}"
        )
    if not _describes(which, params):
        raise UnsupportedAnalytic(
            f"limit selector {which!r} does not describe {params.scheme} with K={params.k_antennas}"
        )
    rho = params.rho
    two_r = 2.0 ** params.rate
    two2r = 2.0 ** (2.0 * params.rate)
    c = two2r - 1.0
    gab, gar, grb = gains.gamma_ab, gains.gamma_ar, gains.gamma_rb

    if which == "dt_high_snr":
        eavesdropper = two_r * gar
        if eavesdropper + gab == math.inf:
            return 1.0 / (1.0 + gab / two_r / gar)
        return eavesdropper / (eavesdropper + gab)
    if which == "af_high_snr":
        return 1.0 - gab / (c * gar + gab) * _ei_bracket(gar / grb, _beta2(gains, c))
    if which == "cj_high_snr":
        return _cj_full_array_floor(gains, params)
    if which == "af_strong_second_hop":
        return 1.0 - gab / (c * gar + gab) * math.exp(-_over(c, rho, gab))
    if which == "cj_strong_second_hop":
        q = _over(c, rho, gar)
        x = 2.0 * math.sqrt(q)
        if x == 0.0:
            return 0.0  # x K1(x) -> 1 as x -> 0, e.g. at zero rate
        scale = math.exp(-q)
        if scale == 0.0:
            return 1.0  # e^{-x^2/4} x K1(x) is below the float range; K1(inf) fails
        return 1.0 - scale * x * specfun.bessel_k1(x)
    if which == "af_weak_second_hop":
        # Relay path useless; half pre-log makes this direct transmission at doubled rate.
        return 1.0 - gab / (two2r * gar + gab) * math.exp(-_over(c, rho, gab))
    if which == "cj_weak_second_hop":
        return 1.0
    if which == "dt_weak_first_hop":
        return -math.expm1(-_over(two_r - 1.0, rho, gab))
    if which == "af_weak_first_hop":
        return -math.expm1(-_over(c, rho, gab))
    if which == "cj_weak_first_hop":
        return 1.0
    return -math.expm1(-threshold_t(gains, params) / grb)  # cj_select_nocsi_large_k


def analytic_sop(gains: LinkGains, params: SystemParams) -> float:
    """Dispatch to the closed form matching ``params.scheme``.

    Raises ``UnsupportedAnalytic`` for the two Monte-Carlo-only variants,
    and for any allocation other than full power: every closed form
    assumes each node transmits at its full budget, so a split power
    budget is Monte Carlo only.
    """
    if params.power != FULL_POWER:
        raise UnsupportedAnalytic(
            f"the closed forms assume full power at every node, got {params.power}; "
            "use the Monte Carlo estimator"
        )
    scheme, mode, k = params.scheme.scheme, params.scheme.mode, params.k_antennas
    if k == 1:
        if scheme is Scheme.DT:
            return sop_dt_single(gains, params)
        if scheme is Scheme.AF:
            return sop_af_single(gains, params)
        return sop_cj_single(gains, params)
    if scheme is Scheme.DT:
        if mode is SelectionMode.FULL_ARRAY:
            return sop_dt_multi(gains, params)
        return sop_dt_select(gains, params)
    if scheme is Scheme.AF:
        if mode is SelectionMode.FULL_ARRAY:
            return sop_af_multi(gains, params)
        if mode is SelectionMode.SELECT_CSI:
            return sop_af_select_csi(gains, params)
        return sop_af_select_nocsi(gains, params)
    if mode is SelectionMode.SELECT_NOCSI:
        return sop_cj_select_nocsi(gains, params)
    raise UnsupportedAnalytic(
        f"no closed form exists for {params.scheme} with K={k}; use the Monte Carlo estimator"
    )
