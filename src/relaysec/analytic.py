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
from typing import Callable

from . import specfun
from .model import (
    FULL_POWER,
    LinkGains,
    Scheme,
    SelectionMode,
    SystemParams,
    derived_coefficients,
    threshold_t,
)


class UnsupportedAnalytic(ValueError):
    """Requested a closed form or limit that does not describe the variant."""


def _ei_bracket(mu: float, beta: float) -> float:
    """1 + mu*(beta-1)*e^(mu*beta)*Ei(-mu*beta).

    Uses the exponentially scaled E1 so large mu*beta does not overflow.
    """
    return 1.0 - mu * (beta - 1.0) * specfun.exp_scaled_e1(mu * beta)


def p_pos_dt(gains: LinkGains) -> float:
    """Probability of a positive secrecy rate under direct transmission (K = 1)."""
    return gains.gamma_ab / (gains.gamma_ar + gains.gamma_ab)


def sop_dt_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of direct transmission, single-antenna relay."""
    return _sop_dt(gains, params, _log_laplace_sum, k=1)


def p_pos_af(gains: LinkGains, params: SystemParams) -> float:
    """Probability of a positive secrecy rate under AF relaying (K = 1)."""
    coef = derived_coefficients(gains, params)
    return _ei_bracket(coef.mu1, coef.beta1)


def sop_af_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of AF relaying, single-antenna relay."""
    coef = derived_coefficients(gains, params)
    c = 2.0 ** (2.0 * params.rate) - 1.0
    prefactor = gains.gamma_ab / (c * gains.gamma_ar + gains.gamma_ab) * math.exp(
        -c / (params.rho * gains.gamma_ab)
    )
    return 1.0 - prefactor * _ei_bracket(coef.mu1, coef.beta2)


def p_pos_cj(gains: LinkGains, params: SystemParams) -> float:
    """Probability of a positive secrecy rate under cooperative jamming (K = 1)."""
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / params.rho
    return math.exp(-math.sqrt(s / params.rho) / gains.gamma_rb)


def sop_cj_single(gains: LinkGains, params: SystemParams) -> float:
    """Secrecy outage probability of cooperative jamming, single-antenna relay."""
    return _sop_cj(gains, params, k=1)


_LogForm = Callable[[int], Callable[[float], float]]  # K -> (argument -> log value)


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


def _log_pdf_exp(k: int) -> Callable[[float], float]:
    """Unit-exponential log density: a transmit antenna picked without CSI."""
    return lambda w: -w


def _sop_dt(gains: LinkGains, params: SystemParams, log_laplace: _LogForm, k: int) -> float:
    """Direct-transmission outage given the transform of the relay's gain over K antennas.

    Secrecy needs |h_ab|^2 > (2^R (1 + rho*gamma_ar*G) - 1) / rho; averaging
    the exponential tail over G leaves L(2^R gamma_ar / gamma_ab).
    """
    two_r = 2.0 ** params.rate
    return -math.expm1(
        -(two_r - 1.0) / (params.rho * gains.gamma_ab)
        + log_laplace(k)(two_r * gains.gamma_ar / gains.gamma_ab)
    )


def sop_dt_multi(gains: LinkGains, params: SystemParams) -> float:
    """Direct-transmission outage with a K-antenna MRC eavesdropping relay."""
    return _sop_dt(gains, params, _log_laplace_sum, params.k_antennas)


def sop_dt_select(gains: LinkGains, params: SystemParams) -> float:
    """Direct-transmission outage when the relay eavesdrops on its best antenna."""
    return _sop_dt(gains, params, _log_laplace_max, params.k_antennas)


def _sop_af(
    gains: LinkGains,
    params: SystemParams,
    log_laplace: _LogForm,
    log_pdf: _LogForm,
    m: float,
    focus: "list[float] | None" = None,
) -> float:
    """AF outage given the first-hop transform and the second-hop density.

    With c = 2^{2R} - 1 and the second-hop gain gamma_rb * W, secrecy needs
    |h_ab|^2 > c/rho + gamma_ar G (c + m / (gamma_rb W + m)), where m is the
    relay's amplification constant.  Averaging over |h_ab|^2 and G gives

        SOP = 1 - e^{-c/(rho gamma_ab)} E_W[L(gamma_ar (c + m/(gamma_rb W + m)) / gamma_ab)],

    an integral of a positive integrand against the density of W.
    ``focus`` marks where that density is concentrated, if it is narrow.
    """
    k = params.k_antennas
    c = 2.0 ** (2.0 * params.rate) - 1.0
    scale = gains.gamma_ar / gains.gamma_ab
    grb = gains.gamma_rb

    log_transform = log_laplace(k)
    log_density = log_pdf(k)

    def integrand(w: float) -> float:
        return math.exp(log_transform(scale * (c + m / (grb * w + m))) + log_density(w))

    expectation = specfun.integrate_semi_infinite(integrand, 0.0, focus=focus)
    return min(1.0, max(0.0, 1.0 - math.exp(-c / (params.rho * gains.gamma_ab)) * expectation))


def sop_af_multi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with a K-antenna MRC/MRT relay.

    The Erlang-K density of the second-hop gain is a peak of width sqrt(K)
    around K; the quadrature is anchored there or it can step over it.
    """
    k = params.k_antennas
    return _sop_af(
        gains, params, _log_laplace_sum, _log_pdf_sum,
        m=k * (gains.gamma_ar + 1.0 / params.rho), focus=_erlang_peak(k),
    )


def sop_af_select_csi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with best-antenna selection on both hops."""
    return _sop_af(
        gains, params, _log_laplace_max, _log_pdf_max, m=gains.gamma_ar + 1.0 / params.rho
    )


def sop_af_select_nocsi(gains: LinkGains, params: SystemParams) -> float:
    """AF outage with best receive antenna and a random transmit antenna."""
    return _sop_af(
        gains, params, _log_laplace_max, _log_pdf_exp, m=gains.gamma_ar + 1.0 / params.rho
    )


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
    coef = derived_coefficients(gains, params)
    c = 2.0 ** (2.0 * params.rate) - 1.0
    gar, grb = gains.gamma_ar, gains.gamma_rb
    head = -math.expm1(-coef.t / grb)
    if c == 0.0:
        return head

    def integrand(x: float) -> float:
        phi = coef.phi(grb * x)
        if phi <= 0.0:  # at t itself, up to rounding
            return math.exp(-x)
        # A power, not exp(K log(...)): a base that underflows gives 0.
        return (-math.expm1(-c / (gar * phi))) ** k * math.exp(-x)

    # The outage given x turns on over a narrow layer above t; anchor
    # subdivision where the exponent c / (gamma_ar phi) passes 4(1 + ln K),
    # 1 and each decade down to 1e-4.
    focus = [threshold_t(gains, params, c / (gar * exponent)) / grb
             for exponent in (4.0 * (1.0 + math.log(k)), 1.0, 0.1, 0.01, 1e-3, 1e-4)]
    integral = specfun.integrate_semi_infinite(integrand, coef.t / grb, focus=focus)
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
        return two_r * gar / (two_r * gar + gab)
    if which == "af_high_snr":
        beta2 = derived_coefficients(gains, params).beta2
        return 1.0 - gab / (c * gar + gab) * _ei_bracket(gar / grb, beta2)
    if which == "cj_high_snr":
        return _cj_full_array_floor(gains, params)
    if which == "af_strong_second_hop":
        return 1.0 - gab / (c * gar + gab) * math.exp(-c / (rho * gab))
    if which == "cj_strong_second_hop":
        x = math.sqrt(4.0 * c / (rho * gar))
        if x == 0.0:
            return 0.0  # x K1(x) -> 1 as x -> 0, e.g. at zero rate
        return 1.0 - math.exp(-c / (rho * gar)) * x * specfun.bessel_k1(x)
    if which == "af_weak_second_hop":
        # Relay path useless; half pre-log makes this direct transmission at doubled rate.
        return 1.0 - gab / (two2r * gar + gab) * math.exp(-c / (rho * gab))
    if which == "cj_weak_second_hop":
        return 1.0
    if which == "dt_weak_first_hop":
        return -math.expm1(-(two_r - 1.0) / (rho * gab))
    if which == "af_weak_first_hop":
        return -math.expm1(-c / (rho * gab))
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
