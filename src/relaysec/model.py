"""Domain types, Rayleigh fading sampling, and the relay beamforming/selection kernels.

Conventions used throughout the package:

* Average squared channel gains and the transmit SNR ``rho`` are linear
  (the CLI converts from dB at the boundary).
* ``h_rb`` stores the relay-to-destination coefficients; by channel
  reciprocity the same coefficients carry the destination's jamming signal
  into the relay, so a single vector serves both directions.
* The relay normalizes its forwarded signal by the *statistical* power of
  the raw received vector (expectations over fading and noise), which is
  why average gains rather than instantaneous ones appear in the
  amplification denominators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class Scheme(enum.Enum):
    """Transmission policy: direct, amplify-and-forward, or cooperative jamming."""

    DT = "dt"
    AF = "af"
    CJ = "cj"


class SelectionMode(enum.Enum):
    """How a multi-antenna relay uses its array."""

    FULL_ARRAY = "full"
    SELECT_CSI = "select-csi"
    SELECT_NOCSI = "select-nocsi"


@dataclass(frozen=True)
class SchemeId:
    """A (scheme, antenna mode) pair.

    For K = 1 all modes coincide.  Direct transmission has no second hop,
    so hiding second-hop CSI from the relay is meaningless there and
    (DT, SELECT_NOCSI) is rejected.
    """

    scheme: Scheme
    mode: SelectionMode = SelectionMode.FULL_ARRAY

    def __post_init__(self):
        if self.scheme is Scheme.DT and self.mode is SelectionMode.SELECT_NOCSI:
            raise ValueError("direct transmission has no second hop; (DT, SELECT_NOCSI) is invalid")

    def __str__(self):
        return f"{self.scheme.value}/{self.mode.value}"


@dataclass(frozen=True)
class LinkGains:
    """Average squared channel gains (linear scale) of the three links."""

    gamma_ab: float
    gamma_ar: float
    gamma_rb: float

    def __post_init__(self):
        for name in ("gamma_ab", "gamma_ar", "gamma_rb"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be strictly positive and finite, got {v}")


@dataclass(frozen=True)
class PowerAllocation:
    """Per-node transmit power fractions of the common budget P.

    ``frac_bob_jam`` only matters for cooperative jamming.  Full power
    (the setting all closed forms assume) is all fractions equal to one.
    """

    frac_alice: float = 1.0
    frac_relay: float = 1.0
    frac_bob_jam: float = 1.0

    def __post_init__(self):
        for name in ("frac_alice", "frac_relay", "frac_bob_jam"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


FULL_POWER = PowerAllocation()


@dataclass(frozen=True)
class SystemParams:
    """Transmit SNR, antenna count, target secrecy rate, scheme, and power split."""

    rho: float
    k_antennas: int = 1
    rate: float = 0.1
    scheme: SchemeId = field(default_factory=lambda: SchemeId(Scheme.DT))
    power: PowerAllocation = FULL_POWER

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be strictly positive and finite, got {self.rho}")
        if self.k_antennas < 1 or int(self.k_antennas) != self.k_antennas:
            raise ValueError(f"k_antennas must be an integer >= 1, got {self.k_antennas}")
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class SopEstimate:
    """An outage probability with its provenance.

    ``stderr`` and ``trials`` are zero for closed-form and asymptotic
    values; only Monte Carlo estimates carry sampling uncertainty.
    """

    value: float
    stderr: float = 0.0
    trials: int = 0
    method: str = "analytic"

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"outage probability must lie in [0, 1], got {self.value}")
        if self.stderr < 0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
        if self.method not in ("analytic", "montecarlo", "asymptotic"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method != "montecarlo" and (self.stderr != 0.0 or self.trials != 0):
            # Monte Carlo stderr may itself be zero when the empirical
            # frequency hits 0 or 1; the converse direction is strict.
            raise ValueError("closed-form and asymptotic estimates carry no sampling uncertainty")


@dataclass(frozen=True)
class ChannelDraw:
    """One quasi-static fading realization."""

    h_ab: complex
    h_ar: np.ndarray
    h_rb: np.ndarray

    def __post_init__(self):
        h_ar = np.asarray(self.h_ar, dtype=np.complex128)
        h_rb = np.asarray(self.h_rb, dtype=np.complex128)
        if h_ar.shape != h_rb.shape or h_ar.ndim != 1:
            raise ValueError("h_ar and h_rb must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(h_ar)) and np.all(np.isfinite(h_rb)) and np.isfinite(self.h_ab)):
            raise ValueError("channel coefficients must be finite")
        object.__setattr__(self, "h_ar", h_ar)
        object.__setattr__(self, "h_rb", h_rb)

    @property
    def k(self) -> int:
        return self.h_ar.shape[0]


class ChannelBlock(NamedTuple):
    """A vectorized batch of fading realizations plus per-trial antenna picks.

    ``tx_pick`` holds one uniform antenna index per trial, consumed by the
    no-CSI transmit-selection variants; it is drawn unconditionally so the
    random-number layout is identical across schemes (common random numbers).
    """

    h_ab: np.ndarray    # (n,) complex
    h_ar: np.ndarray    # (n, k) complex
    h_rb: np.ndarray    # (n, k) complex
    tx_pick: np.ndarray  # (n,) int


@dataclass(frozen=True)
class DerivedCoefficients:
    """Auxiliary scalars shared by the closed-form outage expressions."""

    mu1: float
    beta1: float
    beta2: float
    t: float
    phi: Callable[[float], float]


def db_to_linear(x_db: float) -> float:
    """10^(x/10); figure axes are in dB, the math is linear."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def _complex_gaussian(rng: np.random.Generator, shape, mean_square: float) -> np.ndarray:
    scale = math.sqrt(mean_square / 2.0)
    z = rng.standard_normal(shape + (2,))
    return scale * (z[..., 0] + 1j * z[..., 1])


def sample_channel(gains: LinkGains, k: int, rng: np.random.Generator) -> ChannelDraw:
    """Draw one Rayleigh-fading realization.

    Entries are zero-mean circularly symmetric complex Gaussians whose
    mean squared magnitudes equal the configured link gains, so the
    squared magnitudes are exponential.  Phases are materialized because
    the jamming-suppression SINR depends on vector alignment, not just on
    magnitudes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    h_ab = complex(_complex_gaussian(rng, (), gains.gamma_ab))
    h_ar = _complex_gaussian(rng, (k,), gains.gamma_ar)
    h_rb = _complex_gaussian(rng, (k,), gains.gamma_rb)
    return ChannelDraw(h_ab=h_ab, h_ar=h_ar, h_rb=h_rb)


def block_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one chunk of trials.

    Keying the Philox stream by (seed, chunk index) makes every chunk's
    draws a pure function of its position, so estimates do not depend on
    how chunks are scheduled across workers.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_channel_block(gains: LinkGains, k: int, seed: int, chunk_index: int, n: int) -> ChannelBlock:
    """Vectorized fading draws for trials [chunk_index*chunk, ...) of a run.

    The draw layout (order and count of underlying uniforms) is fixed for
    a given (k, n), so the same (seed, chunk_index) yields bit-identical
    channels regardless of which schemes consume them.
    """
    rng = block_rng(seed, chunk_index)
    h_ab = _complex_gaussian(rng, (n,), gains.gamma_ab)
    h_ar = _complex_gaussian(rng, (n, k), gains.gamma_ar)
    h_rb = _complex_gaussian(rng, (n, k), gains.gamma_rb)
    tx_pick = rng.integers(0, k, size=n)
    return ChannelBlock(h_ab=h_ab, h_ar=h_ar, h_rb=h_rb, tx_pick=tx_pick)


def mrc_mrt_snr_terms(
    draw: ChannelDraw, gains: LinkGains, params: SystemParams
) -> tuple[float, float, float]:
    """Building blocks of the destination SNR under MRC/MRT forwarding.

    Returns ``(direct, relay_num, relay_den)`` with the destination's
    post-combining SNR equal to ``direct + relay_num / relay_den``.  The
    amplification denominator uses the statistical normalization of the
    raw K-antenna received vector, hence the K*gamma_ar + K/rho terms.
    Power fractions scale Alice's and the relay's budgets.
    """
    k = draw.k
    a = params.power.frac_alice
    r = params.power.frac_relay
    rho = params.rho
    sum_a = float(np.sum(np.abs(draw.h_ar) ** 2))
    sum_b = float(np.sum(np.abs(draw.h_rb) ** 2))
    direct = a * rho * abs(draw.h_ab) ** 2
    relay_num = a * rho * sum_b * sum_a
    if r == 0.0:
        relay_den = math.inf
    else:
        relay_den = sum_b + (a / r) * k * gains.gamma_ar + k / (r * rho)
    return direct, relay_num, relay_den


def mmse_sinr_relay_cj(draw: ChannelDraw, rho: float, jam_rho: float | None = None) -> float:
    """Relay's max-SINR (MMSE beamforming) against the destination's jamming.

    Computes h_ar^H (h_rb h_rb^H + I/rho)^{-1} h_ar through the rank-one
    inverse update: rho*||h_ar||^2 - rho^2*|h_rb^H h_ar|^2 / (1 + rho*||h_rb||^2).
    ``jam_rho`` scales the jamming power separately when power fractions
    are in play; it defaults to ``rho``.
    """
    if jam_rho is None:
        jam_rho = rho
    norm_ar = float(np.sum(np.abs(draw.h_ar) ** 2))
    norm_rb = float(np.sum(np.abs(draw.h_rb) ** 2))
    cross = abs(np.vdot(draw.h_rb, draw.h_ar)) ** 2
    return rho * norm_ar - rho * jam_rho * cross / (1.0 + jam_rho * norm_rb)


def select_antennas(
    draw: ChannelDraw, scheme: SchemeId, rng: np.random.Generator | None = None
) -> tuple[int, int]:
    """Receive/transmit antenna indices (m*, n*) chosen by the relay.

    AF and DT relays pick the strongest first-hop antenna; for the second
    hop an AF relay with CSI picks the strongest outgoing antenna, and
    without CSI a uniformly random one (``rng`` required).  A CJ relay
    with CSI maximizes the signal-to-jamming power ratio on receive; a CJ
    relay without CSI reuses its receive antenna for transmission, whose
    outgoing gain is independent of the receive criterion and hence
    distributed as a random pick.
    """
    gains_a = np.abs(draw.h_ar) ** 2
    gains_b = np.abs(draw.h_rb) ** 2
    if scheme.scheme is Scheme.CJ and scheme.mode is SelectionMode.SELECT_CSI:
        m_star = int(np.argmax(gains_a / gains_b))
        n_star = int(np.argmax(gains_b))
        return m_star, n_star
    m_star = int(np.argmax(gains_a))
    if scheme.scheme is Scheme.CJ and scheme.mode is SelectionMode.SELECT_NOCSI:
        return m_star, m_star
    if scheme.mode is SelectionMode.SELECT_NOCSI:  # AF without second-hop CSI
        if rng is None:
            raise ValueError("AF selection without CSI needs an rng for the random transmit antenna")
        return m_star, int(rng.integers(0, draw.k))
    n_star = int(np.argmax(gains_b))
    return m_star, n_star


def threshold_t(gains: LinkGains, params: SystemParams, paper_printed: bool = False) -> float:
    """Positive root of phi(z) = 0, the jamming-gain threshold below which
    cooperative jamming is always in outage.

    Solving phi(z) = 0 gives rho*z^2 - (2^{2R}-1)*z - 2^{2R}*(gamma_ar +
    gamma_rb + 1/rho) = 0, whose discriminant carries 4*rho*2^{2R}*(...).
    ``paper_printed=True`` substitutes the (incorrect) constant
    2*rho*2^{2R}*(...) so the discrepancy can be demonstrated; with it the
    zero-rate outage no longer complements the positive-secrecy probability.
    """
    rho = params.rho
    two2r = 2.0 ** (2.0 * params.rate)
    c = two2r - 1.0
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / rho
    factor = 2.0 if paper_printed else 4.0
    return (c + math.sqrt(c * c + factor * rho * two2r * s)) / (2.0 * rho)


def derived_coefficients(gains: LinkGains, params: SystemParams) -> DerivedCoefficients:
    """Auxiliary scalars (mu1, beta1, beta2, threshold t, and phi) for the closed forms."""
    rho = params.rho
    two2r = 2.0 ** (2.0 * params.rate)
    c = two2r - 1.0
    mu1 = (gains.gamma_ar + 1.0 / rho) / gains.gamma_rb
    beta1 = 1.0 + gains.gamma_ar / gains.gamma_ab
    beta2 = (two2r * gains.gamma_ar + gains.gamma_ab) / (c * gains.gamma_ar + gains.gamma_ab)
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / rho

    def phi(z: float) -> float:
        return rho * z / (z + s) - two2r / (z + 1.0 / rho)

    return DerivedCoefficients(
        mu1=mu1,
        beta1=beta1,
        beta2=beta2,
        t=threshold_t(gains, params),
        phi=phi,
    )
