"""Domain types, Rayleigh fading sampling, and the closed forms' derived coefficients.

The signal model itself (beamforming, antenna selection, jamming
suppression) lives in one place, ``montecarlo.rate_margins_block``, which
evaluates it on the ``ChannelBlock`` batches sampled here.

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
from typing import Callable

import numpy as np
# numpy loads its random submodule on first attribute access; load it with
# the package so the first simulated chunk does not pay for the import.
import numpy.random  # noqa: F401


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
        # Sweep points arrive as floats; array shapes and CSV rows need an int.
        object.__setattr__(self, "k_antennas", int(self.k_antennas))
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


@dataclass(frozen=True, eq=False)
class ChannelBlock:
    """A vectorized batch of fading realizations plus per-trial antenna picks.

    ``tx_pick`` holds one uniform antenna index per trial, consumed by the
    AF no-CSI transmit selection; it is drawn unconditionally so the
    random-number layout is identical across schemes (common random numbers).

    The derived features every scheme reads (squared gains, their sums,
    antenna picks, the gathered gains and the MRC cross term) are computed
    on first use and kept for the block's lifetime.  ``sample_channel_block``
    holds the last block it drew until a call with other arguments, so the
    schemes of one chunk, and every candidate of a power search, share a
    single draw and a single computation.  A plain per-instance memo, not
    ``functools.cached_property``, keeps chunk threads from contending for
    a class-wide lock.  The drawn and the cached arrays are read-only: a
    scheme that wrote into one would corrupt the next caller's margins.
    """

    h_ab: np.ndarray    # (n,) complex
    h_ar: np.ndarray    # (n, k) complex
    h_rb: np.ndarray    # (n, k) complex
    tx_pick: np.ndarray  # (n,) int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _cached(self, key, compute: Callable[[], np.ndarray]) -> np.ndarray:
        value = self._memo.get(key)
        if value is None:
            value = compute()
            value.flags.writeable = False
            self._memo[key] = value
        return value

    @property
    def g_ab(self) -> np.ndarray:
        return self._cached("g_ab", lambda: np.abs(self.h_ab) ** 2)

    @property
    def g_ar(self) -> np.ndarray:
        return self._cached("g_ar", lambda: np.abs(self.h_ar) ** 2)

    @property
    def g_rb(self) -> np.ndarray:
        return self._cached("g_rb", lambda: np.abs(self.h_rb) ** 2)

    @property
    def sum_a(self) -> np.ndarray:
        return self._cached("sum_a", lambda: self.g_ar.sum(axis=1))

    @property
    def sum_b(self) -> np.ndarray:
        return self._cached("sum_b", lambda: self.g_rb.sum(axis=1))

    @property
    def argmax_ar(self) -> np.ndarray:
        """Strongest first-hop antenna."""
        return self._cached("argmax_ar", lambda: np.argmax(self.g_ar, axis=1))

    @property
    def argmax_rb(self) -> np.ndarray:
        """Strongest second-hop antenna."""
        return self._cached("argmax_rb", lambda: np.argmax(self.g_rb, axis=1))

    @property
    def argmax_ratio(self) -> np.ndarray:
        """Antenna with the largest first-hop to second-hop gain ratio."""
        return self._cached("argmax_ratio", lambda: np.argmax(self.g_ar / self.g_rb, axis=1))

    @property
    def rows(self) -> np.ndarray:
        return self._cached("rows", lambda: np.arange(self.h_ab.shape[0]))

    @property
    def cross(self) -> np.ndarray:
        """|h_rb^H h_ar|^2, the MRC cross term of signal and jamming."""
        return self._cached(
            "cross", lambda: np.abs(np.einsum("ij,ij->i", np.conj(self.h_rb), self.h_ar)) ** 2
        )

    def gathered(self, gain: str, pick: str) -> np.ndarray:
        """Each trial's ``gain`` (``"g_ar"`` or ``"g_rb"``) on the antenna
        named by ``pick`` (an ``argmax_*`` feature or ``"tx_pick"``)."""
        return self._cached(
            (gain, pick), lambda: getattr(self, gain)[self.rows, getattr(self, pick)]
        )


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


def _complex_gaussian(rng: np.random.Generator, shape, mean_square: float) -> np.ndarray:
    scale = math.sqrt(mean_square / 2.0)
    z = rng.standard_normal(shape + (2,))
    return scale * z.view(np.complex128)[..., 0]


def block_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one chunk of trials.

    Keying the Philox stream by (seed, chunk index) makes every chunk's
    draws a pure function of its position, so estimates do not depend on
    how chunks are scheduled across workers.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The last block drawn, keyed by the full argument tuple of
# ``sample_channel_block``.  One entry; chunk threads that miss at the same
# time may each leave theirs until the next draw clears them.
_last_block: dict[tuple, ChannelBlock] = {}


def sample_channel_block(gains: LinkGains, k: int, seed: int, chunk_index: int, n: int) -> ChannelBlock:
    """Vectorized fading draws for trials [chunk_index*chunk, ...) of a run.

    The draw layout (order and count of underlying uniforms) is fixed for
    a given (k, n), so the same (seed, chunk_index) yields bit-identical
    channels regardless of which schemes consume them.

    A block is a pure function of the arguments, so the last one drawn is
    held and returned again, with its computed features, to a call with
    the same arguments: a power search scores every candidate on the same
    fading without drawing it again.  A call with other arguments drops
    the held block before it draws, so the old and the new block are
    never alive here together.  Concurrent chunk threads may replace each
    other's entry, which costs a redraw, never a wrong block.
    """
    key = (gains, k, seed, chunk_index, n)
    block = _last_block.get(key)
    if block is not None:
        return block
    _last_block.clear()
    rng = block_rng(seed, chunk_index)
    h_ab = _complex_gaussian(rng, (n,), gains.gamma_ab)
    h_ar = _complex_gaussian(rng, (n, k), gains.gamma_ar)
    h_rb = _complex_gaussian(rng, (n, k), gains.gamma_rb)
    tx_pick = rng.integers(0, k, size=n)
    for array in (h_ab, h_ar, h_rb, tx_pick):
        array.flags.writeable = False
    block = ChannelBlock(h_ab=h_ab, h_ar=h_ar, h_rb=h_rb, tx_pick=tx_pick)
    _last_block[key] = block
    return block


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
