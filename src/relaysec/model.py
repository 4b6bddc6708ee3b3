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
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
    on first use and kept for the block's lifetime, so the schemes of one
    chunk share a single computation.  A block kept by a ``block_scope``
    store is shared further, by every later pass over the same chunk in
    that scope, and its features count toward the store's byte bound: a
    feature that no longer fits is computed again on each use instead of
    kept.  A plain per-instance memo, not ``functools.cached_property``,
    keeps chunk threads from contending for a class-wide lock.  The drawn
    and the cached arrays are read-only: a scheme that wrote into one
    would corrupt the next caller's margins.
    """

    h_ab: np.ndarray    # (n,) complex
    h_ar: np.ndarray    # (n, k) complex
    h_rb: np.ndarray    # (n, k) complex
    tx_pick: np.ndarray  # (n,) int
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _store: _BlockStore | None = field(default=None, init=False, repr=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the drawn arrays; computed features not included."""
        return self.h_ab.nbytes + self.h_ar.nbytes + self.h_rb.nbytes + self.tx_pick.nbytes

    def _cached(self, key, compute: Callable[[], np.ndarray]) -> np.ndarray:
        value = self._memo.get(key)
        if value is None:
            value = compute()
            value.flags.writeable = False
            if self._store is None or self._store.admit(value.nbytes):
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


# Bytes a block scope may keep, drawn arrays and computed features together.
# A K = 1 chunk of 65,536 trials with the full-array features takes about
# 6.5 MiB, so a default figure-1 run keeps all 17 of its blocks (103 MiB);
# a K = 6 chunk with the selection features takes about 23 MiB.
BLOCK_STORE_BYTES = 256 << 20


class _BlockStore:
    """The blocks drawn inside one ``block_scope``, up to a byte bound.

    Admission is first come, first kept: once a block does not fit, it is
    handed out unkept, so the leading chunks of a sequential scan stay and
    still hit on the next pass.  Bookkeeping runs under a lock because the
    chunk threads of ``workers > 1`` draw and compute features at once.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self.blocks: dict[tuple, ChannelBlock] = {}
        self._open = True
        self._lock = threading.Lock()

    def get(self, key: tuple) -> ChannelBlock | None:
        with self._lock:
            return self.blocks.get(key)

    def keep(self, key: tuple, block: ChannelBlock) -> None:
        with self._lock:
            if self._open and key not in self.blocks and self.nbytes + block.nbytes <= self.limit:
                self.blocks[key] = block
                self.nbytes += block.nbytes
                object.__setattr__(block, "_store", self)

    def admit(self, nbytes: int) -> bool:
        """Count a feature computed on a kept block; False if it does not fit."""
        with self._lock:
            if not self._open:
                return True  # the scope is over; the block is its holder's alone
            if self.nbytes + nbytes > self.limit:
                return False
            self.nbytes += nbytes
            return True

    def close(self) -> None:
        with self._lock:
            self._open = False
            self.blocks.clear()


_store: _BlockStore | None = None


@contextmanager
def block_scope() -> Iterator[None]:
    """Keep every block ``sample_channel_block`` draws until the scope exits.

    Open one where a later pass reads the same chunks again: the points of
    a figure axis that leaves the gains and K alone, or the candidates of a
    power search.  Inside an open scope this is a no-op, so a search run
    from a figure point shares the figure's store.  The store is bounded
    by ``BLOCK_STORE_BYTES`` and dropped, with every block it keeps, when
    the outermost scope exits.  Scopes are process-wide, so the chunk
    threads of ``workers > 1`` share the store of the scope that runs them.
    """
    global _store
    if _store is not None:
        yield
        return
    store = _store = _BlockStore(BLOCK_STORE_BYTES)
    try:
        yield
    finally:
        _store = None
        store.close()


def sample_channel_block(gains: LinkGains, k: int, seed: int, chunk_index: int, n: int) -> ChannelBlock:
    """Vectorized fading draws for trials [chunk_index*chunk, ...) of a run.

    The draw layout (order and count of underlying uniforms) is fixed for
    a given (k, n), so the same (seed, chunk_index) yields bit-identical
    channels regardless of which schemes consume them.

    A block is a pure function of the arguments.  Inside a ``block_scope``
    the scope's store keeps each block drawn, keyed by the whole argument
    tuple, while it fits the store's byte bound, and returns it, with the
    features already computed on it, to every later call with the same
    arguments.  Outside a scope nothing is kept: the block lives as long
    as its caller holds it.  Chunk threads that miss on the same key at
    once each draw it, which costs a redraw, never a wrong block.
    """
    key = (gains, k, seed, chunk_index, n)
    store = _store
    if store is not None:
        block = store.get(key)
        if block is not None:
            return block
    rng = block_rng(seed, chunk_index)
    h_ab = _complex_gaussian(rng, (n,), gains.gamma_ab)
    h_ar = _complex_gaussian(rng, (n, k), gains.gamma_ar)
    h_rb = _complex_gaussian(rng, (n, k), gains.gamma_rb)
    tx_pick = rng.integers(0, k, size=n)
    for array in (h_ab, h_ar, h_rb, tx_pick):
        array.flags.writeable = False
    block = ChannelBlock(h_ab=h_ab, h_ar=h_ar, h_rb=h_rb, tx_pick=tx_pick)
    if store is not None:
        store.keep(key, block)
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
