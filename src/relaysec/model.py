"""Domain types, Rayleigh fading sampling, and the closed forms' derived coefficients.

The signal model is split in two.  Its per-trial features of unit-mean
fading live here, in ``_FORMULAS``, computed on the ``ChannelBlock``
batches sampled here: the squared gains, the MRC per-trial sums, the
antenna picks with the gains gathered on them, and the full array's gain
orthogonal to the jamming.  ``montecarlo._reads`` names the features each
scheme and antenna mode reads (its selection rule), and
``montecarlo._rates`` builds the SNRs from them with the link gains and
power split (beamforming, amplification, jamming), whose outage
``montecarlo.rate_margins_block`` decides.

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
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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
            # A numpy scalar would warn where a closed form overflows to inf
            # on purpose; a Python float does so quietly.
            object.__setattr__(self, name, float(v))


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
        # No form is checked beyond K = 1024, and each antenna costs 4n normals a chunk.
        if not (1 <= self.k_antennas <= 1024 and int(self.k_antennas) == self.k_antennas):
            raise ValueError(f"k_antennas must be an integer in [1, 1024], got {self.k_antennas}")
        # Sweep points arrive as floats; array shapes and CSV rows need an int.
        object.__setattr__(self, "k_antennas", int(self.k_antennas))
        # The closed forms compute 2^{2R}, a finite float only for R < 512.
        if not 0 <= self.rate < 512:
            raise ValueError(f"rate must lie in [0, 512), got {self.rate}")
        # Python floats, as LinkGains stores its gains.
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "rate", float(self.rate))


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


# Bytes of (rows, K) complex coefficients per tile of feature computation:
# a block's features are computed a row tile at a time, so no (n, K) array
# of a chunk is built in full.  At K = 10, tiles of 64 KiB (409 rows) paid
# numpy's per-call cost so often that `figure 8 --trials 131072` ran about
# 13% longer.
FEATURE_TILE_BYTES = 256 << 10


def row_tiles(n: int, rows: int) -> Iterator[slice]:
    """Consecutive ranges of at most ``rows`` of n rows."""
    return (slice(start, min(n, start + rows)) for start in range(0, n, rows))


def feature_rows(k: int) -> int:
    """Rows per tile of feature computation on k antennas."""
    return max(1, FEATURE_TILE_BYTES // (16 * k))


# Each derived feature from the tile values it reads.  g_ar and g_rb are
# (rows, K) and live only within a tile; the others are n-vectors: the
# squared gains' per-trial sums, the strongest first-hop antenna, the
# strongest second-hop antenna, the antenna with the largest first-hop to
# second-hop gain ratio, |h_rb^H h_ar|^2, the MRC cross term of signal and
# jamming, and |h_rb|^2 times the gain orthogonal to the jamming.  A squared
# magnitude is re^2 + im^2 (hypot, then a square, took 1.6 times as long),
# and a per-trial sum a product with a vector of ones (numpy's row sums took
# 4 to 16 times as long for K from 2 to 10), each within a few ulp of numpy.
# The cross term keeps its einsum: a product of the conjugate product with
# ones was no faster, and it sums in another order, which the orthogonal
# gain's difference shows.
_FORMULAS: dict[str, Callable[[Callable[[str], np.ndarray]], np.ndarray]] = {
    "g_ab": lambda get: _abs2(get("h_ab")),
    "g_ar": lambda get: _abs2(get("h_ar")),
    "g_rb": lambda get: _abs2(get("h_rb")),
    "sum_a": lambda get: _row_sums(get("g_ar")),
    "sum_b": lambda get: _row_sums(get("g_rb")),
    "argmax_ar": lambda get: np.argmax(get("g_ar"), axis=1),
    "argmax_rb": lambda get: np.argmax(get("g_rb"), axis=1),
    "argmax_ratio": lambda get: np.argmax(get("g_ar") / get("g_rb"), axis=1),
    "cross": lambda get: _abs2(np.einsum("ij,ij->i", np.conj(get("h_rb")), get("h_ar"))),
    "orthogonal": lambda get: get("sum_a") * get("sum_b") - get("cross"),
}
_PICKS = ("argmax_ar", "argmax_rb", "argmax_ratio", "tx_pick")


def _abs2(h: np.ndarray) -> np.ndarray:
    """|h|^2 of complex coefficients, as re^2 + im^2."""
    power = np.square(h.real)
    power += np.square(h.imag)
    return power


def _row_sums(g: np.ndarray) -> np.ndarray:
    """Each row's sum of a (rows, K) array, the column itself at K = 1.

    OpenBLAS runs a product with a one-element vector on its thread pool,
    and waking the idle pool took 6 to 10 ms a tile on two cores.
    """
    if g.shape[1] == 1:
        return g[:, 0]
    return np.dot(g, np.ones(g.shape[1]))


@dataclass(frozen=True, eq=False)
class ChannelBlock:
    """A vectorized batch of fading realizations plus per-trial antenna picks.

    The coefficients are unit-mean fading, which the rate margins scale by
    the link gains.  A block holds only n-vectors.  ``h_ab`` is the direct
    link, and ``tx_pick`` one uniform antenna index per trial, consumed by
    the AF no-CSI transmit selection; it is drawn unconditionally so the
    random-number layout is identical across schemes (common random
    numbers).  The relay's (n, K) coefficients ``h_ar`` and ``h_rb`` are not
    held: ``hop_rows`` yields any row range of them, from the chunk's normal
    stream for a sampled block (see ``sample_channel_block``).

    The features the schemes read (the squared direct gain, per-trial sums,
    antenna picks, gathered gains and the orthogonal gain, each an
    n-vector) are computed by ``features`` in row tiles, only those asked
    for, all missing ones in one pass, and kept for the block's lifetime,
    so the schemes of one chunk share a single computation; ``tiles`` says
    whether they are read on the whole block or on views of its rows.  A
    block kept in a ``block_scope`` counts its features toward the scope's
    byte bound through ``_store``.  A plain per-instance memo, not
    ``functools.cached_property``, keeps chunk threads from contending for
    a class-wide lock.  The held and the computed arrays are read-only: a
    scheme that wrote into one would corrupt the next caller's margins.
    """

    h_ab: np.ndarray     # (n,) complex
    tx_pick: np.ndarray  # (n,) int
    k: int
    hop_rows: Callable[[str, int, int], np.ndarray]  # ("h_ar" | "h_rb", start, stop) -> rows
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _store: _BlockStore | None = field(default=None, init=False, repr=False)

    @property
    def nbytes(self) -> int:
        """Bytes a sampled block owns, ``tx_pick``: its ``h_ab`` views the stream, and features are not included."""
        return self.tx_pick.nbytes

    @property
    def kept(self) -> bool:
        """Whether a block scope keeps the block, with its features, for later passes."""
        return self._store is not None

    def view(self, rows: slice) -> ChannelBlock:
        """The block's trials ``rows``, a contiguous range, as a block of its
        own: its draws are views of this block's, its features its own."""
        start, hop_rows = rows.indices(self.h_ab.shape[0])[0], self.hop_rows
        return ChannelBlock(
            h_ab=self.h_ab[rows], tx_pick=self.tx_pick[rows], k=self.k,
            hop_rows=lambda name, first, stop: hop_rows(name, start + first, start + stop),
        )

    def tiles(self, rows: int) -> Iterable[ChannelBlock]:
        """How a pass reads the block: whole where a block scope keeps it (its
        full-length features serve later passes) or where it fits in one
        tile; otherwise as views, made one at a time, of the fewest whole
        feature tiles that hold ``rows`` trials, so no feature is built
        full-length.  Whole feature tiles give each feature the row ranges
        it has on the whole block, so it comes out bit for bit the same:
        OpenBLAS may round a row's sum differently in a product of another
        row count."""
        step = feature_rows(self.k) * -(-rows // feature_rows(self.k))
        n = self.h_ab.shape[0]
        if self.kept or n <= step:
            return (self,)
        return map(self.view, row_tiles(n, step))

    def features(self, *names) -> tuple[np.ndarray, ...]:
        """The named features, in order.  A name is a key of ``_FORMULAS``
        that yields an n-vector, or a (gain, pick) pair: each trial's
        ``gain`` ("g_ar" or "g_rb") on the antenna ``pick`` names (an
        ``argmax_*`` feature or "tx_pick")."""
        memo = self._memo
        missing = [name for name in names if name not in memo]
        if not missing:
            return tuple([memo[name] for name in names])
        n = self.h_ab.shape[0]
        computed = {
            name: np.empty(n, dtype=np.intp if name in _PICKS else np.float64)
            for name in dict.fromkeys(missing)
        }
        for rows in row_tiles(n, feature_rows(self.k)):
            tile: dict = {}
            for name, value in computed.items():
                value[rows] = self._tile(name, rows, tile)
        for name, value in computed.items():
            value.flags.writeable = False
            if self._store is None or self._store.admit(value.nbytes):
                memo[name] = value
        values = {**memo, **computed}
        return tuple([values[name] for name in names])

    def _tile(self, name, rows: slice, tile: dict) -> np.ndarray:
        """Feature ``name`` on ``rows``, through the tile's cache ``tile``."""
        value = tile.get(name)
        if value is None:
            if name in self._memo:
                value = self._memo[name][rows]
            elif name in ("h_ab", "tx_pick"):
                value = getattr(self, name)[rows]
            elif name in ("h_ar", "h_rb"):
                value = self.hop_rows(name, rows.start, rows.stop)
            elif isinstance(name, tuple):
                gain, pick = (self._tile(part, rows, tile) for part in name)
                # A flat index: indexing by (row, pick) took 2 to 3 times as long.
                value = np.take(gain, pick + np.arange(0, gain.size, self.k))
            else:
                value = _FORMULAS[name](lambda dep: self._tile(dep, rows, tile))
            tile[name] = value
        return value


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


def block_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based generator for one chunk of trials.

    Keying the Philox stream by (seed, chunk index) makes every chunk's
    draws a pure function of its position, so estimates do not depend on
    how chunks are scheduled across workers.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Stream:
    """The normals ``block_rng(seed, chunk_index)`` yields for a chunk of n
    trials, drawn antenna by antenna and scaled by sqrt(1/2), so each pair
    is one unit-mean-square coefficient.

    The block of K antennas reads the first 2n + 4nK of them (see
    ``sample_channel_block``), so one stream serves every K up to the
    largest drawn.  It is held as segments, the first 6n normals (K = 1)
    and then 4n for each further antenna, with the generator state after
    each segment, from which the block of that K draws ``tx_pick``.
    Drawing in segments gives the same normals and end state as one call.
    Given a ``head``, the stream starts from the head's segments and
    generator state, so it draws only the antennas the head lacks.
    """

    def __init__(self, seed: int, chunk_index: int, n: int, head: _Stream | None = None):
        self.key = (seed, chunk_index, n)
        self.n = n
        self.reserved = 0  # bytes a store has counted for this stream
        self.asked: int | None = None  # the K of the last block asked of a kept stream
        self.kept: ChannelBlock | None = None  # that block, once asked for twice in a row
        self._lock = threading.Lock()
        if head is None:
            self._rng, self._segments, self._states = block_rng(seed, chunk_index), [], []
        else:
            with head._lock:
                self._rng = _resume(head._rng.bit_generator.state)
                self._segments, self._states = list(head._segments), list(head._states)

    @staticmethod
    def nbytes(n: int, k: int) -> int:
        """Bytes of a stream grown to k antennas."""
        return 8 * (2 * n + 4 * n * k)

    def grow(self, k: int) -> None:
        with self._lock:
            while len(self._segments) < k:
                segment = self._rng.standard_normal(4 * self.n if self._segments else 6 * self.n)
                segment *= math.sqrt(0.5)
                segment.flags.writeable = False
                self._segments.append(segment)
                self._states.append(self._rng.bit_generator.state)

    def normals(self, start: int, stop: int) -> np.ndarray:
        """Normals [start, stop) of the stream: a view within one segment."""
        n, pieces = self.n, []
        while start < stop:
            index = max(0, (start - 2 * n) // (4 * n))
            first = 2 * n + 4 * n * index if index else 0
            segment = self._segments[index]
            end = min(stop, first + segment.size)
            pieces.append(segment[start - first:end - first])
            start = end
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def block(self, k: int) -> ChannelBlock:
        """The block of k antennas: views of the stream."""
        self.grow(k)
        n = self.n
        tx_pick = _resume(self._states[k - 1]).integers(0, k, size=n)
        tx_pick.flags.writeable = False
        first = {"h_ar": 2 * n, "h_rb": 2 * n + 2 * n * k}

        def hop_rows(name: str, start: int, stop: int) -> np.ndarray:
            z = self.normals(first[name] + 2 * k * start, first[name] + 2 * k * stop)
            return z.view(np.complex128).reshape(stop - start, k)

        return ChannelBlock(h_ab=self.normals(0, 2 * n).view(np.complex128), tx_pick=tx_pick, k=k, hop_rows=hop_rows)


def _resume(state: dict) -> np.random.Generator:
    """A generator that continues from a Philox ``state``."""
    rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = state
    return rng


# Bytes a block scope may keep: normal streams and kept blocks with their
# features together.  A chunk of 65,536 trials takes 3 MiB of normals at
# K = 1 and 21 MiB at K = 10; a kept K = 1 block with the full-array
# features takes about 3.5 MiB more.
BLOCK_STORE_BYTES = 256 << 20


class _BlockStore:
    """The normal streams one ``block_scope`` keeps, up to a byte bound;
    see ``block_scope`` for the policy.  Bookkeeping runs under a lock
    because the chunk threads of ``workers > 1`` draw and compute features
    at once."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self.streams: dict[tuple, _Stream] = {}
        self._lock = threading.Lock()

    def block(self, k: int, seed: int, chunk_index: int, n: int) -> ChannelBlock:
        """The block of k antennas for the chunk."""
        key = (seed, chunk_index, n)
        with self._lock:
            stream = self.streams.get(key)
            repeated = stream is not None and stream.asked == k
            if repeated and stream.kept is not None:
                return stream.kept
            growth = max(0, _Stream.nbytes(n, k) - (stream.reserved if stream else 0))
            fits = self.nbytes + growth <= self.limit
            if fits and stream is None:
                stream = self.streams[key] = _Stream(seed, chunk_index, n)
            if stream is not None:
                self._release(stream)
                stream.asked = k
            if fits:
                self.nbytes += growth
                stream.reserved += growth
        if not fits:
            return _Stream(seed, chunk_index, n, head=stream).block(k)
        block = stream.block(k)
        if repeated:
            with self._lock:
                if stream.asked == k and stream.kept is None and self.nbytes + block.nbytes <= self.limit:
                    stream.kept = block
                    self.nbytes += block.nbytes
                    object.__setattr__(block, "_store", self)
        return block

    def _release(self, stream: _Stream) -> None:
        """Let go of the stream's kept block and of the bytes counted for it."""
        block, stream.kept = stream.kept, None
        if block is not None:
            self.nbytes -= block.nbytes + sum(value.nbytes for value in block._memo.values())
            object.__setattr__(block, "_store", None)

    def admit(self, nbytes: int) -> bool:
        """Count a feature computed on a kept block; False if it does not fit."""
        with self._lock:
            if self.nbytes + nbytes > self.limit:
                return False
            self.nbytes += nbytes
            return True

    def close(self) -> None:
        with self._lock:
            for stream in self.streams.values():
                self._release(stream)
            self.streams.clear()


_store: _BlockStore | None = None


@contextmanager
def block_scope() -> Iterator[None]:
    """Keep the normal stream of each chunk ``sample_channel_block`` draws,
    with at most one block, until the scope exits.

    Open one around a run whose passes read the same chunks again.  Inside
    it, a chunk's stream of normals is kept from its first draw and grown
    to the largest K asked of it, so the chunk is drawn once, whatever the
    antenna counts of the blocks built from it.  A stream keeps one block,
    with the features computed on it: that of a K asked of it twice in a
    row, until another K is asked of it (the points of an axis that
    leaves K alone, gains and SNR axes alike, or the candidates of a
    power search).  No other block is kept: not a K's first request, not
    a K that changes at every point, not any block outside a scope
    (``ChannelBlock.tiles`` says how kept and unkept blocks are read).
    ``BLOCK_STORE_BYTES`` bounds the streams' normals and the kept blocks'
    n-vectors and features together, first come, first kept, so the
    leading chunks of a sequential scan stay.  A request whose
    growth does not fit leaves the stream as it is, a kept head, and builds
    its block from an unkept copy of the head that draws only the antennas
    the head lacks (from a fresh stream where the chunk has no head); a
    feature that does not fit is computed again on each use.

    Inside an open scope this is a no-op, so a search run from a figure
    point shares the figure's store.  The store is dropped, with
    everything it keeps, when the outermost scope exits.  Scopes are
    process-wide, so the chunk threads of ``workers > 1`` share the store
    of the scope that runs them.
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


def sample_channel_block(k: int, seed: int, chunk_index: int, n: int) -> ChannelBlock:
    """Unit-mean Rayleigh fading draws for trials [chunk_index*chunk, ...) of a run.

    The block is built from the unit normals S of ``block_rng(seed,
    chunk_index)``: h_ab from S[0:2n], h_ar from the next 2nK as n rows of
    K, h_rb from the next 2nK, each pair of normals scaled by sqrt(1/2)
    into one coefficient of mean square 1, and ``tx_pick`` from the
    generator right after them.  The link gains enter only in
    ``montecarlo.rate_margins_block``.  A block is thus a pure function of
    the arguments, the same whichever gains and schemes consume it, and
    the blocks of one chunk nest: every K reads a prefix of the same
    stream.

    Inside a ``block_scope`` the chunk's stream, and at most one block of
    it, may be kept; see ``block_scope``, and ``ChannelBlock.tiles`` for how
    a block is read.  Outside a scope the block lives, with its stream, as
    long as its caller holds it.  Chunk threads that ask one stream for a
    block at once may each build it, which costs a rebuild, never a wrong
    block.
    """
    store = _store
    if store is None:
        return _Stream(seed, chunk_index, n).block(k)
    return store.block(k, seed, chunk_index, n)


def threshold_t(gains: LinkGains, params: SystemParams, level: float = 0.0) -> float:
    """The z > 0 where phi(z) = ``level``; inf from ``level`` = rho on, which phi only nears.

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


def derived_coefficients(gains: LinkGains, params: SystemParams) -> DerivedCoefficients:
    """Auxiliary scalars (mu1, beta1, beta2, threshold t, and phi) for the closed forms."""
    rho = params.rho
    two2r = 2.0 ** (2.0 * params.rate)
    c = two2r - 1.0
    mu1 = (gains.gamma_ar + 1.0 / rho) / gains.gamma_rb
    beta1 = 1.0 + gains.gamma_ar / gains.gamma_ab
    # (2^{2R} gamma_ar + gamma_ab) / (c gamma_ar + gamma_ab), 1 where c overflows.
    beta2 = 1.0 + gains.gamma_ar / (c * gains.gamma_ar + gains.gamma_ab)
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / rho

    # Below z_big neither rho z nor z + s can overflow.  From there on, and
    # at z = inf, where phi takes its limit rho, its first term is rho / (1 + s / z).
    z_big = 0.5 * min(sys.float_info.max / max(1.0, rho), sys.float_info.max - s)

    def phi(z: float) -> float:
        if z < z_big:
            return rho * z / (z + s) - two2r / (z + 1.0 / rho)
        return rho / (1.0 + s / z) - two2r / (z + 1.0 / rho)

    return DerivedCoefficients(
        mu1=mu1,
        beta1=beta1,
        beta2=beta2,
        t=threshold_t(gains, params),
        phi=phi,
    )
