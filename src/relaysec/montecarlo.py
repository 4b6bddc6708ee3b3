"""Monte Carlo estimation of secrecy outage probabilities.

The simulator samples fading realizations, evaluates the per-scheme
signal-to-noise ratios directly from the signal model (independently of
the closed forms), and counts outage events.  A trial is in outage where
its secrecy rate pre * log2((1 + S_B) / (1 + S_R)) falls below the target
rate R, which is decided in the SNR domain as c S_B - S_R < 1 - c,
c = 2^{-R/pre}, with no logarithm per trial and no SNR added to 1; for the
two-phase schemes 2^{R/pre} is the closed forms' T = 2^{2R}.  Trials are
processed in chunks of ``CHUNK_SIZE`` whose random streams are keyed by
(seed, chunk index), so an estimate is a pure function of (seed, trials)
no matter how many workers execute the chunks.  Within one sweep point
all schemes consume identical fading draws (common random numbers), which
sharpens scheme comparisons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    ChannelBlock,
    LinkGains,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    row_tiles,
    sample_channel_block,
)


CHUNK_SIZE = 1 << 16  # trials per chunk; a run's last chunk may be shorter


@dataclass(frozen=True)
class McConfig:
    """Trial budget (at most 2^20 chunks), seed (64 bits) and workers (at most 64) of one run."""

    trials: int = 1_000_000
    seed: int = 20260810
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.trials <= (1 << 20) * CHUNK_SIZE:
            raise ValueError(f"trials must lie in [1, {(1 << 20) * CHUNK_SIZE}], got {self.trials}")
        if not 1 <= self.workers <= 64:
            raise ValueError(f"workers must lie in [1, 64], got {self.workers}")
        # block_rng keys Philox with 64 bits of the seed; a wider seed would alias another.
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")

    @property
    def chunk_size(self) -> int:  # read-only; perfbench's tracer counts a run's chunks with it
        return CHUNK_SIZE


# Rows per tile of the margin formulas: their n-vector temporaries take
# 64 KiB, under glibc's 128 KiB mmap threshold, so they are reused from the
# heap instead of being mapped and faulted in afresh on every call.  With
# whole-chunk margins, `figure 3 --trials 262144` faulted four times as
# many pages and took 1.6 times as long.
_MARGIN_ROWS = 8192


def rate_margins_block(block: ChannelBlock, gains: LinkGains, params: SystemParams) -> np.ndarray:
    """Outage flags for a block of fading draws: True where the secrecy-rate
    margin I_B - I_R falls below the target rate R.

    The margin pre * log2((1 + S_B) / (1 + S_R)), of Bob's and the relay's
    SNRs, is never formed: two-phase schemes (AF, CJ) carry the pre-log
    1/2, direct transmission 1, and the margin lies below R exactly when
    c S_B - S_R < 1 - c, c = 2^{-R/pre}, with 1 - c = -expm1(-(R/pre) ln 2).
    No SNR is added to 1, so an SNR below an ulp of 1 keeps its digits;
    at R = 0 the rule is S_B < S_R.  For the two-phase schemes 2^{R/pre} is
    the closed forms' T = 2^{2R}.  The factor c scales Bob's side: the
    relay's side scaled by 2^{R/pre} would overflow as R nears 512.  The
    margin is not clipped, so a zero target rate counts the complement of
    the positive-secrecy probability.  The function keeps the margin's
    name on purpose: the benchmark's tracer times the margin layer under
    it.  Node power fractions scale the respective transmit powers, with
    the relay's statistical normalization tracking the actual received
    power (signal, jamming, noise).  Each row tile of the block's features
    is decided on its own, so the temporaries stay small.
    """
    if block.k != params.k_antennas:
        raise ValueError(f"block has {block.k} antennas, params expect {params.k_antennas}")
    features = block.features(*_reads(params.scheme, block.k))
    per_use = params.rate if params.scheme.scheme is Scheme.DT else 2.0 * params.rate
    c, gap = 2.0 ** -per_use, -math.expm1(-per_use * math.log(2.0))
    n = block.h_ab.shape[0]
    if n <= _MARGIN_ROWS:
        return _outage(gains, params, c, gap, features)
    outage = np.empty(n, dtype=bool)
    for rows in row_tiles(n, _MARGIN_ROWS):
        _outage(gains, params, c, gap, [feature[rows] for feature in features], outage[rows])
    return outage


def _outage(
    gains: LinkGains, params: SystemParams, c: float, gap: float, features: Sequence[np.ndarray], out=None
) -> np.ndarray:
    """Where c S_B - S_R < 1 - c = ``gap``, on one row tile, both sides times ``_rates``'s u."""
    bob, relay, unit = _rates(gains, params, c, *features)
    bob -= relay
    unit *= gap
    return np.less(bob, unit, out=out)


@functools.cache
def _reads(scheme: SchemeId, k: int) -> tuple:
    """The block features the margins of ``scheme`` on k antennas read, in
    the order ``_rates`` takes them: direct gain, first hop, second hop,
    jamming, and the gain orthogonal to the jamming.

    The full array reads per-trial sums, the second hop's as CJ's jamming
    term, and CJ on K > 1 antennas the orthogonal gain too; selection reads
    each hop's gain on one antenna per trial.  The relay receives on its
    strongest first hop (a CJ relay with CSI: on its largest first- to
    second-hop ratio) and forwards on its strongest second hop with CSI, on
    a uniform pick without.  A CJ relay without CSI transmits on its receive
    antenna, the law the closed form describes.  On one antenna the modes
    coincide, and every mode reads the sums, so no antenna is picked.
    """
    orthogonal = ("orthogonal",) if scheme.mode is SelectionMode.FULL_ARRAY and k > 1 else ()
    if scheme.mode is SelectionMode.FULL_ARRAY or k == 1:
        hop1, hop2, jam = "sum_a", "sum_b", "sum_b"
    else:
        csi = scheme.mode is SelectionMode.SELECT_CSI
        if scheme.scheme is Scheme.CJ:
            rx, tx = ("argmax_ratio", "argmax_rb") if csi else ("argmax_ar", "argmax_ar")
        else:
            rx, tx = "argmax_ar", "argmax_rb" if csi else "tx_pick"
        hop1, hop2, jam = ("g_ar", rx), ("g_rb", tx), ("g_rb", rx)
    if scheme.scheme is Scheme.DT:
        return ("g_ab", hop1)
    return ("g_ab", hop1, hop2) if scheme.scheme is Scheme.AF else (hop1, hop2, jam, *orthogonal)


def _rates(gains: LinkGains, params: SystemParams, c: float, *features: np.ndarray) -> tuple:
    """The triple (c S_B u, S_R u, u) of Bob's and the relay's SNRs, for a
    positive u per trial, from the features ``_reads`` names, for one row
    tile; u is 1 for DT and AF, and a float there.

    The features are of unit-mean fading; this is the one place that
    knows the link gains, each folded into a scalar factor, as is ``c``.
    One expression per scheme serves the full array and selection: the
    relay normalizes its forwarded power over m antennas, m = K for the
    full array and m = 1 under selection.  CJ's eavesdropping SINR has one
    law, one antenna's SINR against the jamming on the antenna gains read;
    on an array of K > 1 the relay's max-SINR (MMSE) receiver adds the
    first hop's gain orthogonal to the jamming, which the jamming does not
    dim.  A relay without power forwards nothing.  Each term is built in
    place in one temporary, with no logarithm and no division but AF's
    amplification.
    """
    rho = params.rho
    a = params.power.frac_alice
    r = params.power.frac_relay
    j = params.power.frac_bob_jam
    scheme = params.scheme.scheme
    m = params.k_antennas if params.scheme.mode is SelectionMode.FULL_ARRAY else 1
    g_ar_scale = a * rho * gains.gamma_ar

    if scheme is Scheme.CJ:
        # Cooperative jamming: the destination forfeits the direct link and
        # jams during the first phase, then cancels its own interference.
        # Each SNR's denominator moves into u, so nothing divides: u starts
        # as the interference I = j gamma_rb S_jam + 1/rho, in units of
        # noise, and I S_R = a gamma_ar (S_ar + j rho gamma_rb Q), with the
        # orthogonal gain Q = |h_ar|^2 |h_rb|^2 - |h_rb^H h_ar|^2 on an
        # array.  Both are divided by j gamma_rb + 1/rho, which leaves
        # I = w S_jam + quiet with v = j rho gamma_rb, quiet = 1 / (1 + v)
        # and w = v quiet (taken as 1 - quiet from v = 1 on, which also
        # holds at v = inf), so the terms stay finite as gamma_rb nears the
        # top of the float range.
        hop1, hop2, jam, *orthogonal = features
        v = j * rho * gains.gamma_rb
        quiet = 1.0 / (1.0 + v)
        w = 1.0 - quiet if v > 1.0 else v * quiet
        unit = np.multiply(jam, w)
        unit += quiet
        relay = np.multiply(hop1, g_ar_scale * quiet)
        for q in orthogonal:
            relay += q * (g_ar_scale * w)
        if r <= 0.0:
            return 0.0, relay, unit
        # S_B = forwarded / floor, so u takes the floor too.
        floor = np.add(hop2, (((a / r) * m * gains.gamma_ar + m / (r * rho)) / gains.gamma_rb + (j / r) * m))
        relay *= floor
        bob = np.multiply(hop2, g_ar_scale * c)
        bob *= hop1
        bob *= unit
        unit *= floor
        return bob, relay, unit
    g_ab, hop1 = features[:2]
    bob = np.multiply(g_ab, a * rho * gains.gamma_ab * c)
    if scheme is Scheme.AF and r > 0.0:
        hop2 = features[2]
        forwarded = np.multiply(hop2, g_ar_scale * c)
        forwarded *= hop1
        forwarded /= np.add(hop2, ((a / r) * m * gains.gamma_ar + m / (r * rho)) / gains.gamma_rb)
        bob += forwarded
    return bob, np.multiply(hop1, g_ar_scale), 1.0


def _map_chunks(run_chunk: Callable[[int, int], object], mc: McConfig) -> list:
    """``run_chunk(chunk_index, n)`` over the run's chunks of ``CHUNK_SIZE`` trials, in chunk order.

    A thread pool runs them only at ``mc.workers > 1`` and more than one
    chunk, so a serial run never loads ``concurrent.futures``; the results
    come back in chunk order either way, so totals do not depend on
    scheduling.
    """
    if mc.trials <= CHUNK_SIZE:
        return [run_chunk(0, mc.trials)]
    sizes = [min(CHUNK_SIZE, mc.trials - start) for start in range(0, mc.trials, CHUNK_SIZE)]
    if mc.workers == 1:
        return [run_chunk(idx, n) for idx, n in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return list(pool.map(run_chunk, range(len(sizes)), sizes))


def _count_many(
    gains: LinkGains,
    params_list: Sequence[SystemParams],
    mc: McConfig,
) -> list[int]:
    """Outage counts for several schemes on shared draws, each block read
    as its ``tiles`` say, every scheme on a tile before the next tile."""
    if not params_list:
        return []
    k = params_list[0].k_antennas
    # Several schemes compute every feature they read in one pass of row
    # tiles; a lone scheme computes its own in rate_margins_block.
    shared = ()
    if len(params_list) > 1:
        if any(p.k_antennas != k for p in params_list):
            raise ValueError("shared-draw evaluation requires a common antenna count")
        shared = dict.fromkeys(name for params in params_list for name in _reads(params.scheme, k))

    def run_chunk(idx: int, n: int) -> list[int]:
        counts = [0] * len(params_list)
        for tile in sample_channel_block(k, mc.seed, idx, n).tiles(_MARGIN_ROWS):
            if shared:
                tile.features(*shared)
            for i, p in enumerate(params_list):
                counts[i] += int(np.count_nonzero(rate_margins_block(tile, gains, p)))
        return counts

    return [sum(counts) for counts in zip(*_map_chunks(run_chunk, mc))]


def _to_estimate(count: int, trials: int) -> SopEstimate:
    p = count / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return SopEstimate(value=p, stderr=stderr, trials=trials, method="montecarlo")


def estimate_sop(gains: LinkGains, params: SystemParams, mc: McConfig) -> SopEstimate:
    """Fraction of fading draws whose secrecy rate falls below the target rate."""
    count = _count_many(gains, [params], mc)[0]
    return _to_estimate(count, mc.trials)


def estimate_sop_many(
    gains: LinkGains, params_list: Sequence[SystemParams], mc: McConfig
) -> list[SopEstimate]:
    """Outage estimates for several schemes sharing identical fading draws."""
    counts = _count_many(gains, params_list, mc)
    return [_to_estimate(c, mc.trials) for c in counts]

