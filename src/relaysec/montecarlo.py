"""Monte Carlo estimation of secrecy outage probabilities.

The simulator samples fading realizations, evaluates the per-scheme mutual
information expressions directly from the signal model (independently of
the closed forms), and counts outage events.  Trials are processed in
fixed-size chunks whose random streams are keyed by (seed, chunk index),
so an estimate is a pure function of (seed, trials, chunk_size) no matter
how many workers execute the chunks.  Within one sweep point all schemes
consume identical fading draws (common random numbers), which sharpens
scheme comparisons.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True)
class McConfig:
    """Trial budget, random seed, chunking, and worker count for one run."""

    trials: int = 1_000_000
    seed: int = 20260810
    chunk_size: int = 1 << 16
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# Rows per tile of the margin formulas: their n-vector temporaries take
# 64 KiB, under glibc's 128 KiB mmap threshold, so they are reused from the
# heap instead of being mapped and faulted in afresh on every call.  With
# whole-chunk margins, `figure 3 --trials 262144` faulted four times as
# many pages and took 1.6 times as long.
_MARGIN_ROWS = 8192


def rate_margins_block(block: ChannelBlock, gains: LinkGains, params: SystemParams) -> np.ndarray:
    """Unclipped secrecy-rate margins I_B - I_R for a block of fading draws.

    The margin (which may be negative) drives the outage count, so that a
    zero target rate recovers the complement of the positive-secrecy
    probability; the achievable rate itself is the margin clipped at zero.
    Two-phase schemes (AF, CJ) carry the 1/2 pre-log; direct transmission
    does not.  Node power fractions scale the respective transmit powers,
    with the relay's statistical normalization tracking the actual
    received power (signal, jamming, noise).  The formulas run on row
    tiles of the block's features, so their temporaries stay small.
    """
    if block.k != params.k_antennas:
        raise ValueError(f"block has {block.k} antennas, params expect {params.k_antennas}")
    features = block.features(*_reads(params.scheme))
    n = block.h_ab.shape[0]
    if n <= _MARGIN_ROWS:
        # One tile returns its own result: copying it into an output
        # allocated before the formulas ran made the 8192-trial power
        # searches of `fig1-poweropt` about 3% slower.
        return np.subtract(*_rates(gains, params, *features))
    margins = np.empty(n)
    for rows in row_tiles(n, _MARGIN_ROWS):
        i_b, i_r = _rates(gains, params, *[feature[rows] for feature in features])
        np.subtract(i_b, i_r, out=margins[rows])
    return margins


def _reads(scheme: SchemeId) -> tuple:
    """The block features the margins of ``scheme`` read, in the order
    ``_rates`` takes them: direct gain, first hop, second hop, jamming.

    The full array reads per-trial sums and the MRC cross term; selection
    reads each hop's gain on one antenna per trial.  The relay receives on
    its strongest first hop (a CJ relay with CSI: on its largest first- to
    second-hop ratio) and forwards on its strongest second hop with CSI, on
    a uniform pick without.  A CJ relay without CSI transmits on its
    receive antenna, the law the closed form describes.
    """
    if scheme.mode is SelectionMode.FULL_ARRAY:
        hop1, hop2, jam = "sum_a", "sum_b", "cross"
    else:
        csi = scheme.mode is SelectionMode.SELECT_CSI
        if scheme.scheme is Scheme.CJ:
            rx, tx = ("argmax_ratio", "argmax_rb") if csi else ("argmax_ar", "argmax_ar")
        else:
            rx, tx = "argmax_ar", "argmax_rb" if csi else "tx_pick"
        hop1, hop2, jam = ("g_ar", rx), ("g_rb", tx), ("g_rb", rx)
    if scheme.scheme is Scheme.DT:
        return ("g_ab", hop1)
    return ("g_ab", hop1, hop2) if scheme.scheme is Scheme.AF else (hop1, hop2, jam)


def _rates(gains: LinkGains, params: SystemParams, *features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I_B, I_R) from the features ``_reads`` names, for one row tile.

    One expression per scheme serves the full array and selection: the
    relay normalizes its forwarded power over m antennas, m = K for the
    full array and m = 1 under selection.  Only CJ's eavesdropping SINR
    has two laws: MMSE against the jamming on the array, and one
    antenna's SINR under selection.  A relay without power forwards
    nothing.
    """
    rho = params.rho
    a = params.power.frac_alice
    r = params.power.frac_relay
    j = params.power.frac_bob_jam
    full = params.scheme.mode is SelectionMode.FULL_ARRAY
    m = params.k_antennas if full else 1

    if params.scheme.scheme is Scheme.DT:
        g_ab, hop1 = features
        return np.log2(1.0 + a * rho * g_ab), np.log2(1.0 + a * rho * hop1)

    if params.scheme.scheme is Scheme.AF:
        g_ab, hop1, hop2 = features
        if r > 0.0:
            den = hop2 + (a / r) * m * gains.gamma_ar + m / (r * rho)
            relay_snr = a * rho * hop2 * hop1 / den
        else:
            relay_snr = np.zeros_like(hop1)
        return 0.5 * np.log2(1.0 + a * rho * g_ab + relay_snr), 0.5 * np.log2(1.0 + a * rho * hop1)

    # Cooperative jamming: the destination forfeits the direct link and jams
    # during the first phase, then cancels its own interference.
    hop1, hop2, jam = features
    if r > 0.0:
        den = hop2 + (a / r) * m * gains.gamma_ar + (j / r) * m * gains.gamma_rb + m / (r * rho)
        bob_snr = a * rho * hop2 * hop1 / den
    else:
        bob_snr = np.zeros_like(hop1)
    if full:
        sinr = a * rho * hop1 - (a * rho) * (j * rho) * jam / (1.0 + j * rho * hop2)
    else:
        sinr = a * hop1 / (j * jam + 1.0 / rho)
    return 0.5 * np.log2(1.0 + bob_snr), 0.5 * np.log2(1.0 + sinr)


def _map_chunks(run_chunk: Callable[[int, int], object], mc: McConfig) -> list:
    """``run_chunk(chunk_index, n)`` over every chunk of the run, in chunk order.

    Chunks run on a thread pool when ``mc.workers > 1``; the results come
    back in chunk order either way, so totals do not depend on scheduling.
    """
    starts = range(0, mc.trials, mc.chunk_size)
    indices = range(len(starts))
    sizes = [min(mc.chunk_size, mc.trials - start) for start in starts]
    if mc.workers == 1:
        return [run_chunk(idx, n) for idx, n in zip(indices, sizes)]
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return list(pool.map(run_chunk, indices, sizes))


def _count_many(
    gains: LinkGains,
    params_list: Sequence[SystemParams],
    mc: McConfig,
) -> list[int]:
    """Outage counts for several schemes on shared draws."""
    k = params_list[0].k_antennas
    if any(p.k_antennas != k for p in params_list):
        raise ValueError("shared-draw evaluation requires a common antenna count")

    # Several schemes compute every feature they read in one pass of row
    # tiles; a lone scheme computes its own in rate_margins_block.
    shared = ()
    if len(params_list) > 1:
        shared = dict.fromkeys(name for params in params_list for name in _reads(params.scheme))

    def run_chunk(idx: int, n: int) -> list[int]:
        block = sample_channel_block(gains, k, mc.seed, idx, n)
        block.features(*shared)
        counts = []
        for params in params_list:
            margins = rate_margins_block(block, gains, params)
            counts.append(int(np.count_nonzero(margins < params.rate)))
        return counts

    per_chunk = _map_chunks(run_chunk, mc)
    return [sum(chunk[i] for chunk in per_chunk) for i in range(len(params_list))]


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

