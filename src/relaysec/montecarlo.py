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
    SelectionMode,
    SopEstimate,
    SystemParams,
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


def rate_margins_block(block: ChannelBlock, gains: LinkGains, params: SystemParams) -> np.ndarray:
    """Unclipped secrecy-rate margins I_B - I_R for a block of fading draws.

    The margin (which may be negative) drives the outage count, so that a
    zero target rate recovers the complement of the positive-secrecy
    probability; the achievable rate itself is the margin clipped at zero.
    Two-phase schemes (AF, CJ) carry the 1/2 pre-log; direct transmission
    does not.  Node power fractions scale the respective transmit powers,
    with the relay's statistical normalization tracking the actual
    received power (signal, jamming, noise).
    """
    k = params.k_antennas
    rho = params.rho
    a = params.power.frac_alice
    r = params.power.frac_relay
    j = params.power.frac_bob_jam
    scheme, mode = params.scheme.scheme, params.scheme.mode
    if block.h_ar.shape[1] != k:
        raise ValueError(f"block has {block.h_ar.shape[1]} antennas, params expect {k}")

    if scheme is Scheme.DT:
        if mode is SelectionMode.FULL_ARRAY:
            relay_gain = block.sum_a
        else:
            relay_gain = block.gathered("g_ar", "argmax_ar")
        i_b = np.log2(1.0 + a * rho * block.g_ab)
        i_r = np.log2(1.0 + a * rho * relay_gain)
        return i_b - i_r

    if scheme is Scheme.AF:
        if mode is SelectionMode.FULL_ARRAY:
            sum_a, sum_b = block.sum_a, block.sum_b
            if r > 0.0:
                den = sum_b + (a / r) * k * gains.gamma_ar + k / (r * rho)
                relay_snr = a * rho * sum_b * sum_a / den
            else:
                relay_snr = np.zeros_like(sum_a)
            eav_gain = sum_a
        else:
            best_a = block.gathered("g_ar", "argmax_ar")
            n_star = "argmax_rb" if mode is SelectionMode.SELECT_CSI else "tx_pick"
            hop2 = block.gathered("g_rb", n_star)
            if r > 0.0:
                den = hop2 + (a / r) * gains.gamma_ar + 1.0 / (r * rho)
                relay_snr = a * rho * hop2 * best_a / den
            else:
                relay_snr = np.zeros_like(best_a)
            eav_gain = best_a
        i_b = 0.5 * np.log2(1.0 + a * rho * block.g_ab + relay_snr)
        i_r = 0.5 * np.log2(1.0 + a * rho * eav_gain)
        return i_b - i_r

    # Cooperative jamming: the destination forfeits the direct link and jams
    # during the first phase, then cancels its own interference.
    if mode is SelectionMode.FULL_ARRAY:
        sum_a, sum_b = block.sum_a, block.sum_b
        if r > 0.0:
            den = sum_b + (a / r) * k * gains.gamma_ar + (j / r) * k * gains.gamma_rb + k / (r * rho)
            bob_snr = a * rho * sum_b * sum_a / den
        else:
            bob_snr = np.zeros_like(sum_a)
        sinr = a * rho * sum_a - (a * rho) * (j * rho) * block.cross / (1.0 + j * rho * sum_b)
    else:
        if mode is SelectionMode.SELECT_CSI:
            m_star, n_star = "argmax_ratio", "argmax_rb"
        else:
            # Without CSI the relay transmits on its receive antenna, the
            # law the closed form describes.
            m_star = n_star = "argmax_ar"
        best_a = block.gathered("g_ar", m_star)
        hop2 = block.gathered("g_rb", n_star)
        jam = block.gathered("g_rb", m_star)
        if r > 0.0:
            den = hop2 + (a / r) * gains.gamma_ar + (j / r) * gains.gamma_rb + 1.0 / (r * rho)
            bob_snr = a * rho * hop2 * best_a / den
        else:
            bob_snr = np.zeros_like(best_a)
        sinr = a * best_a / (j * jam + 1.0 / rho)
    i_b = 0.5 * np.log2(1.0 + bob_snr)
    i_r = 0.5 * np.log2(1.0 + sinr)
    return i_b - i_r


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

    def run_chunk(idx: int, n: int) -> list[int]:
        block = sample_channel_block(gains, k, mc.seed, idx, n)
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

