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

    g_ab = np.abs(block.h_ab) ** 2
    g_ar = np.abs(block.h_ar) ** 2
    g_rb = np.abs(block.h_rb) ** 2
    rows = np.arange(block.h_ab.shape[0])

    if scheme is Scheme.DT:
        if mode is SelectionMode.FULL_ARRAY:
            relay_gain = g_ar.sum(axis=1)
        else:
            relay_gain = g_ar.max(axis=1)
        i_b = np.log2(1.0 + a * rho * g_ab)
        i_r = np.log2(1.0 + a * rho * relay_gain)
        return i_b - i_r

    if scheme is Scheme.AF:
        if mode is SelectionMode.FULL_ARRAY:
            sum_a = g_ar.sum(axis=1)
            sum_b = g_rb.sum(axis=1)
            if r > 0.0:
                den = sum_b + (a / r) * k * gains.gamma_ar + k / (r * rho)
                relay_snr = a * rho * sum_b * sum_a / den
            else:
                relay_snr = np.zeros_like(sum_a)
            eav_gain = sum_a
        else:
            m_star = np.argmax(g_ar, axis=1)
            if mode is SelectionMode.SELECT_CSI:
                n_star = np.argmax(g_rb, axis=1)
            else:
                n_star = block.tx_pick
            best_a = g_ar[rows, m_star]
            hop2 = g_rb[rows, n_star]
            if r > 0.0:
                den = hop2 + (a / r) * gains.gamma_ar + 1.0 / (r * rho)
                relay_snr = a * rho * hop2 * best_a / den
            else:
                relay_snr = np.zeros_like(best_a)
            eav_gain = best_a
        i_b = 0.5 * np.log2(1.0 + a * rho * g_ab + relay_snr)
        i_r = 0.5 * np.log2(1.0 + a * rho * eav_gain)
        return i_b - i_r

    # Cooperative jamming: the destination forfeits the direct link and jams
    # during the first phase, then cancels its own interference.
    if mode is SelectionMode.FULL_ARRAY:
        sum_a = g_ar.sum(axis=1)
        sum_b = g_rb.sum(axis=1)
        if r > 0.0:
            den = sum_b + (a / r) * k * gains.gamma_ar + (j / r) * k * gains.gamma_rb + k / (r * rho)
            bob_snr = a * rho * sum_b * sum_a / den
        else:
            bob_snr = np.zeros_like(sum_a)
        cross = np.abs(np.einsum("ij,ij->i", np.conj(block.h_rb), block.h_ar)) ** 2
        sinr = a * rho * sum_a - (a * rho) * (j * rho) * cross / (1.0 + j * rho * sum_b)
    else:
        if mode is SelectionMode.SELECT_CSI:
            m_star = np.argmax(g_ar / g_rb, axis=1)
            n_star = np.argmax(g_rb, axis=1)
        else:
            # Without CSI the relay transmits on its receive antenna, the
            # law the closed form describes.
            m_star = n_star = np.argmax(g_ar, axis=1)
        best_a = g_ar[rows, m_star]
        hop2 = g_rb[rows, n_star]
        jam = g_rb[rows, m_star]
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


def cj_full_array_high_snr_constant(
    gains: LinkGains, params: SystemParams, mc: McConfig
) -> SopEstimate:
    """High-SNR outage floor of full-array cooperative jamming (K > 1).

    In the limit the relay's max-SINR receiver nulls the jamming, leaving
    the SNR-free event  S_B * S_A / ((S_B + K*(gar+grb)) * ||P_perp h_ar||^2)
    < 2^(2R), where P_perp projects off the jamming direction.  No closed
    form exists; estimated by Monte Carlo.
    """
    k = params.k_antennas
    two2r = 2.0 ** (2.0 * params.rate)
    shift = k * (gains.gamma_ar + gains.gamma_rb)

    def run_chunk(idx: int, n: int) -> int:
        block = sample_channel_block(gains, k, mc.seed, idx, n)
        g_ar = np.abs(block.h_ar) ** 2
        g_rb = np.abs(block.h_rb) ** 2
        sum_a = g_ar.sum(axis=1)
        sum_b = g_rb.sum(axis=1)
        cross = np.abs(np.einsum("ij,ij->i", np.conj(block.h_rb), block.h_ar)) ** 2
        perp = np.maximum(sum_a - cross / sum_b, 0.0)
        numer = sum_b * sum_a
        outage = numer < two2r * (sum_b + shift) * perp
        return int(np.count_nonzero(outage))

    return _to_estimate(sum(_map_chunks(run_chunk, mc)), mc.trials)
