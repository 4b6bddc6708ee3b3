"""Shared fixtures: the standard figure settings, the (scheme, mode) pairs, a
one-trial channel builder, and block helpers for oracles: a block of given
coefficients, a block's relay coefficients in full, Lagrange's identity, and
the kernel's secrecy-rate margins in bits."""

import numpy as np
import pytest

from relaysec import LinkGains, db_to_linear, montecarlo
from relaysec.model import ChannelBlock, Scheme, SchemeId, SelectionMode

# The eight (scheme, mode) pairs; DT has no second hop, so no DT no-CSI variant.
ALL_SCHEMES = tuple(
    SchemeId(scheme, mode)
    for scheme in Scheme
    for mode in SelectionMode
    if not (scheme is Scheme.DT and mode is SelectionMode.SELECT_NOCSI)
)


@pytest.fixture(scope="session")
def fig1_gains():
    """Equal direct/first-hop gains, 5 dB second hop (the rho-sweep setting)."""
    return LinkGains(1.0, 1.0, db_to_linear(5.0))


@pytest.fixture(scope="session")
def fig6_gains():
    """5 dB direct link, 10 dB second hop (the beamforming K-sweep setting)."""
    return LinkGains(db_to_linear(5.0), 1.0, db_to_linear(10.0))


@pytest.fixture(scope="session")
def fig7_gains():
    """5 dB direct link, 5 dB second hop (the antenna-selection rho-sweep setting)."""
    return LinkGains(db_to_linear(5.0), 1.0, db_to_linear(5.0))


@pytest.fixture(scope="session")
def fig8_gains():
    """0 dB direct/first hop, 2 dB second hop (the selection K-sweep setting)."""
    return LinkGains(1.0, 1.0, db_to_linear(2.0))


def block_of(h_ab, h_ar, h_rb, tx_pick) -> ChannelBlock:
    """A block of given coefficients: ``h_ar`` and ``h_rb`` are (n, K)."""
    hops = {"h_ar": np.asarray(h_ar), "h_rb": np.asarray(h_rb)}
    return ChannelBlock(
        h_ab=np.asarray(h_ab), tx_pick=np.asarray(tx_pick), k=hops["h_ar"].shape[1],
        hop_rows=lambda name, start, stop: hops[name][start:stop],
    )


def hop(block: ChannelBlock, name: str) -> np.ndarray:
    """The block's (n, K) relay coefficients ``name``, "h_ar" or "h_rb", in full and read-only."""
    rows = block.hop_rows(name, 0, block.h_ab.shape[0])
    rows.flags.writeable = False
    return rows


def wedge(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|h ^ g|^2 = |h|^2 |g|^2 - |g^H h|^2 of each row pair of (n, K) arrays,
    by Lagrange's identity: the sum over i < l of |h_i g_l - h_l g_i|^2,
    which subtracts only products of single coefficients."""
    rows = max(1, (1 << 16) // h.shape[1] ** 2)  # (rows, K, K) products of 1 MiB
    wedges = []
    for start in range(0, h.shape[0], rows):
        outer = h[start:start + rows, :, None] * g[start:start + rows, None, :]
        wedges.append(0.5 * np.sum(np.abs(outer - outer.transpose(0, 2, 1)) ** 2, axis=(1, 2)))
    return np.concatenate(wedges)


def rate_margins(block: ChannelBlock, gains: LinkGains, params) -> np.ndarray:
    """The kernel's secrecy-rate margins I_B - I_R in bits, pre * log2((u +
    S_B u) / (u + S_R u)) of the triple ``montecarlo._rates`` builds from
    the block's features with Bob's scale 1, its u times the scalar factor
    it returns: the margins whose comparison with the target rate
    ``rate_margins_block`` decides without forming them."""
    features = block.features(*montecarlo._reads(params.scheme, block.k))
    bob, relay, unit, scale = montecarlo._rates(gains, params, 1.0, *features)
    unit = unit * scale
    return (1.0 if params.scheme.scheme is Scheme.DT else 0.5) * np.log2((unit + bob) / (unit + relay))


def _one_trial_block(h_ab, h_ar, h_rb, tx_pick=0) -> ChannelBlock:
    return block_of(
        h_ab=np.array([h_ab], dtype=complex),
        h_ar=np.array([h_ar], dtype=complex),
        h_rb=np.array([h_rb], dtype=complex),
        tx_pick=np.array([tx_pick]),
    )


@pytest.fixture(scope="session")
def channel_block():
    """Builder of one-trial ChannelBlocks from hand-picked coefficients.

    ``channel_block(h_ab, h_ar, h_rb, tx_pick=0)`` takes the direct
    coefficient and the two length-K relay vectors of the single trial.
    """
    return _one_trial_block


@pytest.fixture(scope="session")
def all_schemes():
    return ALL_SCHEMES


@pytest.fixture(params=ALL_SCHEMES, ids=lambda s: f"{s.scheme.value}-{s.mode.value}")
def scheme(request):
    """Each (scheme, mode) pair in turn."""
    return request.param
