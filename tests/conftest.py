"""Shared fixtures: the standard figure settings, the (scheme, mode) pairs and a
one-trial channel builder."""

import numpy as np
import pytest

from relaysec import LinkGains, db_to_linear
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


def _one_trial_block(h_ab, h_ar, h_rb, tx_pick=0) -> ChannelBlock:
    return ChannelBlock.from_arrays(
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
