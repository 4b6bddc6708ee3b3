"""Secrecy outage of a three-node untrusted-relay network.

Closed-form outage probabilities for direct transmission,
amplify-and-forward relaying, and cooperative jamming; an independent
Monte Carlo channel simulator; asymptotic limits; and a numerical
power-allocation optimizer with a figure-oriented CLI.
"""

from .model import (
    LinkGains,
    PowerAllocation,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    db_to_linear,
)
from .montecarlo import McConfig, estimate_sop
from .powerallo import minimize_sop

__all__ = [
    "LinkGains",
    "McConfig",
    "PowerAllocation",
    "Scheme",
    "SchemeId",
    "SelectionMode",
    "SopEstimate",
    "SystemParams",
    "db_to_linear",
    "estimate_sop",
    "minimize_sop",
]

__version__ = "0.1.0"
