"""Numerical minimization of secrecy outage over per-node power fractions.

The closed forms assume every node transmits at its full budget, so the
objective here is the Monte Carlo estimator, which accepts per-node powers
natively.  A fixed seed makes the objective deterministic (common random
numbers across candidates), so the search is an ordinary derivative-free
minimization: coarse grid, then coordinate-wise golden-section refinement.

The fading is drawn once per chunk for the whole search: the search runs
inside a ``model.block_scope``, its own or the caller's when one is open
(every CLI search joins its run's scope, so the run's rows reread its
draws), which keeps the one block of unit-mean fading of the point's K
that every candidate reads; see ``block_scope``.  The grid stage scores
all of its candidates in one ``estimate_sop_many`` pass over the chunks;
the golden-section stage scores each probe with ``estimate_sop`` on the
kept blocks.  Both stages fill one cache of estimates, keyed by the
rounded fractions, so a probe that lands on a grid point is not scored
again.
"""

from __future__ import annotations

import itertools
import math

from .model import LinkGains, PowerAllocation, Scheme, SopEstimate, SystemParams, block_scope
from .montecarlo import McConfig, estimate_sop, estimate_sop_many

FRACTION_FLOOR = 0.05  # zero-power corners degenerate (jam-free CJ is not CJ)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 0.01  # fraction-space resolution of the refinement stage

# The nodes each scheme powers: that many leading fields of PowerAllocation
# (frac_alice, frac_relay, frac_bob_jam); the others keep full power.
_ACTIVE_NODES = {Scheme.DT: 1, Scheme.AF: 2, Scheme.CJ: 3}


def minimize_sop(
    gains: LinkGains,
    params: SystemParams,
    mc: McConfig,
    grid_step: float = 0.25,
    constraint: str = "per-node",
) -> tuple[PowerAllocation, SopEstimate]:
    """Best power split and its outage under the fixed-seed Monte Carlo objective.

    ``per-node`` caps each active node at its own budget (fractions in
    [0.05, 1]); full power is always a candidate, so the result can never
    be worse than full power at the same seed.  ``total`` instead pools a
    single budget across the active nodes (fraction sum <= 1).
    """
    with block_scope():
        return _search(gains, params, mc, grid_step, constraint)


def check_search(grid_step: float, constraint: str) -> None:
    """Raise ValueError unless ``minimize_sop`` accepts these arguments."""
    # A step below the floor would take the grid past 20 points per axis.
    if not FRACTION_FLOOR <= grid_step <= 0.5:
        raise ValueError(f"grid_step must lie in [{FRACTION_FLOOR}, 0.5], got {grid_step}")
    if constraint not in ("per-node", "total"):
        raise ValueError(f"constraint must be 'per-node' or 'total', got {constraint!r}")


def _search(
    gains: LinkGains, params: SystemParams, mc: McConfig, grid_step: float, constraint: str
) -> tuple[PowerAllocation, SopEstimate]:
    check_search(grid_step, constraint)

    n_active = _ACTIVE_NODES[params.scheme.scheme]
    budget = 1.0 if constraint == "total" else None

    def feasible(values: tuple[float, ...]) -> bool:
        if budget is None:
            return True
        return sum(values) <= budget + 1e-12

    cache: dict[tuple[float, ...], SopEstimate] = {}

    def at_power(values: tuple[float, ...]) -> SystemParams:
        # Two constructor calls, where dataclasses.replace inspects the
        # fields each time.
        return SystemParams(params.rho, params.k_antennas, params.rate, params.scheme, PowerAllocation(*values))

    def estimate(values: tuple[float, ...]) -> SopEstimate:
        key = tuple([round(v, 6) for v in values])
        if key not in cache:
            cache[key] = estimate_sop(gains, at_power(key), mc)
        return cache[key]

    def objective(values: tuple[float, ...]) -> float:
        return estimate(values).value

    axis = [round(v, 6) for v in _grid_axis(grid_step)]
    # The axis ends at 1.0, so full power is a per-node candidate.
    candidates = [v for v in itertools.product(axis, repeat=n_active) if feasible(v)]

    # Grid stage: one pass over the chunks scores every candidate.
    cache.update(zip(candidates, estimate_sop_many(gains, [at_power(v) for v in candidates], mc)))
    best = min(candidates, key=objective)

    # Coordinate-wise golden-section refinement (two passes).
    best = list(best)
    for _ in range(2):
        for i in range(n_active):
            lo = max(FRACTION_FLOOR, best[i] - grid_step)
            hi = min(1.0, best[i] + grid_step)
            if budget is not None:
                hi = min(hi, budget - (sum(best) - best[i]))
                if hi < lo:
                    continue

            def line(v: float) -> float:
                probe = list(best)
                probe[i] = v
                return objective(tuple(probe))

            best[i] = _golden_section(line, lo, hi, _REFINE_TOL)

    best_values = tuple(best)
    if budget is None:
        full = (1.0,) * n_active
        if objective(full) < objective(best_values):
            best_values = full
    allocation = PowerAllocation(*[round(v, 6) for v in best_values])
    return allocation, estimate(best_values)


def _grid_axis(step: float) -> list[float]:
    axis = []
    v = FRACTION_FLOOR
    while v < 1.0 - 1e-9:
        axis.append(v)
        v += step
    axis.append(1.0)
    return axis


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Scalar golden-section minimizer; returns the best point probed."""
    if hi - lo <= tol:
        mid = 0.5 * (lo + hi)
        return min((lo, mid, hi), key=f)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    candidates = [lo, x1, x2, hi]
    return min(candidates, key=f)
