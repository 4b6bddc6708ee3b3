"""Power-allocation search: feasibility, determinism, and the full-power bound."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from relaysec import McConfig, SchemeId, SystemParams, db_to_linear
from relaysec.model import Scheme
from relaysec.montecarlo import estimate_sop
from relaysec.powerallo import FRACTION_FLOOR, _grid_axis, minimize_sop

MC = McConfig(trials=40_000, seed=2024)


def _params(scheme, rho_db=10.0, k=1):
    return SystemParams(
        rho=db_to_linear(rho_db), rate=0.1, k_antennas=k, scheme=SchemeId(scheme)
    )


class TestMinimizeSop:
    def test_never_worse_than_full_power(self, fig1_gains):
        for scheme in (Scheme.DT, Scheme.AF, Scheme.CJ):
            params = _params(scheme)
            full = estimate_sop(fig1_gains, params, MC)
            _, best = minimize_sop(fig1_gains, params, MC, grid_step=0.5)
            assert best.value <= full.value + 1e-12

    def test_fractions_within_bounds(self, fig1_gains):
        alloc, _ = minimize_sop(fig1_gains, _params(Scheme.CJ), MC, grid_step=0.5)
        for frac in (alloc.frac_alice, alloc.frac_relay, alloc.frac_bob_jam):
            assert FRACTION_FLOOR - 1e-9 <= frac <= 1.0 + 1e-9

    def test_independent_of_workers(self, fig1_gains):
        # Five chunks on more threads than cores, switching often, so the
        # chunk threads keep replacing each other's held block.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [
                minimize_sop(fig1_gains, _params(Scheme.AF), replace(MC, chunk_size=1 << 13, workers=w),
                             grid_step=0.5)
                for w in (1, 8)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]

    def test_deterministic_given_seed(self, fig1_gains):
        a1, e1 = minimize_sop(fig1_gains, _params(Scheme.AF), MC, grid_step=0.5)
        a2, e2 = minimize_sop(fig1_gains, _params(Scheme.AF), MC, grid_step=0.5)
        assert a1 == a2
        assert e1.value == e2.value

    def test_af_prefers_backing_alice_off(self, fig1_gains):
        # At mid SNR the eavesdropping relay is hurt more than Bob when
        # Alice lowers her transmit power.
        alloc, _ = minimize_sop(fig1_gains, _params(Scheme.AF), MC, grid_step=0.25)
        assert alloc.frac_alice < 1.0

    def test_total_budget_constraint(self, fig1_gains):
        alloc, _ = minimize_sop(
            fig1_gains, _params(Scheme.CJ), MC, grid_step=0.25, constraint="total"
        )
        total = alloc.frac_alice + alloc.frac_relay + alloc.frac_bob_jam
        assert total <= 1.0 + 1e-9

    def test_dt_single_knob(self, fig1_gains):
        alloc, _ = minimize_sop(fig1_gains, _params(Scheme.DT), MC, grid_step=0.5)
        # Only Alice's fraction is searched; the others stay at full power.
        assert alloc.frac_relay == 1.0
        assert alloc.frac_bob_jam == 1.0

    def test_grid_axis_ends_at_full_power(self):
        # So full power is always a candidate of the per-node grid.
        for step in np.linspace(FRACTION_FLOOR, 0.5, 451):
            axis = _grid_axis(step)
            assert axis[0] == FRACTION_FLOOR and axis[-1] == 1.0, step
            assert all(v < 1.0 for v in axis[:-1]), step

    def test_argument_validation(self, fig1_gains):
        with pytest.raises(ValueError):
            minimize_sop(fig1_gains, _params(Scheme.AF), MC, grid_step=0.0)
        with pytest.raises(ValueError):
            minimize_sop(fig1_gains, _params(Scheme.AF), MC, grid_step=0.25, constraint="bogus")

    def test_optimized_jamming_still_vanishes_at_high_snr(self, fig1_gains):
        # Re-allocating power must not break the high-SNR behaviour of
        # cooperative jamming: the optimized outage stays small at 40 dB.
        mc = McConfig(trials=100_000, seed=77)
        _, best = minimize_sop(fig1_gains, _params(Scheme.CJ, rho_db=40.0), mc, grid_step=0.25)
        assert best.value < 0.05
