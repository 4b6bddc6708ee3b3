"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 2-4 (zero-rate complements, single-antenna
reductions, limiting regimes and the pinned errata of the paper) are the
``relaysec.cli.CHECKS`` registry that ``relaysec validate`` prints, one
test per check.  The Monte Carlo budget is one million trials per
parameter point, shared across schemes at each point via common random
numbers; the whole module targets a few minutes on a laptop.
"""

import math
import re

import numpy as np
import pytest
import scipy.stats

from relaysec import LinkGains, McConfig, SchemeId, SystemParams, db_to_linear
from relaysec import analytic
from relaysec.cli import CHECKS
from relaysec.model import Scheme, SelectionMode, sample_channel_block
from relaysec.montecarlo import estimate_sop, estimate_sop_many
from relaysec.powerallo import minimize_sop

TRIALS = 1_000_000
SEED = 1789

FIG1 = LinkGains(1.0, 1.0, db_to_linear(5.0))
FIG6 = LinkGains(db_to_linear(5.0), 1.0, db_to_linear(10.0))
FIG7 = LinkGains(db_to_linear(5.0), 1.0, db_to_linear(5.0))
FIG8 = LinkGains(1.0, 1.0, db_to_linear(2.0))

_DT = SchemeId(Scheme.DT)
_AF = SchemeId(Scheme.AF)
_CJ = SchemeId(Scheme.CJ)
_DT_SEL = SchemeId(Scheme.DT, SelectionMode.SELECT_CSI)
_AF_SEL = SchemeId(Scheme.AF, SelectionMode.SELECT_CSI)
_AF_SEL_NOCSI = SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI)
_CJ_SEL = SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI)
_CJ_SEL_NOCSI = SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def mc_config(seed_offset: int = 0) -> McConfig:
    return McConfig(trials=TRIALS, seed=SEED + seed_offset, workers=4)


class TestCriterion1Calibration:
    def test_calibration_gate(self):
        """Each closed form within max(4*stderr, 0.005) of a 1e6-trial estimate."""
        cells = []

        def check(label, gains, params_list, closed_forms):
            estimates = estimate_sop_many(gains, params_list, mc_config())
            for params, closed_fn, est in zip(params_list, closed_forms, estimates):
                value = closed_fn(gains, params)
                gap = abs(value - est.value)
                tol = max(4.0 * est.stderr, 0.005)
                cells.append((f"{label} {params.scheme}", gap, tol, gap <= tol))

        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            params = [
                SystemParams(rho=db_to_linear(rho_db), rate=0.1, scheme=s)
                for s in (_DT, _AF, _CJ)
            ]
            check(
                f"rho={rho_db:g}dB",
                FIG1,
                params,
                [
                    lambda g, p: analytic.sop_dt_single(g, p),
                    lambda g, p: analytic.sop_af_single(g, p),
                    lambda g, p: analytic.sop_cj_single(g, p),
                ],
            )

        for k in (1, 2, 4, 6, 8):
            params = [
                SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=k, scheme=s)
                for s in (_DT, _AF)
            ]
            check(
                f"beamforming K={k}",
                FIG6,
                params,
                [
                    lambda g, p: analytic.sop_dt_multi(g, p),
                    lambda g, p: analytic.sop_af_multi(g, p),
                ],
            )

        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            params = [
                SystemParams(rho=db_to_linear(rho_db), rate=0.1, k_antennas=6, scheme=s)
                for s in (_DT_SEL, _AF_SEL, _AF_SEL_NOCSI)
            ]
            check(
                f"selection rho={rho_db:g}dB",
                FIG7,
                params,
                [
                    lambda g, p: analytic.sop_dt_select(g, p),
                    lambda g, p: analytic.sop_af_select_csi(g, p),
                    lambda g, p: analytic.sop_af_select_nocsi(g, p),
                ],
            )

        for k in (1, 2, 4, 6, 10):
            params = [
                SystemParams(rho=db_to_linear(12.0), rate=0.1, k_antennas=k, scheme=_CJ_SEL_NOCSI)
            ]
            check(
                f"jamming selection K={k}",
                FIG8,
                params,
                [lambda g, p: analytic.sop_cj_select_nocsi(g, p)],
            )

        worst = max(cells, key=lambda c: c[1] / c[2])
        ok = all(c[3] for c in cells)
        report(
            1, "calibration gate", ok,
            f"{sum(c[3] for c in cells)}/{len(cells)} cells in tolerance; "
            f"worst {worst[0]}: gap={worst[1]:.5f} tol={worst[2]:.5f}",
        )


class TestCriteria2To4Checks:
    """Zero-rate complements, K=1 reductions, limiting regimes and the
    paper's errata: the checks ``relaysec validate`` runs, at full budget."""

    @pytest.mark.parametrize("check", CHECKS, ids=lambda check: re.sub(r"\W+", "-", check.name))
    def test_check(self, check):
        ok, detail = check.run(mc_config())
        report("2-4", check.name, ok, detail)


class TestCriterion5AntennaGrowth:
    def test_growth_and_selection_floor(self):
        problems = []
        by_k = {}
        for k in (1, 2, 8):
            params = [
                SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=k, scheme=s)
                for s in (_DT, _AF, _CJ)
            ]
            by_k[k] = dict(zip((_DT, _AF, _CJ), estimate_sop_many(FIG6, params, mc_config(1))))
        for scheme in (_DT, _AF, _CJ):
            for lo, hi in ((1, 2), (2, 8)):
                a, b = by_k[lo][scheme], by_k[hi][scheme]
                sep = (b.value - a.value) / math.sqrt(a.stderr**2 + b.stderr**2 + 1e-30)
                if sep < 5.0:
                    problems.append(f"{scheme} K={hi} vs K={lo}: separation {sep:.1f} sigma < 5")

        floors = [
            analytic.sop_cj_select_nocsi(
                FIG6, SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=k)
            )
            for k in (1, 2, 4, 8, 16)
        ]
        if not all(b <= a + 1e-12 for a, b in zip(floors, floors[1:])):
            problems.append(f"selection outage not nonincreasing in K: {floors}")
        p64 = SystemParams(rho=db_to_linear(30.0), rate=0.1, k_antennas=64, scheme=_CJ_SEL_NOCSI)
        floor_gap = abs(
            analytic.sop_cj_select_nocsi(FIG6, p64)
            - analytic.limits(FIG6, p64, "cj_select_nocsi_large_k")
        )
        if floor_gap > 0.01:
            problems.append(f"K=64 floor gap {floor_gap:.4f} exceeds 0.01")

        report(
            5, "antenna-count growth", not problems,
            "; ".join(problems) or "5-sigma orderings and selection floor hold",
        )


class TestCriterion6SelectionDipShape:
    def test_csi_selection_dips_then_rises(self):
        values = []
        for k in range(1, 11):
            params = SystemParams(
                rho=db_to_linear(12.0), rate=0.1, k_antennas=k, scheme=_CJ_SEL
            )
            values.append(estimate_sop(FIG8, params, mc_config(2)).value)
        arg_min = int(np.argmin(values))
        interior = 0 < arg_min < len(values) - 1
        dips = values[1] < values[0]
        rises = values[-1] > values[arg_min]
        ok = interior and dips and rises
        report(
            6, "selection-with-CSI dip", ok,
            f"outage over K=1..10: {[round(v, 4) for v in values]}; "
            f"minimum at K={arg_min + 1}",
        )


class TestCriterion7Crossover:
    def test_single_crossover_on_snr_grid(self):
        grid = [float(x) for x in range(0, 41, 5)]
        diffs = []
        for rho_db in grid:
            p = SystemParams(rho=db_to_linear(rho_db), rate=0.1)
            diffs.append(analytic.sop_af_single(FIG1, p) - analytic.sop_cj_single(FIG1, p))
        signs = [d > 0 for d in diffs]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        ok = (not signs[0]) and signs[-1] and changes == 1
        report(
            7, "relaying/jamming crossover", ok,
            f"differences along grid: {[round(d, 4) for d in diffs]} ({changes} sign change)",
        )


class TestCriterion8PowerOptimization:
    def test_power_allocation_gains(self):
        mc = McConfig(trials=150_000, seed=SEED + 3, workers=4)
        problems = []

        def gap(gains, scheme, rho_db, k=1):
            params = SystemParams(
                rho=db_to_linear(rho_db), rate=0.1, k_antennas=k, scheme=scheme
            )
            full = estimate_sop(gains, params, mc)
            _, best = minimize_sop(gains, params, mc, grid_step=0.25)
            if best.value > full.value + 1e-12:
                problems.append(f"{scheme} optimized above full power")
            return full.value - best.value

        gap_af = gap(FIG1, _AF, 10.0)
        gap_cj = gap(FIG1, _CJ, 10.0)
        if not gap_af > gap_cj:
            problems.append(f"relaying gain {gap_af:.4f} not above jamming gain {gap_cj:.4f}")
        gap_cj_k1 = gap(FIG6, _CJ, 30.0)
        if not gap_cj_k1 < 0.01:
            problems.append(f"single-antenna jamming gain {gap_cj_k1:.4f} not below 0.01")

        report(
            8, "power optimization", not problems,
            "; ".join(problems)
            or f"gains: relaying {gap_af:.4f} > jamming {gap_cj:.4f}; K=1 jamming {gap_cj_k1:.5f} < 0.01",
        )


class TestCriterion9PropertySuites:
    def test_randomized_range_and_rate_monotonicity(self):
        ops = [
            ("dt_single", lambda g, p: analytic.sop_dt_single(g, p)),
            ("af_single", lambda g, p: analytic.sop_af_single(g, p)),
            ("cj_single", lambda g, p: analytic.sop_cj_single(g, p)),
            ("dt_multi", lambda g, p: analytic.sop_dt_multi(g, p)),
            ("af_multi", lambda g, p: analytic.sop_af_multi(g, p)),
            ("dt_select", lambda g, p: analytic.sop_dt_select(g, p)),
            ("af_select_csi", lambda g, p: analytic.sop_af_select_csi(g, p)),
            ("af_select_nocsi", lambda g, p: analytic.sop_af_select_nocsi(g, p)),
            ("cj_select_nocsi", lambda g, p: analytic.sop_cj_select_nocsi(g, p)),
        ]
        rng = np.random.default_rng(97)
        failures = []
        checks = 1000
        for i in range(checks):
            name, fn = ops[i % len(ops)]
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-20.0, 20.0, 3)))
            rho = db_to_linear(rng.uniform(0.0, 40.0))
            r_lo, r_hi = np.sort(rng.uniform(0.0, 2.0, 2))
            k = int(rng.integers(1, 9))
            slack = 2e-6 if name == "af_multi" else 1e-9
            try:
                v_lo = fn(gains, SystemParams(rho=rho, rate=float(r_lo), k_antennas=k))
                v_hi = fn(gains, SystemParams(rho=rho, rate=float(r_hi), k_antennas=k))
            except Exception as exc:  # any numerical blowup is a failure
                failures.append(f"{name}: {exc}")
                continue
            if not (-1e-12 <= v_lo <= 1.0 + 1e-12 and -1e-12 <= v_hi <= 1.0 + 1e-12):
                failures.append(f"{name}: value outside [0,1]")
            elif v_hi < v_lo - slack:
                failures.append(f"{name}: decreasing in target rate")
        report(
            9, "randomized properties", not failures,
            f"{checks - len(failures)}/{checks} randomized checks passed"
            + (f"; first failure: {failures[0]}" if failures else ""),
        )

    def test_worker_determinism(self):
        params = SystemParams(rho=db_to_linear(20.0), rate=0.1, scheme=_AF)
        values = {
            estimate_sop(FIG1, params, McConfig(trials=200_000, seed=SEED, workers=w)).value
            for w in (1, 4, 16)
        }
        report(
            9, "worker determinism", len(values) == 1,
            f"estimates across 1/4/16 workers: {sorted(values)}",
        )

    def test_fading_law(self):
        block = sample_channel_block(FIG1, 1, seed=SEED, chunk_index=0, n=100_000)
        sq = np.abs(block.h_ab) ** 2
        res = scipy.stats.kstest(sq, "expon", args=(0.0, FIG1.gamma_ab))
        report(
            9, "exponential fading law", res.pvalue > 1e-3,
            f"KS p-value {res.pvalue:.4f} at 1e5 samples (significance 1e-3)",
        )
