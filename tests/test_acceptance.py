"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 1-8 are the ``relaysec.checks.CHECKS``
registry that ``relaysec validate`` prints, one test per check: the
calibration of every closed form against simulation (its AF-selection
cell reported on its own), the zero-rate complements, single-antenna
reductions, limiting regimes and pinned errata, and the paper's
conclusions (antenna-count growth, the dip of CSI selection over K, the
AF/CJ crossover and the power-allocation gains).  Here they run at one
million trials per parameter point, shared across schemes at each point
via common random numbers.  Criterion 9, the randomized and fading-law
properties, is local to this module.
"""

import re

import numpy as np
import pytest
import scipy.stats

from relaysec import LinkGains, McConfig, SchemeId, SystemParams, db_to_linear
from relaysec import analytic
from relaysec.checks import _AF_SELECT_CELL, _CALIBRATION, CHECKS, Check, _calibration
from relaysec.model import Scheme, sample_channel_block
from relaysec.montecarlo import estimate_sop

TRIALS = 1_000_000
SEED = 1789

FIG1 = LinkGains(1.0, 1.0, db_to_linear(5.0))


def report(number, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def mc_config() -> McConfig:
    return McConfig(trials=TRIALS, seed=SEED, workers=4)


CALIBRATION = next(check for check in CHECKS if check.run is _calibration)


def registry_checks() -> list[Check]:
    """``CHECKS`` with the calibration gate's AF-selection cell in its place;
    ``TestCriterion1Calibration`` runs the gate's other cells, so each cell
    runs once."""
    af_select = Check("antenna-selection AF closed form matches Monte Carlo",
                      lambda mc: _calibration(mc, (_AF_SELECT_CELL,)))
    return [af_select if check is CALIBRATION else check for check in CHECKS]


def check_id(check: Check) -> str:
    return re.sub(r"\W+", "-", check.name)


class TestCriterion1Calibration:
    def test_calibration_gate(self):
        groups = tuple(group for group in _CALIBRATION if group is not _AF_SELECT_CELL)
        ok, detail = _calibration(mc_config(), groups)
        report(1, CALIBRATION.name, ok, detail)


class TestCriteria2To4Checks:
    """Criteria 1-8: the checks ``relaysec validate`` runs, at full budget."""

    @pytest.mark.parametrize("check", registry_checks(), ids=check_id)
    def test_check(self, check):
        ok, detail = check.run(mc_config())
        report("1-8", check.name, ok, detail)

    def test_check_ids_are_distinct(self):
        # pytest would silently rename one of two checks whose names give the same id.
        ids = [check_id(check) for check in registry_checks()]
        assert len(set(ids)) == len(ids), sorted(ids)


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
        params = SystemParams(rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        values = {
            estimate_sop(FIG1, params, McConfig(trials=200_000, seed=SEED, workers=w)).value
            for w in (1, 4, 16)
        }
        report(
            9, "worker determinism", len(values) == 1,
            f"estimates across 1/4/16 workers: {sorted(values)}",
        )

    def test_fading_law(self):
        block = sample_channel_block(1, seed=SEED, chunk_index=0, n=100_000)
        sq = np.abs(block.h_ab) ** 2
        res = scipy.stats.kstest(sq, "expon")  # unit-mean fading; the gains scale the margins
        report(
            9, "exponential fading law", res.pvalue > 1e-3,
            f"KS p-value {res.pvalue:.4f} at 1e5 samples (significance 1e-3)",
        )
