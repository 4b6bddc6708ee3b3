"""The validation suite: consistency checks of the closed forms, shared by
``relaysec validate`` and the acceptance tests.

A check maps a setting to model inputs as a figure row does, through
``Setting.link`` and the row's scheme, and takes each figure's setting from
its preset.  ``relaysec validate`` imports this module when it runs, so no
other command loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import analytic, powerallo
from .cli import (
    _AF, _AF_SEL, _AF_SEL_NOCSI, _CJ, _CJ_SEL, _CJ_SEL_NOCSI, _DT, _DT_SEL, _RHO_GRID,
    DEFAULT_RATE, FIGURE_PRESETS, Setting,
)
from .model import LinkGains, SchemeId, SystemParams, derived_coefficients
from .montecarlo import McConfig, estimate_sop, estimate_sop_many


@dataclass(frozen=True)
class Check:
    """One consistency check of the closed forms: ``run(mc)`` returns
    ``(passed, detail)``, and ``mc`` is the budget of the checks that simulate."""

    name: str
    run: Callable[[McConfig], tuple[bool, str]]


_FIG1, _FIG6, _FIG7, _FIG8 = (FIGURE_PRESETS[n].base for n in (1, 6, 7, 8))
_WEAK_FIRST_HOP = Setting(rho_db=20.0, gab_db=0.0, gar_db=-40.0, grb_db=5.0, k=1)
_STRONG_SECOND_HOP = Setting(rho_db=15.0, gab_db=5.0, gar_db=0.0, grb_db=40.0, k=1)


def _inputs(
    setting: Setting, scheme: SchemeId = _DT, rate: float = DEFAULT_RATE
) -> tuple[LinkGains, SystemParams]:
    """The model inputs of ``setting``'s row of ``scheme``."""
    gains, params = setting.link(rate)
    return gains, replace(params, scheme=scheme)


def _check_points(rate: float) -> tuple[tuple[LinkGains, SystemParams], ...]:
    """(gains, params) of the identity checks at ``rate``: ten seeded
    settings, five figure settings and two asymmetric gain sets (linear)."""
    rng = np.random.default_rng(1234)
    seeded = []
    for _ in range(10):
        gab_db, gar_db, grb_db = rng.uniform(-10.0, 10.0, size=3)
        seeded.append(Setting(rng.uniform(5.0, 25.0), gab_db, gar_db, grb_db, k=1))
    named = (replace(_FIG1, rho_db=10.0), replace(_FIG1, rho_db=20.0), _FIG6,
             replace(_FIG7, rho_db=15.0, k=1), _FIG8)
    return (
        *(setting.link(rate) for setting in (*seeded, *named)),
        (LinkGains(2.0, 0.5, 4.0), SystemParams(rho=40.0, rate=rate)),
        (LinkGains(0.5, 2.0, 1.5), SystemParams(rho=25.0, rate=rate)),
    )


def _within(label: str, value: float, tol: float) -> tuple[bool, str]:
    return value <= tol, f"{label} = {value:.3e} (tol {tol:g})"


def _beyond(label: str, value: float, floor: float) -> tuple[bool, str]:
    return value > floor, f"{label} = {value:.4f} (must exceed {floor:g})"


def _worst_gap(
    name: str, rate: float, tol: float, gap: Callable[[LinkGains, SystemParams], float]
) -> Check:
    """``gap(gains, params)`` at most ``tol`` at every check point."""
    return Check(name, lambda mc: _within("worst |delta|", max(
        gap(gains, params) for gains, params in _check_points(rate)), tol))


def _reduction(form: str, tol: float) -> Check:
    """``analytic.sop_<form>`` at K=1 matches its single-antenna counterpart."""
    return _worst_gap(f"single-antenna reduction, {form}", DEFAULT_RATE, tol, lambda g, p: abs(
        getattr(analytic, f"sop_{form}")(g, p) - getattr(analytic, f"sop_{form[:2]}_single")(g, p)))


def _limit(name: str, setting: Setting, which: str, tol: float) -> Check:
    """The single-antenna closed form of the scheme the limit ``which``
    describes within ``tol`` of that limit at ``setting``."""

    def run(mc: McConfig) -> tuple[bool, str]:
        gains, params = _inputs(setting, SchemeId(analytic.LIMIT_VARIANTS[which][0]))
        exact = analytic.analytic_sop(gains, params)
        gap = abs(exact - analytic.limits(gains, params, which))
        return _within(f"|exact - limit| at {setting.rho_db:g} dB", gap, tol)

    return Check(name, run)


def _threshold_root(mc: McConfig) -> tuple[bool, str]:
    worst, signs = 0.0, True
    for gains, params in _check_points(DEFAULT_RATE):
        coef = derived_coefficients(gains, params)
        worst = max(worst, abs(coef.phi(coef.t)))
        signs = signs and coef.phi(0.5 * coef.t) < 0.0 < coef.phi(2.0 * coef.t)
    return worst <= 1e-9 and signs, f"worst |phi(t)| = {worst:.3e}, sign change at t: {signs}"


def _printed_cj_threshold(mc: McConfig) -> tuple[bool, str]:
    # At zero rate the CJ outage is -expm1(-t/gamma_rb).  The paper's root
    # constant, 2 where phi(t) = 0 has 4, gives t = sqrt(s/(2 rho)) there,
    # with s = gamma_ar + gamma_rb + 1/rho.
    gains, params = _inputs(replace(_FIG1, rho_db=10.0), rate=0.0)
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / params.rho
    wrong = -math.expm1(-math.sqrt(s / (2.0 * params.rho)) / gains.gamma_rb)
    return _beyond("misfit", abs(wrong - (1 - analytic.p_pos_cj(gains, params))), 0.01)


def _printed_af_limit(mc: McConfig) -> tuple[bool, str]:
    # The paper puts beta1, the positive-secrecy coefficient, in place of
    # beta2 in the bracket of the high-SNR AF limit.
    gains, params = _inputs(replace(_FIG1, rho_db=80.0), _AF)
    c = 2.0 ** (2.0 * params.rate) - 1.0
    beta1 = derived_coefficients(gains, params).beta1
    bracket = analytic._ei_bracket(gains.gamma_ar / gains.gamma_rb, beta1)
    printed = 1.0 - gains.gamma_ab / (c * gains.gamma_ar + gains.gamma_ab) * bracket
    gap = abs(printed - analytic.limits(gains, params, "af_high_snr"))
    return _beyond("|printed - limit| at 80 dB", gap, 0.01)


# (setting, schemes) of the calibration cells: figure 1's SNR grid, figure
# 6's full array and figure 7's selection over SNR, figure 8's CSI-free
# jamming selection over K, and AF selection at K = 3.  Each group is
# simulated on common draws, so a group's estimates do not depend on which
# other groups run.
_AF_SELECT_CELL = (replace(_FIG7, rho_db=10.0, k=3), (_AF_SEL,))
_CALIBRATION = (
    *((replace(_FIG1, rho_db=rho_db), (_DT, _AF, _CJ)) for rho_db in _RHO_GRID[::2]),
    *((replace(_FIG6, k=k), (_DT, _AF)) for k in (1, 2, 4, 6, 8)),
    *((replace(_FIG7, rho_db=rho_db), (_DT_SEL, _AF_SEL, _AF_SEL_NOCSI)) for rho_db in _RHO_GRID[::2]),
    *((replace(_FIG8, k=k), (_CJ_SEL_NOCSI,)) for k in (1, 2, 4, 6, 10)),
    _AF_SELECT_CELL,
)


def _calibration(mc: McConfig, groups=_CALIBRATION) -> tuple[bool, str]:
    cells = []
    for setting, schemes in groups:
        gains, base = setting.link(DEFAULT_RATE)
        params_list = [replace(base, scheme=s) for s in schemes]
        for params, sim in zip(params_list, estimate_sop_many(gains, params_list, mc)):
            gap = abs(analytic.analytic_sop(gains, params) - sim.value)
            tol = max(4.0 * sim.stderr, 0.005)
            where = f"{params.scheme} K={params.k_antennas} at {setting.rho_db:g} dB"
            cells.append((gap / tol, gap <= tol, where, gap, tol))
    passed = sum(cell[1] for cell in cells)
    _, _, worst, gap, tol = max(cells)
    return passed == len(cells), (
        f"{passed}/{len(cells)} cells within max(4 stderr, 0.005); "
        f"worst {worst}: gap {gap:.5f} (tol {tol:.5f})")


def _weak_first_hop_order(mc: McConfig) -> tuple[bool, str]:
    dt = analytic.limits(*_inputs(_WEAK_FIRST_HOP, _DT), "dt_weak_first_hop")
    af = analytic.limits(*_inputs(_WEAK_FIRST_HOP, _AF), "af_weak_first_hop")
    return dt <= af, f"direct {dt:.4f} <= relaying {af:.4f}"


def _diversity(mc: McConfig) -> tuple[bool, str]:
    # Minus the slope of log10 SOP per decade of rho, from 40 to 60 dB, is the diversity order.
    def slope(scheme: SchemeId, k: int) -> float:
        low, high = (analytic.analytic_sop(*_inputs(replace(_FIG1, rho_db=r, k=k), scheme))
                     for r in (40.0, 60.0))
        return math.log10(high / low) / 2.0

    cj = max(abs(slope(_CJ_SEL_NOCSI, k) + 0.5) for k in (1, 2, 4, 8))
    floor = max(abs(slope(s, k)) for s in (_DT, _DT_SEL, _AF, _AF_SEL, _AF_SEL_NOCSI) for k in (1, 2, 4))
    return cj <= 0.02 and floor <= 0.01, (
        f"worst |CJ slope + 1/2| = {cj:.3e} (tol 0.02); worst |DT, AF slope| = {floor:.3e} (tol 0.01)")


def _reseeded(mc: McConfig, offset: int) -> McConfig:
    """``mc`` on the seed ``offset`` past its own, so each check draws its own fading."""
    return replace(mc, seed=(mc.seed + offset) % (1 << 64))


def _antenna_growth(mc: McConfig) -> tuple[bool, str]:
    # Each full-array outage rises by 5 sigma from K = 1 to 2 and from 2 to 8;
    # CSI-free jamming selection falls with K, to its large-K floor.
    mc, problems, by_k = _reseeded(mc, 1), [], {}
    for k in (1, 2, 8):
        gains, params = replace(_FIG6, k=k).link(DEFAULT_RATE)
        by_k[k] = estimate_sop_many(gains, [replace(params, scheme=s) for s in (_DT, _AF, _CJ)], mc)
    for i, scheme in enumerate((_DT, _AF, _CJ)):
        for lo, hi in ((1, 2), (2, 8)):
            a, b = by_k[lo][i], by_k[hi][i]
            sep = (b.value - a.value) / math.sqrt(a.stderr**2 + b.stderr**2 + 1e-30)
            if sep < 5.0:
                problems.append(f"{scheme} K={hi} vs K={lo}: separation {sep:.1f} sigma < 5")
    floors = [analytic.sop_cj_select_nocsi(*_inputs(replace(_FIG6, k=k))) for k in (1, 2, 4, 8, 16)]
    if not all(b <= a + 1e-12 for a, b in zip(floors, floors[1:])):
        problems.append(f"selection outage not nonincreasing in K: {floors}")
    gains, p64 = _inputs(replace(_FIG6, k=64), _CJ_SEL_NOCSI)
    floor_gap = abs(analytic.sop_cj_select_nocsi(gains, p64)
                    - analytic.limits(gains, p64, "cj_select_nocsi_large_k"))
    if floor_gap > 0.01:
        problems.append(f"K=64 floor gap {floor_gap:.4f} exceeds 0.01")
    return not problems, "; ".join(problems) or "5-sigma orderings and selection floor hold"


def _selection_dip(mc: McConfig) -> tuple[bool, str]:
    mc = _reseeded(mc, 2)
    values = [estimate_sop(*_inputs(replace(_FIG8, k=k), _CJ_SEL), mc).value for k in range(1, 11)]
    low = values.index(min(values))
    ok = 0 < low < len(values) - 1 and values[1] < values[0] and values[-1] > values[low]
    return ok, f"outage over K=1..10: {[round(v, 4) for v in values]}; minimum at K={low + 1}"


def _crossover(mc: McConfig) -> tuple[bool, str]:
    diffs = [analytic.sop_af_single(g, p) - analytic.sop_cj_single(g, p)
             for g, p in (_inputs(replace(_FIG1, rho_db=r)) for r in _RHO_GRID)]
    signs = [d > 0 for d in diffs]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    return not signs[0] and signs[-1] and changes == 1, (
        f"AF - CJ along figure 1's grid: {[round(d, 4) for d in diffs]} ({changes} sign change)")


def _power_gains(mc: McConfig) -> tuple[bool, str]:
    # Each search scores about 120 candidates, so the searches run on at most 150,000 trials.
    mc, problems = replace(_reseeded(mc, 3), trials=min(mc.trials, 150_000)), []

    def gain(setting: Setting, scheme: SchemeId) -> float:
        gains, params = _inputs(setting, scheme)
        full = estimate_sop(gains, params, mc)
        _, best = powerallo.minimize_sop(gains, params, mc, grid_step=0.25)
        if best.value > full.value + 1e-12:
            problems.append(f"{scheme} optimized above full power")
        return full.value - best.value

    fig1 = replace(_FIG1, rho_db=10.0)
    af, cj, cj_k1 = gain(fig1, _AF), gain(fig1, _CJ), gain(_FIG6, _CJ)
    if not af > cj:
        problems.append(f"relaying gain {af:.4f} not above jamming gain {cj:.4f}")
    if not cj_k1 < 0.01:
        problems.append(f"single-antenna jamming gain {cj_k1:.4f} not below 0.01")
    return not problems, "; ".join(problems) or (
        f"gains: relaying {af:.4f} > jamming {cj:.4f}; K=1 jamming {cj_k1:.5f} < 0.01")


CHECKS: tuple[Check, ...] = (
    _worst_gap("zero-rate complement, direct transmission", 0.0, 1e-9,
               lambda g, p: abs(analytic.sop_dt_single(g, p) - (1 - analytic.p_pos_dt(g)))),
    _worst_gap("zero-rate complement, amplify-and-forward", 0.0, 1e-9,
               lambda g, p: abs(analytic.sop_af_single(g, p) - (1 - analytic.p_pos_af(g, p)))),
    _worst_gap("zero-rate complement, cooperative jamming", 0.0, 1e-9,
               lambda g, p: abs(analytic.sop_cj_single(g, p) - (1 - analytic.p_pos_cj(g, p)))),
    Check("paper erratum: printed CJ threshold constant breaks the zero-rate complement",
          _printed_cj_threshold),
    Check("integration threshold solves phi(t) = 0", _threshold_root),
    # The af_select_csi reduction also pins the index range of the selection sum.
    *(_reduction(form, 1e-9) for form in ("dt_select", "af_select_csi", "af_select_nocsi")),
    _reduction("af_multi", 1e-6),
    Check("calibration: closed forms match Monte Carlo", _calibration),
    _limit("high-SNR AF limit consistent with exact expression",
           replace(_FIG1, rho_db=80.0), "af_high_snr", 1e-4),
    Check("paper erratum: printed high-SNR AF limit misses the exact limit", _printed_af_limit),
    _limit("high-SNR CJ outage vanishes", replace(_FIG1, rho_db=50.0), "cj_high_snr", 0.02),
    _limit("high-SNR DT limit", replace(_FIG1, rho_db=50.0), "dt_high_snr", 0.005),
    _limit("high-SNR AF limit", replace(_FIG1, rho_db=50.0), "af_high_snr", 0.005),
    _limit("strong-second-hop CJ limit", _STRONG_SECOND_HOP, "cj_strong_second_hop", 0.01),
    _limit("weak-first-hop DT limit", _WEAK_FIRST_HOP, "dt_weak_first_hop", 0.005),
    _limit("weak-first-hop AF limit", _WEAK_FIRST_HOP, "af_weak_first_hop", 0.005),
    Check("weak-first-hop limits order direct transmission below relaying", _weak_first_hop_order),
    Check("antenna-selection CJ has diversity order 1/2; DT and AF floor", _diversity),
    Check("outage grows with K; CJ selection floors", _antenna_growth),
    Check("CSI-selection CJ dips over K, then rises", _selection_dip),
    Check("AF and CJ outages cross once over SNR", _crossover),
    Check("power allocation helps AF more than CJ", _power_gains),
)
