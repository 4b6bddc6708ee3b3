"""Experiment runner: single points, figure presets, sweeps, power
optimization, and the internal-consistency validation suite.

All interface values are in dB (gains, SNR); conversion to linear scale
happens once at the boundary.  Results are emitted as CSV with the stable
column prefix ``scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,
sop,stderr,trials`` followed by the Wilson 95% bounds for Monte Carlo
rows.  Exit codes: 0 success, 1 validation failure, 2 configuration
error, 3 unsupported (scheme, method) combination.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import analytic, powerallo
from .analytic import UnsupportedAnalytic
from .model import (
    LinkGains,
    PowerAllocation,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    db_to_linear,
    derived_coefficients,
    threshold_t,
)
from .montecarlo import McConfig, SWEEP_AXES, estimate_sop, estimate_sop_many, sweep

CSV_COLUMNS = (
    "scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,sop,stderr,trials,"
    "wilson_low,wilson_high"
)

DEFAULT_RATE = 0.1  # bits per channel use, the normalized target used throughout


class ConfigError(Exception):
    pass


class UnsupportedCombination(Exception):
    pass


_SCHEMES = {"dt": Scheme.DT, "af": Scheme.AF, "cj": Scheme.CJ}
_MODES = {
    "full": SelectionMode.FULL_ARRAY,
    "select-csi": SelectionMode.SELECT_CSI,
    "select-nocsi": SelectionMode.SELECT_NOCSI,
}


def _scheme_id(scheme: str, mode: str) -> SchemeId:
    try:
        return SchemeId(_SCHEMES[scheme], _MODES[mode])
    except KeyError as exc:
        raise ConfigError(f"unknown scheme or mode: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_scheme_token(token: str) -> SchemeId:
    """'af' or 'af:select-csi' -> SchemeId."""
    name, _, mode = token.partition(":")
    return _scheme_id(name.strip(), (mode or "full").strip())


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _wilson_bounds(p: float, n: int, z: float = 1.959964) -> tuple[float, float]:
    if n <= 0:
        return 0.0, 1.0
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _format_row(
    scheme: SchemeId,
    k: int,
    rho_db: float,
    gains_db: tuple[float, float, float],
    rate: float,
    method: str,
    est: SopEstimate,
) -> str:
    if est.method == "montecarlo":
        lo, hi = _wilson_bounds(est.value, est.trials)
        wilson = f"{lo:.10g},{hi:.10g}"
    else:
        wilson = ","
    return (
        f"{scheme.scheme.value},{scheme.mode.value},{k},{rho_db:.6g},"
        f"{gains_db[0]:.6g},{gains_db[1]:.6g},{gains_db[2]:.6g},{rate:.6g},"
        f"{method},{est.value:.10g},{est.stderr:.6g},{est.trials},{wilson}"
    )


class CsvWriter:
    def __init__(self, stream: TextIO):
        self.stream = stream
        self.stream.write(CSV_COLUMNS + "\n")

    def row(self, *args, **kwargs) -> None:
        self.stream.write(_format_row(*args, **kwargs) + "\n")


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_DT = SchemeId(Scheme.DT)
_AF = SchemeId(Scheme.AF)
_CJ = SchemeId(Scheme.CJ)
_DT_SEL = SchemeId(Scheme.DT, SelectionMode.SELECT_CSI)
_AF_SEL = SchemeId(Scheme.AF, SelectionMode.SELECT_CSI)
_AF_SEL_NOCSI = SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI)
_CJ_SEL = SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI)
_CJ_SEL_NOCSI = SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI)


@dataclass(frozen=True)
class FigurePreset:
    axis: str
    points: tuple[float, ...]
    gab_db: float | None
    gar_db: float | None
    grb_db: float | None
    rho_db: float | None
    k: int
    schemes: tuple[SchemeId, ...]
    analytic_schemes: tuple[SchemeId, ...]
    asymptotes: tuple[tuple[SchemeId, str], ...] = ()
    power_opt: tuple[SchemeId, ...] = ()


_RHO_GRID = tuple(float(x) for x in range(0, 41, 5))

FIGURE_PRESETS: dict[int, FigurePreset] = {
    1: FigurePreset(
        axis="rho_db", points=_RHO_GRID, gab_db=0.0, gar_db=0.0, grb_db=5.0,
        rho_db=None, k=1, schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        power_opt=(_AF, _CJ),
    ),
    2: FigurePreset(
        axis="grb_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        gab_db=5.0, gar_db=0.0, grb_db=None, rho_db=15.0, k=1,
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_AF, "af_strong_second_hop"), (_CJ, "cj_strong_second_hop")),
    ),
    3: FigurePreset(
        axis="gar_db", points=tuple(float(x) for x in range(-30, 41, 5)),
        gab_db=0.0, gar_db=None, grb_db=5.0, rho_db=20.0, k=1,
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_DT, "dt_weak_first_hop"), (_AF, "af_weak_first_hop")),
    ),
    4: FigurePreset(
        axis="gab_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        gab_db=None, gar_db=2.0, grb_db=10.0, rho_db=10.0, k=1,
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
    ),
    5: FigurePreset(
        axis="gab_and_grb_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        gab_db=None, gar_db=2.0, grb_db=None, rho_db=10.0, k=1,
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_CJ, "cj_strong_second_hop"),),
    ),
    6: FigurePreset(
        axis="k_antennas", points=tuple(float(k) for k in range(1, 9)),
        gab_db=5.0, gar_db=0.0, grb_db=10.0, rho_db=30.0, k=1,
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF),
        power_opt=(_AF, _CJ),
    ),
    7: FigurePreset(
        axis="rho_db", points=_RHO_GRID, gab_db=5.0, gar_db=0.0, grb_db=5.0,
        rho_db=None, k=6,
        schemes=(_DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL, _CJ_SEL_NOCSI),
        analytic_schemes=(_DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL_NOCSI),
    ),
    8: FigurePreset(
        axis="k_antennas", points=tuple(float(k) for k in range(1, 11)),
        gab_db=0.0, gar_db=0.0, grb_db=2.0, rho_db=12.0, k=1,
        schemes=(_DT, _AF, _CJ, _DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL, _CJ_SEL_NOCSI),
        analytic_schemes=(_DT, _AF, _DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL_NOCSI),
    ),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysec",
        description="Secrecy outage of a three-node untrusted-relay network: "
        "closed forms, Monte Carlo, asymptotics, and power allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key=value config file")
    common.add_argument("--scheme", choices=sorted(_SCHEMES), default="af")
    common.add_argument("--mode", choices=sorted(_MODES), default="full")
    common.add_argument("--k", type=int, default=1, help="relay antenna count")
    common.add_argument("--rho-db", type=float, default=20.0, help="transmit SNR [dB]")
    common.add_argument("--gab-db", type=float, default=0.0, help="mean gain Alice->Bob [dB]")
    common.add_argument("--gar-db", type=float, default=0.0, help="mean gain Alice->relay [dB]")
    common.add_argument("--grb-db", type=float, default=5.0, help="mean gain relay->Bob [dB]")
    common.add_argument("--rate", type=float, default=DEFAULT_RATE, help="target secrecy rate")
    common.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    common.add_argument("--seed", type=int, default=McConfig().seed)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")

    p_point = sub.add_parser("point", parents=[common], help="evaluate one parameter point")
    p_point.add_argument(
        "--method", choices=("analytic", "montecarlo", "asymptotic", "both"), default="both"
    )
    p_point.add_argument("--limit", type=str, default=None, help="asymptotic selector override")

    p_fig = sub.add_parser("figure", parents=[common], help="emit a full figure dataset")
    p_fig.add_argument("figure_id", type=int, choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument(
        "--power-opt-trials", type=int, default=100_000,
        help="Monte Carlo trials per candidate during power optimization",
    )
    p_fig.add_argument(
        "--skip-power-opt", action="store_true",
        help="omit the power-optimized curves even where the preset has them",
    )

    p_sweep = sub.add_parser("sweep", parents=[common], help="Monte Carlo sweep along one axis")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--points", type=str, required=True, help="comma-separated axis values")
    p_sweep.add_argument(
        "--schemes", type=str, default=None,
        help="comma-separated scheme[:mode] tokens (default: --scheme/--mode)",
    )

    p_opt = sub.add_parser("power-opt", parents=[common], help="optimize per-node power fractions")
    p_opt.add_argument("--grid-step", type=float, default=0.25)
    p_opt.add_argument("--constraint", choices=("per-node", "total"), default="per-node")

    p_val = sub.add_parser("validate", parents=[common], help="run the consistency suite")
    p_val.add_argument(
        "--debug-paper-t", action="store_true",
        help="use the uncorrected integration threshold to demonstrate the discrepancy",
    )
    return parser


def _read_config_file(path: str) -> list[str]:
    """Config file lines 'key = value' become '--key value' pseudo-arguments."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    args: list[str] = []
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                args.append(flag)
        else:
            args.extend([flag, value])
    return args


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # Re-parse with config-file pseudo-args inserted right after the
        # subcommand; the original tail (flags and positionals) follows, so
        # explicit flags win over the file.
        command, rest = argv[0], list(argv[1:])
        injected = _read_config_file(args.config)
        args = parser.parse_args([command, *injected, *rest])
    return args


def _gains_params(args) -> tuple[LinkGains, SystemParams, tuple[float, float, float]]:
    gains_db = (args.gab_db, args.gar_db, args.grb_db)
    gains = LinkGains(
        gamma_ab=db_to_linear(args.gab_db),
        gamma_ar=db_to_linear(args.gar_db),
        gamma_rb=db_to_linear(args.grb_db),
    )
    try:
        scheme = _scheme_id(args.scheme, args.mode)
        params = SystemParams(
            rho=db_to_linear(args.rho_db), k_antennas=args.k, rate=args.rate, scheme=scheme
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return gains, params, gains_db


def _mc_config(args, default_trials: int = 1_000_000) -> McConfig:
    trials = args.trials if args.trials is not None else default_trials
    return McConfig(trials=trials, seed=args.seed, workers=args.workers)


def _open_out(args) -> TextIO:
    if args.out:
        return open(args.out, "w", newline="")
    return sys.stdout


def _default_limit_selector(scheme: SchemeId, k: int) -> str:
    if scheme.scheme is Scheme.DT and scheme.mode is SelectionMode.FULL_ARRAY:
        return "dt_high_snr"
    if scheme.scheme is Scheme.AF and scheme.mode is SelectionMode.FULL_ARRAY:
        return "af_high_snr"
    if scheme.scheme is Scheme.CJ and scheme.mode is SelectionMode.FULL_ARRAY:
        return "cj_high_snr" if k == 1 else "cj_multi_high_snr"
    if scheme.scheme is Scheme.CJ and scheme.mode is SelectionMode.SELECT_NOCSI:
        return "cj_select_nocsi_large_k"
    raise UnsupportedCombination(
        f"no built-in asymptote for {scheme}; use the montecarlo method instead"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_point(args) -> int:
    gains, params, gains_db = _gains_params(args)
    mc = _mc_config(args)
    k = params.k_antennas
    rows: list[tuple[str, SopEstimate]] = []

    analytic_est: SopEstimate | None = None
    if args.method in ("analytic", "both"):
        try:
            analytic_est = SopEstimate(value=analytic.analytic_sop(gains, params))
        except UnsupportedAnalytic as exc:
            raise UnsupportedCombination(
                f"{exc} (hint: rerun with --method montecarlo)"
            ) from exc
        rows.append(("analytic", analytic_est))

    if args.method in ("montecarlo", "both"):
        mc_est = estimate_sop(gains, params, mc)
        rows.append(("montecarlo", mc_est))
        if analytic_est is not None:
            delta = abs(analytic_est.value - mc_est.value)
            ratio = delta / mc_est.stderr if mc_est.stderr > 0 else math.inf
            print(
                f"analytic={analytic_est.value:.6f} mc={mc_est.value:.6f} "
                f"|delta|/stderr={ratio:.2f}",
                file=sys.stderr,
            )

    if args.method == "asymptotic":
        selector = args.limit or _default_limit_selector(params.scheme, k)
        try:
            value = analytic.limits(gains, params, selector, mc=mc)
        except ValueError as exc:
            raise UnsupportedCombination(str(exc)) from exc
        rows.append(("asymptotic", SopEstimate(value=value, method="asymptotic")))

    out = _open_out(args)
    writer = CsvWriter(out)
    for method, est in rows:
        writer.row(params.scheme, k, args.rho_db, gains_db, args.rate, method, est)
    if out is not sys.stdout:
        out.close()
    return 0


def _figure_point_fields(preset: FigurePreset, point: float, args):
    """Resolve (gains, params skeleton, per-row dB columns) for one axis point."""
    gab = preset.gab_db if preset.gab_db is not None else point
    gar = preset.gar_db if preset.gar_db is not None else point
    grb = preset.grb_db if preset.grb_db is not None else point
    rho = preset.rho_db if preset.rho_db is not None else point
    k = int(point) if preset.axis == "k_antennas" else preset.k
    if preset.axis == "gab_and_grb_db":
        gab = grb = point
    gains = LinkGains(db_to_linear(gab), db_to_linear(gar), db_to_linear(grb))
    params = SystemParams(rho=db_to_linear(rho), k_antennas=k, rate=args.rate)
    return gains, params, (gab, gar, grb), rho, k


def run_figure(args) -> int:
    preset = FIGURE_PRESETS[args.figure_id]
    mc = _mc_config(args)
    out = _open_out(args)
    writer = CsvWriter(out)

    for point in preset.points:
        gains, base, gains_db, rho_db, k = _figure_point_fields(preset, point, args)

        for scheme in preset.analytic_schemes:
            params = replace(base, scheme=scheme)
            try:
                value = analytic.analytic_sop(gains, params)
            except UnsupportedAnalytic:
                continue
            writer.row(scheme, k, rho_db, gains_db, args.rate, "analytic", SopEstimate(value=value))

        params_list = [replace(base, scheme=s) for s in preset.schemes]
        estimates = estimate_sop_many(gains, params_list, mc)
        for scheme, est in zip(preset.schemes, estimates):
            writer.row(scheme, k, rho_db, gains_db, args.rate, "montecarlo", est)

        for scheme, selector in preset.asymptotes:
            params = replace(base, scheme=scheme)
            value = analytic.limits(gains, params, selector, mc=mc)
            writer.row(
                scheme, k, rho_db, gains_db, args.rate, "asymptotic",
                SopEstimate(value=value, method="asymptotic"),
            )

        if not args.skip_power_opt:
            # Search on a reduced trial budget, then settle the winner against
            # full power on the same budget as the plain Monte Carlo rows so
            # the power-opt row is never above its montecarlo companion.
            opt_mc = replace(mc, trials=min(args.power_opt_trials, mc.trials))
            for scheme in preset.power_opt:
                params = replace(base, scheme=scheme)
                alloc, _ = powerallo.minimize_sop(gains, params, opt_mc)
                est = min(
                    (estimate_sop(gains, replace(params, power=p), mc)
                     for p in {alloc, PowerAllocation()}),
                    key=lambda e: e.value,
                )
                writer.row(scheme, k, rho_db, gains_db, args.rate, "power-opt", est)

        print(f"figure {args.figure_id}: point {point:g} done", file=sys.stderr)

    if out is not sys.stdout:
        out.close()
    return 0


def run_sweep(args) -> int:
    gains, params, _ = _gains_params(args)
    mc = _mc_config(args)
    try:
        points = [float(tok) for tok in args.points.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --points list: {exc}") from exc
    if args.schemes:
        try:
            schemes = [_parse_scheme_token(tok) for tok in args.schemes.split(",")]
        except ConfigError:
            raise
    else:
        schemes = [params.scheme]

    out = _open_out(args)
    writer = CsvWriter(out)
    for point, per_scheme in sweep(args.axis, points, gains, params, mc, schemes):
        for scheme, est in per_scheme.items():
            rho_db = point if args.axis == "rho_db" else args.rho_db
            gab = point if args.axis in ("gab_db", "gab_and_grb_db") else args.gab_db
            gar = point if args.axis == "gar_db" else args.gar_db
            grb = point if args.axis in ("grb_db", "gab_and_grb_db") else args.grb_db
            k = int(point) if args.axis == "k_antennas" else args.k
            writer.row(scheme, k, rho_db, (gab, gar, grb), args.rate, "montecarlo", est)
    if out is not sys.stdout:
        out.close()
    return 0


def run_power_opt(args) -> int:
    gains, params, gains_db = _gains_params(args)
    mc = _mc_config(args)
    allocation, est = powerallo.minimize_sop(
        gains, params, mc, grid_step=args.grid_step, constraint=args.constraint
    )
    full = estimate_sop(gains, params, mc)
    out = _open_out(args)
    writer = CsvWriter(out)
    writer.row(params.scheme, params.k_antennas, args.rho_db, gains_db, args.rate, "montecarlo", full)
    writer.row(params.scheme, params.k_antennas, args.rho_db, gains_db, args.rate, "power-opt", est)
    print(
        f"best allocation: alice={allocation.frac_alice:.3f} "
        f"relay={allocation.frac_relay:.3f} jam={allocation.frac_bob_jam:.3f} "
        f"sop={est.value:.6f} (full power {full.value:.6f})",
        file=sys.stderr,
    )
    if out is not sys.stdout:
        out.close()
    return 0


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

def _validation_points(n: int = 10) -> list[tuple[LinkGains, float]]:
    rng = np.random.default_rng(1234)
    points = []
    for _ in range(n):
        gab, gar, grb = (db_to_linear(v) for v in rng.uniform(-10.0, 10.0, size=3))
        rho = db_to_linear(rng.uniform(5.0, 25.0))
        points.append((LinkGains(gab, gar, grb), rho))
    return points


def run_validate(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    notes: list[str] = []
    use_paper_t = args.debug_paper_t
    mc = _mc_config(args, default_trials=200_000)

    pts = _validation_points()

    def record(name: str, worst: float, tol: float):
        checks.append((name, worst <= tol, f"worst |delta| = {worst:.3e} (tol {tol:.0e})"))

    # Zero-rate complements: outage at R=0 must complement positive secrecy.
    worst_dt = worst_af = worst_cj = 0.0
    for gains, rho in pts:
        p0 = SystemParams(rho=rho, rate=0.0)
        worst_dt = max(worst_dt, abs(analytic.sop_dt_single(gains, p0) - (1 - analytic.p_pos_dt(gains))))
        worst_af = max(worst_af, abs(analytic.sop_af_single(gains, p0) - (1 - analytic.p_pos_af(gains, p0))))
        cj = analytic.sop_cj_single(gains, p0, paper_printed_t=use_paper_t)
        worst_cj = max(worst_cj, abs(cj - (1 - analytic.p_pos_cj(gains, p0))))
    record("zero-rate complement, direct transmission", worst_dt, 1e-9)
    record("zero-rate complement, amplify-and-forward", worst_af, 1e-9)
    name_cj = "zero-rate complement, cooperative jamming"
    if use_paper_t:
        name_cj += " (uncorrected threshold)"
    record(name_cj, worst_cj, 1e-9)

    # Threshold root: phi changes sign exactly at t.
    worst_root = 0.0
    sign_ok = True
    for gains, rho in pts:
        p = SystemParams(rho=rho, rate=DEFAULT_RATE)
        coef = derived_coefficients(gains, p)
        t = threshold_t(gains, p, paper_printed=use_paper_t)
        worst_root = max(worst_root, abs(coef.phi(t)))
        sign_ok = sign_ok and coef.phi(0.5 * coef.t) < 0.0 < coef.phi(2.0 * coef.t)
    checks.append(
        (
            "integration threshold solves phi(t) = 0",
            worst_root <= 1e-9 and sign_ok,
            f"worst |phi(t)| = {worst_root:.3e}",
        )
    )

    # Single-antenna reductions of the K-antenna formulas.
    worst = {"dt_multi": 0.0, "dt_select": 0.0, "af_select_csi": 0.0, "af_select_nocsi": 0.0,
             "cj_select_nocsi": 0.0, "af_multi": 0.0}
    for gains, rho in pts:
        p = SystemParams(rho=rho, rate=DEFAULT_RATE, k_antennas=1)
        dt1 = analytic.sop_dt_single(gains, p)
        af1 = analytic.sop_af_single(gains, p)
        cj1 = analytic.sop_cj_single(gains, p)
        worst["dt_multi"] = max(worst["dt_multi"], abs(analytic.sop_dt_multi(gains, p) - dt1))
        worst["dt_select"] = max(worst["dt_select"], abs(analytic.sop_dt_select(gains, p) - dt1))
        worst["af_select_csi"] = max(worst["af_select_csi"], abs(analytic.sop_af_select_csi(gains, p) - af1))
        worst["af_select_nocsi"] = max(worst["af_select_nocsi"], abs(analytic.sop_af_select_nocsi(gains, p) - af1))
        worst["cj_select_nocsi"] = max(worst["cj_select_nocsi"], abs(analytic.sop_cj_select_nocsi(gains, p) - cj1))
        worst["af_multi"] = max(worst["af_multi"], abs(analytic.sop_af_multi(gains, p) - af1))
    for key, tol in (
        ("dt_multi", 1e-9), ("dt_select", 1e-9), ("af_select_csi", 1e-9),
        ("af_select_nocsi", 1e-9), ("cj_select_nocsi", 1e-9), ("af_multi", 1e-6),
    ):
        record(f"single-antenna reduction, {key}", worst[key], tol)

    # AF selection closed form against Monte Carlo.
    gains7 = LinkGains(db_to_linear(5.0), db_to_linear(0.0), db_to_linear(5.0))
    p7 = SystemParams(
        rho=db_to_linear(10.0), rate=DEFAULT_RATE, k_antennas=3,
        scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_CSI),
    )
    closed = analytic.sop_af_select_csi(gains7, p7)
    sim = estimate_sop(gains7, p7, mc)
    delta = abs(closed - sim.value)
    tol = max(4.0 * sim.stderr, 0.005)
    checks.append(
        (
            "antenna-selection AF closed form matches Monte Carlo",
            delta <= tol,
            f"|closed - mc| = {delta:.4f} (tol {tol:.4f}, trials {sim.trials})",
        )
    )

    # High-SNR AF limit: the exact expression must approach the limit value.
    gains1 = LinkGains(1.0, 1.0, db_to_linear(5.0))
    p_hi = SystemParams(rho=db_to_linear(80.0), rate=DEFAULT_RATE)
    lim = analytic.limits(gains1, p_hi, "af_high_snr")
    exact = analytic.sop_af_single(gains1, p_hi)
    checks.append(
        (
            "high-SNR AF limit consistent with exact expression",
            abs(lim - exact) <= 1e-4,
            f"|limit - exact@80dB| = {abs(lim - exact):.2e}",
        )
    )
    printed = analytic.limits(gains1, p_hi, "af_high_snr_printed")
    notes.append(
        f"NOTE high-SNR AF limit: as-printed variant differs from the exact limit by "
        f"{abs(printed - lim):.4f} at the reference gains (printed={printed:.4f}, "
        f"limit={lim:.4f}); the consistent form is used."
    )

    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    for note in notes:
        print(note)
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "point": run_point,
    "figure": run_figure,
    "sweep": run_sweep,
    "power-opt": run_power_opt,
    "validate": run_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCombination as exc:
        print(f"unsupported combination: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
