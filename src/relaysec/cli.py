"""Experiment runner: single points, figure presets, sweeps, power
optimization, and the internal-consistency validation suite.

All interface values are in dB (gains, SNR); conversion to linear scale
happens once at the boundary.  Results are emitted as CSV with the stable
column prefix ``scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,
sop,stderr,trials`` followed by the Wilson 95% bounds for Monte Carlo
rows.  Exit codes: 0 success, 1 a failed ``validate`` check, 2
configuration error, 3 unsupported (scheme, method) combination, 4 a
quadrature that missed its tolerance, 141 a closed stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from . import analytic, powerallo
from .analytic import UnsupportedAnalytic
from .model import (
    FULL_POWER,
    LinkGains,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    block_scope,
    db_to_linear,
    derived_coefficients,
)
from .montecarlo import McConfig, estimate_sop, estimate_sop_many
from .specfun import ConvergenceError

CSV_COLUMNS = (
    "scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,sop,stderr,trials,"
    "wilson_low,wilson_high"
)

DEFAULT_RATE = 0.1  # bits per channel use, the normalized target used throughout


class ConfigError(Exception):
    pass


def _scheme_id(scheme: str, mode: str) -> SchemeId:
    try:
        return SchemeId(Scheme(scheme), SelectionMode(mode))
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


class CsvWriter:
    def __init__(self, stream: TextIO):
        self.stream = stream
        self.stream.write(CSV_COLUMNS + "\n")

    def row(self, setting: Setting, params: SystemParams, method: str, est: SopEstimate) -> None:
        if est.method == "montecarlo":
            lo, hi = _wilson_bounds(est.value, est.trials)
            wilson = f"{lo:.10g},{hi:.10g}"
        else:
            wilson = ","
        scheme = params.scheme
        self.stream.write(
            f"{scheme.scheme.value},{scheme.mode.value},{params.k_antennas},{setting.rho_db:.6g},"
            f"{setting.gab_db:.6g},{setting.gar_db:.6g},{setting.grb_db:.6g},{params.rate:.6g},"
            f"{method},{est.value:.10g},{est.stderr:.6g},{est.trials},{wilson}\n"
        )


# ---------------------------------------------------------------------------
# Parameter settings and sweep axes
# ---------------------------------------------------------------------------

# Each sweep axis and the setting fields (CSV columns) that a point on it sets.
SWEEP_AXES = {
    "rho_db": ("rho_db",),
    "gab_db": ("gab_db",),
    "gar_db": ("gar_db",),
    "grb_db": ("grb_db",),
    "gab_and_grb_db": ("gab_db", "grb_db"),
    "k_antennas": ("k",),
}


@dataclass(frozen=True)
class Setting:
    """One parameter point in interface units: SNR and mean gains in dB, antenna count."""

    rho_db: float
    gab_db: float
    gar_db: float
    grb_db: float
    k: float

    def at(self, axis: str, point: float) -> Setting:
        """This setting moved to ``point`` along ``axis``."""
        return replace(self, **dict.fromkeys(SWEEP_AXES[axis], point))

    def link(self, rate: float) -> tuple[LinkGains, SystemParams]:
        """Linear-scale model inputs; a value outside the model's domain is a ConfigError."""
        linear = {}
        for name in ("rho_db", "gab_db", "gar_db", "grb_db"):
            try:
                linear[name] = db_to_linear(getattr(self, name))
            except OverflowError:
                raise ConfigError(f"{name} = {getattr(self, name):g} is out of range") from None
        try:
            gains = LinkGains(linear["gab_db"], linear["gar_db"], linear["grb_db"])
            params = SystemParams(rho=linear["rho_db"], k_antennas=self.k, rate=rate)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return gains, params


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
    """Rows along one axis: ``base`` fixes the setting (None where the axis
    sets the value) and each scheme tuple names the rows of one method.
    An asymptote whose selector is None is its scheme's default limit.
    Every ``power_opt`` scheme is also in ``schemes``: its montecarlo row is
    the baseline a winner searched on a smaller budget is settled against."""

    axis: str
    points: tuple[float, ...]
    base: Setting
    schemes: tuple[SchemeId, ...]
    analytic_schemes: tuple[SchemeId, ...]
    asymptotes: tuple[tuple[SchemeId, str | None], ...] = ()
    power_opt: tuple[SchemeId, ...] = ()


_RHO_GRID = tuple(float(x) for x in range(0, 41, 5))

FIGURE_PRESETS: dict[int, FigurePreset] = {
    1: FigurePreset(
        axis="rho_db", points=_RHO_GRID,
        base=Setting(rho_db=None, gab_db=0.0, gar_db=0.0, grb_db=5.0, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        power_opt=(_AF, _CJ),
    ),
    2: FigurePreset(
        axis="grb_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        base=Setting(rho_db=15.0, gab_db=5.0, gar_db=0.0, grb_db=None, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_AF, "af_strong_second_hop"), (_CJ, "cj_strong_second_hop")),
    ),
    3: FigurePreset(
        axis="gar_db", points=tuple(float(x) for x in range(-30, 41, 5)),
        base=Setting(rho_db=20.0, gab_db=0.0, gar_db=None, grb_db=5.0, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_DT, "dt_weak_first_hop"), (_AF, "af_weak_first_hop")),
    ),
    4: FigurePreset(
        axis="gab_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        base=Setting(rho_db=10.0, gab_db=None, gar_db=2.0, grb_db=10.0, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
    ),
    5: FigurePreset(
        axis="gab_and_grb_db", points=tuple(float(x) for x in range(-10, 31, 5)),
        base=Setting(rho_db=10.0, gab_db=None, gar_db=2.0, grb_db=None, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF, _CJ),
        asymptotes=((_CJ, "cj_strong_second_hop"),),
    ),
    6: FigurePreset(
        axis="k_antennas", points=tuple(float(k) for k in range(1, 9)),
        base=Setting(rho_db=30.0, gab_db=5.0, gar_db=0.0, grb_db=10.0, k=1),
        schemes=(_DT, _AF, _CJ), analytic_schemes=(_DT, _AF),
        power_opt=(_AF, _CJ),
    ),
    7: FigurePreset(
        axis="rho_db", points=_RHO_GRID,
        base=Setting(rho_db=None, gab_db=5.0, gar_db=0.0, grb_db=5.0, k=6),
        schemes=(_DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL, _CJ_SEL_NOCSI),
        analytic_schemes=(_DT_SEL, _AF_SEL, _AF_SEL_NOCSI, _CJ_SEL_NOCSI),
    ),
    8: FigurePreset(
        axis="k_antennas", points=tuple(float(k) for k in range(1, 11)),
        base=Setting(rho_db=12.0, gab_db=0.0, gar_db=0.0, grb_db=2.0, k=1),
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

    # Each subcommand takes only the flag groups it reads, so an ignored
    # flag (or config-file key) is an error rather than a silent no-op.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", type=str, default=None, help="key=value config file")
    run.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    run.add_argument("--seed", type=int, default=McConfig().seed)
    run.add_argument("--workers", type=int, default=1)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--rate", type=float, default=DEFAULT_RATE, help="target secrecy rate")
    output.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    link = argparse.ArgumentParser(add_help=False)
    link.add_argument("--scheme", choices=sorted(s.value for s in Scheme), default="af")
    link.add_argument("--mode", choices=sorted(m.value for m in SelectionMode), default="full")
    link.add_argument("--k", type=int, default=1, help="relay antenna count")
    link.add_argument("--rho-db", type=float, default=20.0, help="transmit SNR [dB]")
    link.add_argument("--gab-db", type=float, default=0.0, help="mean gain Alice->Bob [dB]")
    link.add_argument("--gar-db", type=float, default=0.0, help="mean gain Alice->relay [dB]")
    link.add_argument("--grb-db", type=float, default=5.0, help="mean gain relay->Bob [dB]")
    every = [run, output, link]

    p_point = sub.add_parser("point", parents=every, help="evaluate one parameter point")
    p_point.add_argument(
        "--method", choices=("analytic", "montecarlo", "asymptotic", "both"), default="both"
    )
    p_point.add_argument("--limit", type=str, default=None, help="asymptotic selector override")

    p_fig = sub.add_parser("figure", parents=[run, output], help="emit a full figure dataset")
    p_fig.add_argument("figure_id", type=int, choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument(
        "--power-opt-trials", type=int, default=100_000,
        help="Monte Carlo trials per candidate during power optimization",
    )
    p_fig.add_argument(
        "--skip-power-opt", action="store_true",
        help="omit the power-optimized curves even where the preset has them",
    )

    p_sweep = sub.add_parser("sweep", parents=every, help="Monte Carlo sweep along one axis")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--points", type=str, required=True, help="comma-separated axis values")
    p_sweep.add_argument(
        "--schemes", type=str, default=None,
        help="comma-separated scheme[:mode] tokens (default: --scheme/--mode)",
    )

    p_opt = sub.add_parser("power-opt", parents=every, help="optimize per-node power fractions")
    p_opt.add_argument("--grid-step", type=float, default=0.25)
    p_opt.add_argument("--constraint", choices=("per-node", "total"), default="per-node")

    sub.add_parser("validate", parents=[run], help="run the consistency checks")
    return parser


def _read_config_file(path: str) -> list[str]:
    """Config file lines 'key = value' become '--key value' pseudo-arguments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file {path} is unreadable: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is unreadable: {exc}") from exc
    args: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            args.append(flag)
        elif value.lower() != "false":
            args.extend([flag, value])
    return args


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Re-parse with config-file pseudo-args inserted right after the
        # subcommand; the original tail (flags and positionals) follows, so
        # explicit flags win over the file.
        command, rest = argv[0], list(argv[1:])
        injected = _read_config_file(args.config)
        args = parser.parse_args([command, *injected, *rest])
    if args.command == "point" and args.limit is not None and args.method != "asymptotic":
        parser.error("--limit is read only with --method asymptotic")
    return args


def _args_setting(args) -> Setting:
    return Setting(args.rho_db, args.gab_db, args.gar_db, args.grb_db, args.k)


def _mc_config(args, default_trials: int = 1_000_000) -> McConfig:
    trials = args.trials if args.trials is not None else default_trials
    try:
        return McConfig(trials=trials, seed=args.seed, workers=args.workers)
    except ValueError as exc:  # McConfig names the field, and each field is its flag
        raise ConfigError(f"--{exc}") from exc


@contextmanager
def _csv_sink(args):
    """A CsvWriter on ``--out`` (stdout by default); the file is closed
    however the pass ends.  The header is written on entry, so a command
    enters the sink only once every closed form of its run is evaluated."""
    if not args.out:
        yield CsvWriter(sys.stdout)
        return
    try:
        stream = open(args.out, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {args.out}: {exc.strerror}") from exc
    with stream:
        yield CsvWriter(stream)


def _point_text(setting: Setting, params: SystemParams) -> str:
    return (
        f"{params.scheme} K={params.k_antennas} rho_db={setting.rho_db:g} "
        f"gab_db={setting.gab_db:g} gar_db={setting.gar_db:g} grb_db={setting.grb_db:g} "
        f"rate={params.rate:g}"
    )


@contextmanager
def _naming(what: str):
    """Put ``what``, the point or check evaluated, in front of a quadrature's ConvergenceError."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_point(args) -> int:
    """A one-point preset built from the arguments."""
    scheme = _scheme_id(args.scheme, args.mode)
    method = args.method
    preset = FigurePreset(
        axis="rho_db", points=(args.rho_db,), base=_args_setting(args),
        schemes=(scheme,) if method in ("montecarlo", "both") else (),
        analytic_schemes=(scheme,) if method in ("analytic", "both") else (),
        asymptotes=((scheme, args.limit),) if method == "asymptotic" else (),
    )
    return _run_preset(preset, args, "point", _mc_config(args))


def _run_preset(preset: FigurePreset, args, label: str, mc: McConfig, search=None) -> int:
    """Write the rows of every axis point of ``preset``.

    ``search(gains, params)``, the power search with its budget bound, is
    needed when the preset has power-opt curves.  Every point is resolved,
    and its analytic and asymptotic values computed, before the CSV header
    is written, and the header before anything is simulated: a bad point,
    a numerical error or an unusable ``--out`` costs no simulation.
    """
    resolved = []
    for point in preset.points:
        setting = preset.base.at(preset.axis, point)
        gains, base_params = setting.link(args.rate)
        closed, asymptotes = [], []
        for scheme in preset.analytic_schemes:
            params = replace(base_params, scheme=scheme)
            with _naming(_point_text(setting, params)):
                closed.append((params, analytic.analytic_sop(gains, params)))
        for scheme, selector in preset.asymptotes:
            params = replace(base_params, scheme=scheme)
            with _naming(_point_text(setting, params)):
                selector = selector or analytic.default_limit(params)
                asymptotes.append((params, analytic.limits(gains, params, selector)))
        resolved.append((point, setting, gains, base_params, closed, asymptotes))

    # One scope for the run: each chunk's normals are drawn once for every
    # point, and a block a later pass rereads is kept from its second request.
    # A lone point with no power search rereads nothing, so it keeps nothing.
    rereads = len(resolved) > 1 or bool(preset.power_opt)
    with _csv_sink(args) as writer, block_scope() if rereads else nullcontext():
        for point, setting, gains, base_params, closed, asymptotes in resolved:
            _write_point(writer, preset, setting, gains, base_params, closed, asymptotes, mc, search)
            print(f"{label}: point {point:g} done", file=sys.stderr)
    return 0


def _write_point(writer, preset, setting, gains, base_params, closed, asymptotes, mc, search) -> None:
    """The rows of one axis point: analytic, montecarlo, asymptotic, power-opt.

    The power searches run first, in the run's scope, so the second search
    rereads the first one's blocks.  One pass over the full budget then
    scores every scheme at full power, for the montecarlo rows, together
    with each search's winner.  Only a winner searched on a smaller budget
    is settled against its scheme's montecarlo row, its full-power estimate
    on the same draws: a full-budget search has weighed full power wherever
    its constraint allows.  A point with no montecarlo row simulates nothing.
    Each power-opt row, and each analytic row with a montecarlo row, gets a
    line on stderr: its allocation, and the agreement.
    """
    params_list = [replace(base_params, scheme=s) for s in preset.schemes]
    winners, budgets = [], []
    for scheme in preset.power_opt:
        alloc, searched = search(gains, replace(base_params, scheme=scheme))
        winners.append(replace(base_params, scheme=scheme, power=alloc))
        budgets.append(searched.trials)
    estimates = estimate_sop_many(gains, params_list + winners, mc) if params_list else []
    full_power = dict(zip(preset.schemes, estimates))

    for params, value in closed:
        writer.row(setting, params, "analytic", SopEstimate(value=value))
        if (mc_est := full_power.get(params.scheme)) is not None:
            delta = abs(value - mc_est.value)
            ratio = delta / mc_est.stderr if mc_est.stderr > 0 else math.inf if delta else 0.0
            print(
                f"{_point_text(setting, params)}: analytic={value:.6f} mc={mc_est.value:.6f} "
                f"|delta|/stderr={ratio:.2f}",
                file=sys.stderr,
            )
    for params, est in zip(params_list, estimates):
        writer.row(setting, params, "montecarlo", est)
    for params, value in asymptotes:
        writer.row(setting, params, "asymptotic", SopEstimate(value=value, method="asymptotic"))
    for params, est, budget in zip(winners, estimates[len(params_list):], budgets):
        full = full_power[params.scheme]
        if budget < mc.trials and full.value < est.value:
            params, est = replace(params, power=FULL_POWER), full
        writer.row(setting, params, "power-opt", est)
        power = params.power
        print(
            f"{_point_text(setting, params)}: best allocation: alice={power.frac_alice:.3f} "
            f"relay={power.frac_relay:.3f} jam={power.frac_bob_jam:.3f} "
            f"sop={est.value:.6f} (full power {full.value:.6f})",
            file=sys.stderr,
        )


def run_figure(args) -> int:
    preset = FIGURE_PRESETS[args.figure_id]
    if args.skip_power_opt:
        preset = replace(preset, power_opt=())
    mc = _mc_config(args)
    # The search budget is checked even when no search runs, so a bad flag
    # never passes silently.
    try:
        opt_mc = replace(mc, trials=min(args.power_opt_trials, mc.trials))
    except ValueError as exc:
        raise ConfigError(f"--power-opt-{exc}") from exc
    search = partial(powerallo.minimize_sop, mc=opt_mc)
    return _run_preset(preset, args, f"figure {args.figure_id}", mc, search)


def run_sweep(args) -> int:
    """A Monte Carlo-only preset built from the arguments."""
    try:
        points = tuple(float(tok) for tok in args.points.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --points list: {exc}") from exc
    if not points:
        raise ConfigError("--points lists no value")
    if args.schemes:
        schemes = tuple(_parse_scheme_token(tok) for tok in args.schemes.split(","))
    else:
        schemes = (_scheme_id(args.scheme, args.mode),)
    preset = FigurePreset(
        axis=args.axis, points=points, base=_args_setting(args), schemes=schemes,
        analytic_schemes=(),
    )
    return _run_preset(preset, args, "sweep", _mc_config(args))


def run_power_opt(args) -> int:
    """A one-point preset whose one scheme is searched on the run's own budget."""
    scheme = _scheme_id(args.scheme, args.mode)
    mc = _mc_config(args)
    try:
        powerallo.check_search(args.grid_step, args.constraint)
    except ValueError as exc:
        raise ConfigError(f"--grid-step: {exc}") from exc
    preset = FigurePreset(
        axis="rho_db", points=(args.rho_db,), base=_args_setting(args),
        schemes=(scheme,), analytic_schemes=(), power_opt=(scheme,),
    )
    search = partial(powerallo.minimize_sop, mc=mc, grid_step=args.grid_step, constraint=args.constraint)
    return _run_preset(preset, args, "power-opt", mc, search)


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One consistency check of the closed forms, shared by ``relaysec
    validate`` and the acceptance tests: ``run(mc)`` returns ``(passed,
    detail)``, and ``mc`` is the budget of the checks that simulate."""

    name: str
    run: Callable[[McConfig], tuple[bool, str]]


def _gains_db(gab_db: float, gar_db: float, grb_db: float) -> LinkGains:
    return LinkGains(db_to_linear(gab_db), db_to_linear(gar_db), db_to_linear(grb_db))


def _at(rho_db: float, rate: float = DEFAULT_RATE, scheme: SchemeId = _DT, k: int = 1) -> SystemParams:
    return SystemParams(rho=db_to_linear(rho_db), k_antennas=k, rate=rate, scheme=scheme)


def _check_points() -> tuple[tuple[LinkGains, float], ...]:
    """(gains, rho) of the identity checks: ten seeded points, five figure
    settings (dB) and two asymmetric gain sets (linear)."""
    rng = np.random.default_rng(1234)
    seeded = [
        (_gains_db(*rng.uniform(-10.0, 10.0, size=3)), db_to_linear(rng.uniform(5.0, 25.0)))
        for _ in range(10)
    ]
    named = [((0, 0, 5), 10), ((0, 0, 5), 20), ((5, 0, 10), 30), ((5, 0, 5), 15), ((0, 0, 2), 12)]
    return (
        *seeded, *((_gains_db(*g), db_to_linear(r)) for g, r in named),
        (LinkGains(2.0, 0.5, 4.0), 40.0), (LinkGains(0.5, 2.0, 1.5), 25.0),
    )


_FIG1_GAINS = _gains_db(0.0, 0.0, 5.0)
_FIG6_GAINS = _gains_db(5.0, 0.0, 10.0)
_FIG7_GAINS = _gains_db(5.0, 0.0, 5.0)
_FIG8_GAINS = _gains_db(0.0, 0.0, 2.0)
_WEAK_FIRST_HOP = _gains_db(0.0, -40.0, 5.0)


def _within(label: str, value: float, tol: float) -> tuple[bool, str]:
    return value <= tol, f"{label} = {value:.3e} (tol {tol:g})"


def _beyond(label: str, value: float, floor: float) -> tuple[bool, str]:
    return value > floor, f"{label} = {value:.4f} (must exceed {floor:g})"


def _worst_gap(
    name: str, rate: float, tol: float, gap: Callable[[LinkGains, SystemParams], float]
) -> Check:
    """``gap(gains, params)`` at most ``tol`` at every check point."""
    return Check(name, lambda mc: _within("worst |delta|", max(
        gap(gains, SystemParams(rho=rho, rate=rate)) for gains, rho in _check_points()), tol))


def _reduction(form: str, tol: float) -> Check:
    """``analytic.sop_<form>`` at K=1 matches its single-antenna counterpart."""
    return _worst_gap(f"single-antenna reduction, {form}", DEFAULT_RATE, tol, lambda g, p: abs(
        getattr(analytic, f"sop_{form}")(g, p) - getattr(analytic, f"sop_{form[:2]}_single")(g, p)))


def _limit(name: str, gains: LinkGains, rho_db: float, which: str, tol: float) -> Check:
    """The single-antenna closed form of the scheme the limit ``which``
    describes within ``tol`` of that limit at one setting."""

    def run(mc: McConfig) -> tuple[bool, str]:
        params = _at(rho_db, scheme=SchemeId(analytic.LIMIT_VARIANTS[which][0]))
        exact = analytic.analytic_sop(gains, params)
        gap = abs(exact - analytic.limits(gains, params, which))
        return _within(f"|exact - limit| at {rho_db:g} dB", gap, tol)

    return Check(name, run)


def _threshold_root(mc: McConfig) -> tuple[bool, str]:
    worst, signs = 0.0, True
    for gains, rho in _check_points():
        coef = derived_coefficients(gains, SystemParams(rho=rho, rate=DEFAULT_RATE))
        worst = max(worst, abs(coef.phi(coef.t)))
        signs = signs and coef.phi(0.5 * coef.t) < 0.0 < coef.phi(2.0 * coef.t)
    return worst <= 1e-9 and signs, f"worst |phi(t)| = {worst:.3e}, sign change at t: {signs}"


def _printed_cj_threshold(mc: McConfig) -> tuple[bool, str]:
    # At zero rate the CJ outage is -expm1(-t/gamma_rb).  The paper's root
    # constant, 2 where phi(t) = 0 has 4, gives t = sqrt(s/(2 rho)) there,
    # with s = gamma_ar + gamma_rb + 1/rho.
    gains, params = _FIG1_GAINS, _at(10.0, rate=0.0)
    s = gains.gamma_ar + gains.gamma_rb + 1.0 / params.rho
    wrong = -math.expm1(-math.sqrt(s / (2.0 * params.rho)) / gains.gamma_rb)
    return _beyond("misfit", abs(wrong - (1 - analytic.p_pos_cj(gains, params))), 0.01)


def _printed_af_limit(mc: McConfig) -> tuple[bool, str]:
    # The paper puts beta1, the positive-secrecy coefficient, in place of
    # beta2 in the bracket of the high-SNR AF limit.
    gains, params = _FIG1_GAINS, _at(80.0, scheme=_AF)
    c = 2.0 ** (2.0 * params.rate) - 1.0
    beta1 = derived_coefficients(gains, params).beta1
    bracket = analytic._ei_bracket(gains.gamma_ar / gains.gamma_rb, beta1)
    printed = 1.0 - gains.gamma_ab / (c * gains.gamma_ar + gains.gamma_ab) * bracket
    gap = abs(printed - analytic.limits(gains, params, "af_high_snr"))
    return _beyond("|printed - limit| at 80 dB", gap, 0.01)


# (gains, rho_db, K, schemes) of the calibration cells: figure 1's SNR grid,
# figure 6's full array and figure 7's selection over SNR, figure 8's CSI-free
# jamming selection over K, and AF selection at K = 3.  Each group is
# simulated on common draws, so a group's estimates do not depend on which
# other groups run.
_AF_SELECT_CELL = (_FIG7_GAINS, 10.0, 3, (_AF_SEL,))
_CALIBRATION = (
    *((_FIG1_GAINS, rho_db, 1, (_DT, _AF, _CJ)) for rho_db in _RHO_GRID[::2]),
    *((_FIG6_GAINS, 30.0, k, (_DT, _AF)) for k in (1, 2, 4, 6, 8)),
    *((_FIG7_GAINS, rho_db, 6, (_DT_SEL, _AF_SEL, _AF_SEL_NOCSI)) for rho_db in _RHO_GRID[::2]),
    *((_FIG8_GAINS, 12.0, k, (_CJ_SEL_NOCSI,)) for k in (1, 2, 4, 6, 10)),
    _AF_SELECT_CELL,
)


def _calibration(mc: McConfig, groups=_CALIBRATION) -> tuple[bool, str]:
    cells = []
    for gains, rho_db, k, schemes in groups:
        params_list = [_at(rho_db, scheme=s, k=k) for s in schemes]
        for params, sim in zip(params_list, estimate_sop_many(gains, params_list, mc)):
            gap = abs(analytic.analytic_sop(gains, params) - sim.value)
            tol = max(4.0 * sim.stderr, 0.005)
            cells.append((gap / tol, gap <= tol, f"{params.scheme} K={k} at {rho_db:g} dB", gap, tol))
    passed = sum(cell[1] for cell in cells)
    _, _, worst, gap, tol = max(cells)
    return passed == len(cells), (
        f"{passed}/{len(cells)} cells within max(4 stderr, 0.005); "
        f"worst {worst}: gap {gap:.5f} (tol {tol:.5f})")


def _weak_first_hop_order(mc: McConfig) -> tuple[bool, str]:
    dt = analytic.limits(_WEAK_FIRST_HOP, _at(20.0, scheme=_DT), "dt_weak_first_hop")
    af = analytic.limits(_WEAK_FIRST_HOP, _at(20.0, scheme=_AF), "af_weak_first_hop")
    return dt <= af, f"direct {dt:.4f} <= relaying {af:.4f}"


def _diversity(mc: McConfig) -> tuple[bool, str]:
    # Minus the slope of log10 SOP per decade of rho, from 40 to 60 dB, is the diversity order.
    def slope(scheme: SchemeId, k: int) -> float:
        low, high = (analytic.analytic_sop(_FIG1_GAINS, _at(r, scheme=scheme, k=k)) for r in (40.0, 60.0))
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
    mc, problems = _reseeded(mc, 1), []
    by_k = {k: estimate_sop_many(_FIG6_GAINS, [_at(30.0, scheme=s, k=k) for s in (_DT, _AF, _CJ)], mc)
            for k in (1, 2, 8)}
    for i, scheme in enumerate((_DT, _AF, _CJ)):
        for lo, hi in ((1, 2), (2, 8)):
            a, b = by_k[lo][i], by_k[hi][i]
            sep = (b.value - a.value) / math.sqrt(a.stderr**2 + b.stderr**2 + 1e-30)
            if sep < 5.0:
                problems.append(f"{scheme} K={hi} vs K={lo}: separation {sep:.1f} sigma < 5")
    floors = [analytic.sop_cj_select_nocsi(_FIG6_GAINS, _at(30.0, k=k)) for k in (1, 2, 4, 8, 16)]
    if not all(b <= a + 1e-12 for a, b in zip(floors, floors[1:])):
        problems.append(f"selection outage not nonincreasing in K: {floors}")
    p64 = _at(30.0, scheme=_CJ_SEL_NOCSI, k=64)
    floor_gap = abs(analytic.sop_cj_select_nocsi(_FIG6_GAINS, p64)
                    - analytic.limits(_FIG6_GAINS, p64, "cj_select_nocsi_large_k"))
    if floor_gap > 0.01:
        problems.append(f"K=64 floor gap {floor_gap:.4f} exceeds 0.01")
    return not problems, "; ".join(problems) or "5-sigma orderings and selection floor hold"


def _selection_dip(mc: McConfig) -> tuple[bool, str]:
    mc = _reseeded(mc, 2)
    values = [estimate_sop(_FIG8_GAINS, _at(12.0, scheme=_CJ_SEL, k=k), mc).value for k in range(1, 11)]
    low = values.index(min(values))
    ok = 0 < low < len(values) - 1 and values[1] < values[0] and values[-1] > values[low]
    return ok, f"outage over K=1..10: {[round(v, 4) for v in values]}; minimum at K={low + 1}"


def _crossover(mc: McConfig) -> tuple[bool, str]:
    diffs = [analytic.sop_af_single(_FIG1_GAINS, p) - analytic.sop_cj_single(_FIG1_GAINS, p)
             for p in map(_at, _RHO_GRID)]
    signs = [d > 0 for d in diffs]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    return not signs[0] and signs[-1] and changes == 1, (
        f"AF - CJ along figure 1's grid: {[round(d, 4) for d in diffs]} ({changes} sign change)")


def _power_gains(mc: McConfig) -> tuple[bool, str]:
    # Each search scores about 120 candidates, so the searches run on at most 150,000 trials.
    mc, problems = replace(_reseeded(mc, 3), trials=min(mc.trials, 150_000)), []

    def gain(gains: LinkGains, scheme: SchemeId, rho_db: float) -> float:
        params = _at(rho_db, scheme=scheme)
        full = estimate_sop(gains, params, mc)
        _, best = powerallo.minimize_sop(gains, params, mc, grid_step=0.25)
        if best.value > full.value + 1e-12:
            problems.append(f"{scheme} optimized above full power")
        return full.value - best.value

    af, cj, cj_k1 = gain(_FIG1_GAINS, _AF, 10.0), gain(_FIG1_GAINS, _CJ, 10.0), gain(_FIG6_GAINS, _CJ, 30.0)
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
    *(_reduction(form, 1e-9)
      for form in ("dt_multi", "dt_select", "af_select_csi", "af_select_nocsi", "cj_select_nocsi")),
    _reduction("af_multi", 1e-6),
    Check("calibration: closed forms match Monte Carlo", _calibration),
    _limit("high-SNR AF limit consistent with exact expression",
           _FIG1_GAINS, 80.0, "af_high_snr", 1e-4),
    Check("paper erratum: printed high-SNR AF limit misses the exact limit", _printed_af_limit),
    _limit("high-SNR CJ outage vanishes", _FIG1_GAINS, 50.0, "cj_high_snr", 0.02),
    _limit("high-SNR DT limit", _FIG1_GAINS, 50.0, "dt_high_snr", 0.005),
    _limit("high-SNR AF limit", _FIG1_GAINS, 50.0, "af_high_snr", 0.005),
    _limit("strong-second-hop CJ limit", _gains_db(5.0, 0.0, 40.0), 15.0, "cj_strong_second_hop", 0.01),
    _limit("weak-first-hop DT limit", _WEAK_FIRST_HOP, 20.0, "dt_weak_first_hop", 0.005),
    _limit("weak-first-hop AF limit", _WEAK_FIRST_HOP, 20.0, "af_weak_first_hop", 0.005),
    Check("weak-first-hop limits order direct transmission below relaying", _weak_first_hop_order),
    Check("antenna-selection CJ has diversity order 1/2; DT and AF floor", _diversity),
    Check("outage grows with K; CJ selection floors", _antenna_growth),
    Check("CSI-selection CJ dips over K, then rises", _selection_dip),
    Check("AF and CJ outages cross once over SNR", _crossover),
    Check("power allocation helps AF more than CJ", _power_gains),
)


def run_validate(args) -> int:
    mc = _mc_config(args, default_trials=200_000)
    failures = 0
    for check in CHECKS:
        with _naming(check.name):
            ok, detail = check.run(mc)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {check.name}: {detail}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedAnalytic as exc:
        print(f"unsupported combination: {exc} (hint: rerun with --method montecarlo)", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:  # stdout's reader left, as `head` does: exit quietly, as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
