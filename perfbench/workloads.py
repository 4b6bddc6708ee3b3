"""Workload definitions and output checks of the relaysec benchmark.

Three workloads:

* ``fig1-poweropt``: ``relaysec figure 1`` with power optimisation, where
  the same fading is redrawn for every power candidate;
* ``fig8-antennas``: ``relaysec figure 8 --skip-power-opt``, a new antenna
  count at every point, so no draw can be reused across points;
* ``closed-forms``: in-process ``analytic.analytic_sop`` calls on seeded
  points, stratified over 15 (scheme, mode, K band) strata.

This module imports nothing from relaysec at import time, so the parent
process can use it without paying for the package import.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# The stable CSV header of relaysec; kept here, not imported, so a change in
# the program shows up as a failed check.
CSV_HEADER = (
    "scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,sop,stderr,trials,"
    "wilson_low,wilson_high"
)

FIGURES = {
    "fig1-poweropt": {
        "argv": ["figure", "1", "--trials", "65536", "--power-opt-trials", "8192"],
        "axis_column": 3,  # rho_db
        "points": 9,
    },
    "fig8-antennas": {
        "argv": ["figure", "8", "--skip-power-opt", "--trials", "131072"],
        "axis_column": 2,  # K
        "points": 10,
    },
}
CHUNK_SIZE = 1 << 16  # McConfig's default; the CLI does not expose it
WORKLOADS = (*FIGURES, "closed-forms")

# Outputs outside [-SLACK, 1 + SLACK] are failures: the slack SopEstimate allows.
SLACK = 1e-12

# closed-forms strata: (scheme, mode, K low, K high, closed form analytic_sop dispatches to).
_SIX = (
    ("dt", "full", "sop_dt_multi"),
    ("dt", "select-csi", "sop_dt_select"),
    ("af", "full", "sop_af_multi"),
    ("af", "select-csi", "sop_af_select_csi"),
    ("af", "select-nocsi", "sop_af_select_nocsi"),
    ("cj", "select-nocsi", "sop_cj_select_nocsi"),
)
STRATA = (
    ("dt", "full", 1, 1, "sop_dt_single"),
    ("af", "full", 1, 1, "sop_af_single"),
    ("cj", "full", 1, 1, "sop_cj_single"),
    *((s, m, 2, 20, form) for s, m, form in _SIX),
    *((s, m, 21, 64, form) for s, m, form in _SIX),
)
FORMS = tuple(dict.fromkeys(stratum[4] for stratum in STRATA))
POINTS_PER_STRATUM = 14  # 210 evaluations: ten lie beyond the 95th percentile
_RANGES = {
    "gab_db": (-40.0, 40.0),
    "gar_db": (-40.0, 40.0),
    "grb_db": (-40.0, 40.0),
    "rho_db": (-10.0, 60.0),
    "rate": (0.0, 4.0),
}
DESIGN_SEED = 0  # fixes the cell of each point; not tuned


def closed_form_points(seed: int) -> list[dict]:
    """Seeded parameter points, an equal count in each stratum.

    Each stratum is a Latin hypercube over K (its band), the three gains
    (+-40 dB), the SNR (-10 to 60 dB) and the rate (0 to 4): per coordinate
    the range is cut into POINTS_PER_STRATUM slots and each point takes a
    different slot. Which slots a point combines is fixed by DESIGN_SEED;
    the seed places each point inside its cell and shuffles the evaluation
    order. So the seed changes the points but not their mix, which sets the
    cost of the selection sums and quadratures.
    """
    n = POINTS_PER_STRATUM
    design, rng = random.Random(DESIGN_SEED), random.Random(seed)
    ranges = {"k": None, **_RANGES}
    points = []
    for scheme, mode, k_lo, k_hi, form in STRATA:
        cells = {name: design.sample(range(n), n) for name in ranges}
        for i in range(n):
            u = {name: (cells[name][i] + rng.random()) / n for name in ranges}
            point = {"scheme": scheme, "mode": mode, "k": k_lo + int(u["k"] * (k_hi - k_lo + 1)), "form": form}
            point.update({name: lo + u[name] * (hi - lo) for name, (lo, hi) in _RANGES.items()})
            points.append(point)
    rng.shuffle(points)
    return points


def classify(value) -> str | None:
    """None for a valid SOP, else why the evaluation failed."""
    if not isinstance(value, float) or not math.isfinite(value):
        return f"non-finite value {value!r}"
    if not -SLACK <= value <= 1.0 + SLACK:
        return f"value {value!r} outside [0, 1]"
    return None


def dt_oracle(point: dict) -> float | None:
    """Independent closed form of the DT outage, or None for AF/CJ points.

    SOP = 1 - exp(-(2^R - 1)/(rho g_ab)) E[exp(-2^R Y / g_ab)], with Y the
    relay's gain: one exponential, an Erlang-K sum (full array) or the
    maximum of K exponentials (selection), whose Laplace transform is
    K B(1 + s g_ar, K).
    """
    if point["scheme"] != "dt":
        return None
    gab, gar = 10.0 ** (point["gab_db"] / 10.0), 10.0 ** (point["gar_db"] / 10.0)
    rho, k = 10.0 ** (point["rho_db"] / 10.0), point["k"]
    two_r = 2.0 ** point["rate"]
    s_gar = two_r * gar / gab
    if point["mode"] == "full":
        log_laplace = -k * math.log1p(s_gar)
    else:
        log_laplace = math.log(k) + math.lgamma(1.0 + s_gar) + math.lgamma(k) - math.lgamma(1.0 + s_gar + k)
    return 1.0 - math.exp(-(two_r - 1.0) / (rho * gab) + log_laplace)


ORACLE_TOL = 1e-8


def check_figure_csv(workload: str, text: str, pinned: bool) -> list[str]:
    """Problems with one figure CSV: header, row count, SOP range and, for
    the pinned seed, the digest of the Monte Carlo and power-opt rows."""
    spec = FIGURES[workload]
    expected = REFERENCE["figures"][workload]
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"header is {lines[0] if lines else ''!r}, expected the stable CSV header")
    rows = lines[1:]
    if len(rows) != expected["rows"]:
        problems.append(f"{len(rows)} rows, expected {expected['rows']}")
    problems += [f"sop outside [0, 1] or unparsable in row {row!r}" for row in bad_rows(rows)]
    points = {row.split(",")[spec["axis_column"]] for row in rows}
    if len(points) != spec["points"]:
        problems.append(f"{len(points)} axis points, expected {spec['points']}")
    if pinned and mc_digest(text) != expected["mc_sha256"]:
        problems.append(
            f"sha256 of the montecarlo and power-opt rows at seed {REFERENCE['pinned_seed']} "
            f"is {mc_digest(text)}, expected {expected['mc_sha256']}"
        )
    return problems


def bad_rows(rows: list[str]) -> list[str]:
    """CSV rows whose sop field is not a number in [0, 1]."""
    bad = []
    for row in rows:
        try:
            if 0.0 <= float(row.split(",")[9]) <= 1.0:
                continue
        except (IndexError, ValueError):
            pass
        bad.append(row)
    return bad


def mc_digest(text: str) -> str:
    """sha256 of the montecarlo and power-opt rows, in output order.

    Analytic rows are left out so that fixes to the closed forms do not
    move it; the Monte Carlo rows must stay byte-identical.
    """
    rows = [
        line for line in text.splitlines()[1:]
        if line.split(",")[8:9] in (["montecarlo"], ["power-opt"])
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def row_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in text.splitlines()[1:]:
        method = line.split(",")[8]
        counts[method] = counts.get(method, 0) + 1
    return counts
