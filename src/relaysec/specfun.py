"""Special functions and quadrature primitives used by the closed-form outage expressions.

Only the handful of functions the outage formulas actually need live here:
the scaled exponential integral e^y E1(y), the modified Bessel function K1,
and a semi-infinite adaptive quadrature based on the substitution
z = lower + u/(1-u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.special


class ConvergenceError(RuntimeError):
    """Raised when an adaptive quadrature cannot meet its tolerance contract."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for the semi-infinite quadratures."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


def exp_scaled_e1(y: float) -> float:
    """Stable evaluation of e^y * E1(y) = -e^y * Ei(-y) for y > 0.

    The outage brackets contain mu*(beta-1)*e^(mu*beta)*Ei(-mu*beta) where
    mu*beta can exceed 1e6 for strong-gain / high-SNR parameter points; the
    naive product overflows, so the scaled form is evaluated directly.
    Below y=500 the scipy product is exact; above, a modified-Lentz
    continued fraction for the scaled E1 is used.
    """
    if not y > 0:
        raise ValueError(f"exp_scaled_e1 requires y > 0, got {y}")
    if y <= 500.0:
        return float(math.exp(y) * scipy.special.exp1(y))
    # e^y E1(y) = 1/(y+1 - 1/(y+3 - 4/(y+5 - 9/(y+7 - ...)))) for large y.
    b = y + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for n in range(1, 200):
        a = -float(n * n)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(f"continued fraction for exp_scaled_e1({y}) did not converge")


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one, for x > 0."""
    if not x > 0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x}")
    return float(scipy.special.k1(x))


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    spec: QuadratureSpec | None = None,
    focus: "list[float] | None" = None,
) -> float:
    """Integrate f over [lower, inf) to the tolerances in ``spec``.

    The interval is mapped to (0, 1) with z = lower + u/(1-u) and the
    transformed integrand is refined adaptively.  The substitution (rather
    than tail truncation) keeps slowly decaying exponential tails accurate
    even when the decay length is several orders of magnitude.

    ``focus`` lists z values where the integrand changes character (sharp
    transition layers); subdivision starts at these points so narrow
    features next to the lower endpoint are not overlooked.
    """
    if spec is None:
        spec = QuadratureSpec()

    def transformed(u: float) -> float:
        w = 1.0 - u
        return f(lower + u / w) / (w * w)

    points = None
    if focus:
        points = sorted(
            {(z - lower) / (1.0 + z - lower) for z in focus if z > lower and math.isfinite(z)}
        )
        points = [u for u in points if 0.0 < u < 1.0] or None

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        value, abserr, info = scipy.integrate.quad(
            transformed,
            0.0,
            1.0,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            points=points,
            full_output=True,
        )[:3]
    if abserr > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(
            f"semi-infinite quadrature from {lower} reached error {abserr:.3e} "
            f"after {info['last']} subdivisions; tolerance not met"
        )
    return float(value)
