"""Special functions and quadrature primitives used by the closed-form outage expressions.

Only the handful of functions the outage formulas actually need live here,
each in pure Python so that importing the package costs no numerical
library:

- ``exp_scaled_e1``, the scaled exponential integral e^y E1(y): its power
  series below y = 1 and a modified-Lentz continued fraction from there on
  (DLMF 6.6.2, 6.9.1);
- ``bessel_k1``, the modified Bessel function K1: its series up to x = 2
  and Steed's continued fraction (Temme's CF2) above (DLMF 10.31.1; Numerical
  Recipes, 3rd ed., section 6.6);
- ``integrate_semi_infinite``, a globally adaptive Gauss-Kronrod 7-15 rule
  on the substitution z = lower + u/(1-u), with QUADPACK's error estimate
  (Piessens et al., QUADPACK, 1983), held to one tolerance contract:
  ``ABS_TOL``, ``REL_TOL`` and ``MAX_SUBDIVISIONS``.

Like ``analytic``, this module is a leaf: it imports nothing from the
package.
"""

from __future__ import annotations

import heapq
import math
from operator import mul
from typing import Callable

_EULER_GAMMA = 0.57721566490153286
_EPS = math.ulp(1.0)

# The tolerance contract of every semi-infinite quadrature.
ABS_TOL = 1e-10
REL_TOL = 1e-8
MAX_SUBDIVISIONS = 200


class ConvergenceError(RuntimeError):
    """Raised when an adaptive quadrature cannot meet its tolerance contract."""


def exp_scaled_e1(y: float) -> float:
    """Stable evaluation of e^y * E1(y) = -e^y * Ei(-y) for y > 0.

    The outage brackets contain mu*(beta-1)*e^(mu*beta)*Ei(-mu*beta) where
    mu*beta can exceed 1e6 for strong-gain / high-SNR parameter points; the
    naive product overflows, so the scaled form is evaluated directly.
    Below y = 1 the power series E1(y) = -gamma - ln y - sum (-y)^k/(k k!)
    is used; from y = 1 on, a modified-Lentz continued fraction, which
    needs at most 92 steps.  Both stay within a few units in the last place.
    From y = 2^54 on, the fraction is its first term 1/(y + 1): the rest
    moves it by a relative 1/y^2, and the loop's test, which needs a step
    of exactly 1, stalled there on about one y in seven.  Below, where one y
    in 3,000 stalls, the value is h at its first step within 2 ulps of 1.
    """
    if not y > 0:
        raise ValueError(f"exp_scaled_e1 requires y > 0, got {y}")
    if 2.0 ** 54 <= y < math.inf:
        return 1.0 / (y + 1.0)
    if y < 1.0:
        term = 1.0
        total = 0.0
        k = 0
        while True:
            k += 1
            term *= -y / k
            total += term / k
            if abs(term) <= 1e-17 * k * abs(total):
                return math.exp(y) * (-_EULER_GAMMA - math.log(y) - total)
    # e^y E1(y) = 1/(y+1 - 1/(y+3 - 4/(y+5 - 9/(y+7 - ...)))).
    b = y + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    settled = None  # h at the first step within 2 ulps of 1
    for n in range(1, 200):
        a = -float(n * n)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
        if settled is None and abs(delta - 1.0) <= 2.0 * _EPS:
            settled = h
    if settled is not None:
        return settled
    raise ConvergenceError(f"continued fraction for exp_scaled_e1({y}) did not converge")


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one, for x > 0.

    Up to x = 2 the series

        K1(x) = 1/x + ln(x/2) I1(x) - (x/4) sum (psi(k+1) + psi(k+2)) q^k / (k! (k+1)!),

    with q = x^2/4 and I1(x) = (x/2) sum q^k / (k! (k+1)!), cancels by at
    most a factor of four.  Above, Steed's continued fraction gives K0 and
    the ratio K1/K0 without cancellation.
    """
    if not x > 0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x}")
    if x <= 2.0:
        q = 0.25 * x * x
        term = 1.0
        psi_sum = 1.0 - 2.0 * _EULER_GAMMA
        i1_sum = term
        psi_weighted = psi_sum
        k = 0
        while term > 1e-17 * i1_sum:
            k += 1
            term *= q / (k * (k + 1))
            psi_sum += 1.0 / k + 1.0 / (k + 1)
            i1_sum += term
            psi_weighted += psi_sum * term
        return 1.0 / x + math.log(0.5 * x) * 0.5 * x * i1_sum - 0.25 * x * psi_weighted
    # Steed's algorithm for CF2 at order zero (Numerical Recipes' bessik):
    # K0 = sqrt(pi/(2x)) e^-x / s and K1 = K0 (x + 1/2 - h) / x.
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(1, 200):
        a -= 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-16 * abs(s):
            k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
            return k0 * (x + 0.5 - 0.25 * h) / x
    raise ConvergenceError(f"continued fraction for bessel_k1({x}) did not converge")


# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK's qk15).  Nodes are ordered
# centre, then the +/- pairs of the 7-point Gauss nodes, then the Kronrod
# extension, so the Gauss weights line up with the first seven values.
_GK_X = (0.949107912342758524526189684047851, 0.741531185599394439863864773280788,
         0.405845151377397166906606412076961, 0.991455371120812639206854697526329,
         0.864864423359769072789712788640926, 0.586087235467691130294144845693013,
         0.207784955007898467600689403773245)
_GK_W = (0.063092092629978553290700663189204, 0.140653259715525918745189590510238,
         0.190350578064785409913256402421014, 0.022935322010529224963732008058970,
         0.104790010322250183839876322541518, 0.169004726639267902826583426598550,
         0.204432940075298892414161999234649)
_G7_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
         0.381830050505118944950369775488975)
_NODES = (0.0, *(s * x for x in _GK_X for s in (1.0, -1.0)))
_KRONROD = (0.209482141084727828012999174891714, *(w for w in _GK_W for _ in (0, 1)))
_GAUSS = (0.417959183673469387755102040816327, *(w for w in _G7_W for _ in (0, 1)))


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    focus: "list[float] | None" = None,
) -> float:
    """Integrate f over [lower, inf) to the module's tolerance contract.

    The interval is mapped to (0, 1) with z = lower + u/(1-u), and the
    subinterval with the largest error estimate is bisected until the
    summed estimate falls to max(ABS_TOL, REL_TOL*|I|) or there are
    ``MAX_SUBDIVISIONS`` subintervals.  No node lies beyond lower + 2^53,
    and the error estimate cannot see mass there, so f must decay on the
    unit scale: every caller integrates a gain in units of its mean.

    ``focus`` lists z values where the integrand changes character (sharp
    transition layers); subdivision starts at these points so narrow
    features next to the lower endpoint are not overlooked.

    ``lower`` = inf is the empty interval, whose integral is 0: a
    threshold beyond the float range puts all the mass below it.  A node at
    u = 1 is z = inf, where every integrand of the package has vanished, and
    counts 0; a subinterval with no node below u = 1 has an infinite error.

    Raises ``ConvergenceError`` when the error estimate ends above ten
    times the tolerance or is not finite.
    """
    if lower == math.inf:
        return 0.0

    def rule(a: float, b: float) -> tuple[float, float]:
        """GK15 value and QUADPACK error estimate of the mapped integrand on [a, b]."""
        centre = 0.5 * (a + b)
        half = 0.5 * (b - a)
        if centre - half * _GK_X[3] >= 1.0:  # the leftmost node
            return 0.0, math.inf
        # The map to z is inlined: a helper per node would cost a call frame.
        values = [f(lower + u / w) / (w * w) if (w := 1.0 - (u := centre + half * x)) > 0.0 else 0.0
                  for x in _NODES]
        kronrod = sum(map(mul, _KRONROD, values))
        mean = 0.5 * kronrod
        asc = sum(map(mul, _KRONROD, [abs(v - mean) for v in values]))
        error = abs(kronrod - sum(map(mul, _GAUSS, values)))
        if asc != 0.0 and error != 0.0:
            error = asc * min(1.0, (200.0 * error / asc) ** 1.5)
        # The floor is QUADPACK's roundoff limit, 50 eps times the rule
        # applied to |f|, which equals |kronrod| for the positive integrands here.
        return kronrod * half, max(50.0 * _EPS * abs(kronrod), error) * half

    edges = [0.0, 1.0]
    if focus:
        inner = {(z - lower) / (1.0 + z - lower) for z in focus if lower < z < math.inf}
        edges[1:1] = sorted(u for u in inner if 0.0 < u < 1.0)
    heap = []  # (-error, a, b, value)
    total = error = 0.0
    for a, b in zip(edges, edges[1:]):
        value, err = rule(a, b)
        heap.append((-err, a, b, value))
        total += value
        error += err
    heapq.heapify(heap)
    while error > max(ABS_TOL, REL_TOL * abs(total)) and len(heap) < MAX_SUBDIVISIONS:
        neg_err, a, b, value = heap[0]
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break  # the interval is as narrow as floating point allows
        left, left_err = rule(a, mid)
        right, right_err = rule(mid, b)
        heapq.heapreplace(heap, (-left_err, a, mid, left))
        heapq.heappush(heap, (-right_err, mid, b, right))
        total += left + right - value
        error += left_err + right_err + neg_err
    total = math.fsum(entry[3] for entry in heap)
    error = math.fsum(-entry[0] for entry in heap)
    if not error <= max(ABS_TOL, REL_TOL * abs(total)) * 10.0:
        raise ConvergenceError(
            f"semi-infinite quadrature from {lower} reached error {error:.3e} "
            f"after {len(heap)} subdivisions; tolerance not met"
        )
    return total
