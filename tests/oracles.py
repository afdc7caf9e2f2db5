"""Reference values the tests check the package against.

Globally adaptive Gauss-Kronrod quadrature, the closed-form rarefaction
integrals of the two one-term pressure laws, and the quadratic the GCG
delta-shock speed satisfies. The quadrature keeps its own copy of the
Kronrod-15 nodes and weights, so it checks ``fvcore``'s table instead of
sharing it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from chapgas import AccuracyError, DomainError, State, ToleranceConfig

_EPS = 2.220446049250313e-16

# 15-point Kronrod extension of the 7-point Gauss rule (positive half).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss-7 weights, paired with the odd-indexed Kronrod abscissae.
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

DEFAULT_QUAD_TOL = ToleranceConfig(max_iterations=60)


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate of the integral over [a, b] and |K15 - G7| error."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        fsum = f(c - x) + f(c + x)
        kron += _WGK[i] * fsum
        if i % 2 == 1:
            gauss += _WG[i // 2] * fsum
    return kron * h, abs(kron - gauss) * abs(h)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: ToleranceConfig = DEFAULT_QUAD_TOL,
) -> float:
    """Globally adaptive bisection quadrature with a nested Gauss-Kronrod 7/15 rule.

    The interval with the largest error estimate is bisected until the summed
    error drops below max(abs_tol, rel_tol*|integral|). ``tol.max_iterations``
    bounds the bisection depth of any one interval; running out of depth (or
    of the overall split budget) raises AccuracyError carrying the best
    estimate.
    """
    if not (a <= b):
        raise DomainError(f"need a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return 0.0
    est, err = _gauss_kronrod(f, a, b)
    # Heap entries: (-err, lo, hi, est, err, depth); frozen entries get key 0
    # so they are only popped once nothing improvable remains.
    heap = [(-err, a, b, est, err, 0)]
    total_est = est
    total_err = err
    splits = 0
    while heap and total_err > max(tol.abs_tol, tol.rel_tol * abs(total_est)):
        key, lo, hi, est_i, err_i, depth = heapq.heappop(heap)
        if key == 0.0:
            heapq.heappush(heap, (key, lo, hi, est_i, err_i, depth))
            break
        tiny = (hi - lo) <= 4.0 * _EPS * max(abs(lo), abs(hi))
        if depth >= tol.max_iterations or tiny or splits >= 10_000:
            heapq.heappush(heap, (0.0, lo, hi, est_i, err_i, depth))
            continue
        mid = 0.5 * (lo + hi)
        e1, r1 = _gauss_kronrod(f, lo, mid)
        e2, r2 = _gauss_kronrod(f, mid, hi)
        total_est += e1 + e2 - est_i
        total_err += r1 + r2 - err_i
        heapq.heappush(heap, (-r1, lo, mid, e1, r1, depth + 1))
        heapq.heappush(heap, (-r2, mid, hi, e2, r2, depth + 1))
        splits += 1
    if total_err > max(tol.abs_tol, tol.rel_tol * abs(total_est)):
        raise AccuracyError(
            f"quadrature accuracy not reached (error ~{total_err:.3e})",
            estimate=total_est,
        )
    return total_est


def gcg_velocity_jump(B: float, alpha: float, rho_lo: float, rho_hi: float) -> float:
    """Closed form of the rarefaction integral for A = 0.

    Equals integral over [rho_lo, rho_hi] of sqrt(alpha*B)*s^(-(alpha+3)/2) ds.
    """
    m = 0.5 * (alpha + 1.0)
    return 2.0 * math.sqrt(alpha * B) / (alpha + 1.0) * (rho_lo**-m - rho_hi**-m)


def polytropic_velocity_jump(A: float, n: float, rho_lo: float, rho_hi: float) -> float:
    """Closed form of the rarefaction integral for B = 0 (n = 1 is the log form).

    Equals integral over [rho_lo, rho_hi] of sqrt(A*n)*s^((n-3)/2) ds.
    """
    if n == 1.0:
        return math.sqrt(A) * math.log(rho_hi / rho_lo)
    e = 0.5 * (n - 1.0)
    return 2.0 * math.sqrt(A * n) / (n - 1.0) * (rho_hi**e - rho_lo**e)


def delta_speed_quadratic_residual(
    left: State, right: State, B: float, alpha: float, sigma: float
) -> float:
    """Residual of the quadratic the GCG delta-shock speed must satisfy."""
    return (
        (right.rho - left.rho) * sigma**2
        - 2.0 * (right.rho * right.u - left.rho * left.u) * sigma
        + right.rho * right.u**2
        - left.rho * left.u**2
        - B * (right.rho**-alpha - left.rho**-alpha)
    )
