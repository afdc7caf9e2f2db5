"""Reference values the tests check the package against.

Globally adaptive Gauss-Kronrod quadrature, the closed-form rarefaction
integrals of the two one-term pressure laws, the quadratic the GCG
delta-shock speed satisfies, ``fvcore.velocity_jump`` written as one
Python iteration per panel, the wave curves in scalar floats on
``models.shock_radicand`` (not the core's shock arithmetic, which
``solver.forward_curve`` uses), the intermediate state of a two-wave solution by
bisection in rho on the wave-curve mismatch, an independent check of the
core's Newton, and that Newton's one-element loop with the stopping rule
it had before trusted steps settled it, and the Lax-Friedrichs interface
fluxes built from each field's left and right sides, two concatenations
per field, as ``fvcore.lf_flux`` built them before it padded each field
once, and the time step and march on bare cells as they were before runs
carried padded fields: padding every step, guards against empty cells on
every field, two-term pressure laws. The adaptive quadrature keeps its
own copy of the Kronrod-15 nodes and weights, so it checks ``fvcore``'s
table instead of sharing it; the panel loop shares the table, because it
checks the order of the arithmetic and not the rule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chapgas import ChapgasError, DomainError, NumericalLimitError, PressureParams, State, fvcore
from chapgas.fvcheck import Scheme, _project_datum
from chapgas.models import Model, gcg_delta_region, shock_radicand

_EPS = 2.220446049250313e-16


class BracketError(ChapgasError):
    """No sign change available for a bracketed root search."""


class AccuracyError(ChapgasError):
    """Requested accuracy was not reached within the iteration budget.

    Carries the best estimate produced so far in ``estimate`` (a float for
    quadrature, an ``(lo, hi)`` bracket for root finding).
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class ToleranceConfig:
    """Accuracy knobs for ``find_root`` and ``integrate``.

    ``max_iterations`` bounds bisection steps for roots and subdivision depth
    for the quadrature.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        floor = 10.0 * _EPS
        if not (self.abs_tol >= floor and self.rel_tol >= floor):
            raise DomainError(f"tolerances must be >= {floor}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be positive")


DEFAULT_ROOT_TOL = ToleranceConfig()

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


def panel_loop_velocity_jump(p, ya, yb):
    """``fvcore.velocity_jump`` for ECG and transport, one panel per iteration.

    The same ceil(|yb - ya| / ln 2) panels per element and the same nodes;
    each element's panel sums are added in panel order, and elements with
    fewer panels add 0.0 once they run out.
    """
    ya, yb = np.asarray(ya, dtype=float), np.asarray(yb, dtype=float)
    d = yb - ya
    panels = np.maximum(np.ceil(np.abs(d) / fvcore._LN2), 1.0)
    h = d / panels
    start = ya[..., None]
    for j in range(int(panels.max(initial=1.0))):
        # Elements out of panels still evaluate nodes past their end, where
        # c^2 can overflow; np.where drops those parts.
        with np.errstate(over="ignore"):
            t1, t2 = fvcore._cs2_terms(p, start + h[..., None] * (j + fvcore._K15_T))
        part = (np.sqrt(t1 + t2) * fvcore._K15_W).sum(axis=-1)
        total = part if j == 0 else total + np.where(j < panels, part, 0.0)
    return total * h


def _sides(a):
    """Values left and right of each interface, with outflow ghost cells."""
    return np.concatenate((a[:1], a)), np.concatenate((a, a[-1:]))


def lax_friedrichs_by_sides(p: PressureParams, rho, u, lam):
    """Lax-Friedrichs fluxes at all interfaces, each side of each field concatenated on its own."""
    frho, fmom = fvcore._state_flux(p, rho, u)
    (rl, rr), (ul, ur) = _sides(rho), _sides(u)
    (fl_r, fr_r), (fl_m, fr_m) = _sides(frho), _sides(fmom)
    return (
        0.5 * (fl_r + fr_r) - 0.5 * lam * (rr - rl),
        0.5 * (fl_m + fr_m) - 0.5 * lam * (rr * ur - rl * ul),
    )


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: ToleranceConfig = DEFAULT_ROOT_TOL,
) -> float:
    """Safeguarded bisection for f(x) = 0 on a sign-changing bracket.

    The iterate never leaves [lo, hi]. Stops when |f(x)| <= abs_tol or the
    bracket width drops below rel_tol*|x| + abs_tol.
    """
    if lo > hi:
        lo, hi = hi, lo
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}")
    for _ in range(tol.max_iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol.abs_tol:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if (hi - lo) <= tol.rel_tol * abs(mid) + tol.abs_tol:
            return 0.5 * (lo + hi)
    raise AccuracyError(
        f"root not located to tolerance in {tol.max_iterations} iterations",
        estimate=(lo, hi),
    )


def expand_bracket(
    f: Callable[[float], float],
    seed: float,
    direction: str,
) -> tuple[float, float]:
    """Expand geometrically (factor 2) from ``seed`` until a sign change is bracketed.

    ``direction`` is "up" or "down". Positive seeds only: this walks the
    density axis. Stops with BracketError past 1e308 (up) or below the 1e-300
    density floor (down).
    """
    if direction not in ("up", "down"):
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    if not (seed > 0.0 and math.isfinite(seed)):
        raise DomainError(f"seed must be positive and finite, got {seed!r}")
    fa = f(seed)
    if not math.isfinite(fa):
        raise DomainError(f"f(seed) is not finite: {fa!r}")
    if fa == 0.0:
        return seed, seed
    a = seed
    while True:
        b = a * 2.0 if direction == "up" else a * 0.5
        if direction == "up" and b > 1e308:
            raise BracketError(f"no sign change found expanding up from {seed!r}")
        if direction == "down" and b < 1e-300:
            raise BracketError(f"no sign change found expanding down from {seed!r}")
        fb = f(b)
        if fb == 0.0:
            return (b, b)
        if (fa > 0.0) != (fb > 0.0):
            return (min(a, b), max(a, b))
        a, fa = b, fb


def _shock_jump(p: PressureParams, rho_a: float, rho_b: float) -> float:
    """|u_b - u_a| across a shock between the two densities, from ``models.shock_radicand``."""
    return math.sqrt(max(shock_radicand(p, rho_a, rho_b), 0.0))


def _rarefaction_jump(p: PressureParams, rho_lo: float, rho_hi: float) -> float:
    """The core's rarefaction integral over [rho_lo, rho_hi]: ``fvcore.velocity_jump`` on the logs."""
    return float(fvcore.velocity_jump(p, math.log(rho_lo), math.log(rho_hi)))


def curve_one_u(p: PressureParams, left: State, rho: float) -> float:
    """Forward 1-curve through ``left`` in scalar floats: rarefaction for rho < rho-, shock above."""
    if rho < left.rho:
        return left.u + _rarefaction_jump(p, rho, left.rho)
    if rho > left.rho:
        return left.u - _shock_jump(p, left.rho, rho)
    return left.u


def curve_two_u(p: PressureParams, left: State, rho: float) -> float:
    """Forward 2-curve through ``left`` in scalar floats: shock for rho < rho-, rarefaction above."""
    if rho < left.rho:
        return left.u - _shock_jump(p, left.rho, rho)
    if rho > left.rho:
        return left.u + _rarefaction_jump(p, left.rho, rho)
    return left.u


def curve_two_u_backward(p: PressureParams, right: State, rho: float) -> float:
    """Velocity u such that a 2-wave connects (rho, u) on the left to ``right``."""
    if not (rho > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")
    if rho < right.rho:
        return right.u - _rarefaction_jump(p, rho, right.rho)
    if rho > right.rho:
        return right.u + _shock_jump(p, rho, right.rho)
    return right.u


def bisection_star_state(p: PressureParams, left: State, right: State) -> State:
    """(rho*, u*) of a classical two-wave solution by bisection in rho.

    ``expand_bracket`` walks the density axis from the geometric mean of the
    data, and ``find_root`` bisects the mismatch of the forward 1-curve and
    the backward 2-curve at the default tolerances. Its absolute width floor
    of 1e-12 leaves rho* unresolved once rho* is that small.
    """

    def mismatch(rho: float) -> float:
        return curve_one_u(p, left, rho) - curve_two_u_backward(p, right, rho)

    seed = math.sqrt(left.rho * right.rho)
    h0 = mismatch(seed)
    if h0 == 0.0:
        rho_star = seed
    else:
        lo, hi = expand_bracket(mismatch, seed, "up" if h0 > 0.0 else "down")
        rho_star = lo if lo == hi else find_root(mismatch, lo, hi)
    u_star = 0.5 * (curve_one_u(p, left, rho_star) + curve_two_u_backward(p, right, rho_star))
    return State(rho_star, u_star)


def newton_one_to_tol_y(fun, y, lo, hi, capped=True):
    """``fvcore._newton_one`` stopping only on a step of at most ``fvcore._TOL_Y``.

    The same safeguarded step, ``fvcore._newton_step``, with its ``moving``
    flag ignored: an element stops once a step moves y by at most
    ``_TOL_Y`` (|h| within its noise makes that step 0), so it always pays
    the evaluation that confirms a trusted Newton step. Patched over
    ``fvcore._newton_one``, it gives every one-element star state and ECG
    fan point as the core computed them before it trusted such steps.
    """
    for _ in range(fvcore._MAX_ITERATIONS):
        h, dh, noise = fun(y)
        lo, hi, yn, _ = fvcore._newton_step(h, dh, noise, y, lo, hi, capped)
        if not abs(yn - y) > fvcore._TOL_Y:
            return yn
        y = yn
    raise NumericalLimitError(fvcore._NOT_SETTLED)


def same_bits(got, want):
    """Whether two arrays, or values, have the same dtype, shape and bits."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _pressure_two_terms(p: PressureParams, rho):
    """P(rho) with both terms always computed, the A-term too when A = 0."""
    return p.A * rho**p.n - p.B * rho ** (-p.alpha)


def _cs2_two_terms(p: PressureParams, rho):
    """c^2(rho) with both terms always computed."""
    return p.A * p.n * rho ** (p.n - 1.0) + p.alpha * p.B * rho ** (-(p.alpha + 1.0))


def _state_flux_guarded(p: PressureParams, rho, u):
    """The state fluxes (rho u, rho u^2 + P), with P = 0 in empty cells."""
    mass = rho * u
    if p.model is Model.TRANSPORT:
        return mass, mass * u
    with np.errstate(divide="ignore", invalid="ignore"):
        pres = np.where(rho > 0.0, _pressure_two_terms(p, rho), 0.0)
    return mass, mass * u + pres


def reference_step(p: PressureParams, rho, mom, dx, cfl, t_left, godunov):
    """``fvcore.step`` on bare cells, re-padding both fields every step.

    The velocity is a guarded division, the speed scan and the pressure take
    ``np.errstate`` and ``np.where`` guards against empty cells whatever the
    field, and the laws compute both terms. Returns what ``fvcore.step``
    returns, without ghost cells on the new fields.
    """
    u = np.divide(mom, rho, out=np.zeros_like(mom), where=rho > 0.0)
    if p.model is Model.TRANSPORT:
        smax = float(np.max(np.abs(u)))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(rho > 0.0, np.sqrt(_cs2_two_terms(p, rho)), 0.0)
        smax = float(np.max(np.abs(u) + c))
    if not math.isfinite(smax):
        raise NumericalLimitError("wave speed is not finite")
    dt = t_left if smax <= 0.0 else min(cfl * dx / smax, t_left)
    lam = dx / dt
    rho_p, u_p = (np.concatenate((a[:1], a, a[-1:])) for a in (rho, u))
    frho_c, fmom_c = _state_flux_guarded(p, rho_p, u_p)
    lf_rho = 0.5 * (frho_c[:-1] + frho_c[1:]) - 0.5 * lam * (rho_p[1:] - rho_p[:-1])
    lf_mom = 0.5 * (fmom_c[:-1] + fmom_c[1:]) - 0.5 * lam * (frho_c[1:] - frho_c[:-1])
    frho, fmom, fallbacks = lf_rho, lf_mom, 0
    if godunov:
        rl, rr, ul, ur = rho_p[:-1], rho_p[1:], u_p[:-1], u_p[1:]
        frho, fmom = frho_c[:-1].copy(), fmom_c[:-1].copy()
        if p.model is Model.TRANSPORT:
            delta = ul > ur
            upwind_right = (ul < 0.0) & ((ul == ur) | (ur <= 0.0))
            frho = np.where(upwind_right, frho_c[1:], frho)
            fmom = np.where(upwind_right, fmom_c[1:], fmom)
            vacuum = (ul < 0.0) & (ur > 0.0)
            frho[vacuum], fmom[vacuum] = 0.0, 0.0
        else:
            trivial = (rl == rr) & (ul == ur)
            delta = np.zeros_like(trivial)
            if p.model is Model.GCG:
                delta = ~trivial & gcg_delta_region(p, rl, ul, rr, ur)
            cls = ~trivial & ~delta
            if cls.any():
                sub = (rl[cls], ul[cls], rr[cls], ur[cls])
                rs, us = fvcore.star_state(p, *sub)
                frho[cls], fmom[cls] = _state_flux_guarded(p, *fvcore.sample_classical(p, *sub, rs, us, 0.0))
        frho, fmom = np.where(delta, lf_rho, frho), np.where(delta, lf_mom, fmom)
        fallbacks = int(np.count_nonzero(delta))
    k = dt / dx
    return rho - k * (frho[1:] - frho[:-1]), mom - k * (fmom[1:] - fmom[:-1]), dt, smax, frho, fmom, fallbacks


def reference_evolve(p: PressureParams, left: State, right: State, g):
    """``fvcheck.evolve``'s march on bare cells with ``reference_step``, for valid data.

    Returns (rho, momentum, steps, boundary mass influx, boundary momentum
    influx, Godunov fallbacks), as the snapshot of the same run holds them.
    """
    rho, mom = _project_datum(left, right, np.linspace(g.x_lo, g.x_hi, g.cells + 1))
    t, steps, mass_in, mom_in, fallbacks = 0.0, [], 0.0, 0.0, 0
    while t < g.t_end * (1.0 - 1e-14):
        rho, mom, dt, smax, frho, fmom, nfall = reference_step(
            p, rho, mom, g.dx, g.cfl, g.t_end - t, g.scheme is Scheme.GODUNOV_EXACT
        )
        fallbacks += nfall
        mass_in += dt * (frho[0] - frho[-1])
        mom_in += dt * (fmom[0] - fmom[-1])
        steps.append((t, dt, smax))
        t += dt
    return rho, mom, steps, mass_in, mom_in, fallbacks
