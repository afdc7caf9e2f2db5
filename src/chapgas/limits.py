"""Flux-approximation-limit sweeps.

Two parameter schedules are supported: both pressure coefficients vanishing
(the pressureless limit, where two-shock solutions concentrate into delta
shocks and two-rarefaction solutions cavitate), and A alone vanishing at
fixed B (the generalized-Chaplygin limit). Each sweep records the observed
intermediate state and wave speeds point by point and compares them against
the closed-form limit targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import DomainError, ScheduleError
from .models import PressureParams, State, eigenvalues, gcg_delta_region, pressure, pressure_law, shock_radicand
from .solver import RiemannSolution, region_of, solve


class SweepMode(Enum):
    BOTH_VANISH = "both_vanish"
    A_VANISHES = "a_vanishes"


# Convergence thresholds: the pressureless limit converges like a square root
# of the coefficients, the partial limit much faster.
DEFAULT_TOL_BOTH_VANISH = 1e-2
DEFAULT_TOL_A_VANISHES = 1e-3

# Slack for "decreasing" checks on error sequences that sit at rounding noise.
_DECREASE_FLOOR = 1e-12


@dataclass(frozen=True)
class Schedule:
    """Ordered (A, B) parameter points walking toward the limit model."""

    mode: SweepMode
    points: tuple[tuple[float, float], ...]
    n: float
    alpha: float

    def __post_init__(self):
        if not self.points:
            raise ScheduleError("schedule needs at least one point")
        object.__setattr__(
            self, "points", tuple((float(a), float(b)) for a, b in self.points)
        )
        for a, b in self.points:
            if not (a > 0.0 and b > 0.0):
                raise ScheduleError("schedule points need A > 0 and B > 0")
        a_vals = [a for a, _ in self.points]
        b_vals = [b for _, b in self.points]
        if any(y >= x for x, y in zip(a_vals, a_vals[1:])):
            raise ScheduleError("A must be strictly decreasing along the schedule")
        if self.mode is SweepMode.BOTH_VANISH:
            if any(y >= x for x, y in zip(b_vals, b_vals[1:])):
                raise ScheduleError("B must be strictly decreasing along the schedule")
        else:
            if any(b != b_vals[0] for b in b_vals):
                raise ScheduleError("B must stay constant when only A vanishes")

    @property
    def B_fixed(self) -> float:
        return self.points[0][1]

    @classmethod
    def both_vanish_decades(
        cls, k_lo: int, k_hi: int, n: float, alpha: float
    ) -> "Schedule":
        pts = [(a, a) for a in _decades(k_lo, k_hi)]
        return cls(SweepMode.BOTH_VANISH, tuple(pts), n, alpha)

    @classmethod
    def a_vanishes_decades(
        cls, B: float, k_lo: int, k_hi: int, n: float, alpha: float
    ) -> "Schedule":
        pts = [(a, B) for a in _decades(k_lo, k_hi)]
        return cls(SweepMode.A_VANISHES, tuple(pts), n, alpha)


def _decades(k_lo: int, k_hi: int) -> list[float]:
    """10**-k for k from ``k_lo`` to ``k_hi``.

    10**-k is a positive float for -308 <= k <= 323: beyond, it overflows
    or rounds to 0, and a ``ScheduleError`` names the decade before any
    point is built.
    """
    for k in (k_lo, k_hi):
        if not -308 <= k <= 323:
            raise ScheduleError(f"decade {k}: 10**{-k} is beyond the float range")
    return [10.0**-k for k in range(k_lo, k_hi + 1)]


@dataclass(frozen=True)
class SweepPoint:
    A: float
    B: float
    rho_star: float
    u_star: float
    sigma1: float
    sigma2: float
    A_rho_star_n: float
    mass_proxy: float
    momentum_proxy: float


@dataclass(frozen=True)
class SweepTargets:
    sigma: Optional[float] = None
    weight_rate_1: Optional[float] = None
    weight_rate_2: Optional[float] = None
    w1_normalized: Optional[float] = None
    w2_normalized: Optional[float] = None
    A_rho_n_limit: Optional[float] = None
    A_rho_n_bound: Optional[float] = None
    rho_star_limit: Optional[float] = None
    u_star_limit: Optional[float] = None
    lambda1_limit: Optional[float] = None
    lambda2_limit: Optional[float] = None


@dataclass
class SweepReport:
    kind: str  # concentration | cavitation | gcg_delta | gcg_rarefaction
    schedule: Schedule
    left: State
    right: State
    tol: float
    points: list[SweepPoint]
    targets: SweepTargets
    flags: dict[str, bool] = field(default_factory=dict)
    final_errors: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def all_converged(self) -> bool:
        return all(self.flags.values())


def target_A_rho_n(left: State, right: State) -> float:
    """Limit of A*(rho*)^n along the pressureless schedule (zero at equal velocities)."""
    if left.u < right.u:
        raise DomainError("limit target needs u- >= u+")
    return (
        left.rho
        * right.rho
        * (left.u - right.u) ** 2
        / (math.sqrt(left.rho) + math.sqrt(right.rho)) ** 2
    )


def threshold_A0(
    left: State, right: State, B: float, n: float, alpha: float
) -> float:
    """Largest polytropic coefficient for which region-V data still gives two shocks.

    Returns +inf at equal densities, where every A qualifies.
    """
    p = PressureParams.gcg(B, alpha)
    if not gcg_delta_region(p, left.rho, left.u, right.rho, right.u):
        raise DomainError("data must lie in the delta-shock region of the limit model")
    rl, ul, rr, ur = left.rho, left.u, right.rho, right.u
    if rr == rl:
        return math.inf
    num = (ur - ul) ** 2 - shock_radicand(p, rl, rr)
    return rl * rr * num / ((rr - rl) * (rr**n - rl**n))


def threshold_A1(left: State, right: State, n: float) -> float:
    """Polytropic coefficient below which region-I data still gives two rarefactions.

    Degenerates to +inf at n = 1 or equal densities, where the constraint is
    vacuous.
    """
    if not (right.u > left.u):
        raise DomainError("two-rarefaction threshold needs u+ > u-")
    if n == 1.0 or right.rho == left.rho:
        return math.inf
    e = 0.5 * (n - 1.0)
    return (
        (n - 1.0) ** 2
        * (right.u - left.u) ** 2
        / (4.0 * n * (right.rho**e - left.rho**e) ** 2)
    )


def gcg_two_rarefaction_limit(
    left: State, right: State, B: float, alpha: float
) -> tuple[float, float]:
    """Intermediate state of the limit model's two-rarefaction solution."""
    m = 0.5 * (alpha + 1.0)
    k = 2.0 * math.sqrt(alpha * B) / (alpha + 1.0)
    inv = (right.u - left.u) / (2.0 * k) + 0.5 * (left.rho**-m + right.rho**-m)
    rho_star = inv ** (-1.0 / m)
    u_star = 0.5 * (left.u + right.u) + 0.5 * k * (right.rho**-m - left.rho**-m)
    return rho_star, u_star


def _errors_decreasing(errs: list[float]) -> bool:
    """Nonincreasing over the last three points, with rounding slack."""
    if len(errs) < 3:
        return False
    tail = errs[-3:]
    return all(
        b <= a + _DECREASE_FLOOR + 1e-9 * abs(a) for a, b in zip(tail, tail[1:])
    )


def _converged(errs: list[float], tol: float) -> bool:
    return _errors_decreasing(errs) and errs[-1] <= tol


def _rho_star_monotone(points: list[SweepPoint], increasing: bool) -> bool:
    """At least two points, with rho* strictly rising (or falling) along them."""
    rhos = [pt.rho_star for pt in points]
    if not increasing:
        rhos.reverse()
    return len(rhos) > 1 and all(b > a for a, b in zip(rhos, rhos[1:]))


def _require_below(sched: Schedule, name: str, threshold: float) -> None:
    """Every schedule point must lie strictly below the threshold coefficient."""
    for A, _ in sched.points:
        if A >= threshold:
            raise ScheduleError(
                f"schedule point A={A:g} is not below {name}={threshold:g}"
            )


def _sweep_points(
    sched: Schedule, left: State, right: State, want: str
) -> list[SweepPoint]:
    """Solve the datum at every schedule point; each solution's region must be ``want``.

    ``sigma1`` and ``sigma2`` are the outer speeds of the wave pair, the
    first wave's ``xi_lo`` and the last wave's ``xi_hi``: the two shock
    speeds of an S1S2 solution, the outer fan edges of an R1R2 one.
    """
    points = []
    for A, B in sched.points:
        p = PressureParams.ecg(A, B, sched.n, sched.alpha)
        sol = solve(p, left, right)
        region = region_of(sol).tag
        if region != want:
            raise ScheduleError(
                f"schedule point (A={A:g}, B={B:g}) classifies {region}, need {want}"
            )
        rho, u = sol.intermediate.rho, sol.intermediate.u
        s1, s2 = sol.speed_range()
        arn = A * rho**sched.n
        mass, momentum = rho * (s2 - s1), rho * u * (s2 - s1)
        points.append(SweepPoint(A, B, rho, u, s1, s2, arn, mass, momentum))
    return points


def rh_residuals(
    p: PressureParams, left: State, right: State, sigma: float
) -> tuple[float, float]:
    """Residuals of sigma*[rho]=[rho u] and sigma*[rho u]=[rho u^2+P]; a delta's weight rates."""
    drho = right.rho - left.rho
    dm = right.rho * right.u - left.rho * left.u
    dflux = (
        right.rho * right.u**2
        + pressure(p, right.rho)
        - left.rho * left.u**2
        - pressure(p, left.rho)
    )
    return sigma * drho - dm, sigma * dm - dflux


def _delta_targets(p: PressureParams, left, right, sigma, **limit) -> SweepTargets:
    """Delta-shock targets: speed, weight rates (jump residuals under p), rates per unit arc."""
    rate1, rate2 = rh_residuals(p, left, right, sigma)
    norm = math.sqrt(1.0 + sigma**2)
    return SweepTargets(sigma, rate1, rate2, rate1 / norm, rate2 / norm, **limit)


def _delta_errors(points: list[SweepPoint], t: SweepTargets) -> dict[str, list[float]]:
    """Errors against the delta-shock targets; A*rho*^n only when its limit is set."""
    errs = {
        "u_star": [abs(pt.u_star - t.sigma) for pt in points],
        "sigma1": [abs(pt.sigma1 - t.sigma) for pt in points],
        "sigma2": [abs(pt.sigma2 - t.sigma) for pt in points],
    }
    if t.A_rho_n_limit is not None:
        errs["A_rho_n"] = [abs(pt.A_rho_star_n - t.A_rho_n_limit) for pt in points]
    errs["mass_proxy"] = [abs(pt.mass_proxy - t.weight_rate_1) for pt in points]
    errs["momentum_proxy"] = [
        abs(pt.momentum_proxy - t.weight_rate_2) for pt in points
    ]
    return errs


def _report(kind, sched, left, right, tol, points, targets, flags, errs, extras=None):
    """The SweepReport; each final error is the last entry of its error list."""
    final = {k: v[-1] for k, v in errs.items()}
    return SweepReport(
        kind, sched, left, right, tol, points, targets, flags, final, extras or {}
    )


def run_vanishing_pressure_sweep(
    left: State,
    right: State,
    sched: Schedule,
    tol: float = DEFAULT_TOL_BOTH_VANISH,
) -> SweepReport:
    """Concentration sweep: two-shock data driven toward the pressureless limit."""
    if sched.mode is not SweepMode.BOTH_VANISH:
        raise ScheduleError("concentration sweep needs a both-vanish schedule")
    if not (left.u > right.u):
        raise ScheduleError("concentration sweep needs u- > u+")
    limit = solve(PressureParams.transport(), left, right)
    arn = target_A_rho_n(left, right)
    t = _delta_targets(limit.params, left, right, limit.delta.sigma, A_rho_n_limit=arn)
    points = _sweep_points(sched, left, right, "S1S2")
    errs = _delta_errors(points, t)
    flags = {
        "rho_star_increasing": _rho_star_monotone(points, increasing=True),
        "u_star_converged": _converged(errs["u_star"], tol),
        "sigma1_converged": _converged(errs["sigma1"], tol),
        "sigma2_converged": _converged(errs["sigma2"], tol),
        "A_rho_n_decreasing": _errors_decreasing(errs["A_rho_n"]),
        "mass_proxy_decreasing": _errors_decreasing(errs["mass_proxy"]),
        "momentum_proxy_decreasing": _errors_decreasing(errs["momentum_proxy"]),
    }
    return _report("concentration", sched, left, right, tol, points, t, flags, errs)


def run_vacuum_sweep(
    left: State,
    right: State,
    sched: Schedule,
    tol: float = DEFAULT_TOL_BOTH_VANISH,
) -> SweepReport:
    """Cavitation sweep: two-rarefaction data driven toward the pressureless limit."""
    if sched.mode is not SweepMode.BOTH_VANISH:
        raise ScheduleError("cavitation sweep needs a both-vanish schedule")
    if not (left.u < right.u):
        raise ScheduleError("cavitation sweep needs u- < u+")
    t = SweepTargets(rho_star_limit=0.0, lambda1_limit=left.u, lambda2_limit=right.u)
    points = _sweep_points(sched, left, right, "R1R2")
    errs = {
        "lambda1_edge": [abs(pt.sigma1 - t.lambda1_limit) for pt in points],
        "lambda2_edge": [abs(pt.sigma2 - t.lambda2_limit) for pt in points],
        "rho_star": [pt.rho_star for pt in points],
    }
    flags = {
        "rho_star_decreasing": _rho_star_monotone(points, increasing=False),
        "rho_star_converged": points[-1].rho_star <= tol,
        "lambda1_converged": _converged(errs["lambda1_edge"], tol),
        "lambda2_converged": _converged(errs["lambda2_edge"], tol),
    }
    return _report("cavitation", sched, left, right, tol, points, t, flags, errs)


def run_to_gcg_sweep(
    left: State,
    right: State,
    sched: Schedule,
    tol: float = DEFAULT_TOL_A_VANISHES,
) -> SweepReport:
    """Fixed-B sweep toward the generalized Chaplygin model.

    Region-V data follows the delta-shock branch, region-I data the
    two-rarefaction branch; anything else is a schedule error, as is any
    schedule point at or above the applicable threshold coefficient.
    """
    if sched.mode is not SweepMode.A_VANISHES:
        raise ScheduleError("fixed-B sweep needs an A-vanishes schedule")
    limit = solve(PressureParams.gcg(sched.B_fixed, sched.alpha), left, right)
    region = region_of(limit).tag
    if region == "V":
        return _gcg_delta_branch(left, right, sched, tol, limit)
    if region == "I":
        return _gcg_rarefaction_branch(left, right, sched, tol, limit)
    raise ScheduleError(f"data classifies {region} in the limit model, need V or I")


def _gcg_delta_branch(
    left: State, right: State, sched: Schedule, tol: float, limit: RiemannSolution
) -> SweepReport:
    """The delta-shock branch, with ``limit`` the limit model's delta-shock solution."""
    _require_below(sched, "A0", threshold_A0(left, right, sched.B_fixed, sched.n, sched.alpha))
    rl, ul, rr, ur = left.rho, left.u, right.rho, right.u
    bound = rl * (ul - ur) ** 2
    gcg = limit.params
    t = _delta_targets(gcg, left, right, limit.delta.sigma, A_rho_n_bound=bound)
    points = _sweep_points(sched, left, right, "S1S2")
    errs = _delta_errors(points, t)
    flags = {
        "rho_star_increasing": _rho_star_monotone(points, increasing=True),
        "u_star_converged": _converged(errs["u_star"], tol),
        "sigma1_converged": _converged(errs["sigma1"], tol),
        "sigma2_converged": _converged(errs["sigma2"], tol),
        "A_rho_n_bounded": all(pt.A_rho_star_n < bound for pt in points),
        "mass_proxy_decreasing": _errors_decreasing(errs["mass_proxy"]),
        "momentum_proxy_decreasing": _errors_decreasing(errs["momentum_proxy"]),
    }
    # Limit-consistency residuals at the final point, in both index pairings
    # (the swapped pairing is recorded for reference; the `consistent` one is
    # the pairing that actually closes the speed quadratic).
    last = points[-1]
    L = last.A_rho_star_n
    pl, pr = (pressure_law(gcg.A, gcg.B, gcg.n, gcg.alpha, rho) for rho in (rl, rr))
    extras = {
        "limit_residual_minus_consistent": abs(L - pl - rl * (ul - last.u_star) ** 2),
        "limit_residual_plus_consistent": abs(L - pr - rr * (ur - last.u_star) ** 2),
        "limit_residual_minus_swapped": abs(L - pr - rl * (ul - last.u_star) ** 2),
        "limit_residual_plus_swapped": abs(L - pl - rr * (ur - last.u_star) ** 2),
    }
    return _report("gcg_delta", sched, left, right, tol, points, t, flags, errs, extras)


def _gcg_rarefaction_branch(
    left: State, right: State, sched: Schedule, tol: float, limit: RiemannSolution
) -> SweepReport:
    """The two-rarefaction branch, with ``limit`` the limit model's solution."""
    _require_below(sched, "A1", threshold_A1(left, right, sched.n))
    rho_lim, u_lim = gcg_two_rarefaction_limit(left, right, sched.B_fixed, sched.alpha)
    t = SweepTargets(
        rho_star_limit=rho_lim,
        u_star_limit=u_lim,
        lambda1_limit=eigenvalues(limit.params, left)[0],
        lambda2_limit=eigenvalues(limit.params, right)[1],
    )
    points = _sweep_points(sched, left, right, "R1R2")
    errs = {
        "rho_star": [abs(pt.rho_star - rho_lim) for pt in points],
        "u_star": [abs(pt.u_star - u_lim) for pt in points],
        "lambda1_edge": [abs(pt.sigma1 - t.lambda1_limit) for pt in points],
        "lambda2_edge": [abs(pt.sigma2 - t.lambda2_limit) for pt in points],
    }
    flags = {
        "rho_star_converged": _converged(errs["rho_star"], tol),
        "u_star_converged": _converged(errs["u_star"], tol),
        "lambda1_converged": _converged(errs["lambda1_edge"], tol),
        "lambda2_converged": _converged(errs["lambda2_edge"], tol),
    }
    return _report("gcg_rarefaction", sched, left, right, tol, points, t, flags, errs)
