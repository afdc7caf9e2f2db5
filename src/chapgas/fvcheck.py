"""First-order finite-volume cross-validator.

A Godunov scheme whose interface fluxes come from the exact solvers, plus a
Lax-Friedrichs fallback, used to confirm exact solutions on grids and to
watch mass concentrate at forming delta shocks. Interface Riemann problems
that would produce a delta shock are fluxed with Lax-Friedrichs automatically
(logged as a warning); data whose own solution is a delta shock or vacuum
must be run with the Lax-Friedrichs scheme outright. Each time step is one
whole-array call into ``fvcore``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import fvcore
from .errors import (
    DomainError,
    DomainTooSmallError,
    NumericalLimitError,
    PositivityError,
    UnsupportedComparisonError,
)
from .models import PressureParams, State, eigenvalues
from .solver import RiemannSolution, SegmentKind, sample_arrays, solve

logger = logging.getLogger("chapgas.fvcheck")

# 5-point Gauss-Legendre rule on [-1, 1] for exact cell averages.
_GL5_X = np.array(
    [-0.906179845938664, -0.538469310105683, 0.0, 0.538469310105683, 0.906179845938664]
)
_GL5_W = np.array(
    [0.236926885056189, 0.478628670499366, 0.568888888888889, 0.478628670499366, 0.236926885056189]
)

_MAX_STEPS = 5_000_000
# Waves must stay within this fraction of the half-domain.
_DOMAIN_MARGIN = 0.9


class Scheme(Enum):
    GODUNOV_EXACT = "godunov"
    LAX_FRIEDRICHS = "lax_friedrichs"


@dataclass(frozen=True)
class GridConfig:
    x_lo: float
    x_hi: float
    cells: int
    cfl: float
    t_end: float
    scheme: Scheme = Scheme.GODUNOV_EXACT

    def __post_init__(self):
        if not (self.x_lo < 0.0 < self.x_hi):
            raise DomainError("grid must straddle the datum: x_lo < 0 < x_hi")
        if self.cells < 10:
            raise DomainError("need at least 10 cells")
        if not (0.0 < self.cfl <= 0.9):
            raise DomainError("cfl must lie in (0, 0.9]")
        if not (self.t_end > 0.0):
            raise DomainError("t_end must be positive")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.cells


@dataclass
class FieldSnapshot:
    """Cell averages of the conserved pair (rho, rho*u) at one time."""

    time: float
    x: np.ndarray
    rho: np.ndarray
    momentum: np.ndarray
    dx: float
    params: PressureParams
    left: State
    right: State
    scheme: Scheme
    steps: list[tuple[float, float, float]] = field(default_factory=list)
    boundary_mass_influx: float = 0.0
    boundary_momentum_influx: float = 0.0
    godunov_fallbacks: int = 0

    @property
    def velocity(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(self.rho > 0.0, self.momentum / self.rho, 0.0)
        return u

    def total_mass(self) -> float:
        return float(np.sum(self.rho)) * self.dx

    def total_momentum(self) -> float:
        return float(np.sum(self.momentum)) * self.dx

    def mass_in_window(self, x_center: float, half_width: float) -> float:
        sel = np.abs(self.x - x_center) <= half_width
        return float(np.sum(self.rho[sel])) * self.dx


def _project_datum(left: State, right: State, edges: np.ndarray):
    """Exact cell averages of the two-state datum (the jump sits at x = 0)."""
    lo, hi = edges[:-1], edges[1:]
    dx = hi - lo
    frac_left = np.clip(-lo, 0.0, dx) / dx  # fraction of the cell left of 0
    rho = frac_left * left.rho + (1.0 - frac_left) * right.rho
    mom = frac_left * left.rho * left.u + (1.0 - frac_left) * right.rho * right.u
    return rho, mom


def _check_domain(sol: RiemannSolution, g: GridConfig) -> None:
    # Both the exact wave span and the characteristic cone of the data must
    # stay inside the domain (numerical smearing rides the characteristics).
    lam_l = eigenvalues(sol.params, sol.left)
    lam_r = eigenvalues(sol.params, sol.right)
    smin = min(lam_l[0], lam_r[0])
    smax = max(lam_l[1], lam_r[1])
    span = sol.speed_range()
    if span is not None:
        smin = min(smin, span[0])
        smax = max(smax, span[1])
    if smin * g.t_end < _DOMAIN_MARGIN * g.x_lo or smax * g.t_end > _DOMAIN_MARGIN * g.x_hi:
        raise DomainTooSmallError(
            f"waves span [{smin * g.t_end:.4g}, {smax * g.t_end:.4g}] at t_end, "
            f"domain allows [{_DOMAIN_MARGIN * g.x_lo:.4g}, {_DOMAIN_MARGIN * g.x_hi:.4g}]"
        )


def evolve(
    p: PressureParams,
    left: State,
    right: State,
    g: GridConfig,
    *,
    sol: Optional[RiemannSolution] = None,
) -> FieldSnapshot:
    """March the Riemann datum to ``g.t_end`` with the configured scheme.

    The update is conservative; a negative cell density aborts (no silent
    floors, those would mask exactly the concentration behaviour this module
    exists to measure). ``sol`` is the datum's exact solution when the caller
    already has it; it is solved here otherwise.
    """
    if sol is None:
        sol = solve(p, left, right)
    elif sol.params != p or sol.left != left or sol.right != right:
        raise DomainError("solution and datum describe different problems")
    _check_domain(sol, g)
    if g.scheme is Scheme.GODUNOV_EXACT and sol.delta is not None:
        raise DomainError(
            "Godunov-exact needs classical data; run delta-shock data with Lax-Friedrichs"
        )
    if g.scheme is Scheme.GODUNOV_EXACT and any(
        s.kind is SegmentKind.VACUUM for s in sol.segments
    ):
        raise DomainError(
            "Godunov-exact needs vacuum-free data; run vacuum data with Lax-Friedrichs"
        )

    edges = np.linspace(g.x_lo, g.x_hi, g.cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rho, mom = _project_datum(left, right, edges)
    godunov = g.scheme is Scheme.GODUNOV_EXACT
    dx = g.dx
    t = 0.0
    steps: list[tuple[float, float, float]] = []
    mass_in = 0.0
    mom_in = 0.0
    fallbacks = 0
    while t < g.t_end * (1.0 - 1e-14):
        rho, mom, dt, smax, frho, fmom, nfall = fvcore.step(
            p, rho, mom, dx, g.cfl, g.t_end - t, godunov
        )
        fallbacks += nfall
        worst = int(np.argmin(rho))
        if rho[worst] < 0.0:
            raise PositivityError(
                f"negative density {rho[worst]:.6g} in cell {worst} at t={t + dt:.6g}",
                cell=worst,
            )
        mass_in += dt * (frho[0] - frho[-1])
        mom_in += dt * (fmom[0] - fmom[-1])
        steps.append((t, dt, smax))
        t += dt
        if len(steps) > _MAX_STEPS:
            raise NumericalLimitError("step budget exhausted")
    if fallbacks:
        logger.warning(
            "Godunov run used the Lax-Friedrichs fallback at %d interface solves",
            fallbacks,
        )
    return FieldSnapshot(
        time=t,
        x=centers,
        rho=rho,
        momentum=mom,
        dx=dx,
        params=p,
        left=left,
        right=right,
        scheme=g.scheme,
        steps=steps,
        boundary_mass_influx=mass_in,
        boundary_momentum_influx=mom_in,
        godunov_fallbacks=fallbacks,
    )


def l1_error(snap: FieldSnapshot, sol: RiemannSolution) -> tuple[float, float]:
    """Cellwise L1 distance between the snapshot and the exact solution.

    Exact cell averages come from 5-point quadrature of the sampled solution.
    Undefined against a delta-shock solution (the exact object is a measure).
    """
    if sol.delta is not None:
        raise UnsupportedComparisonError("L1 error undefined against a delta shock")
    if sol.params != snap.params or sol.left != snap.left or sol.right != snap.right:
        raise DomainError("snapshot and solution describe different problems")
    t = snap.time
    if t <= 0.0:
        raise DomainError("snapshot time must be positive")
    half = 0.5 * snap.dx
    rho, u = sample_arrays(sol, (snap.x[:, None] + half * _GL5_X) / t)
    avg_r = np.zeros(snap.x.shape)
    avg_m = np.zeros(snap.x.shape)
    for k in range(_GL5_X.size):
        avg_r += _GL5_W[k] * rho[:, k]
        avg_m += _GL5_W[k] * rho[:, k] * u[:, k]
    err_rho = float(np.sum(np.abs(snap.rho - 0.5 * avg_r))) * snap.dx
    err_mom = float(np.sum(np.abs(snap.momentum - 0.5 * avg_m))) * snap.dx
    return err_rho, err_mom
