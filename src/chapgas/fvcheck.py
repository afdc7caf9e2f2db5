"""First-order finite-volume cross-validator.

A Godunov scheme whose interface fluxes come from the exact solvers, plus a
Lax-Friedrichs fallback, used to confirm exact solutions on grids and to
watch mass concentrate at forming delta shocks. Interface Riemann problems
that would produce a delta shock are fluxed with Lax-Friedrichs automatically
(logged as a warning); data whose own solution is a delta shock or vacuum
must be run with the Lax-Friedrichs scheme outright. Each time step is one
whole-array call into ``fvcore``.

A run on a grid twice as fine as an earlier one can start from that run's
early steps instead of from t = 0. The Riemann solution depends on x/t
alone, and so, to the bit, does the scheme on a datum whose jump lies on a
cell edge: halving dx halves dt = cfl dx / smax, and with them t, without
rounding, while dt/dx, each wave speed and each interface flux stay as they
were. So step j on 2N cells is step j on N cells, counted in cells from the
jump, until the waves reach a cell whose neighbour differs from the datum's
end state. ``evolve`` documents the rules that make this exact. The finer
run's first step of its own, from the coarser run's checkpoint, reuses the
interface fluxes the coarser run computed on the same fields.

``l1_errors`` compares the grids of a refinement with the exact solution
in one sampling call.
"""

from __future__ import annotations

import logging
import math
import sys
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
        if not (-math.inf < self.x_lo < 0.0 < self.x_hi < math.inf):
            raise DomainError("grid must be finite and straddle the datum: x_lo < 0 < x_hi")
        if self.cells < 10:
            raise DomainError("need at least 10 cells")
        if not (0.0 < self.cfl <= 0.9):
            raise DomainError("cfl must lie in (0, 0.9]")
        if not (0.0 < self.t_end < math.inf):
            raise DomainError("t_end must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.cells


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """A run's state after its last step that neither boundary can have felt.

    That is the last step j, not shortened to meet ``t_end``, with j below
    the number of cells at either end of the projected datum that equal
    their end cell. ``rho`` and ``mom`` are the padded fields ``fvcore.step``
    returned for that step, held and not copied. ``influx_rates`` are the
    boundary flux differences (mass, momentum) of that step, which are those
    of the datum's end states at every step up to j. ``fluxes`` are the
    interface fluxes (frho, fmom) of step j + 1, the step taken from these
    fields, or None when that step was not Godunov or fluxed an interface
    with Lax-Friedrichs (whose flux depends on dt/dx), or was never taken.
    """

    grid: GridConfig
    rho: np.ndarray
    mom: np.ndarray
    time: float
    steps: int
    influx_rates: tuple[float, float]
    fallbacks: int
    fluxes: Optional[tuple[np.ndarray, np.ndarray]]


@dataclass
class FieldSnapshot:
    """Cell averages of the conserved pair (rho, rho*u) at one time.

    ``steps_from_coarser`` counts the leading entries of ``steps`` taken over
    from a coarser run (``evolve``'s ``coarser``), 0 for a run from t = 0;
    ``checkpoint`` is what a run on twice the cells can start from.
    """

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
    steps_from_coarser: int = 0
    checkpoint: Optional[Checkpoint] = field(default=None, repr=False, compare=False)

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


def _end_runs(rho, mom) -> tuple[int, int]:
    """How many cells at each end of a field pair equal their end cell, bit for bit."""
    r, m = rho.view(np.int64), mom.view(np.int64)
    head = (r == r[0]) & (m == m[0])
    tail = (r == r[-1]) & (m == m[-1])
    # argmin finds the first cell that differs; 0, the end cell itself, means none does.
    return int(head.argmin()) or rho.size, int(tail[::-1].argmin()) or rho.size


def _seed_offset(coarser: FieldSnapshot, p, left, right, g: GridConfig, rho, mom, lead, trail) -> Optional[int]:
    """Where ``coarser``'s checkpoint embeds in this run's datum ``rho``, ``mom``, or None to run from t = 0."""
    ck = coarser.checkpoint
    if ck is None or (coarser.params, coarser.left, coarser.right) != (p, left, right):
        return None
    c = ck.grid
    if (c.x_lo, c.x_hi, c.cfl, c.t_end, c.scheme, 2 * c.cells) != (
        g.x_lo, g.x_hi, g.cfl, g.t_end, g.scheme, g.cells
    ):
        return None
    c_rho, c_mom = _project_datum(left, right, np.linspace(c.x_lo, c.x_hi, c.cells + 1))
    off = lead - _end_runs(c_rho, c_mom)[0]
    end = off + c.cells
    # Cells left of the window lie in this datum's leading run, so they equal
    # its first cell; the cells right of it must equal its last.
    if not (0 <= off <= c.cells) or trail <= g.cells - end:
        return None
    if rho[off:end].tobytes() != c_rho.tobytes() or mom[off:end].tobytes() != c_mom.tobytes():
        return None
    copied = [v for s in coarser.steps[: ck.steps] for v in s[:2]]
    halves = 0.5 * np.abs(np.array([c.dx, c.cfl * c.dx, ck.time, *copied]))
    if not np.all((halves == 0.0) | (halves >= sys.float_info.min)):
        return None
    return off


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
    coarser: Optional[FieldSnapshot] = None,
) -> FieldSnapshot:
    """March the Riemann datum to ``g.t_end`` with the configured scheme.

    The update is conservative; a negative cell density aborts (no silent
    floors, those would mask exactly the concentration behaviour this module
    exists to measure). ``sol`` is the datum's exact solution when the caller
    already has it; it is solved here otherwise.

    ``coarser`` is the snapshot of the same problem on half as many cells.
    The run then starts from that run's ``checkpoint`` instead of t = 0, and
    returns the same bits either way. The cells of the datum at each end
    that equal their end cell, lead and trail of them, are still the datum
    after any step j < min(lead, trail): a step moves a disturbance one
    cell. Until then the outflow ghosts hold the datum's end states, so a
    run on more cells, where more cells hold them, takes the same steps on
    the cells it shares with the coarser datum, at the same wave speeds and
    with dt halved. The seed is taken only when all of these hold, and
    refused otherwise (``steps_from_coarser`` then reads 0):

    * ``coarser`` has a checkpoint, the same params, states, scheme,
      ``x_lo``, ``x_hi``, ``cfl`` and ``t_end``, and exactly half the cells;
    * this run's projected datum equals the coarser one bit for bit on the
      cells [off, off + N), where off is this datum's lead minus the coarser
      one's, and every cell outside that window equals the window's end
      cell: for a two-state datum, the jump lies on a coarser cell edge;
    * halving dx, cfl dx, t and every copied (t, dt) is exact: no half is
      subnormal.

    The run then holds the checkpoint's cells on that window and its own
    datum elsewhere, t and the first j steps' (t, dt) halved, their wave
    speeds and the fallback count as they were, and the boundary influx of
    those j steps summed as a fresh run sums it, from the checkpoint's
    influx rates and the halved time steps. It steps on from there. When
    the checkpoint holds the fluxes of the coarser step taken from it, the
    first step here takes them, on the window, and the window's end fluxes
    to the left and right of it: those are the fluxes of the datum's end
    states, which fill every cell outside the window.
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
    lead, trail = _end_runs(rho, mom)
    godunov = g.scheme is Scheme.GODUNOV_EXACT
    dx = g.dx
    t = 0.0
    steps: list[tuple[float, float, float]] = []
    mass_in = 0.0
    mom_in = 0.0
    fallbacks = 0
    fluxes = None
    seed = None if coarser is None else _seed_offset(coarser, p, left, right, g, rho, mom, lead, trail)
    if seed is not None:
        c = coarser.checkpoint
        rho[seed : seed + c.grid.cells] = c.rho[1:-1]
        mom[seed : seed + c.grid.cells] = c.mom[1:-1]
        steps = [(0.5 * ts, 0.5 * dt, smax) for ts, dt, smax in coarser.steps[: c.steps]]
        for _, dt, _ in steps:
            mass_in += dt * c.influx_rates[0]
            mom_in += dt * c.influx_rates[1]
        t, fallbacks = 0.5 * c.time, c.fallbacks
        if c.fluxes is not None:
            ends = (seed, g.cells - c.grid.cells - seed)
            fluxes = tuple(np.pad(f, ends, mode="edge") for f in c.fluxes)
    from_coarser = len(steps)
    rho, mom = fvcore._padded(rho), fvcore._padded(mom)
    ck = None if seed is None else (rho, mom, t, from_coarser, c.influx_rates, fallbacks)
    ck_fluxes = None
    limit = min(lead, trail)
    while t < g.t_end * (1.0 - 1e-14):
        t_left = g.t_end - t
        rho, mom, dt, smax, frho, fmom, nfall = fvcore.step(
            p, rho, mom, dx, g.cfl, t_left, godunov, fluxes
        )
        fluxes = None
        fallbacks += nfall
        worst = int(rho[1:-1].argmin())
        if rho[worst + 1] < 0.0:
            raise PositivityError(
                f"negative density {rho[worst + 1]:.6g} in cell {worst} at t={t + dt:.6g}",
                cell=worst,
            )
        rate_m, rate_p = frho[0] - frho[-1], fmom[0] - fmom[-1]
        mass_in += dt * rate_m
        mom_in += dt * rate_p
        if ck is not None and ck[3] == len(steps) and godunov and not nfall:
            ck_fluxes = (frho, fmom)  # this step started from the checkpoint
        steps.append((t, dt, smax))
        t += dt
        if len(steps) < limit and dt < t_left:
            ck, ck_fluxes = (rho, mom, t, len(steps), (rate_m, rate_p), fallbacks), None
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
        rho=rho[1:-1],
        momentum=mom[1:-1],
        dx=dx,
        params=p,
        left=left,
        right=right,
        scheme=g.scheme,
        steps=steps,
        boundary_mass_influx=mass_in,
        boundary_momentum_influx=mom_in,
        godunov_fallbacks=fallbacks,
        steps_from_coarser=from_coarser,
        checkpoint=None if ck is None else Checkpoint(g, *ck, ck_fluxes),
    )


def l1_errors(snaps: list[FieldSnapshot], sol: RiemannSolution) -> list[tuple[float, float]]:
    """``l1_error`` of each snapshot, from one sampling call over all of them.

    Sampling is elementwise, so each grid's values, and its sums, are those
    of ``l1_error`` on that grid alone, to the bit.
    """
    if sol.delta is not None:
        raise UnsupportedComparisonError("L1 error undefined against a delta shock")
    for snap in snaps:
        if sol.params != snap.params or sol.left != snap.left or sol.right != snap.right:
            raise DomainError("snapshot and solution describe different problems")
        if snap.time <= 0.0:
            raise DomainError("snapshot time must be positive")
    xi = np.concatenate([(s.x[:, None] + 0.5 * s.dx * _GL5_X) / s.time for s in snaps])
    rho_all, u_all = sample_arrays(sol, xi)
    ends = np.cumsum([s.x.size for s in snaps])[:-1]
    errors = []
    for snap, rho, u in zip(snaps, np.split(rho_all, ends), np.split(u_all, ends)):
        avg_r = np.zeros(snap.x.shape)
        avg_m = np.zeros(snap.x.shape)
        for k in range(_GL5_X.size):
            avg_r += _GL5_W[k] * rho[:, k]
            avg_m += _GL5_W[k] * rho[:, k] * u[:, k]
        err_rho = float(np.sum(np.abs(snap.rho - 0.5 * avg_r))) * snap.dx
        err_mom = float(np.sum(np.abs(snap.momentum - 0.5 * avg_m))) * snap.dx
        errors.append((err_rho, err_mom))
    return errors


def l1_error(snap: FieldSnapshot, sol: RiemannSolution) -> tuple[float, float]:
    """Cellwise L1 distance between the snapshot and the exact solution.

    Exact cell averages come from 5-point quadrature of the sampled solution.
    Undefined against a delta-shock solution (the exact object is a measure).
    ``l1_errors`` does the same for several snapshots at once.
    """
    return l1_errors([snap], sol)[0]
