"""Wave curves through a phase-plane point, shock speeds and jump checks.

For a given left state the forward 1-curve (rarefaction branch below the base
density, shock branch above) and the forward 2-curve (shock below, rarefaction
above) split the upper half plane into the four classical regions; the GCG
model adds a fifth, delta-shock region beyond the asymptote locus of the
backward shock curve. ``solver.classify_ecg`` and ``solver.classify_gcg``
read the region from the solution ``solver.solve`` returns.

The curves are the finite-volume core's arithmetic: ``curve_one_u`` and
``curve_two_u`` are one ``fvcore._curve_distance`` call each, on a float or
an array of densities, so exact solves, sweeps, plots and the Godunov flux
share one rarefaction integral and one shock jump. The pressure law and the
relations built on it come from ``models``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import fvcore
from .errors import DegenerateError, DomainError, NumericalLimitError, UnsupportedModelError
from .models import Model, PressureParams, State, eigenvalues, gcg_asymptote, pressure, pressure_law


class WaveFamily(Enum):
    ONE = 1
    TWO = 2


def _forward_curve(p: PressureParams, left: State, rho, fam: WaveFamily):
    """u on the forward curve of family ``fam`` through ``left``: u- - phi.

    phi is one ``fvcore._curve_distance`` call. The 1-curve takes it from
    rho- to rho. The 2-wave from ``left`` to (rho, u) lies on the backward
    2-curve through (rho, u), so the 2-curve takes it from rho to rho-.
    ``rho`` is a float or an array, and the result takes its shape; a value
    that is not finite raises NumericalLimitError.
    """
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport has no classical wave curves")
    rhos = np.asarray(rho, dtype=float).ravel()
    if not np.all(rhos > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")
    lefts = np.full(rhos.shape, left.rho)
    ra, rb = (lefts, rhos) if fam is WaveFamily.ONE else (rhos, lefts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = np.stack([ra, np.log(ra), pressure_law(p.A, p.B, p.n, p.alpha, ra)])[:, None]
        phi, _ = fvcore._curve_distance(p, base, np.log(rb))
        u = left.u - phi[0]
    if not np.all(np.isfinite(u)):
        raise NumericalLimitError(f"wave curve beyond the float range at rho = {rho!r}")
    return u.reshape(np.shape(rho)) if np.ndim(rho) else float(u[0])


def curve_one_u(p: PressureParams, left: State, rho):
    """Forward 1-curve through ``left``: rarefaction for rho < rho-, shock above."""
    return _forward_curve(p, left, rho, WaveFamily.ONE)


def curve_two_u(p: PressureParams, left: State, rho):
    """Forward 2-curve through ``left``: shock for rho < rho-, rarefaction above."""
    return _forward_curve(p, left, rho, WaveFamily.TWO)


def rarefaction_u(p: PressureParams, fam: WaveFamily, from_state: State, rho: float) -> float:
    """Velocity on the rarefaction curve of the given family through ``from_state``.

    Family ONE lives on rho <= base density, family TWO on rho >= base density
    (the wave is traversed with ``from_state`` on its left).
    """
    base = from_state.rho
    if fam is WaveFamily.ONE and rho > base:
        raise DomainError(f"1-curve needs rho <= {base!r}, got {rho!r}")
    if fam is WaveFamily.TWO and rho < base:
        raise DomainError(f"2-curve needs rho >= {base!r}, got {rho!r}")
    return _forward_curve(p, from_state, rho, fam)


def shock_u(p: PressureParams, fam: WaveFamily, from_state: State, rho: float) -> float:
    """Velocity on the shock curve of the given family through ``from_state``.

    Family ONE lives on rho > base density, family TWO on rho < base density;
    both branches carry u below the base velocity.
    """
    base = from_state.rho
    if fam is WaveFamily.ONE and not (rho > base):
        raise DomainError(f"1-shock needs rho > {base!r}, got {rho!r}")
    if fam is WaveFamily.TWO and not (rho < base):
        raise DomainError(f"2-shock needs rho < {base!r}, got {rho!r}")
    return _forward_curve(p, from_state, rho, fam)


def shock_speed(p: PressureParams, left: State, right: State) -> float:
    """Discontinuity speed (rho+ u+ - rho- u-) / (rho+ - rho-)."""
    if right.rho == left.rho:
        raise DegenerateError("equal densities: use contact/delta logic instead")
    return (right.rho * right.u - left.rho * left.u) / (right.rho - left.rho)


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


def lax_check(
    p: PressureParams, fam: WaveFamily, left: State, right: State, sigma: float
) -> bool:
    """Lax admissibility of a shock of the given family at speed ``sigma``."""
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport shocks are delta shocks, not Lax shocks")
    l1, l2 = eigenvalues(p, left)
    r1, r2 = eigenvalues(p, right)
    if fam is WaveFamily.ONE:
        return sigma < l1 and r1 < sigma < r2
    return l1 < sigma < l2 and r2 < sigma


def gcg_entropy_window(
    p: PressureParams, left: State, right: State
) -> tuple[float, float]:
    """The admissible delta-shock speed window (lo, hi) for the GCG model.

    That is (lambda2 of the right state, lambda1 of the left state). The GCG
    sound speed is taken as sqrt(alpha) times the asymptote, which equals
    sqrt(c^2) and stays finite at small densities where c^2 overflows.
    """
    c_left, c_right = (math.sqrt(p.alpha) * gcg_asymptote(p, s.rho) for s in (left, right))
    return right.u + c_right, left.u - c_left
