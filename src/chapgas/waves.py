"""Wave curves through a phase-plane point, shock speeds and region classification.

For a given left state the forward 1-curve (rarefaction branch below the base
density, shock branch above) and the forward 2-curve (shock below, rarefaction
above) split the upper half plane into the four classical regions; the GCG
model adds a fifth, delta-shock region beyond the asymptote locus of the
backward shock curve.

The rarefaction integral is a scalar call into ``fvcore.velocity_jump``: exact
solves, classification, sweeps and the finite-volume core share one rule.
The pressure law and the relations built on it come from ``models``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import fvcore
from .errors import DegenerateError, DomainError, NumericalLimitError, UnsupportedModelError
from .models import Model, PressureParams, State, eigenvalues, gcg_asymptote, pressure
from .models import shock_radicand

# Rounding slack for the shock-curve radicand near the base point.
_RADICAND_SLACK = -1e-14
# |u - curve| below this counts as sitting on the curve.
BOUNDARY_TOL = 1e-12


class WaveFamily(Enum):
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class RegionECG:
    tag: str  # R1R2 | R1S2 | S1R2 | S1S2 | OnBoundary
    boundary: tuple[str, ...] = field(default=())

    def resolve(self) -> str:
        """Boundary data resolved to the adjacent region with a degenerate wave."""
        if self.tag != "OnBoundary":
            return self.tag
        one = "S1" if "S1" in self.boundary else "R1"
        two = "S2" if "S2" in self.boundary else "R2"
        return one + two


@dataclass(frozen=True)
class RegionGCG:
    tag: str  # I | II | III | IV | V | OnBoundary
    boundary: tuple[str, ...] = field(default=())

    def resolve(self) -> str:
        if self.tag != "OnBoundary":
            return self.tag
        one_r = "S1" not in self.boundary
        two_r = "S2" not in self.boundary
        if one_r and two_r:
            return "I"
        if one_r:
            return "II"
        if two_r:
            return "III"
        return "IV"


def velocity_jump_integral(p: PressureParams, rho_lo: float, rho_hi: float) -> float:
    """Integral over [rho_lo, rho_hi] of c(s)/s ds along a rarefaction curve.

    A scalar call into ``fvcore.velocity_jump``; beyond the float range it
    raises NumericalLimitError, and numpy warns unless the caller silences it.
    """
    if rho_lo > rho_hi:
        raise DomainError("need rho_lo <= rho_hi")
    if rho_lo == rho_hi:
        return 0.0
    jump = float(fvcore.velocity_jump(p, math.log(rho_lo), math.log(rho_hi)))
    if not math.isfinite(jump):
        raise NumericalLimitError(f"rarefaction integral over [{rho_lo!r}, {rho_hi!r}] overflows")
    return jump


def rarefaction_u(
    p: PressureParams, fam: WaveFamily, from_state: State, rho: float
) -> float:
    """Velocity on the rarefaction curve of the given family through ``from_state``.

    Family ONE lives on rho <= base density, family TWO on rho >= base density
    (the wave is traversed with ``from_state`` on its left).
    """
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport has no rarefaction curves")
    if not (rho > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")
    base = from_state.rho
    if fam is WaveFamily.ONE:
        if rho > base:
            raise DomainError(f"1-curve needs rho <= {base!r}, got {rho!r}")
        return from_state.u + velocity_jump_integral(p, rho, base)
    if rho < base:
        raise DomainError(f"2-curve needs rho >= {base!r}, got {rho!r}")
    return from_state.u + velocity_jump_integral(p, base, rho)


def _sqrt_radicand(p: PressureParams, rho_a: float, rho_b: float) -> float:
    try:
        rad = shock_radicand(p, rho_a, rho_b)
    except (OverflowError, ZeroDivisionError):  # densities near the ends of the float range
        rad = math.nan
    if not _RADICAND_SLACK < rad < math.inf:
        raise NumericalLimitError(f"shock radicand {rad!r} out of range at {rho_a!r}, {rho_b!r}")
    return math.sqrt(max(rad, 0.0))


def shock_u(p: PressureParams, fam: WaveFamily, from_state: State, rho: float) -> float:
    """Velocity on the shock curve of the given family through ``from_state``.

    Family ONE lives on rho > base density, family TWO on rho < base density;
    both branches carry u below the base velocity.
    """
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport has no classical shock curves")
    if not (rho > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")
    base = from_state.rho
    if fam is WaveFamily.ONE and not (rho > base):
        raise DomainError(f"1-shock needs rho > {base!r}, got {rho!r}")
    if fam is WaveFamily.TWO and not (rho < base):
        raise DomainError(f"2-shock needs rho < {base!r}, got {rho!r}")
    return from_state.u - _sqrt_radicand(p, base, rho)


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


def curve_one_u(p: PressureParams, left: State, rho: float) -> float:
    """Forward 1-curve through ``left``: rarefaction for rho < rho-, shock above."""
    if rho < left.rho:
        return rarefaction_u(p, WaveFamily.ONE, left, rho)
    if rho > left.rho:
        return shock_u(p, WaveFamily.ONE, left, rho)
    return left.u


def curve_two_u(p: PressureParams, left: State, rho: float) -> float:
    """Forward 2-curve through ``left``: shock for rho < rho-, rarefaction above."""
    if rho < left.rho:
        return shock_u(p, WaveFamily.TWO, left, rho)
    if rho > left.rho:
        return rarefaction_u(p, WaveFamily.TWO, left, rho)
    return left.u


@np.errstate(over="ignore", invalid="ignore")
def _classify_by_curves(
    p: PressureParams, left: State, right: State
) -> tuple[str, tuple[str, ...]]:
    w1 = curve_one_u(p, left, right.rho)
    w2 = curve_two_u(p, left, right.rho)
    d1 = right.u - w1
    d2 = right.u - w2
    boundary = []
    if abs(d1) <= BOUNDARY_TOL:
        boundary.append("R1" if right.rho <= left.rho else "S1")
    if abs(d2) <= BOUNDARY_TOL:
        boundary.append("S2" if right.rho <= left.rho else "R2")
    if boundary:
        return "OnBoundary", tuple(boundary)
    if d1 > 0.0 and d2 > 0.0:
        return "R1R2", ()
    if d1 < 0.0 and d2 < 0.0:
        return "S1S2", ()
    if d1 > 0.0:  # above the 1-curve, below the 2-curve: only for rho+ > rho-
        return "S1R2", ()
    return "R1S2", ()


def classify_ecg(p: PressureParams, left: State, right: State) -> RegionECG:
    """Which two-wave pattern the Riemann datum produces (or OnBoundary)."""
    if p.model is not Model.ECG:
        raise UnsupportedModelError("classify_ecg requires the ECG tag")
    tag, boundary = _classify_by_curves(p, left, right)
    return RegionECG(tag, boundary)


def gcg_delta_region(p: PressureParams, left: State, right: State) -> bool:
    """Whether the datum lies in the delta-shock region (asymptote criterion)."""
    return right.u + gcg_asymptote(p, right.rho) <= left.u - gcg_asymptote(p, left.rho)


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


def classify_gcg(p: PressureParams, left: State, right: State) -> RegionGCG:
    """Five-region classification for the GCG model.

    Region V is decided by the shock-asymptote criterion, which uses sqrt(B);
    the delta-shock entropy window uses sqrt(alpha*B) and is reported
    separately by ``gcg_entropy_window``.
    """
    if p.model is not Model.GCG:
        raise UnsupportedModelError("classify_gcg requires the GCG tag")
    if gcg_delta_region(p, left, right):
        return RegionGCG("V")
    tag, boundary = _classify_by_curves(p, left, right)
    mapping = {"R1R2": "I", "R1S2": "II", "S1R2": "III", "S1S2": "IV"}
    if tag == "OnBoundary":
        return RegionGCG("OnBoundary", boundary)
    return RegionGCG(mapping[tag])
