"""Equation-of-state family, the pressure law, states and eigenstructure.

Three model tags are supported:

* ``ECG``       -- P(rho) = A*rho^n - B/rho^alpha with A, B > 0,
* ``GCG``       -- the A = 0 case (pressure -B/rho^alpha),
* ``TRANSPORT`` -- the pressureless A = B = 0 case.

The pressure law and the relations built on it are written once, here, for
floats and numpy arrays alike: P, c^2, the shock radicand, the GCG
asymptote and the region-V test on it. ``pressure`` and ``sound_speed_sq``
are the checked scalar forms.

Everything here is a pure function of its arguments; parameter and state
values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NumericalLimitError, UnsupportedModelError

# Densities below this are treated as out of domain rather than as vacuum;
# vacuum is representable only inside a RiemannSolution.
RHO_FLOOR = 1e-300


class Model(Enum):
    ECG = "ecg"
    GCG = "gcg"
    TRANSPORT = "transport"


@dataclass(frozen=True)
class PressureParams:
    """Pressure-law coefficients plus the model tag selecting the branch.

    The tag is explicit rather than inferred from A = 0 / B = 0 so a limit
    sweep can hold a tiny-but-positive A distinct from the exact GCG model.
    """

    model: Model
    A: float = 0.0
    B: float = 0.0
    n: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("A", "B", "n", "alpha"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.model is Model.ECG:
            if not (self.A > 0.0 and self.B > 0.0):
                raise DomainError("ECG requires A > 0 and B > 0")
            if not (1.0 <= self.n <= 3.0):
                raise DomainError("ECG requires 1 <= n <= 3")
            if not (0.0 < self.alpha <= 1.0):
                raise DomainError("ECG requires 0 < alpha <= 1")
        elif self.model is Model.GCG:
            if self.A != 0.0:
                raise DomainError("GCG requires A = 0")
            if not (self.B > 0.0):
                raise DomainError("GCG requires B > 0")
            if not (0.0 < self.alpha <= 1.0):
                raise DomainError("GCG requires 0 < alpha <= 1")
        elif self.model is Model.TRANSPORT:
            if self.A != 0.0 or self.B != 0.0:
                raise DomainError("transport requires A = B = 0")
        else:  # pragma: no cover - enum is closed
            raise UnsupportedModelError(f"unknown model {self.model!r}")

    @classmethod
    def ecg(cls, A: float, B: float, n: float, alpha: float) -> "PressureParams":
        return cls(Model.ECG, A=A, B=B, n=n, alpha=alpha)

    @classmethod
    def gcg(cls, B: float, alpha: float) -> "PressureParams":
        return cls(Model.GCG, A=0.0, B=B, n=1.0, alpha=alpha)

    @classmethod
    def transport(cls) -> "PressureParams":
        return cls(Model.TRANSPORT)


@dataclass(frozen=True)
class State:
    """A point (rho, u) in the closed upper half phase plane.

    rho = 0 is legal only for vacuum representations produced by the solver;
    wave-curve operations require rho > 0.
    """

    rho: float
    u: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "u", float(self.u))
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise DomainError(f"density must be finite and >= 0, got {self.rho!r}")
        if not math.isfinite(self.u):
            raise DomainError(f"velocity must be finite, got {self.u!r}")


def _check_rho(rho: float) -> None:
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError(f"density must be positive and finite, got {rho!r}")
    if rho < RHO_FLOOR:
        raise DomainError(f"density {rho!r} below representable floor {RHO_FLOOR}")


def pressure_law(A, B, n, alpha, rho):
    """P(rho) = A*rho^n - B*rho^-alpha on raw coefficients; rho a float or an array."""
    # A = 0 (GCG) skips the A-term: 0.0 - x is 0.0 * rho - x to the bit for finite rho.
    return (0.0 if A == 0.0 else A * rho**n) - B * rho ** (-alpha)


def cs2_law(A, B, n, alpha, rho):
    """dP/drho = A*n*rho^(n-1) + alpha*B*rho^-(alpha+1) on raw coefficients."""
    b_term = alpha * B * rho ** (-(alpha + 1.0))  # the value to the bit at A = 0, as 0.0 + b_term
    return b_term if A == 0.0 else A * n * rho ** (n - 1.0) + b_term


def shock_radicand(p: PressureParams, rho_a, rho_b):
    """(1/rho_a - 1/rho_b) * (P(rho_b) - P(rho_a)): the squared velocity jump of a shock.

    Symmetric in the two densities, nonnegative away from rounding, and free
    of the product rho_a*rho_b, which underflows below 5e-324.
    """
    A, B, n, alpha = p.A, p.B, p.n, p.alpha
    dp = pressure_law(A, B, n, alpha, rho_b) - pressure_law(A, B, n, alpha, rho_a)
    return (1.0 / rho_a - 1.0 / rho_b) * dp


def gcg_asymptote(p: PressureParams, rho):
    """asym(rho) = sqrt(B)*rho^-(alpha+1)/2, which bounds GCG region V (``gcg_delta_region``)."""
    return math.sqrt(p.B) * rho ** (-0.5 * (p.alpha + 1.0))


def gcg_delta_region(p: PressureParams, rho_l, u_l, rho_r, u_r):
    """Whether GCG data lie in region V, u+ + asym(rho+) <= u- - asym(rho-); elementwise."""
    return u_r + gcg_asymptote(p, rho_r) <= u_l - gcg_asymptote(p, rho_l)


def pressure(p: PressureParams, rho: float) -> float:
    """P(rho) = A*rho^n - B/rho^alpha; identically 0 under the transport tag."""
    _check_rho(rho)
    if p.model is Model.TRANSPORT:
        return 0.0
    return pressure_law(p.A, p.B, p.n, p.alpha, rho)


def sound_speed_sq(p: PressureParams, rho: float) -> float:
    """dP/drho = A*n*rho^(n-1) + alpha*B/rho^(alpha+1) (the eigenvalue radicand)."""
    _check_rho(rho)
    if p.model is Model.TRANSPORT:
        return 0.0
    try:
        return cs2_law(p.A, p.B, p.n, p.alpha, rho)
    except OverflowError as exc:
        raise NumericalLimitError(
            f"sound speed squared beyond the float range at rho = {rho!r}"
        ) from exc


def eigenvalues(p: PressureParams, s: State) -> tuple[float, float]:
    """Characteristic speeds (u - c, u + c); the double value (u, u) for transport."""
    c = math.sqrt(sound_speed_sq(p, s.rho))
    return s.u - c, s.u + c


def genuine_nonlinearity_indicator(p: PressureParams, rho: float) -> float:
    """Directional derivative of each eigenvalue along its own eigenvector.

    Positive for every legal ECG parameter set; zero for GCG with alpha = 1,
    where both fields are linearly degenerate. Not defined for transport.
    """
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport has no classical nonlinearity indicator")
    _check_rho(rho)
    A, B, n, a = p.A, p.B, p.n, p.alpha
    num = A * n * (n + 1.0) * rho ** (n + a) + (1.0 - a) * a * B
    den = 2.0 * math.sqrt((A * n * rho ** (n + a) + a * B) * rho ** (a + 1.0))
    return num / den
