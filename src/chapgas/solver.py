"""Self-similar Riemann solutions for the three models, their regions, and pointwise sampling.

A solution is an ordered list of segments tiling the xi = x/t axis:
constant states, rarefaction fans, shocks, contacts, delta shocks and vacuum
intervals. Zero-width segments (shock/contact/delta) carry their speed as
``xi_lo == xi_hi``.

Two-wave solutions take the intermediate state (rho*, u*) from the
finite-volume core's ``fvcore.star_state`` on one element, its scalar pass:
safeguarded Newton in y = log rho on the mismatch of the forward 1-curve and
the backward 2-curve, with a relative stopping rule, so rho* is resolved
however small it is. The core raises ``NumericalLimitError`` when the
intersection leaves the representable density range. The waves kept,
their kinds and their speeds come from ``fvcore.wave_fronts``, the rule
the Godunov flux samples by.

The phase-plane region of a datum is read from its solution (``region_of``):
``classify_ecg`` and ``classify_gcg`` are one solve each, so a region tag
and the solution's wave pattern agree by construction, and classification
raises where solving does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import fvcore
from .errors import (
    DomainError,
    NoDeltaShockError,
    NumericalLimitError,
    UnsupportedModelError,
)
from .models import Model, PressureParams, State, gcg_delta_region, shock_radicand, sound_speed_sq
from .waves import WaveFamily, gcg_entropy_window


class SegmentKind(Enum):
    CONSTANT = "constant"
    FAN = "fan"
    SHOCK = "shock"
    CONTACT = "contact"
    DELTA = "delta"
    VACUUM = "vacuum"


@dataclass(frozen=True)
class DeltaShock:
    """Delta-shock data: speed, delta velocity (= speed) and weight growth rate.

    The carried weight is ``weight_rate * t``; ``entropy_satisfied`` reports
    the characteristic-impingement window check (strict inequalities).
    """

    sigma: float
    u_delta: float
    weight_rate: float
    entropy_satisfied: bool


@dataclass(frozen=True)
class WaveSegment:
    kind: SegmentKind
    xi_lo: float
    xi_hi: float
    left: Optional[State] = None
    right: Optional[State] = None
    family: Optional[WaveFamily] = None
    delta: Optional[DeltaShock] = None

    @property
    def speed(self) -> float:
        if self.xi_lo != self.xi_hi:
            raise DomainError("speed is defined only for zero-width segments")
        return self.xi_lo

    @property
    def state(self) -> State:
        if self.kind is not SegmentKind.CONSTANT:
            raise DomainError("state is defined only for constant segments")
        return self.left


@dataclass(frozen=True)
class SamplePoint:
    rho: float
    u: float
    in_vacuum: bool = False
    on_delta: bool = False
    at_discontinuity: bool = False

    @property
    def state(self) -> State:
        return State(self.rho, self.u)


@dataclass(frozen=True)
class RiemannSolution:
    params: PressureParams
    left: State
    right: State
    segments: tuple[WaveSegment, ...]
    intermediate: Optional[State] = None

    @property
    def delta(self) -> Optional[DeltaShock]:
        for seg in self.segments:
            if seg.kind is SegmentKind.DELTA:
                return seg.delta
        return None

    def pattern(self) -> str:
        """Compact wave-structure label, e.g. ``R1S2``, ``delta``, ``vacuum``."""
        tags = []
        for seg in self.segments:
            if seg.kind is SegmentKind.FAN:
                tags.append("R%d" % seg.family.value)
            elif seg.kind is SegmentKind.SHOCK:
                tags.append("S%d" % seg.family.value)
            elif seg.kind is SegmentKind.CONTACT:
                tags.append("J%d" % seg.family.value if seg.family else "J")
            elif seg.kind is SegmentKind.DELTA:
                tags.append("delta")
            elif seg.kind is SegmentKind.VACUUM:
                tags.append("vacuum")
        return "+".join(tags) if tags else "constant"

    def speed_range(self) -> Optional[tuple[float, float]]:
        """Smallest and largest finite wave speed, or None for a constant solution."""
        los = [s.xi_lo for s in self.segments if math.isfinite(s.xi_lo)]
        his = [s.xi_hi for s in self.segments if math.isfinite(s.xi_hi)]
        if not los:
            return None
        return min(los), max(his)


def _adjacent(boundary: tuple[str, ...]) -> str:
    """The two-wave tag next to boundary data: each wave not named there a rarefaction."""
    return ("S1" if "S1" in boundary else "R1") + ("S2" if "S2" in boundary else "R2")


@dataclass(frozen=True)
class RegionECG:
    tag: str  # R1R2 | R1S2 | S1R2 | S1S2 | OnBoundary
    boundary: tuple[str, ...] = ()

    def resolve(self) -> str:
        """Boundary data resolved to the adjacent region with a degenerate wave."""
        return _adjacent(self.boundary) if self.tag == "OnBoundary" else self.tag


_GCG_REGIONS = {"R1R2": "I", "R1S2": "II", "S1R2": "III", "S1S2": "IV"}


@dataclass(frozen=True)
class RegionGCG:
    tag: str  # I | II | III | IV | V | OnBoundary
    boundary: tuple[str, ...] = ()

    def resolve(self) -> str:
        return _GCG_REGIONS[_adjacent(self.boundary)] if self.tag == "OnBoundary" else self.tag


def _constant(state: State, lo: float, hi: float) -> WaveSegment:
    return WaveSegment(SegmentKind.CONSTANT, lo, hi, left=state, right=state)


_FAMILIES = (WaveFamily.ONE, WaveFamily.TWO)


def _fronts(p: PressureParams, left: State, mid: State, right: State):
    """``fvcore.wave_fronts`` of a two-wave solution, in Python floats, with checked sound speeds."""
    cl = math.sqrt(sound_speed_sq(p, left.rho))
    cs = math.sqrt(sound_speed_sq(p, mid.rho))
    cr = math.sqrt(sound_speed_sq(p, right.rho))
    return fvcore.wave_fronts(p, left.rho, left.u, right.rho, right.u, mid.rho, mid.u, cl, cr, cs)


def _assemble(p: PressureParams, left: State, mid: State, right: State) -> tuple[WaveSegment, ...]:
    """The segments of a two-wave solution: the waves ``fvcore.wave_fronts`` keeps, and constants between."""
    contact = p.model is Model.GCG and p.alpha == 1.0
    segs, cursor_state, cursor_xi = [], left, -math.inf
    for fam, (kept, rare, lo, hi), a, b in zip(_FAMILIES, _fronts(p, left, mid, right), (left, mid), (mid, right)):
        if kept:
            kind = SegmentKind.CONTACT if contact else SegmentKind.FAN if rare else SegmentKind.SHOCK
            segs += [_constant(cursor_state, cursor_xi, lo), WaveSegment(kind, lo, hi, left=a, right=b, family=fam)]
            cursor_state, cursor_xi = b, hi
    segs.append(_constant(cursor_state, cursor_xi, math.inf))
    # An unresolved intermediate state can put a fan's ends, or two waves,
    # in the wrong order; that is no solution.
    bounds = [xi for s in segs for xi in (s.xi_lo, s.xi_hi)]
    if any(a > b for a, b in zip(bounds, bounds[1:])):
        raise NumericalLimitError(
            f"wave speeds out of order at rho* = {mid.rho!r}: the intermediate state is unresolved",
            state=mid,
        )
    return tuple(segs)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NumericalLimitError
def _solve_two_wave(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Intersect the forward 1-curve with the backward 2-curve in the core and assemble."""
    mid = State(*fvcore.star_state(p, left.rho, left.u, right.rho, right.u))
    return RiemannSolution(
        p, left, right, _assemble(p, left, mid, right), intermediate=mid
    )


def solve_ecg(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Exact Riemann solution for the two-term pressure law (always classical)."""
    if p.model is not Model.ECG:
        raise UnsupportedModelError("solve_ecg requires the ECG tag")
    if left.rho <= 0.0 or right.rho <= 0.0:
        raise DomainError("Riemann data must have positive densities")
    if left == right:
        return RiemannSolution(p, left, right, (_constant(left, -math.inf, math.inf),))
    return _solve_two_wave(p, left, right)


def _gcg_delta(p: PressureParams, left: State, right: State) -> DeltaShock:
    rl, ul, rr, ur = left.rho, left.u, right.rho, right.u
    if rl != rr:
        try:
            # Root by root: the product rl * rr underflows once both are below ~1e-162.
            root = math.sqrt((ur - ul) ** 2 - shock_radicand(p, rl, rr))
            wr = math.sqrt(rl) * math.sqrt(rr) * root
        except OverflowError as exc:
            raise NumericalLimitError("delta-shock weight beyond the float range") from exc
        sigma = (rr * ur - rl * ul + wr) / (rr - rl)
    else:
        wr = rl * ul - rr * ur
        sigma = 0.5 * (ul + ur)
    win_lo, win_hi = gcg_entropy_window(p, left, right)
    return DeltaShock(sigma, sigma, wr, win_lo < sigma < win_hi)


def solve_gcg(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Exact Riemann solution for the A = 0 model, including the delta-shock region."""
    if p.model is not Model.GCG:
        raise UnsupportedModelError("solve_gcg requires the GCG tag")
    if left.rho <= 0.0 or right.rho <= 0.0:
        raise DomainError("Riemann data must have positive densities")
    if left == right:
        return RiemannSolution(p, left, right, (_constant(left, -math.inf, math.inf),))
    if gcg_delta_region(p, left.rho, left.u, right.rho, right.u):
        d = _gcg_delta(p, left, right)
        segs = (
            _constant(left, -math.inf, d.sigma),
            WaveSegment(
                SegmentKind.DELTA, d.sigma, d.sigma, left=left, right=right, delta=d
            ),
            _constant(right, d.sigma, math.inf),
        )
        return RiemannSolution(p, left, right, segs)
    return _solve_two_wave(p, left, right)


def solve_transport(left: State, right: State) -> RiemannSolution:
    """Pressureless Riemann solution: vacuum fan, contact, or delta shock."""
    p = PressureParams.transport()
    if left.rho <= 0.0 or right.rho <= 0.0:
        raise DomainError("Riemann data must have positive densities")
    if left == right:
        return RiemannSolution(p, left, right, (_constant(left, -math.inf, math.inf),))
    ul, ur = left.u, right.u
    if ul < ur:
        segs = (
            _constant(left, -math.inf, ul),
            WaveSegment(SegmentKind.VACUUM, ul, ur, left=left, right=right),
            _constant(right, ur, math.inf),
        )
        return RiemannSolution(p, left, right, segs)
    if ul == ur:
        segs = (
            _constant(left, -math.inf, ul),
            WaveSegment(SegmentKind.CONTACT, ul, ul, left=left, right=right),
            _constant(right, ul, math.inf),
        )
        return RiemannSolution(p, left, right, segs)
    sl, sr = math.sqrt(left.rho), math.sqrt(right.rho)
    sigma = (sl * ul + sr * ur) / (sl + sr)
    weight_rate = sl * sr * (ul - ur)
    d = DeltaShock(sigma, sigma, weight_rate, ur < sigma < ul)
    segs = (
        _constant(left, -math.inf, sigma),
        WaveSegment(SegmentKind.DELTA, sigma, sigma, left=left, right=right, delta=d),
        _constant(right, sigma, math.inf),
    )
    return RiemannSolution(p, left, right, segs)


def solve(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Dispatch on the model tag."""
    if p.model is Model.ECG:
        return solve_ecg(p, left, right)
    if p.model is Model.GCG:
        return solve_gcg(p, left, right)
    return solve_transport(left, right)


def region_of(sol: RiemannSolution):
    """The phase-plane region of an ECG or GCG solution, as a RegionECG or RegionGCG.

    Each wave is typed from the data and rho* by ``fvcore.wave_fronts``,
    the rule ``solve`` kept it by, so GCG alpha = 1 contacts keep their
    I-IV tags.
    A wave that ``solve`` dropped puts the datum ``OnBoundary``, with
    ``boundary`` naming the wave kept; with no wave at all (equal data, or
    both waves dropped) the datum sits where all curves meet, on R1 and S2.
    A delta shock is GCG region V.
    """
    p, left, mid, right = sol.params, sol.left, sol.intermediate, sol.right
    if p.model is Model.TRANSPORT:
        raise UnsupportedModelError("transport data have no classical region")
    if mid is None and sol.delta is not None:
        return RegionGCG("V")
    fronts = _fronts(p, left, mid, right) if mid is not None else ()
    waves = ["%s%d" % ("R" if rare else "S", k) for k, (kept, rare, _, _) in enumerate(fronts, 1) if kept]
    region = RegionGCG if p.model is Model.GCG else RegionECG
    if len(waves) < 2:
        return region("OnBoundary", tuple(waves) or ("R1", "S2"))
    tag = waves[0] + waves[1]
    return region(_GCG_REGIONS[tag] if region is RegionGCG else tag)


def classify_ecg(p: PressureParams, left: State, right: State) -> RegionECG:
    """Which two-wave pattern the Riemann datum produces (or OnBoundary): one solve."""
    return region_of(solve_ecg(p, left, right))


def classify_gcg(p: PressureParams, left: State, right: State) -> RegionGCG:
    """Five-region classification for the GCG model: one solve.

    Region V is the shock-asymptote criterion ``models.gcg_delta_region``, in
    sqrt(B); the delta-shock entropy window, in sqrt(alpha*B), is
    ``waves.gcg_entropy_window``.
    """
    return region_of(solve_gcg(p, left, right))


def _fan_states(p: PressureParams, seg: WaveSegment, xi: np.ndarray):
    """(rho, u) arrays inside a fan at speeds ``xi``: the core's fan inversion."""
    sign = -1.0 if seg.family is WaveFamily.ONE else 1.0
    return fvcore.fan_state(p, sign, seg.left.rho, seg.left.u, seg.right.rho, xi)


def sample(sol: RiemannSolution, xi: float) -> SamplePoint:
    """Evaluate the self-similar solution at xi = x/t.

    Exactly at a shock/contact/delta speed the state on the left of the
    discontinuity is returned, flagged; inside a vacuum interval the value is
    (0, xi), flagged ``in_vacuum``. The point's segment is found by the rule
    of ``sample_arrays``, walking the segments in Python, and gets the same
    bits: a point inside an ECG fan goes to the core as Python floats, which
    take its scalar pass, as a lone array point does; inside a GCG fan it
    goes as a one-element array, like the array path's points (GCG's closed
    form uses ``**``, which on a 0-d input can differ in the last bit).
    """
    xi = float(xi)
    segs = sol.segments
    seg = next((s for s in segs[:-1] if xi <= s.xi_hi), segs[-1])
    if seg.kind is SegmentKind.VACUUM:
        rho, u = 0.0, xi
    elif seg.kind is SegmentKind.FAN and xi != seg.xi_hi:
        if sol.params.model is Model.GCG:
            rho, u = (float(v[0]) for v in _fan_states(sol.params, seg, np.array([xi])))
        else:
            rho, u = (float(v) for v in _fan_states(sol.params, seg, xi))
    else:  # a fan's right edge is its right state
        state = seg.right if seg.kind is SegmentKind.FAN else seg.left
        rho, u = float(state.rho), float(state.u)
    for s in segs:
        if s.xi_lo == s.xi_hi and xi == s.xi_lo:
            return SamplePoint(rho, u, on_delta=s.kind is SegmentKind.DELTA, at_discontinuity=True)
    # Only a vacuum interval has zero density: states and fans are positive.
    return SamplePoint(rho, u, in_vacuum=rho == 0.0)


def sample_arrays(sol: RiemannSolution, xi) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity at every xi of an array.

    Segments are contiguous, so each point lies in the first segment whose
    right end it does not pass: a point exactly at a discontinuity gets the
    state on its left, and zero-width segments are never picked. Fan points
    are inverted in one call into the core per fan; a vacuum gives (0, xi).
    """
    shape = np.shape(xi)
    xi = np.asarray(xi, dtype=float).ravel()
    segs = sol.segments
    table = np.array([(s.xi_hi, s.left.rho, s.left.u) for s in segs])
    k = np.searchsorted(table[:-1, 0], xi)
    rho, u = table[k, 1], table[k, 2]
    for i in set(k.tolist()):  # only the segments that points landed in
        seg = segs[i]
        if seg.kind is SegmentKind.VACUUM:
            hit = k == i
            rho[hit], u[hit] = 0.0, xi[hit]
        elif seg.kind is SegmentKind.FAN:
            hit = k == i
            at_hi = hit & (xi == seg.xi_hi)
            rho[at_hi], u[at_hi] = seg.right.rho, seg.right.u
            inside = hit & ~at_hi
            if inside.any():
                rho[inside], u[inside] = _fan_states(sol.params, seg, xi[inside])
    return rho.reshape(shape), u.reshape(shape)


def delta_weight_at(sol: RiemannSolution, t: float) -> float:
    """Weight carried by the delta shock at time t >= 0 (weight_rate * t)."""
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    d = sol.delta
    if d is None:
        raise NoDeltaShockError("solution carries no delta shock")
    return d.weight_rate * t
