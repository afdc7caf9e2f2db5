"""Self-similar Riemann solutions for the three models, their regions, and pointwise sampling.

A solution is an ordered list of segments tiling the xi = x/t axis:
constant states, rarefaction fans, shocks, contacts, delta shocks and vacuum
intervals. Zero-width segments (shock/contact/delta) carry their speed as
``xi_lo == xi_hi``.

``solve`` is the one entry point for all three models, and its solution
carries the ``PressureParams`` it was given. ``_single_wave`` builds every
one-wave solution: a GCG delta shock, a transport vacuum, contact or delta.

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
raises where solving does. ``forward_curve`` is the forward 1- or 2-curve
through a state on the core's arithmetic, for a float or an array of
densities; the phase plot draws it.
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
from .models import (
    Model,
    PressureParams,
    State,
    WaveFamily,
    gcg_asymptote,
    gcg_delta_region,
    pressure_law,
    shock_radicand,
    sound_speed_sq,
)


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


@dataclass(frozen=True)
class SamplePoint:
    rho: float
    u: float
    in_vacuum: bool = False
    on_delta: bool = False
    at_discontinuity: bool = False


@dataclass(frozen=True)
class RiemannSolution:
    params: PressureParams
    left: State
    right: State
    segments: tuple[WaveSegment, ...]
    intermediate: Optional[State] = None

    def __post_init__(self):
        # Only the outer constants reach -inf and +inf: any other edge, or a
        # delta-shock field, that is not finite overflowed on the way here.
        # The segments tile the axis, so each inner edge ends a segment.
        values = [s.xi_hi for s in self.segments[:-1]]
        d = self.delta
        if d is not None:
            values += (d.sigma, d.u_delta, d.weight_rate)
        if not all(map(math.isfinite, values)):
            raise NumericalLimitError("wave speed or delta-shock weight beyond the float range")

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


_GCG_REGIONS = {"R1R2": "I", "R1S2": "II", "S1R2": "III", "S1S2": "IV"}


@dataclass(frozen=True)
class Region:
    """A phase-plane region: ECG R1R2 | R1S2 | S1R2 | S1S2, GCG I-V, or OnBoundary.

    ``boundary`` names the waves of boundary data; ``gcg`` selects the GCG
    names I-IV for the two-wave tags.
    """

    tag: str
    boundary: tuple[str, ...] = ()
    gcg: bool = False

    def resolve(self) -> str:
        """Boundary data resolved to the adjacent region with a degenerate wave.

        That region has a rarefaction for each wave not named in ``boundary``.
        """
        if self.tag != "OnBoundary":
            return self.tag
        b = self.boundary
        tag = ("S1" if "S1" in b else "R1") + ("S2" if "S2" in b else "R2")
        return _GCG_REGIONS[tag] if self.gcg else tag


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


def _single_wave(
    p: PressureParams, left: State, right: State, kind: SegmentKind, lo: float, hi: float, delta=None
) -> RiemannSolution:
    """A one-wave solution: ``left`` up to ``lo``, one ``kind`` wave on [lo, hi], ``right`` from ``hi``."""
    wave = WaveSegment(kind, lo, hi, left=left, right=right, delta=delta)
    segs = (_constant(left, -math.inf, lo), wave, _constant(right, hi, math.inf))
    return RiemannSolution(p, left, right, segs)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NumericalLimitError
def _solve_two_wave(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Intersect the forward 1-curve with the backward 2-curve in the core and assemble."""
    mid = State(*fvcore.star_state(p, left.rho, left.u, right.rho, right.u))
    return RiemannSolution(p, left, right, _assemble(p, left, mid, right), intermediate=mid)


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


def _gcg_delta(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """The GCG delta shock of region-V data."""
    rl, ul, rr, ur = left.rho, left.u, right.rho, right.u
    if rl != rr:
        try:
            gap = (ur - ul) ** 2 - shock_radicand(p, rl, rr)
        except OverflowError as exc:
            raise NumericalLimitError("delta-shock weight beyond the float range") from exc
        # gap > 0 throughout region V in exact arithmetic; where it rounds to
        # 0 or below, the weight is not resolved, and 0 would be wrong.
        if not gap > 0.0:
            raise NumericalLimitError("delta-shock weight unresolved: the speed gap rounds to the shock radicand")
        # Root by root: the product rl * rr underflows once both are below ~1e-162.
        wr = math.sqrt(rl) * math.sqrt(rr) * math.sqrt(gap)
        sigma = (rr * ur - rl * ul + wr) / (rr - rl)
    else:
        wr = rl * ul - rr * ur
        sigma = 0.5 * (ul + ur)
    win_lo, win_hi = gcg_entropy_window(p, left, right)
    d = DeltaShock(sigma, sigma, wr, win_lo < sigma < win_hi)
    return _single_wave(p, left, right, SegmentKind.DELTA, sigma, sigma, d)


def _solve_transport(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Pressureless solution: a vacuum fan, a contact, or a delta shock."""
    ul, ur = left.u, right.u
    if ul < ur:
        return _single_wave(p, left, right, SegmentKind.VACUUM, ul, ur)
    if ul == ur:
        return _single_wave(p, left, right, SegmentKind.CONTACT, ul, ul)
    sl, sr = math.sqrt(left.rho), math.sqrt(right.rho)
    sigma = (sl * ul + sr * ur) / (sl + sr)
    d = DeltaShock(sigma, sigma, sl * sr * (ul - ur), ur < sigma < ul)
    return _single_wave(p, left, right, SegmentKind.DELTA, sigma, sigma, d)


def solve(p: PressureParams, left: State, right: State) -> RiemannSolution:
    """Exact Riemann solution of the model ``p`` names, carrying ``p`` as given.

    ECG data give two classical waves, as do GCG data outside region V
    (``models.gcg_delta_region``); region V gives a delta shock, and
    transport data a vacuum, a contact or a delta shock.
    """
    if left.rho <= 0.0 or right.rho <= 0.0:
        raise DomainError("Riemann data must have positive densities")
    if left == right:
        return RiemannSolution(p, left, right, (_constant(left, -math.inf, math.inf),))
    if p.model is Model.TRANSPORT:
        return _solve_transport(p, left, right)
    if p.model is Model.GCG and gcg_delta_region(p, left.rho, left.u, right.rho, right.u):
        return _gcg_delta(p, left, right)
    return _solve_two_wave(p, left, right)


def region_of(sol: RiemannSolution) -> Region:
    """The phase-plane region of an ECG or GCG solution.

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
    gcg = p.model is Model.GCG
    if mid is None and sol.delta is not None:
        return Region("V", gcg=gcg)
    fronts = _fronts(p, left, mid, right) if mid is not None else ()
    waves = ["%s%d" % ("R" if rare else "S", k) for k, (kept, rare, _, _) in enumerate(fronts, 1) if kept]
    if len(waves) < 2:
        return Region("OnBoundary", tuple(waves) or ("R1", "S2"), gcg)
    tag = waves[0] + waves[1]
    return Region(_GCG_REGIONS[tag] if gcg else tag, gcg=gcg)


def classify_ecg(p: PressureParams, left: State, right: State) -> Region:
    """Which two-wave pattern the Riemann datum produces (or OnBoundary): one solve."""
    if p.model is not Model.ECG:
        raise UnsupportedModelError("classify_ecg requires the ECG tag")
    return region_of(solve(p, left, right))


def classify_gcg(p: PressureParams, left: State, right: State) -> Region:
    """Five-region classification for the GCG model: one solve.

    Region V is the shock-asymptote criterion ``models.gcg_delta_region``, in
    sqrt(B); the delta-shock entropy window, in sqrt(alpha*B), is
    ``gcg_entropy_window``.
    """
    if p.model is not Model.GCG:
        raise UnsupportedModelError("classify_gcg requires the GCG tag")
    return region_of(solve(p, left, right))


def forward_curve(p: PressureParams, left: State, rho, fam: WaveFamily):
    """u on the forward curve of family ``fam`` through ``left``: u- - phi.

    The 1-curve is a rarefaction for rho < rho- and a shock above; the
    2-curve is a shock below and a rarefaction above. phi is one
    ``fvcore._curve_distance`` call, the core's arithmetic. The 1-curve
    takes it from rho- to rho. The 2-wave from ``left`` to (rho, u) lies on
    the backward 2-curve through (rho, u), so the 2-curve takes it from rho
    to rho-. ``rho`` is a float or an array, and the result takes its shape;
    a value that is not finite raises NumericalLimitError.
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
    bad = ~np.isfinite(u)
    if bad.any():
        raise NumericalLimitError(f"wave curve beyond the float range at rho = {float(rhos[bad.argmax()])!r}")
    return u.reshape(np.shape(rho)) if np.ndim(rho) else float(u[0])


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
    if math.isnan(xi):
        raise DomainError("xi must not be NaN")
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
    if np.isnan(xi).any():
        raise DomainError("xi must not be NaN")
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
    if not t >= 0.0:
        raise DomainError(f"time must be nonnegative, got {t!r}")
    d = sol.delta
    if d is None:
        raise NoDeltaShockError("solution carries no delta shock")
    return d.weight_rate * t
