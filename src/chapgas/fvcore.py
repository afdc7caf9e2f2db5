"""Whole-array finite-volume core: one time step over all cell interfaces.

Every function here works elementwise on numpy arrays, so one step over all
``cells + 1`` interfaces is a fixed number of array operations; the only
Python loop runs over Newton iterations. The rarefaction quadrature puts
every panel of every element in one array, however wide the density range.

Interface Riemann problems are solved the way Toro solves them for the ideal
gas (*Riemann Solvers and Numerical Methods for Fluid Dynamics*, 3rd ed.,
ch. 4): Newton on the wave-curve mismatch from a linearized two-wave guess,
here in y = log rho and kept inside a sign-change bracket. The same
safeguarded Newton inverts rarefaction fans, for the Godunov flux at xi = 0
and for ``solver.sample``. There it starts from a closed form in the fan's
edge sound speeds, with no quadrature; the fan's density range brackets the
root from the start, so its steps are not capped, and a step that leaves the
bracket bisects it. u comes from the last evaluated jump moved along to the
returned density, so a fan point costs one quadrature per Newton evaluation.
Each element iterates on its own and stops on its own, so a result does not
depend on which other elements share the array. An element stops on a step
of at most ``_TOL_Y``, or returns y + s at once after a plain Newton step s
inside its bracket of at most ``_TOL_STEP``, whose error K s^2 is below
rounding (``_newton_step``): no evaluation only to confirm convergence.

The size of the inputs alone picks one of two passes of that Newton. Inputs
that broadcast to one element (every exact solve and most fan samples) run
it on numpy float64 scalars, where a 1-element array would pay numpy's
per-call overhead dozens of times per step; larger inputs run it on arrays.
Both passes evaluate the same per-element formulas, below, with the same
numpy ufuncs, so an element comes out to the bit the same whichever pass it
takes. Powers stay on arrays in both: ``**`` on a float64 scalar goes
through the C library's ``pow`` and can differ from the array loop in the
last bit.

Model dispatch follows the ``PressureParams`` tag: transport has no pressure,
GCG (A = 0) uses the closed-form rarefaction integral and fan inversion, ECG
integrates it with Kronrod-15 panels no wider than one octave in density.
``pressure``, ``cs2`` and the GCG delta-region test come from ``models``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalLimitError
from .models import Model, PressureParams, cs2_law as cs2, gcg_delta_region, pressure_law as pressure

# Relative density-jump threshold below which a wave counts as zero-strength.
DEGENERATE_RTOL = 1e-10

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
# The same nodes and weights, mapped from [-1, 1] to the unit interval.
_K15_T = 0.5 * (1.0 + np.array([-x for x in _XGK[:7]] + list(_XGK[::-1])))
_K15_W = 0.5 * np.array(_WGK + _WGK[6::-1])
_LN2 = math.log(2.0)

_EPS = 2.220446049250313e-16
# Newton stops once a step moves y = log rho by at most this much.
_TOL_Y = 1e-13
# A plain Newton step inside the bracket (neither capped nor bisecting) of at
# most this length settles its element (see ``_newton_step``).
_TOL_STEP = 1e-8
# Largest Newton step in y before the root is bracketed (a factor e^4 in rho).
_MAX_STEP_Y = 4.0
# The representable density range the star state must lie in.
_Y_MIN = math.log(1e-300)
_Y_MAX = math.log(1e305)
_MAX_ITERATIONS = 100


def _cs2_terms(p: PressureParams, y):
    """The two terms of cs2 at rho = e^y."""
    return p.A * p.n * np.exp((p.n - 1.0) * y), p.alpha * p.B * np.exp(-(p.alpha + 1.0) * y)


def _panel_sums(p: PressureParams, a, h, j):
    """Kronrod-15 sums of c over the panels [a + h j, a + h (j + 1)], not yet times h."""
    t1, t2 = _cs2_terms(p, a + h * (j + _K15_T))
    return (np.sqrt(t1 + t2) * _K15_W).sum(axis=-1)


def velocity_jump(p: PressureParams, ya, yb):
    """Signed integral of c(rho)/rho d rho from rho = e^ya to e^yb (= integral of c dy).

    Closed form for GCG; otherwise composite Kronrod-15 in y on
    ceil(|yb - ya| / ln 2) equal panels per element, with the panel count
    set by each element alone. When every element has one panel (every FV
    interface does) that is one pass over a (..., 15) array of nodes.
    Otherwise the panels are laid out ragged, element after element, all
    their nodes are evaluated in one (panels, 15) array, and each element's
    panel sums are added in panel order, so the result is the same to the
    bit as a panel-by-panel loop and independent of the other elements.
    Inputs that broadcast to one element (the exact solver's calls) skip the
    ragged bookkeeping: the panel count and step are Python numbers, the
    nodes form one (panels, 15) array, and ``np.add.accumulate`` adds the
    panel sums one by one in the same order (one panel needs no adding).
    """
    ya, yb = np.asarray(ya, dtype=float), np.asarray(yb, dtype=float)
    if p.model is Model.GCG:
        m = 0.5 * (p.alpha + 1.0)
        k = 2.0 * math.sqrt(p.alpha * p.B) / (p.alpha + 1.0)
        return k * (np.exp(-m * ya) - np.exp(-m * yb))
    if ya.size == 1 and yb.size == 1:
        a = ya.item()
        d = yb.item() - a
        panels = max(math.ceil(abs(d) / _LN2), 1)
        h = d / panels
        if panels == 1:
            jump = _panel_sums(p, a, h, 0.0) * h
        else:
            jump = np.add.accumulate(_panel_sums(p, a, h, np.arange(panels)[:, None]))[-1] * h
        shape = ya.shape if ya.ndim >= yb.ndim else yb.shape
        return np.full(shape, jump) if shape else jump
    d = yb - ya
    panels = np.maximum(np.ceil(np.abs(d) / _LN2), 1.0)
    h = d / panels
    if int(panels.max(initial=1.0)) == 1:
        return _panel_sums(p, ya[..., None], h[..., None], 0.0) * h
    counts = panels.astype(np.intp).ravel()
    owner = np.repeat(np.arange(counts.size), counts)  # the element of each panel
    j = np.arange(owner.size) - np.searchsorted(owner, owner)  # its index in that element
    if ya.shape != d.shape:
        ya = np.broadcast_to(ya, d.shape)
    part = _panel_sums(p, ya.ravel()[owner, None], h.ravel()[owner, None], j[:, None])
    # bincount adds each element's parts one by one in panel order, from 0.0;
    # np.add.reduceat would pair them up differently and move the last bit.
    total = np.bincount(owner, weights=part)
    return total.reshape(d.shape) * h


def _where(mask, a, b):
    """``np.where``; a plain choice on numpy scalars, where np.where costs microseconds.

    An array mask that selects nothing returns ``b`` itself, uncopied.
    """
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b) if np.count_nonzero(mask) else b
    return a if mask else b


def _any(mask):
    """Whether any element holds: ``np.count_nonzero`` on arrays, the plain truth on numpy scalars."""
    return np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask


def _clip(x, lo, hi):
    """``np.clip`` elementwise, NaN kept, through ``_where``."""
    return _where(x < lo, lo, _where(x > hi, hi, x))


# Fan edge speeds out of order by at most this times their velocity scale
# (see ``fan_inverted``) are rounding.
_ORDER_RTOL = 8.0 * _EPS


def fan_inverted(lo, hi, u_scale):
    """Whether fan edge speeds ``lo`` > ``hi`` are out of order by rounding alone, elementwise.

    u* is resolved to a few ulps of the data's velocities, and across a fan
    whose speed hardly varies (alpha near 1) that rounding can put its left
    edge speed above its right one. Out of order by at most ``_ORDER_RTOL``
    times max(|lo|, |hi|) + ``u_scale``, with ``u_scale`` = |ul| + |ur| of
    the Riemann data, counts as rounding, and the caller makes such a fan
    zero-width at the mean of its edge speeds. Wider disorder is an
    unresolved intermediate state. Shocks, with ``lo`` == ``hi``, never
    count.
    """
    out = lo > hi
    if _any(out):
        out = out & (lo - hi <= _ORDER_RTOL * (np.maximum(abs(lo), abs(hi)) + u_scale))
    return out


def _newton_step(h, dh, noise, y, lo, hi, capped=True):
    """One safeguarded Newton step per element: (lo, hi, next y, moving).

    ``h`` is the increasing function at ``y``, ``dh`` its derivative and
    ``noise`` the rounding level of its terms; |h| within it settles the
    element at ``y``. ``lo``/``hi`` bound the root (infinite when unknown)
    and tighten as signs are seen; a step that leaves the bracket bisects it
    instead. ``capped`` caps steps at ``_MAX_STEP_Y``, for brackets that
    start open; a bracket that is finite from the start needs no cap.

    ``moving`` marks the elements that go on from the next y. The others
    stop there: a bisection that moved y by at most ``_TOL_Y``, or a trusted
    Newton step, one inside the bracket that moved y by at most
    ``_TOL_STEP``. Such a step s leaves an error of about K s^2, with
    K = |h''| / (2 h') near the root, and the c^2 exponents n - 1 and
    -(alpha + 1) bound K: on a rarefaction branch h' is a sum of sound
    speeds and h''/h' = c'/c is half a weighted mean of those exponents, so
    K <= max(n - 1, alpha + 1) / 4 <= 1/2; the fan speed's |h''/h'| is at
    most 3/2 of their larger size, K <= 3/2; on a shock branch K <= 1.5 was
    measured over the parameter box (1 <= n <= 3, 0 < alpha <= 1). So
    s <= 1e-8 ~ sqrt(eps / K) leaves an error K s^2 below one rounding unit
    of y: the next step, which the ``_TOL_Y`` test alone would wait for,
    could move y by rounding only. A bisection carries no such bound, and a
    capped step or one without a usable slope is never that short.
    """
    below = h < 0.0  # the root lies above y; h == 0 puts it at y
    lo, hi = _where(below, y, lo), _where(below, hi, y)
    # A derivative that is 0 or not finite gives no step size (-h/inf would
    # read as converged): take a capped step toward the root instead.
    no_slope = ~((dh > 0.0) & (dh < math.inf))
    toward = -h
    if _any(no_slope):
        step = _where(no_slope, np.copysign(_MAX_STEP_Y, toward), toward) / _where(no_slope, 1.0, dh)
    else:
        step = toward / dh
    yn = y + (_clip(step, -_MAX_STEP_Y, _MAX_STEP_Y) if capped else step)
    # A step out of the bracket bisects it, unless the step is within the
    # tolerance: then y already sits at a bracket end, next to the root.
    # (While one side is open, only such a step can leave the bracket.)
    leaves = ~((yn > lo) & (yn < hi)) & (abs(yn - y) > _TOL_Y)
    yn = _where(leaves, 0.5 * (lo + hi), yn)
    yn = _where(abs(h) <= noise, y, yn)
    # Capped and no-slope steps move y by _MAX_STEP_Y, so a move within
    # _TOL_STEP that did not bisect is a trusted Newton step. (A NaN step
    # stops, as it always has: fun raises on what it cannot evaluate.)
    return lo, hi, yn, abs(yn - y) > _where(leaves, _TOL_Y, _TOL_STEP)


_NOT_SETTLED = f"Newton iteration did not settle in {_MAX_ITERATIONS} steps"


def _newton_increasing(fun, y, lo, hi, capped=True):
    """Root in y of an increasing function, per element, by safeguarded Newton.

    ``fun(y, idx)`` returns (h, dh/dy, noise) for the elements ``idx`` at
    ``y``; an element is done when ``_newton_step`` stops it: a trusted
    Newton step of at most ``_TOL_STEP``, any step of at most ``_TOL_Y``,
    or |h| within its noise. ``fun`` raises when an iterate leaves the range
    it can evaluate. ``y``, ``lo`` and ``hi`` are updated in place;
    ``capped`` is ``_newton_step``'s.
    ``idx`` is a slice over every element until the first one settles, then
    the index array of the elements still active.
    """
    active = slice(None)
    for _ in range(_MAX_ITERATIONS):
        ya = y[active]
        h, dh, noise = fun(ya, active)
        lo[active], hi[active], y[active], moving = _newton_step(h, dh, noise, ya, lo[active], hi[active], capped)
        # count_nonzero: a fraction of the cost of .all() on small arrays
        if np.count_nonzero(moving) < moving.size:
            active = np.flatnonzero(moving) if isinstance(active, slice) else active[moving]
            if active.size == 0:
                return y
    raise NumericalLimitError(_NOT_SETTLED)


def _newton_one(fun, y, lo, hi, capped=True):
    """``_newton_increasing`` for one element on numpy float64 scalars; ``fun(y)`` gives (h, dh, noise)."""
    for _ in range(_MAX_ITERATIONS):
        h, dh, noise = fun(y)
        lo, hi, y, moving = _newton_step(h, dh, noise, y, lo, hi, capped)
        if not moving:
            return y
    raise NumericalLimitError(_NOT_SETTLED)


def _one(values):
    """The inputs as numpy float64 scalars and the shape they broadcast to, or None.

    None unless every input has one element: then they take the scalar pass.
    """
    if all(isinstance(v, float) for v in values):  # Python floats: the exact solver's calls
        return [np.float64(v) for v in values], ()
    arrays = [np.asarray(v, dtype=float) for v in values]
    if any(a.size != 1 for a in arrays):
        return None
    return [a.ravel()[0] for a in arrays], (1,) * max(a.ndim for a in arrays)


def _shaped(x, shape):
    """A scalar result in the shape its one-element inputs broadcast to."""
    return np.full(shape, x) if shape else x


def _shock_jump(p: PressureParams, ra, pa, rho, t1, t2, cs2_rho):
    """|u - u_a| across a shock from ra (with P(ra) = pa) to rho, and its y-derivative.

    ``t1``, ``t2`` are the cs2 terms at rho and ``cs2_rho`` their sum. The
    jump is the root of ``models.shock_radicand``, with P(rho) - P(ra) taken
    from the cs2 terms; the derivative, which has no rho*rho or ra*rho
    product that would overflow or underflow, holds only where the root is
    positive. The caller silences the floating-point warnings of the rest.
    """
    dp = rho * (t1 / p.n - t2 / p.alpha) - pa
    radicand = (1.0 / ra - 1.0 / rho) * dp
    # np.maximum(radicand, 0.0), NaN kept and -0.0 made 0.0, without its scalar call cost.
    root = np.sqrt(_where(radicand <= 0.0, 0.0, radicand))
    return root, (dp / rho + (rho / ra - 1.0) * cs2_rho) / (2.0 * root)


def _curve_distance(p: PressureParams, base, y):
    """Distance phi along wave curves from base densities ra to rho = e^y, and dphi/dy.

    ``base`` holds ra, log ra and P(ra), each of shape (sides, elements),
    and ``y`` one log density per element. phi is the rarefaction integral
    for rho <= ra and the shock jump sqrt(radicand) above, so u = u_a -/+ phi
    on the 1-curve / backward 2-curve; phi is increasing in y. The caller
    silences the floating-point warnings of the shock branch's derivative.
    """
    ra, ya, pa = base
    rho = np.exp(y)
    t1, t2 = _cs2_terms(p, y)
    cs2_rho = t1 + t2
    c = np.sqrt(cs2_rho)
    root, slope = _shock_jump(p, ra, pa, rho, t1, t2, cs2_rho)
    d_shock = np.where(root > 0.0, slope, c)
    rare = rho <= ra
    if not np.count_nonzero(rare):  # shocks only: no quadrature
        return root, d_shock
    phi = np.where(rare, 0.0, root)
    side, elem = rare.nonzero()  # y runs along the last axis of base
    phi[rare] = velocity_jump(p, ya[side, elem], y[elem])
    return phi, np.where(rare, c, d_shock)


_ESCAPED = "wave-curve intersection escaped the density range"


def _star_mismatch(phi_l, phi_r, du, scale):
    """Wave-curve mismatch h and its rounding level, per element."""
    return phi_l + phi_r - du, 4.0 * _EPS * (scale + abs(phi_l) + abs(phi_r))


def _beyond_range(h, y):
    """Elements at an end of the density range whose root lies further out.

    The caller raises ``NumericalLimitError`` for them, and for h not finite.
    """
    return ((h < 0.0) & (y >= _Y_MAX)) | ((h > 0.0) & (y <= _Y_MIN))


def _star_guess(du, cl, cr, yl, yr):
    """Newton's start: where the linearizations of both curves at the data meet.

    For strong waves that point lands far out on the exponential side of a
    curve, where Newton only creeps; it is kept within one capped step of the
    data, so the capped steps walk out to the root instead.
    """
    y0 = (du + cl * yl + cr * yr) / (cl + cr)
    return _clip(y0, np.minimum(yl, yr) - _MAX_STEP_Y, np.maximum(yl, yr) + _MAX_STEP_Y)


def _star_velocity(ul, ur, dy, phi_l, phi_r, dphi_l, dphi_r):
    """u* as the mean of both curves, each moved by dy from its last evaluation."""
    return 0.5 * ((ul - (phi_l + dphi_l * dy)) + (ur + (phi_r + dphi_r * dy)))


def star_state(p: PressureParams, rl, ul, rr, ur):
    """Intermediate (rho*, u*) of classical Riemann problems, elementwise.

    Newton in y = log rho on the mismatch of the forward 1-curve through the
    left state and the backward 2-curve through the right state, started
    from the intersection of their linearizations at the two base points.
    Inputs that broadcast to one element take the scalar pass
    (``_star_state_one``); its results are the array pass's to the bit.
    """
    one = _one((rl, ul, rr, ur))
    if one is not None:
        return _star_state_one(p, *one)
    A, B, n, alpha = p.A, p.B, p.n, p.alpha
    sides = np.stack([rl, rr])
    ys = np.log(sides)
    base = np.stack([sides, ys, pressure(A, B, n, alpha, sides)])
    du = ul - ur
    scale = np.abs(ul) + np.abs(ur)
    # Each element's last evaluation: y, phi and dphi/dy of both curves.
    seen = np.empty((5,) + du.shape)

    def mismatch(y, idx):
        phi, dphi = _curve_distance(p, base[..., idx], y)
        seen[0, idx], seen[1:3, idx], seen[3:, idx] = y, phi, dphi
        h, noise = _star_mismatch(phi[0], phi[1], du[idx], scale[idx])
        if np.count_nonzero(np.isfinite(h)) < h.size or (
            np.count_nonzero((y >= _Y_MAX) | (y <= _Y_MIN)) and np.count_nonzero(_beyond_range(h, y))
        ):
            raise NumericalLimitError(_ESCAPED)
        return h, dphi[0] + dphi[1], noise

    cl, cr = np.sqrt(cs2(A, B, n, alpha, sides))
    y = _star_guess(du, cl, cr, ys[0], ys[1])
    inf = np.full(y.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # once, not per step
        y = _newton_increasing(mismatch, y, -inf, inf.copy())
    # The last step moved y by at most _TOL_STEP: move phi along with it.
    y_seen, phi_l, phi_r, dphi_l, dphi_r = seen
    return np.exp(y), _star_velocity(ul, ur, y - y_seen, phi_l, phi_r, dphi_l, dphi_r)


def _star_state_one(p: PressureParams, values, shape):
    """``star_state`` on one element, in numpy float64 scalars, shaped as its inputs broadcast.

    The two sides' logs, pressures and sound speeds are taken as one
    2-element array, where ``**`` is the array pass's; each side's curve
    takes its rarefaction or its shock branch alone.
    """
    rl, ul, rr, ur = values
    A, B, n, alpha = p.A, p.B, p.n, p.alpha
    sides = np.array([rl, rr])
    (yl, yr), (pl, pr) = np.log(sides), pressure(A, B, n, alpha, sides)
    du = ul - ur
    scale = abs(ul) + abs(ur)
    seen = []  # the last evaluation: y, phi and dphi/dy of both curves

    def curve(ra, ya, pa, y, rho, t1, t2, cs2_rho, c):
        if rho <= ra:
            return velocity_jump(p, ya, y), c
        root, slope = _shock_jump(p, ra, pa, rho, t1, t2, cs2_rho)
        return root, (slope if root > 0.0 else c)

    def mismatch(y):
        rho = np.exp(y)
        t1, t2 = _cs2_terms(p, y)
        cs2_rho = t1 + t2
        c = np.sqrt(cs2_rho)
        phi_l, dphi_l = curve(rl, yl, pl, y, rho, t1, t2, cs2_rho, c)
        phi_r, dphi_r = curve(rr, yr, pr, y, rho, t1, t2, cs2_rho, c)
        seen[:] = y, phi_l, phi_r, dphi_l, dphi_r
        h, noise = _star_mismatch(phi_l, phi_r, du, scale)
        if not abs(h) < math.inf or _beyond_range(h, y):
            raise NumericalLimitError(_ESCAPED)
        return h, dphi_l + dphi_r, noise

    cl, cr = np.sqrt(cs2(A, B, n, alpha, sides))
    y = _star_guess(du, cl, cr, yl, yr)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = _newton_one(mismatch, y, np.float64(-np.inf), np.float64(np.inf))
    y_seen, phi_l, phi_r, dphi_l, dphi_r = seen
    us = _star_velocity(ul, ur, y - y_seen, phi_l, phi_r, dphi_l, dphi_r)
    return _shaped(np.exp(y), shape), _shaped(us, shape)


def _fan_residual(p: PressureParams, sign, ua, xi, jump, y):
    """(h, dh/dy, noise) of the fan-speed equation at y, with ``jump`` = J(ra, e^y), and c there.

    h = sign * (speed - xi) is increasing in y.
    """
    t1, t2 = _cs2_terms(p, y)
    c = np.sqrt(t1 + t2)
    speed = ua + sign * (jump + c)
    noise = 4.0 * _EPS * (abs(ua) + abs(jump) + c + abs(xi))
    # d(speed)/dy = sign * (2 cs2 + rho cs2') / (2c), nonnegative times sign.
    dh = ((p.n + 1.0) * t1 + (1.0 - p.alpha) * t2) / (2.0 * c)
    return sign * (speed - xi), dh, noise, c


# Below this |m| the fan start takes its m -> 0 limit, linear in y.
_FLAT_M = 1e-8


def _fan_start(sign, ua, xi, ya, yb, ca, cb):
    """Newton's start in a fan: its inversion in closed form, were c a power of rho.

    With c = ca (rho/ra)^(m/2) and m = 2 ln(cb/ca) / (yb - ya), which is
    exact when one cs2 term dominates the fan, J = (2/m)(c - ca), and the
    speed equation J + c = sign (xi - ua) gives c, hence
    y = ya + (2/m) log1p(m r / (m + 2)) with r = sign (xi - ua) / ca - 1
    (y = ya + r as m -> 0). No quadrature is needed. A start that is not
    finite is the bracket's midpoint; every start is clipped to the bracket.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = 2.0 * np.log(cb / ca) / (yb - ya)
        r = (sign * (xi - ua) - ca) / ca
        y = ya + _where(abs(m) > _FLAT_M, 2.0 / m * np.log1p(m / (m + 2.0) * r), r)
    lo, hi = np.minimum(ya, yb), np.maximum(ya, yb)
    return _clip(_where(np.isfinite(y), y, 0.5 * (lo + hi)), lo, hi), lo, hi


def _fan_velocity(sign, ua, dy, jump, c):
    """u in a fan, with the jump moved by dy from its last evaluation (dJ/dy = c)."""
    return ua + sign * (jump + c * dy)


def fan_state(p: PressureParams, sign, ra, ua, rb, xi):
    """State (rho, u) at speed xi inside rarefaction fans, elementwise.

    A fan of family 1 (``sign`` = -1) or 2 (``sign`` = +1) runs from the
    anchor (ra, ua) on its left to density rb, along u = ua + sign*J(ra, rho)
    with characteristic speed u + sign*c. Newton in y inverts the speed,
    inside [log ra, log rb]; data with xi outside the fan give its nearer end.
    Newton starts from ``_fan_start``, a closed form in the edge sound
    speeds alone. The bracket is finite from the start, so steps are not
    capped: a step that leaves it bisects it. The last step moves y by at
    most ``_TOL_STEP``, so u takes the last evaluated jump moved along by c
    times that step, as ``star_state`` moves phi, with no quadrature at the
    returned y: one quadrature per Newton evaluation in all. ECG inputs that
    broadcast to one element take the scalar pass (``_fan_state_one``); its
    results are the array pass's to the bit.
    """
    one = None if p.model is Model.GCG else _one((ra, ua, rb, xi))
    if one is not None:
        return _fan_state_one(p, sign, *one)
    # np.full to the common shape: np.broadcast_arrays costs several times as much per call.
    shape = np.broadcast(ra, ua, rb, xi).shape
    ra, ua, rb, xi = (
        np.asarray(v, dtype=float) if np.shape(v) == shape else np.full(shape, v, dtype=float)
        for v in (ra, ua, rb, xi)
    )
    if p.model is Model.GCG:
        return _gcg_fan_state(p, sign, ra, ua, rb, xi)
    ya, yb = np.log(ra), np.log(rb)
    ca, cb = (np.sqrt(cs2(p.A, p.B, p.n, p.alpha, r)) for r in (ra, rb))
    seen = np.empty((3,) + shape)  # each element's last evaluation: y, J and c

    def residual(y, idx):
        jump = velocity_jump(p, ya[idx], y)
        h, dh, noise, c = _fan_residual(p, sign, ua[idx], xi[idx], jump, y)
        seen[0, idx], seen[1, idx], seen[2, idx] = y, jump, c
        return h, dh, noise

    y, lo, hi = _fan_start(sign, ua, xi, ya, yb, ca, cb)
    y = _newton_increasing(residual, y, lo, hi, capped=False)
    y_seen, jump, c = seen
    return np.exp(y), _fan_velocity(sign, ua, y - y_seen, jump, c)


def _fan_state_one(p: PressureParams, sign, values, shape):
    """``fan_state`` on one ECG element, in numpy float64 scalars (see ``_star_state_one``)."""
    ra, ua, rb, xi = values
    ends = np.array([ra, rb])
    (ya, yb), (ca, cb) = np.log(ends), np.sqrt(cs2(p.A, p.B, p.n, p.alpha, ends))
    seen = []  # the last evaluation: y, J and c

    def residual(y):
        jump = velocity_jump(p, ya, y)
        h, dh, noise, c = _fan_residual(p, sign, ua, xi, jump, y)
        seen[:] = y, jump, c
        return h, dh, noise

    y, lo, hi = _fan_start(sign, ua, xi, ya, yb, ca, cb)
    y = _newton_one(residual, y, lo, hi, capped=False)
    y_seen, jump, c = seen
    return _shaped(np.exp(y), shape), _shaped(_fan_velocity(sign, ua, y - y_seen, jump, c), shape)


def _gcg_fan_state(p: PressureParams, sign, ra, ua, rb, xi):
    """``fan_state`` in closed form for A = 0.

    With c = sqrt(alpha B) rho^-m, m = (alpha+1)/2, the fan speed is
    ua + sign*(k ra^-m - q rho^-m) with k = sqrt(alpha B)/m and
    q = k - sqrt(alpha B), so rho^-m is linear in xi. For alpha = 1 the
    speed is the same across the fan (q = 0) and the anchor is returned.
    """
    m = 0.5 * (p.alpha + 1.0)
    k = math.sqrt(p.alpha * p.B) / m
    q = k - math.sqrt(p.alpha * p.B)
    za, zb = ra**-m, rb**-m
    if q == 0.0:
        return ra.copy(), ua.copy()
    z = np.clip((k * za - sign * (xi - ua)) / q, np.minimum(za, zb), np.maximum(za, zb))
    return z ** (-1.0 / m), ua + sign * k * (za - z)


def sample_classical(p: PressureParams, rl, ul, rr, ur, rs, us, xi):
    """State at xi of classical two-wave solutions through (rs, us), elementwise.

    Waves are typed as ``solver._wave_segment`` types them. A weak wave,
    whose density jump is within ``DEGENERATE_RTOL``, is skipped when its
    velocity jump is within ``DEGENERATE_RTOL * (1 + |ul| + |ur|)`` too, and
    otherwise kept with zero width at the mean of its end speeds, as is a
    fan whose edge speeds are out of order by rounding (``fan_inverted``).
    Exactly at a shock speed the state on its left is returned, as
    ``solver.sample`` does.
    """
    A, B, n, alpha = p.A, p.B, p.n, p.alpha
    xi = np.broadcast_to(np.asarray(xi, dtype=float), np.shape(rl))
    cl, cr, cs = (np.sqrt(cs2(A, B, n, alpha, r)) for r in (rl, rr, rs))
    have1 = np.abs(rs - rl) > DEGENERATE_RTOL * np.maximum(rs, rl)
    have2 = np.abs(rs - rr) > DEGENERATE_RTOL * np.maximum(rs, rr)
    shock1, shock2 = rs > rl, rs > rr
    with np.errstate(divide="ignore", invalid="ignore"):
        s1_lo = np.where(shock1, (rs * us - rl * ul) / (rs - rl), ul - cl)
        s2_lo = np.where(shock2, (rr * ur - rs * us) / (rr - rs), us + cs)
    s1_hi = np.where(shock1, s1_lo, us - cs)
    s2_hi = np.where(shock2, s2_lo, ur + cr)
    weak1, weak2 = ~have1, ~have2
    # Only a fan's edge speeds can be out of order: a shock's are equal.
    if np.count_nonzero(weak1 | weak2) or np.count_nonzero(s1_lo > s1_hi) or np.count_nonzero(s2_lo > s2_hi):
        u_scale = np.abs(ul) + np.abs(ur)
        flat1 = weak1 | fan_inverted(s1_lo, s1_hi, u_scale)
        flat2 = weak2 | fan_inverted(s2_lo, s2_hi, u_scale)
        du_tol = DEGENERATE_RTOL * (1.0 + u_scale)
        have1 = have1 | (np.abs(us - ul) > du_tol)
        have2 = have2 | (np.abs(ur - us) > du_tol)
        # Zero width, at the mean of the end characteristic speeds.
        mid1, mid2 = 0.5 * ((ul - cl) + (us - cs)), 0.5 * ((us + cs) + (ur + cr))
        s1_lo, s1_hi = np.where(flat1, mid1, s1_lo), np.where(flat1, mid1, s1_hi)
        s2_lo, s2_hi = np.where(flat2, mid2, s2_lo), np.where(flat2, mid2, s2_hi)

    left = have1 & (xi <= s1_lo)
    in_fan1 = have1 & ~shock1 & ~left & (xi <= s1_hi)
    past1 = ~(left | in_fan1)
    star = past1 & np.where(have2, xi <= s2_lo, have1)
    in_fan2 = past1 & have2 & ~shock2 & ~star & (xi <= s2_hi)
    right = past1 & have2 & ~star & ~in_fan2
    left |= past1 & ~have1 & ~have2
    # A fan's right edge is its right state exactly.
    star |= in_fan1 & (xi == s1_hi)
    in_fan1 &= xi != s1_hi
    right |= in_fan2 & (xi == s2_hi)
    in_fan2 &= xi != s2_hi

    rho = np.where(left, rl, np.where(star, rs, rr))
    u = np.where(left, ul, np.where(star, us, ur))
    for sign, fan, anchor_rho, anchor_u, end_rho in (
        (-1.0, in_fan1, rl, ul, rs),
        (1.0, in_fan2, rs, us, rr),
    ):
        if fan.any():
            rho[fan], u[fan] = fan_state(
                p, sign, anchor_rho[fan], anchor_u[fan], end_rho[fan], xi[fan]
            )
    return rho, u


def _state_flux(p: PressureParams, rho, u):
    mass = rho * u
    if p.model is Model.TRANSPORT:
        return mass, mass * u
    with np.errstate(divide="ignore", invalid="ignore"):
        pres = np.where(rho > 0.0, pressure(p.A, p.B, p.n, p.alpha, rho), 0.0)
    return mass, mass * u + pres


def _sides(a):
    """Values left and right of each interface, with outflow ghost cells."""
    return np.concatenate((a[:1], a)), np.concatenate((a, a[-1:]))


def max_abs_speed(p: PressureParams, rho, u):
    """Largest |u| + c over the cells (c = 0 for transport and empty cells)."""
    if p.model is Model.TRANSPORT:
        return float(np.max(np.abs(u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(rho > 0.0, np.sqrt(cs2(p.A, p.B, p.n, p.alpha, rho)), 0.0)
    return float(np.max(np.abs(u) + c))


def lf_flux(p: PressureParams, rho, u, lam):
    """Lax-Friedrichs fluxes at all interfaces, with numerical speed ``lam`` = dx/dt."""
    frho, fmom = _state_flux(p, rho, u)
    (rl, rr), (ul, ur) = _sides(rho), _sides(u)
    (fl_r, fr_r), (fl_m, fr_m) = _sides(frho), _sides(fmom)
    return (
        0.5 * (fl_r + fr_r) - 0.5 * lam * (rr - rl),
        0.5 * (fl_m + fr_m) - 0.5 * lam * (rr * ur - rl * ul),
    )


def godunov_flux(p: PressureParams, rho, u, lam):
    """Godunov fluxes at all interfaces, and how many fell back to Lax-Friedrichs.

    Interfaces whose Riemann problem has a delta shock (transport with
    u_l > u_r, GCG in the delta region) take the Lax-Friedrichs flux;
    vacuum and contact transport interfaces take the upwind flux.
    """
    frho_c, fmom_c = _state_flux(p, rho, u)
    (rl, rr), (ul, ur) = _sides(rho), _sides(u)
    (fl_r, fr_r), (fl_m, fr_m) = _sides(frho_c), _sides(fmom_c)
    frho, fmom = fl_r.copy(), fl_m.copy()
    if p.model is Model.TRANSPORT:
        delta = ul > ur
        upwind_right = (ul < 0.0) & ((ul == ur) | (ur <= 0.0))
        frho = np.where(upwind_right, fr_r, frho)
        fmom = np.where(upwind_right, fr_m, fmom)
        vacuum = (ul < 0.0) & (ur > 0.0)
        frho[vacuum] = 0.0
        fmom[vacuum] = 0.0
    else:
        trivial = (rl == rr) & (ul == ur)
        delta = np.zeros_like(trivial)
        if p.model is Model.GCG:
            delta = ~trivial & gcg_delta_region(p, rl, ul, rr, ur)
        cls = ~trivial & ~delta
        if cls.any():
            sub = (rl[cls], ul[cls], rr[cls], ur[cls])
            rs, us = star_state(p, *sub)
            frho[cls], fmom[cls] = _state_flux(p, *sample_classical(p, *sub, rs, us, 0.0))
    if delta.any():
        lf_rho, lf_mom = lf_flux(p, rho, u, lam)
        frho = np.where(delta, lf_rho, frho)
        fmom = np.where(delta, lf_mom, fmom)
    return frho, fmom, int(np.count_nonzero(delta))


def step(p: PressureParams, rho, mom, dx: float, cfl: float, t_left: float, godunov: bool):
    """One conservative update of all cells, at the CFL time step capped by ``t_left``.

    Returns (rho, mom, dt, smax, frho, fmom, fallbacks): the new cell
    averages, the step taken, the largest wave speed, the interface fluxes
    and the number of Godunov interfaces fluxed with Lax-Friedrichs.
    """
    u = np.divide(mom, rho, out=np.zeros_like(mom), where=rho > 0.0)  # 0 in empty cells
    smax = max_abs_speed(p, rho, u)
    if not math.isfinite(smax):
        raise NumericalLimitError("wave speed is not finite")
    dt = t_left if smax <= 0.0 else min(cfl * dx / smax, t_left)
    lam = dx / dt
    if godunov:
        frho, fmom, fallbacks = godunov_flux(p, rho, u, lam)
    else:
        (frho, fmom), fallbacks = lf_flux(p, rho, u, lam), 0
    k = dt / dx
    rho = rho - k * (frho[1:] - frho[:-1])
    mom = mom - k * (fmom[1:] - fmom[:-1])
    return rho, mom, dt, smax, frho, fmom, fallbacks
