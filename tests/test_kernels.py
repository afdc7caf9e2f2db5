"""The whole-array finite-volume core against the exact solver and closed forms."""

import math

import numpy as np
import pytest

import chapgas
from chapgas import (
    NumericalLimitError,
    PressureParams,
    SegmentKind,
    State,
    classify_gcg,
    fvcore,
    sample,
    solve,
)
from chapgas.models import cs2_law, gcg_asymptote, pressure
from chapgas.solver import sample_arrays
from oracles import (
    bisection_star_state,
    curve_one_u,
    curve_two_u,
    integrate,
    lax_friedrichs_by_sides,
    newton_one_to_tol_y,
    panel_loop_velocity_jump,
    same_bits as _same_bits,
)


def _arrays(*values):
    return tuple(np.array([v], dtype=float) for v in values)


def _flux(p, rho, u):
    return rho * u, rho * u * u + (pressure(p, rho) if rho > 0.0 else 0.0)


def _godunov_flux_on_cells(p, rho, u, lam):
    """``fvcore.godunov_flux`` on bare cells, padded with outflow ghost cells as a run pads them."""
    return fvcore.godunov_flux(p, fvcore._padded(rho), fvcore._padded(u), lam)


def _godunov_interface_flux(p, left, right):
    """Core Godunov flux at the one interior interface of a two-cell grid."""
    rho = np.array([left.rho, right.rho])
    u = np.array([left.u, right.u])
    frho, fmom, fallbacks = _godunov_flux_on_cells(p, rho, u, 10.0)
    return frho[1], fmom[1], fallbacks


def _assert_flux_matches_sample(p, left, right):
    frho, fmom, fallbacks = _godunov_interface_flux(p, left, right)
    assert fallbacks == 0
    pt = sample(solve(p, left, right), 0.0)
    want_rho, want_mom = _flux(p, pt.rho, pt.u)
    assert frho == pytest.approx(want_rho, rel=1e-6, abs=1e-9)
    assert fmom == pytest.approx(want_mom, rel=1e-6, abs=1e-9)


def test_kernel_integral_matches_library_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(30):
        A = rng.uniform(0.01, 1.0)
        B = rng.uniform(0.01, 1.0)
        n = rng.uniform(1.0, 3.0)
        alpha = rng.uniform(0.05, 1.0)
        lo = rng.uniform(0.02, 1.0)
        hi = lo * rng.uniform(1.1, 50.0)

        def f(s):
            return math.sqrt(A * n * s ** (n - 1.0) + alpha * B * s ** (-alpha - 1.0)) / s

        p = PressureParams.ecg(A, B, n, alpha)
        assert fvcore.velocity_jump(p, math.log(lo), math.log(hi)) == pytest.approx(
            integrate(f, lo, hi), rel=1e-10, abs=1e-12
        )


def test_kernel_star_state_matches_solver():
    # solve() takes rho* from the core's Newton; the oracle bisects in rho.
    rng = np.random.default_rng(42)
    for _ in range(40):
        A = rng.uniform(0.01, 1.0)
        B = rng.uniform(0.01, 1.0)
        n = rng.uniform(1.0, 3.0)
        alpha = rng.uniform(0.05, 1.0)
        p = PressureParams.ecg(A, B, n, alpha)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))
        right = State(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))
        sol = solve(p, left, right)
        want = bisection_star_state(p, left, right)
        assert sol.intermediate.rho == pytest.approx(want.rho, rel=1e-8)
        assert sol.intermediate.u == pytest.approx(want.u, abs=1e-8)


def _sample_cases():
    """Random ECG and GCG data (a third of GCG at alpha = 1), data next to a curve, and weak waves.

    Data next to a curve lie 1e-14 to 1e-9 in u off the 1-curve or the
    2-curve through the left state, so that one wave is tiny or dropped.
    """
    rng = np.random.default_rng(43)

    def state():
        return State(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))

    def ecg():
        return PressureParams.ecg(*rng.uniform(0.02, 0.5, 2), rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0))

    def gcg(k):
        return PressureParams.gcg(rng.uniform(0.02, 0.5), 1.0 if k % 3 == 0 else rng.uniform(0.1, 1.0))

    cases = [(ecg(), state(), state()) for _ in range(25)]
    cases += [(gcg(k), state(), state()) for k in range(15)]
    for k in range(24):
        p, left, r = ecg() if k % 2 else gcg(k // 2), state(), rng.uniform(0.3, 2.0)
        u = (curve_one_u if k % 4 < 2 else curve_two_u)(p, left, r)
        cases.append((p, left, State(r, u + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -9.0))))
    # Near vacuum c is about 1e149, so both waves of a unit velocity jump are weak: kept, zero-width.
    for p in (PressureParams.ecg(0.1, 0.1, 2.0, 0.5), PressureParams.gcg(0.1, 0.5)):
        cases += [(p, State(1e-200, 0.0), State(1e-200, 1.0)), (p, State(1e-200, 1.0), State(1e-200, -1.0))]
    return rng, cases


def _fronts_pattern(p, data):
    """``solve``'s pattern label, spelled from ``fvcore.wave_fronts`` on one-element arrays."""
    rl, ul, rr, ur, rs, us = (np.array([v]) for v in data)
    cl, cr, cs = (np.sqrt(cs2_law(p.A, p.B, p.n, p.alpha, r)) for r in (rl, rr, rs))
    contact = p.model is chapgas.Model.GCG and p.alpha == 1.0
    tags = [
        ("J" if contact else "R" if rare[0] else "S") + str(k)
        for k, (kept, rare, _, _) in enumerate(fvcore.wave_fronts(p, rl, ul, rr, ur, rs, us, cl, cr, cs), 1)
        if kept[0]
    ]
    return "+".join(tags) or "constant"


def test_kernel_sample_matches_solver_sample():
    # The Godunov flux's sampler and solve() + sample() share the wave rule:
    # the same bits away from the wave edges, where the sound speeds of the
    # two (numpy arrays against Python floats) may differ in the last bit.
    rng, cases = _sample_cases()
    kinds = set()
    for p, left, right in cases:
        sol = solve(p, left, right)
        if sol.delta is not None:
            continue
        rs, us = fvcore.star_state(p, *_arrays(left.rho, left.u, right.rho, right.u))
        data = (left.rho, left.u, right.rho, right.u, rs[0], us[0])
        assert _fronts_pattern(p, data) == sol.pattern()
        kinds.add(sol.pattern())
        edges = [xi for seg in sol.segments for xi in (seg.xi_lo, seg.xi_hi) if math.isfinite(xi)]
        xis = list(rng.uniform(-3.0, 3.0, 8))
        xis += [0.5 * (seg.xi_lo + seg.xi_hi) for seg in sol.segments if seg.kind is SegmentKind.FAN]
        xis = np.array([xi for xi in xis if all(abs(xi - e) > 1e-12 for e in edges)])
        kr, ku = fvcore.sample_classical(p, *(np.full(xis.shape, v) for v in data), xis)
        want = [(pt.rho, pt.u) for pt in (sample(sol, float(xi)) for xi in xis)]
        if sol.pattern() in ("R2", "S2", "J2"):
            # With the 1-wave dropped, solve() starts from the left datum and
            # the flux's sampler from the star state, DEGENERATE_RTOL apart.
            want = [(rs[0], us[0]) if xi < sol.segments[1].xi_lo else w for xi, w in zip(xis, want)]
        assert _same_bits(kr, [w[0] for w in want]) and _same_bits(ku, [w[1] for w in want])
    # Every classical pattern, GCG contacts and one-wave solutions among them.
    assert {"R1+R2", "R1+S2", "S1+R2", "S1+S2", "J1+J2", "R1", "S2"} <= kinds


def test_kernel_gcg_closed_forms():
    # A = 0 velocity jump has a closed form; the core must use it exactly.
    p = PressureParams.gcg(1.0, 1.0)
    assert fvcore.velocity_jump(p, math.log(0.5), 0.0) == pytest.approx(1.0, rel=1e-14)
    assert fvcore.velocity_jump(PressureParams.transport(), math.log(0.5), 0.0) == 0.0


# 346 e-folds take 500 one-octave panels; 0.5 e-folds take one.
_WIDE = 346.0


@pytest.mark.parametrize(
    "ya, yb",
    [
        (0.0, -3.0),  # 0-d, ya > yb
        (np.log(0.7), 0.0),  # 0-d, one panel
        (np.empty(0), np.empty(0)),
        (np.zeros((2, 3)), np.array([[-0.5, -5.0, 0.0], [2.0, -_WIDE, 0.3]])),  # 2-D
        (0.0, np.array([-0.5, -_WIDE, 0.5, _WIDE, -1e-9, 0.0])),  # 1 and 500 panels, both signs
        (np.array([5.0, -_WIDE, 0.0]), np.array([-_WIDE, 5.0, -0.25])),  # ya > yb and ya < yb
        # One element, the scalar pass: shapes (1,) and (1, 1) come back as they broadcast.
        (np.array([0.0]), -3.0),
        (np.array([[0.0]]), np.array([[-3.0]])),
        (np.array([2.0]), np.array([[-_WIDE]])),
        (0.0, -0.5),
        (-0.5, 0.0),
        (0.0, -_WIDE),
        (-_WIDE, 0.0),
        (0.0, 0.0),
    ],
)
def test_velocity_jump_is_the_panel_loop_bitwise(ya, yb):
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    assert _same_bits(fvcore.velocity_jump(p, ya, yb), panel_loop_velocity_jump(p, ya, yb))


@pytest.mark.parametrize(
    "ya, yb", [(0.0, 800.0), (np.array([0.0]), 800.0), (np.zeros(2), np.array([800.0, 1.0]))]
)
def test_velocity_jump_overflow_is_inf_like_the_panel_loop(ya, yb):
    # c^2 = A n rho passes 1e308 near rho = e^710: numpy gives inf (and warns
    # unless the caller silences it); it does not raise a Python OverflowError.
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    with pytest.warns(RuntimeWarning, match="overflow"):
        fvcore.velocity_jump(p, ya, yb)
    with np.errstate(over="ignore"):
        got = fvcore.velocity_jump(p, ya, yb)
        assert _same_bits(got, panel_loop_velocity_jump(p, ya, yb))
    assert np.ravel(got)[0] == math.inf


def test_velocity_jump_is_the_panel_loop_bitwise_on_random_ecg():
    rng = np.random.default_rng(71)
    for _ in range(40):
        A, B = 10.0 ** rng.uniform(-14.0, 0.0, 2)
        p = PressureParams.ecg(A, B, rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        size = int(rng.integers(1, 30))
        ya = rng.uniform(-300.0, 10.0, size)
        width = rng.choice([0.3, 3.0, 30.0, 300.0], size) * rng.uniform(-1.0, 1.0, size)
        yb = np.clip(ya + width, -300.0, 10.0)
        assert _same_bits(fvcore.velocity_jump(p, ya, yb), panel_loop_velocity_jump(p, ya, yb))
        # The first element alone, as a size-1 array: the scalar pass.
        one = ya[:1], yb[:1]
        assert _same_bits(fvcore.velocity_jump(p, *one), panel_loop_velocity_jump(p, *one))


def test_velocity_jump_element_does_not_depend_on_its_neighbours():
    # An array call equals one scalar call per element, to the bit.
    p = PressureParams.ecg(1e-3, 0.2, 1.5, 0.8)
    ya = np.array([0.0, -2.0, 4.0, -200.0, 1.0, 0.0])
    yb = np.array([-0.1, -2.0 - _WIDE / 4, -90.0, 3.0, 1.5, _WIDE / 2])
    got = fvcore.velocity_jump(p, ya, yb)
    for i in range(ya.size):
        assert _same_bits(got[i], fvcore.velocity_jump(p, ya[i], yb[i]))
        assert _same_bits(got[i : i + 1], fvcore.velocity_jump(p, ya[i : i + 1], yb[i : i + 1]))


def test_kernel_transport_flux_cases():
    p = PressureParams.transport()
    rho = np.array([1.0, 1.0])
    # colliding states: delta at the interface, LF fallback reported
    frho, fmom, nf = _godunov_flux_on_cells(p, rho, np.array([1.0, -1.0]), 10.0)
    assert nf == 1
    assert frho[1] == 0.5 * (1.0 - 1.0) - 0.5 * 10.0 * 0.0
    assert fmom[1] == 0.5 * (1.0 + 1.0) - 0.5 * 10.0 * (-1.0 - 1.0)
    # expanding states: vacuum at the interface, zero flux
    frho, fmom, nf = _godunov_flux_on_cells(p, rho, np.array([-1.0, 1.0]), 10.0)
    assert nf == 0
    assert frho[1] == 0.0 and fmom[1] == 0.0
    # both states moving left (right): upwind from the right (left) cell
    frho, fmom, nf = _godunov_flux_on_cells(p, np.array([1.0, 2.0]), np.array([-2.0, -1.0]), 10.0)
    assert nf == 0 and frho[1] == -2.0 and fmom[1] == 2.0
    frho, fmom, nf = _godunov_flux_on_cells(p, np.array([1.0, 2.0]), np.array([1.0, 2.0]), 10.0)
    assert nf == 0 and frho[1] == 1.0 and fmom[1] == 1.0
    # contact: the density jump rides with the common velocity
    for u, want in ((0.5, 1.0 * 0.5), (-0.5, 3.0 * -0.5)):
        frho, fmom, nf = _godunov_flux_on_cells(p, np.array([1.0, 3.0]), np.array([u, u]), 10.0)
        assert nf == 0 and frho[1] == want and fmom[1] == want * u


def test_kernel_max_speed():
    rho = np.array([1.0, 4.0])
    u = np.array([2.0, -1.0])
    rho, u = fvcore._padded(rho), fvcore._padded(u)
    assert fvcore.max_abs_speed(PressureParams.transport(), rho, u) == 2.0
    s = fvcore.max_abs_speed(PressureParams.gcg(1.0, 1.0), rho, u)
    assert s == pytest.approx(2.0 + 1.0)  # |u| + sqrt(alpha B) rho^-(alpha+1)/2 at cell 0


def test_godunov_flux_matches_exact_sample_on_random_pairs():
    rng = np.random.default_rng(44)
    checked = 0
    for k in range(60):
        # alpha = 1 makes the GCG waves contact-like.
        alpha = 1.0 if k % 4 == 0 else rng.uniform(0.05, 1.0)
        if k % 2:
            p = PressureParams.ecg(*rng.uniform(0.01, 1.0, 2), rng.uniform(1.0, 3.0), alpha)
        else:
            p = PressureParams.gcg(rng.uniform(0.05, 1.0), alpha)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))
        right = State(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))
        if p.model is chapgas.Model.GCG and classify_gcg(p, left, right).tag == "V":
            assert _godunov_interface_flux(p, left, right)[2] == 1
            continue
        _assert_flux_matches_sample(p, left, right)
        checked += 1
    assert checked >= 40


def test_godunov_flux_inside_transonic_fans():
    # Fans built from the star outward, with xi = 0 strictly inside them.
    rng = np.random.default_rng(45)
    for k in range(20):
        p = PressureParams.ecg(*rng.uniform(0.05, 1.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0))
        r_star, r_fan = sorted(rng.uniform(0.3, 3.0, 2))  # either fan ends at its densest state
        jump = float(fvcore.velocity_jump(p, math.log(r_star), math.log(r_fan)))
        c_fan, c_star = (math.sqrt(chapgas.sound_speed_sq(p, r)) for r in (r_fan, r_star))
        if k % 2 == 0:  # 1-fan from the left state down to the star: ul - c_fan < 0 < u* - c_star
            ul = rng.uniform(c_star - jump, c_fan)
            left = State(r_fan, ul)
            star = State(r_star, curve_one_u(p, left, r_star))
            r_other = rng.uniform(0.3, 3.0)
            right = State(r_other, curve_two_u(p, star, r_other))
            assert left.u - c_fan < 0.0 < star.u - c_star
        else:  # 2-fan from the star up to the right state: u* + c_star < 0 < ur + c_fan
            ur = rng.uniform(-c_fan, jump - c_star)
            right = State(r_fan, ur)
            star = State(r_star, ur - jump)
            r_other = rng.uniform(0.3, 3.0)
            # curve_one_u is u_left plus a shift that depends on the densities alone.
            left = State(r_other, star.u - curve_one_u(p, State(r_other, 0.0), star.rho))
            assert star.u + c_star < 0.0 < right.u + c_fan
        fans = [s for s in solve(p, left, right).segments if s.kind is SegmentKind.FAN]
        assert any(s.xi_lo < 0.0 < s.xi_hi for s in fans)
        _assert_flux_matches_sample(p, left, right)


def test_godunov_flux_near_equal_neighbours():
    rng = np.random.default_rng(46)
    for k in range(20):
        p = PressureParams.ecg(*rng.uniform(0.01, 1.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        rho = rng.uniform(0.2, 3.0)
        u = rng.uniform(-1.5, 1.5)
        ratio = 1.0 + (1e-12 if k % 2 else -1e-12)
        left, right = State(rho, u), State(rho * ratio, u + rng.uniform(-1e-12, 1e-12))
        _assert_flux_matches_sample(p, left, right)


_WEAK_RHO, _WEAK_U = float.fromhex("0x1.cbd22bb59aaaep+1"), float.fromhex("0x1.34da0e7ccedeap-6")

README_DATA = [
    # Interface data from the README fv example: Newton's last step falls
    # below the resolution of log rho while the bracket is still open below.
    (State(_WEAK_RHO, _WEAK_U), State(_WEAK_RHO, -_WEAK_U)),
    # |u_l - u_r| = 200: the linearized guess lies near log rho = -+200,
    # far beyond rho* = 4.3e-4 (two fans) or 317 (two shocks).
    # (-10, 190) puts xi = 0 inside the 1-fan; (190, -10) moves both
    # shocks right of it.
    (State(1.0, -100.0), State(1.0, 100.0)),
    (State(1.0, 100.0), State(1.0, -100.0)),
    (State(1.0, -10.0), State(1.0, 190.0)),
    (State(1.0, 190.0), State(1.0, -10.0)),
]


@pytest.mark.parametrize("left, right", README_DATA)
def test_star_state_and_flux_on_readme_parameters(left, right):
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    sol = solve(p, left, right)
    rs, us = fvcore.star_state(p, *_arrays(left.rho, left.u, right.rho, right.u))
    assert rs[0] == pytest.approx(sol.intermediate.rho, rel=1e-8)
    assert us[0] == pytest.approx(sol.intermediate.u, abs=1e-8 * max(1.0, abs(left.u - right.u)))
    _assert_flux_matches_sample(p, left, right)


# Star states of the README parameters on (rho_l, 0) | (1, 0), a 1-shock out of
# near-vacuum and a 2-fan: the shock curve and the fan curve (Gauss-Legendre
# in log rho on 200 equal panels; 100 panels agree to 30 digits) intersected
# by secant iteration in log rho with mpmath at 50 digits, rounded to 40.
STAR_STATE_REFERENCES = [
    (1e-150, "2.516210723471010150450223935893465016775e-150",
     "-4.719146743824941693197698443570300845301e111"),
    (1e-200, "2.516210723471010150450223935893465016775e-200",
     "-1.492325232305396284353165303257118710015e149"),
]


def _core_star_state(p, rho_l):
    rs, us = fvcore.star_state(p, *_arrays(rho_l, 0.0, 1.0, 0.0))
    return rs[0], us[0]


def _solve_star_state(p, rho_l):
    mid = solve(p, State(rho_l, 0.0), State(1.0, 0.0)).intermediate
    return mid.rho, mid.u


def _batch_star_state(p, rho_l):
    # The array pass: the datum and its mirror image in one call.
    rs, us = fvcore.star_state(p, np.array([rho_l, 1.0]), np.zeros(2), np.array([1.0, rho_l]), np.zeros(2))
    assert rs[1] == rs[0] and us[1] == -us[0]
    return rs[0], us[0]


@pytest.mark.parametrize(
    "star, rho_l, rho_star, u_star",
    [
        pytest.param(star, *ref, id=prefix + ref_id)
        for star, prefix in ((_core_star_state, ""), (_solve_star_state, "solve-"), (_batch_star_state, "batch-"))
        for ref, ref_id in zip(STAR_STATE_REFERENCES, ("1e-150", "1e-200"))
    ],
)
def test_star_state_across_extreme_density_ratios(star, rho_l, rho_star, u_star):
    # The shock branch's dphi/dy once overflowed here, and Newton took the
    # step -h/inf = 0 as converged: rho* came back 23 % low and u* NaN.
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    rs, us = star(p, rho_l)
    assert abs(rs - float(rho_star)) <= 1e-12 * float(rho_star)
    assert abs(us - float(u_star)) <= 1e-12 * abs(float(u_star))


def _newton_arrays(roots):
    def fun(y, idx):  # roots at ``roots``, derivative reported as inf
        return y - roots[idx], np.full(y.shape, np.inf), np.zeros(y.shape)

    size = roots.size
    return fvcore._newton_increasing(fun, np.zeros(size), np.full(size, -np.inf), np.full(size, np.inf))


def _newton_scalar(root):
    def fun(y):
        return y - root, np.float64(np.inf), np.float64(0.0)

    return fvcore._newton_one(fun, np.float64(0.0), np.float64(-np.inf), np.float64(np.inf))


@pytest.mark.parametrize("newton", ["alone", "batch", "scalar"])
def test_newton_does_not_stop_on_an_infinite_derivative(newton):
    if newton == "scalar":
        y = _newton_scalar(np.float64(1.0))
    else:
        roots = np.array([1.0, 3.0] if newton == "batch" else [1.0])
        y = _newton_arrays(roots)
        assert np.all(np.abs(y - roots) <= 1e-12)
        if newton == "batch":
            assert _same_bits(y[1], _newton_scalar(np.float64(3.0)))
        y = y[0]
    assert abs(y - 1.0) <= 1e-12


@pytest.mark.parametrize("batch", [False, True], ids=["alone", "batch"])
@pytest.mark.parametrize(
    "p, datum, message",
    [
        # Colliding at 1e150 against a tiny pressure: rho* lies beyond 1e305,
        # further than capped steps of 4 in log rho climb in 100 steps.
        (PressureParams.ecg(1e-10, 1e-10, 1.0, 0.5), (1.0, 1e150, 1.0, -1e150), "did not settle in 100 steps"),
        # A 1-shock out of 1e-300 into (1, 0): rho* lies below 1e-300.
        (PressureParams.ecg(0.1, 0.1, 2.0, 0.5), (1e-300, 0.0, 1.0, 0.0), "escaped the density range"),
    ],
    ids=["no-settle", "escape"],
)
def test_star_state_escape_raises_numerical_limit_error(p, datum, message, batch):
    # Both passes raise the same error, whatever else shares the call.
    values = _arrays(*datum)
    if batch:  # one more element, an R1+S2 that solves alone
        values = tuple(np.append(v, w) for v, w in zip(values, (1.0, 0.2, 0.25, -0.32)))
    # c^2 overflows at 1e-300 while the guess is set up.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalLimitError, match=message):
        fvcore.star_state(p, *values)


def _random_star_data():
    """(p, rl, ul, rr, ur) groups: ECG and GCG data over six decades of density."""
    rng = np.random.default_rng(81)
    groups = []
    for k in range(48):
        if k % 2:
            p = PressureParams.gcg(10.0 ** rng.uniform(-2.0, 0.0), rng.uniform(0.05, 1.0))
        else:
            p = PressureParams.ecg(*10.0 ** rng.uniform(-3.0, 0.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        rl, rr = 10.0 ** rng.uniform(-3.0, 3.0, (2, 60))
        ul, ur = rng.uniform(-2.0, 2.0, (2, 60))
        if p.model is chapgas.Model.GCG:  # no delta shocks: those have no star state
            keep = ur + gcg_asymptote(p, rr) > ul - gcg_asymptote(p, rl)
            rl, ul, rr, ur = (a[keep] for a in (rl, ul, rr, ur))
        groups.append((p, rl, ul, rr, ur))
    readme = [(left.rho, left.u, right.rho, right.u) for left, right in README_DATA]
    readme += [(rho_l, 0.0, 1.0, 0.0) for rho_l, *_ in STAR_STATE_REFERENCES]
    readme += [(1e-200, 0.0, 1e-200, 1.0), (1e-200, 1.0, 1e-200, 0.0)]  # weak waves near vacuum
    rows = np.array([[float(v) for v in row] for row in readme])
    groups.append((PressureParams.ecg(0.1, 0.1, 2.0, 0.5), *rows.T))
    return groups


def test_star_state_element_does_not_depend_on_its_batch():
    # The scalar pass (one element) and the array pass give the same bits.
    checked = 0
    for p, *data in _random_star_data():
        rs, us = fvcore.star_state(p, *data)
        for i in range(rs.size):
            alone = fvcore.star_state(p, *(v[i : i + 1] for v in data))
            assert _same_bits(alone[0], rs[i : i + 1]) and _same_bits(alone[1], us[i : i + 1])
            checked += 1
    assert checked >= 2000


def _cs2_terms_with_the_zero_a_term(p, y):
    """``fvcore._cs2_terms`` computing the A-term, 0.0 * exp(0 * y) for GCG, at every y."""
    return p.A * p.n * np.exp((p.n - 1.0) * y), p.alpha * p.B * np.exp(-(p.alpha + 1.0) * y)


def _star_states_both_passes(p, data):
    """The array pass's star states, and each element's by the scalar pass."""
    return fvcore.star_state(p, *data), [fvcore.star_state(p, *_arrays(*row)) for row in zip(*data)]


def test_gcg_star_states_without_the_zero_a_term_are_bitwise_the_same(monkeypatch):
    rng = np.random.default_rng(19)
    # Densities over the range where rho^-(alpha + 1) in c^2 lies within
    # 1e-300 to 1e300: from 1e-299.7 to 1e299.7 at alpha = 0.001, 1e-150 to 1e150 at alpha = 1.
    for B, alpha in [(1.0, 0.001), (0.1, 0.3), (1.0, 0.5), (0.5, 1.0)]:
        p = PressureParams.gcg(B, alpha)
        hi = 300.0 / (1.0 + alpha)
        lo = -hi
        rl, rr = 10.0 ** rng.uniform(lo, hi, (2, 60))
        rl[:2], rr[:2] = [10.0**lo, 10.0**hi], [10.0**hi, 10.0**lo]
        # Velocities up to half the region-V asymptote at each side: never a delta shock.
        ul, ur = rng.uniform(-0.5, 0.5, (2, 60)) * (gcg_asymptote(p, rl), gcg_asymptote(p, rr))
        data = (rl, ul, rr, ur)
        got = _star_states_both_passes(p, data)
        with monkeypatch.context() as m:
            m.setattr(fvcore, "_cs2_terms", _cs2_terms_with_the_zero_a_term)
            want = _star_states_both_passes(p, data)
        assert _same_bits(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert _same_bits(a, b)


def test_fan_state_element_does_not_depend_on_its_batch():
    rng = np.random.default_rng(82)
    checked = 0
    for k in range(40):
        p = PressureParams.ecg(*10.0 ** rng.uniform(-3.0, 0.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        sign = -1.0 if k % 2 else 1.0
        ra, rb = 10.0 ** rng.uniform(-3.0, 3.0, (2, 52))
        ua = rng.uniform(-2.0, 2.0, 52)
        # Speeds across each fan and a little beyond its edges.
        c_a, c_b = (np.sqrt(chapgas.models.cs2_law(p.A, p.B, p.n, p.alpha, r)) for r in (ra, rb))
        lam_a = ua + sign * c_a
        lam_b = ua + sign * (fvcore.velocity_jump(p, np.log(ra), np.log(rb)) + c_b)
        xi = lam_a + rng.uniform(-0.1, 1.1, 52) * (lam_b - lam_a)
        rho, u = fvcore.fan_state(p, sign, ra, ua, rb, xi)
        for i in range(rho.size):
            alone = fvcore.fan_state(p, sign, ra[i : i + 1], ua[i : i + 1], rb[i : i + 1], xi[i : i + 1])
            assert _same_bits(alone[0], rho[i : i + 1]) and _same_bits(alone[1], u[i : i + 1])
            checked += 1
    assert checked >= 2000


@pytest.mark.parametrize("right_u", [1.0, -1.0], ids=["fans", "shocks"])
def test_kernel_keeps_weak_waves_near_vacuum(right_u):
    # At rho = 1e-200 the sound speed is 2.2e149: a unit velocity jump moves
    # rho by far less than DEGENERATE_RTOL, and both waves stay, as in solve().
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    left, right = State(1e-200, 0.0), State(1e-200, right_u)
    pt = sample(solve(p, left, right), 0.0)
    assert pt.u == 0.5 * right_u
    rs, us = fvcore.star_state(p, *_arrays(left.rho, left.u, right.rho, right.u))
    kr, ku = fvcore.sample_classical(p, *_arrays(left.rho, left.u, right.rho, right.u), rs, us, 0.0)
    assert (kr[0], ku[0]) == (pt.rho, pt.u)
    frho, _, _ = _godunov_interface_flux(p, left, right)
    assert frho == pt.rho * pt.u
    _assert_flux_matches_sample(p, left, right)


@pytest.mark.parametrize(
    "p, left, right",
    [
        (PressureParams.ecg(0.1, 0.1, 2.0, 0.5), State(1.0, 0.2), State(0.25, -0.32)),
        (PressureParams.ecg(0.5, 0.2, 1.0, 0.3), State(0.5, -1.0), State(2.0, 1.5)),
        (PressureParams.gcg(0.5, 0.6), State(1.0, 0.0), State(1.5, 0.9)),
        (PressureParams.gcg(0.1, 0.5), State(1.0, 1.0), State(1.0, -1.0)),
        (PressureParams.transport(), State(1.0, -0.5), State(2.0, 0.5)),
        (PressureParams.transport(), State(4.0, 2.0), State(1.0, -1.0)),
        (PressureParams.gcg(0.5, 0.6), State(1.0, -1.0), State(1.5, 1.0)),  # two GCG fans
    ],
)
def test_sample_arrays_matches_segment_states(p, left, right):
    sol = solve(p, left, right)
    rng = np.random.default_rng(47)
    lo, hi = sol.speed_range()
    edges = [s.xi_lo for s in sol.segments[1:]] + [s.xi_hi for s in sol.segments[:-1]]
    inside = [  # interior points of every fan and vacuum interval
        x
        for s in sol.segments
        if s.kind in (SegmentKind.FAN, SegmentKind.VACUUM)
        for x in np.linspace(s.xi_lo, s.xi_hi, 9)[1:-1]
    ]
    xis = np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, 64), edges, inside, [-np.inf, np.inf]])
    rho, u = sample_arrays(sol, xis)
    for xi, r, v in zip(xis, rho, u):
        # Each point is solved on its own: alone it gives the same values.
        assert (r, v) == tuple(a[0] for a in sample_arrays(sol, [xi]))
        # sample() walks the segments itself, to the same bits.
        pt = sample(sol, float(xi))
        assert _same_bits([r, v], [pt.rho, pt.u])
        seg = next(s for s in sol.segments if s.xi_lo <= xi <= s.xi_hi)
        if seg.kind is SegmentKind.VACUUM:
            assert (r, v) == (0.0, xi) and pt.in_vacuum
        elif seg.kind is SegmentKind.FAN and seg.xi_lo < xi:
            if xi == seg.xi_hi:
                assert (r, v) == (seg.right.rho, seg.right.u)
                continue
            sign = -1.0 if seg.family is chapgas.WaveFamily.ONE else 1.0
            c = math.sqrt(chapgas.sound_speed_sq(p, r))
            assert v + sign * c == pytest.approx(xi, rel=1e-12, abs=1e-12)
            assert min(seg.left.rho, seg.right.rho) <= r <= max(seg.left.rho, seg.right.rho)
        else:  # a constant, or a point at the left end of the segment it opens
            assert (r, v) == (seg.left.rho, seg.left.u)


def test_sample_in_ecg_fans_is_sample_arrays_bitwise():
    # sample() hands an ECG fan point to the core as Python floats, the
    # array path as an array: both take the scalar pass and get the same bits.
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 200:
        p = PressureParams.ecg(*10.0 ** rng.uniform(-3.0, 0.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        left, right = (State(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(2))
        sol = solve(p, left, right)
        for fan in (s for s in sol.segments if s.kind is SegmentKind.FAN):
            xis = fan.xi_lo + rng.uniform(0.0, 1.0, 4) * (fan.xi_hi - fan.xi_lo)
            rho, u = sample_arrays(sol, xis)
            for xi, r, v in zip(xis, rho, u):
                pt = sample(sol, float(xi))
                assert _same_bits([r, v], [pt.rho, pt.u])
                assert _same_bits([r, v], [a[0] for a in sample_arrays(sol, [xi])])
                checked += 1


def _counting(monkeypatch, calls, name):
    fun = getattr(fvcore, name)

    def counted(*args):
        calls[name] += 1
        return fun(*args)

    monkeypatch.setattr(fvcore, name, counted)


@pytest.mark.parametrize(
    "left, right", [(State(1.0, -1.0), State(1.0, 1.0)), (State(1.0, 0.2), State(0.25, -0.32))], ids=["R1R2", "R1S2"]
)
def test_fan_sample_takes_one_quadrature_per_newton_evaluation(monkeypatch, left, right):
    # Newton starts from a closed form and u moves the last evaluated jump:
    # no quadrature for the guess or at the returned density.
    sol = solve(PressureParams.ecg(0.1, 0.1, 2.0, 0.5), left, right)
    for fan in (s for s in sol.segments if s.kind is SegmentKind.FAN):
        calls = {"velocity_jump": 0, "_fan_residual": 0}
        with monkeypatch.context() as patch:
            _counting(patch, calls, "velocity_jump")
            _counting(patch, calls, "_fan_residual")
            sample(sol, 0.5 * (fan.xi_lo + fan.xi_hi))
        assert calls["_fan_residual"] >= 2
        assert calls["velocity_jump"] == calls["_fan_residual"]


def test_two_hundred_decade_fan_samples_on_its_curve():
    # The 2-fan of (1e-200, 0) | (1, 0) with the README model, from
    # rho* = 2.5e-200 up to 1. Newton once started 380 e-folds from the root
    # and walked there in capped steps of 4, out of iterations, at 7 of
    # these 39 interior points.
    sol = solve(PressureParams.ecg(0.1, 0.1, 2.0, 0.5), State(1e-200, 0.0), State(1.0, 0.0))
    fan = next(s for s in sol.segments if s.kind is SegmentKind.FAN)
    assert fan.family is chapgas.WaveFamily.TWO
    xis = np.linspace(fan.xi_lo, fan.xi_hi, 41)[1:-1]
    rho, u = sample_arrays(sol, xis)  # the array pass
    ya = math.log(fan.left.rho)
    for xi, r, v in zip(xis, rho, u):
        pt = sample(sol, float(xi))  # the scalar pass
        assert _same_bits([r, v], [pt.rho, pt.u])
        assert fan.left.rho <= pt.rho <= fan.right.rho
        jump = float(fvcore.velocity_jump(sol.params, ya, math.log(pt.rho)))
        assert abs(pt.u - (fan.left.u + jump)) <= 1e-13 * (abs(fan.left.u) + abs(jump))


def _stop_rule_data():
    """(p, rl, ul, rr, ur) groups: the acceptance box, FV-like neighbours and 150/200-decade data."""
    rng = np.random.default_rng(121)
    groups = []
    for k in range(40):
        # The acceptance box: A, B in [1e-3, 1], n in [1, 3], alpha in [0.05, 1],
        # densities in [1e-2, 1e2], velocities in [-2, 2].
        B, alpha = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(0.05, 1.0)
        if k % 2:
            p = PressureParams.gcg(B, alpha)
        else:
            p = PressureParams.ecg(10.0 ** rng.uniform(-3.0, 0.0), B, rng.uniform(1.0, 3.0), alpha)
        rl, rr = 10.0 ** rng.uniform(-2.0, 2.0, (2, 12))
        ul, ur = rng.uniform(-2.0, 2.0, (2, 12))
        # Neighbours as a smooth grid has them: within 1e-8 to 1e-2 of each other.
        near = 10.0 ** rng.uniform(-8.0, -2.0, (2, 12)) * rng.choice([-1.0, 1.0], (2, 12))
        rl, ul = np.append(rl, rl), np.append(ul, ul)
        rr, ur = np.append(rr, rl[:12] * (1.0 + near[0])), np.append(ur, ul[:12] + near[1])
        if p.model is chapgas.Model.GCG:  # no delta shocks: those have no star state
            keep = ur + gcg_asymptote(p, rr) > ul - gcg_asymptote(p, rl)
            rl, ul, rr, ur = (a[keep] for a in (rl, ul, rr, ur))
        groups.append((p, rl, ul, rr, ur))
    rows = [(rho_l, 0.0, 1.0, 0.0) for rho_l, *_ in STAR_STATE_REFERENCES]
    rows += [(1.0, 0.0, rho_l, 0.0) for rho_l, *_ in STAR_STATE_REFERENCES]
    groups.append((PressureParams.ecg(0.1, 0.1, 2.0, 0.5), *np.array(rows).T))
    return groups


def test_trusted_newton_steps_keep_star_states_of_the_tol_y_rule(monkeypatch):
    # An element settles on a plain in-bracket Newton step of at most
    # _TOL_STEP instead of waiting for a step of at most _TOL_Y; the results
    # stay within the mismatch's rounding of the old rule's, with fewer
    # evaluations.
    calls = {"_star_mismatch": 0}
    _counting(monkeypatch, calls, "_star_mismatch")
    groups = [(p, data, fvcore.star_state(p, *data)) for p, *data in _stop_rule_data()]  # the array pass
    evals = {}
    for rule in ("trusted", "tol_y"):
        if rule == "tol_y":
            monkeypatch.setattr(fvcore, "_newton_one", newton_one_to_tol_y)
        calls["_star_mismatch"] = 0
        alone = [  # the scalar pass
            [fvcore.star_state(p, *(float(v[i]) for v in data)) for i in range(rs.size)] for p, data, (rs, _) in groups
        ]
        evals[rule] = calls["_star_mismatch"]
    assert evals["tol_y"] > evals["trusted"]
    checked = 0
    for (p, data, (rs, us)), old in zip(groups, alone):
        for i, (ro, uo) in enumerate(old):
            assert abs(rs[i] - ro) <= 1e-14 * ro
            assert abs(us[i] - uo) <= 1e-14 * (abs(uo) + abs(data[0][i]) + abs(data[2][i]))
            checked += 1
    assert checked >= 700


def test_trusted_newton_steps_keep_fan_points_of_the_tol_y_rule(monkeypatch):
    rng = np.random.default_rng(122)
    fans = []
    for k in range(20):
        p = PressureParams.ecg(*10.0 ** rng.uniform(-3.0, 0.0, 2), rng.uniform(1.0, 3.0), rng.uniform(0.05, 1.0))
        sign = -1.0 if k % 2 else 1.0
        ra, rb = 10.0 ** rng.uniform(-3.0, 3.0, (2, 20))
        ua = rng.uniform(-2.0, 2.0, 20)
        c_a, c_b = (np.sqrt(chapgas.models.cs2_law(p.A, p.B, p.n, p.alpha, r)) for r in (ra, rb))
        lam_a = ua + sign * c_a
        lam_b = ua + sign * (fvcore.velocity_jump(p, np.log(ra), np.log(rb)) + c_b)
        xi = lam_a + rng.uniform(0.0, 1.0, 20) * (lam_b - lam_a)
        fans.append((p, sign, ra, ua, rb, xi, fvcore.fan_state(p, sign, ra, ua, rb, xi)))
    monkeypatch.setattr(fvcore, "_newton_one", newton_one_to_tol_y)
    for p, sign, ra, ua, rb, xi, (rho, u) in fans:
        for i in range(rho.size):
            ro, uo = fvcore.fan_state(p, sign, float(ra[i]), float(ua[i]), float(rb[i]), float(xi[i]))
            assert abs(rho[i] - ro) <= 1e-14 * ro
            assert abs(u[i] - uo) <= 1e-14 * (abs(uo) + abs(ua[i]) + abs(xi[i]))


@pytest.mark.parametrize(
    "left, right, most", [(State(1.0, 1.0), State(1.0, -1.0), 5), (State(1.0, -1.0), State(1.0, 1.0), 4)],
    ids=["S1S2", "R1R2"],
)
def test_readme_solve_takes_few_mismatch_evaluations(monkeypatch, left, right, most):
    calls = {"_star_mismatch": 0}
    _counting(monkeypatch, calls, "_star_mismatch")
    solve(PressureParams.ecg(0.1, 0.1, 2.0, 0.5), left, right)
    assert 2 <= calls["_star_mismatch"] <= most


def test_godunov_steps_on_96_cells_take_three_newton_rounds(monkeypatch):
    # Every step of the README R1+S2 datum on 96 cells that solves more than
    # one interface (the first has only the datum's own): one array mismatch
    # evaluation per Newton round, three rounds at most.
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    calls = {"_star_mismatch": 0}
    _counting(monkeypatch, calls, "_star_mismatch")
    rounds = []
    star_state = fvcore.star_state

    def counted(p, *data):
        calls["_star_mismatch"] = 0
        out = star_state(p, *data)
        if np.size(data[0]) > 1:
            rounds.append(calls["_star_mismatch"])
        return out

    monkeypatch.setattr(fvcore, "star_state", counted)
    snap = chapgas.evolve(p, State(1.0, 0.2), State(0.25, -0.32), chapgas.GridConfig(-0.4, 0.4, 96, 0.9, 0.2))
    assert len(rounds) == len(snap.steps) - 1 >= 20
    assert max(rounds) <= 3


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize(
    "start, lo, hi",
    [
        # Newton's step (8e-6) is long; the bisection it turns into is short.
        (-8e-9, -1e-8, 3e-9),
        # Newton's step (5e-9) is short, but it leaves the bracket.
        (-5e-12, -1e-8, 1e-12),
    ],
    ids=["long-newton-step", "short-newton-step"],
)
def test_a_short_bisection_does_not_settle_newton(batch, start, lo, hi):
    # The reported slope is 1000 times too small, so every Newton step
    # overshoots the bracket and bisects it instead. The bisections move y
    # by less than _TOL_STEP but carry no error bound, so Newton goes on
    # until a step is within _TOL_Y, where a trusted step would have stopped
    # 1e-12 or more from the root.
    root = 0.5

    def fun(y, idx=None):
        return y - root, np.full(np.shape(y), 1e-3)[()], np.zeros(np.shape(y))[()]

    y0, lo, hi = root + start, root + lo, root + hi
    if batch:
        y = fvcore._newton_increasing(fun, np.array([y0]), np.array([lo]), np.array([hi]), capped=False)[0]
    else:
        y = fvcore._newton_one(fun, np.float64(y0), np.float64(lo), np.float64(hi), capped=False)
    assert abs(y - root) <= 2.0 * fvcore._TOL_Y


_README = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)


def _ladder(k):
    """The near-vacuum ladder's model: A = B = 10^-k, n = 2, alpha = 1/2."""
    return PressureParams.ecg(10.0**-k, 10.0**-k, 2.0, 0.5)


@pytest.mark.parametrize(
    "p, left, right",
    [
        pytest.param(_README, State(1.0, 1.0), State(1.0, -1.0), id="ecg-S1S2"),
        pytest.param(_README, State(1.0, -1.0), State(1.0, 1.0), id="ecg-R1R2"),
        *(pytest.param(_ladder(k), State(1.0, -1.0), State(1.0, 1.0), id=f"ladder-k{k}") for k in (1, 7, 14)),
        pytest.param(_README, State(1e-200, 0.0), State(1e-200, 1.0), id="near-vacuum"),
        pytest.param(PressureParams.gcg(1.0, 0.5), State(1.0, 0.5), State(1.0, -0.5), id="gcg-0.5-S1S2"),
        pytest.param(PressureParams.gcg(1.0, 0.5), State(1.0, -0.5), State(1.0, 0.5), id="gcg-0.5-R1R2"),
        pytest.param(PressureParams.gcg(1.0, 1.0), State(1.0, -0.5), State(1.0, 0.5), id="gcg-1-R1R2"),
    ],
)
def test_equal_density_solve_is_the_two_curve_array_pass_bitwise(p, left, right):
    # With rho- = rho+ the scalar pass takes the 1-curve's (phi, dphi/dy)
    # for the 2-curve's. The array pass evaluates both curves; an unequal
    # datum beside this one keeps the batch in it.
    mid = solve(p, left, right).intermediate
    rs, us = fvcore.star_state(
        p, np.array([left.rho, 1.0]), np.array([left.u, 0.0]), np.array([right.rho, 0.5]), np.array([right.u, 0.0])
    )
    assert _same_bits([mid.rho, mid.u], [rs[0], us[0]])


def test_equal_density_solves_take_one_quadrature_per_mismatch(monkeypatch):
    calls = {"velocity_jump": 0, "_star_mismatch": 0}
    _counting(monkeypatch, calls, "velocity_jump")
    _counting(monkeypatch, calls, "_star_mismatch")
    solve(_README, State(1.0, -1.0), State(1.0, 1.0))
    assert calls == {"velocity_jump": 4, "_star_mismatch": 4}
    calls["velocity_jump"] = 0
    for k in range(1, 15):
        solve(_ladder(k), State(1.0, -1.0), State(1.0, 1.0))
    assert calls["velocity_jump"] == 105


def _random_grid(rng, p, cells):
    rho = rng.uniform(0.1, 3.0, cells)
    u = rng.uniform(-2.0, 2.0, cells)
    if p.model is chapgas.Model.TRANSPORT:
        rho[cells // 2], u[cells // 2] = 0.0, 0.0  # an empty cell
    return rho, u


@pytest.mark.parametrize(
    "p",
    [PressureParams.ecg(0.3, 0.2, 1.5, 0.4), PressureParams.gcg(0.5, 0.7), PressureParams.transport()],
    ids=["ecg", "gcg", "transport"],
)
def test_lf_flux_on_padded_fields_is_the_sides_formula_bitwise(p):
    rng = np.random.default_rng(46)
    for cells in (1, 2, 7, 64):
        rho, u = _random_grid(rng, p, cells)
        lam = rng.uniform(1.0, 20.0)
        padded = fvcore.lf_flux(p, fvcore._padded(rho), fvcore._padded(u), lam)
        assert _same_bits(padded, lax_friedrichs_by_sides(p, rho, u, lam))


def test_godunov_flux_on_a_transport_grid_with_every_interface_kind():
    # Interfaces, ghost cells included: upwind from the right, vacuum,
    # contact (upwind from the left), delta (Lax-Friedrichs), and upwind
    # from the right twice.
    p = PressureParams.transport()
    rho = np.array([1.0, 1.0, 2.0, 2.0, 1.0])
    u = np.array([-1.0, 1.0, 1.0, -1.0, -1.0])
    frho, fmom, fallbacks = _godunov_flux_on_cells(p, rho, u, 4.0)
    assert _same_bits(frho, np.array([-1.0, 0.0, 1.0, 0.0, -1.0, -1.0]))
    assert _same_bits(fmom, np.array([1.0, 0.0, 1.0, 2.0 + 8.0, 1.0, 1.0]))
    assert fallbacks == 1
    lf_rho, lf_mom = lax_friedrichs_by_sides(p, rho, u, 4.0)
    assert frho[3] == lf_rho[3] and fmom[3] == lf_mom[3]
