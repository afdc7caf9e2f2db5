
import math

import numpy as np
import pytest

from chapgas import (
    DegenerateError,
    DomainError,
    NumericalLimitError,
    PressureParams,
    State,
    UnsupportedModelError,
    WaveFamily,
    classify_ecg,
    classify_gcg,
    eigenvalues,
    fvcore,
    lax_check,
    rarefaction_u,
    shock_speed,
    shock_u,
    solve_ecg,
)
from chapgas.waves import curve_one_u, gcg_entropy_window, rh_residuals

# Velocity on the 1-rarefaction curve through (1, 0) at rho = 0.5 for
# A = 1, B = 1, n = 2, alpha = 0.5, frozen from a 2e6-panel midpoint sum.
RAREF_U_ORACLE = 1.0561161410015616


# The rarefaction integral over [lo, hi] of c(s)/s ds, as the integral of
# c(e^y) dy in y = log s by mpmath tanh-sinh quadrature at 60 digits on 400
# equal panels (800 panels agree to all 60), rounded to 40 digits.
VELOCITY_JUMP_REFERENCES = [
    # Near-vanishing pressure, where c is tiny.
    ((1e-14, 1e-14, 2.0, 0.5), 0.5, 2.0, "2.291809350012638396838462939339482288281e-7"),
    # The README parameters across 150 decades of density.
    ((0.1, 0.1, 2.0, 0.5), 1e-150, 1.0, "9.428090415820633875845096315679905460214e111"),
    ((0.3, 0.2, 1.0, 0.7), 0.1, 5.0, "3.974449921947559154807958896722188094179"),
    ((0.3, 0.2, 3.0, 0.3), 0.2, 40.0, "38.10591282551764633676459774809339424168"),
    # GCG, B = 0.4, alpha = 1.
    ((0.0, 0.4, 1.0, 1.0), 0.01, 3.0, "63.03473469268969511751407244348528096491"),
]


def _p_ecg(A=0.1, B=0.1, n=2.0, alpha=0.5):
    return PressureParams.ecg(A, B, n, alpha)


def test_rarefaction_passes_through_base_point():
    for p in (_p_ecg(), PressureParams.gcg(1.0, 0.7)):
        for fam in WaveFamily:
            assert rarefaction_u(p, fam, State(1.0, 0.0), 1.0) == 0.0


def test_rarefaction_gcg_closed_form():
    p = PressureParams.gcg(1.0, 1.0)
    u = rarefaction_u(p, WaveFamily.ONE, State(1.0, 0.0), 0.5)
    assert u == pytest.approx(1.0, rel=1e-12)  # sqrt(B) * (1/rho - 1/rho_base)


def test_rarefaction_ecg_quadrature_vs_oracle():
    p = PressureParams.ecg(1.0, 1.0, 2.0, 0.5)
    u = rarefaction_u(p, WaveFamily.ONE, State(1.0, 0.0), 0.5)
    assert u == pytest.approx(RAREF_U_ORACLE, abs=1e-8)


@pytest.mark.parametrize("coefs, lo, hi, want", VELOCITY_JUMP_REFERENCES)
def test_velocity_jump_integral_matches_mpmath(coefs, lo, hi, want):
    A, B, n, alpha = coefs
    p = PressureParams.ecg(A, B, n, alpha) if A > 0.0 else PressureParams.gcg(B, alpha)
    jump = float(fvcore.velocity_jump(p, math.log(lo), math.log(hi)))
    assert abs(jump - float(want)) <= 1e-13 * float(want)


def test_velocity_jump_ends():
    p = _p_ecg()
    y = math.log(0.7)
    assert fvcore.velocity_jump(p, y, y) == 0.0
    ya, yb = math.log(1.0), math.log(2.0)
    jump, back = fvcore.velocity_jump(p, ya, yb), fvcore.velocity_jump(p, yb, ya)
    assert jump > 0.0 > back
    assert back == pytest.approx(-jump, rel=1e-14)


def test_rarefaction_wrong_side():
    p = _p_ecg()
    with pytest.raises(DomainError):
        rarefaction_u(p, WaveFamily.ONE, State(1.0, 0.0), 2.0)
    with pytest.raises(DomainError):
        rarefaction_u(p, WaveFamily.TWO, State(1.0, 0.0), 0.5)


def test_shock_continuous_at_base_point():
    p = _p_ecg()
    u = shock_u(p, WaveFamily.ONE, State(1.0, 0.0), 1.0 + 1e-10)
    assert abs(u) < 1e-4


def test_shock_gcg_asymptote():
    p = PressureParams.gcg(1.0, 1.0)
    u = shock_u(p, WaveFamily.ONE, State(1.0, 0.0), 1e8)
    assert abs(u - (-1.0)) <= 1e-3


def test_shock_rh_residual():
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    left = State(1.0, 1.0)
    right = State(4.0, shock_u(p, WaveFamily.ONE, left, 4.0))
    sigma = shock_speed(p, left, right)
    r1, r2 = rh_residuals(p, left, right, sigma)
    assert abs(r1) <= 1e-10
    assert abs(r2) <= 1e-10


def test_shock_wrong_side():
    p = _p_ecg()
    with pytest.raises(DomainError):
        shock_u(p, WaveFamily.ONE, State(1.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        shock_u(p, WaveFamily.TWO, State(1.0, 0.0), 2.0)


def test_shock_speed_values():
    p = _p_ecg()
    assert shock_speed(p, State(1.0, 1.0), State(2.0, 1.0)) == pytest.approx(1.0)
    assert shock_speed(p, State(2.0, 0.0), State(1.0, 3.0)) == pytest.approx(-3.0)
    with pytest.raises(DegenerateError):
        shock_speed(p, State(1.0, 0.0), State(1.0, 1.0))


def test_lax_check_admissible_and_reversed():
    p = _p_ecg()
    left = State(1.0, 0.0)
    right = State(4.0, shock_u(p, WaveFamily.ONE, left, 4.0))
    sigma = shock_speed(p, left, right)
    assert sigma < eigenvalues(p, left)[0]
    assert lax_check(p, WaveFamily.ONE, left, right, sigma)
    assert not lax_check(p, WaveFamily.ONE, right, left, sigma)
    with pytest.raises(UnsupportedModelError):
        lax_check(PressureParams.transport(), WaveFamily.ONE, left, right, 0.0)


def test_classify_ecg_base_point_on_boundary():
    p = _p_ecg()
    region = classify_ecg(p, State(1.0, 0.0), State(1.0, 0.0))
    assert region.tag == "OnBoundary"
    assert set(region.boundary) == {"R1", "S2"}  # all curves meet at the base


def test_classify_ecg_symmetric_data():
    p = _p_ecg()
    assert classify_ecg(p, State(1.0, 0.0), State(1.0, 5.0)).tag == "R1R2"
    assert classify_ecg(p, State(1.0, 0.0), State(1.0, -5.0)).tag == "S1S2"
    assert solve_ecg(p, State(1.0, 0.0), State(1.0, 5.0)).pattern() == "R1+R2"
    assert solve_ecg(p, State(1.0, 0.0), State(1.0, -5.0)).pattern() == "S1+S2"


def test_classify_gcg_regions():
    p = PressureParams.gcg(0.01, 1.0)
    assert classify_gcg(p, State(1.0, 1.0), State(1.0, -1.0)).tag == "V"
    p2 = PressureParams.gcg(1.0, 1.0)
    assert classify_gcg(p2, State(1.0, 0.0), State(1.0, 3.0)).tag == "I"
    assert classify_gcg(p2, State(1.0, 0.0), State(1.0, 0.0)).tag == "OnBoundary"


def test_classify_gcg_two_and_three():
    p = PressureParams.gcg(1.0, 0.6)
    left = State(1.0, 0.0)
    # Dense states above both curves are region III, rarefied mid-velocity
    # states below the 1-curve are region II.
    assert classify_gcg(p, left, State(4.0, 0.1)).tag == "III"
    assert classify_gcg(p, left, State(0.25, -0.1)).tag == "II"
    assert classify_gcg(p, left, State(1.2, -0.5)).tag == "IV"


def test_region_resolution():
    p = _p_ecg()
    region = classify_ecg(p, State(1.0, 0.0), State(1.0, 0.0))
    assert region.resolve() in {"R1R2", "R1S2", "S1R2", "S1S2"}
    assert classify_ecg(p, State(1.0, 0.0), State(1.0, 5.0)).resolve() == "R1R2"


def _random_ecg(rng):
    return PressureParams.ecg(
        rng.uniform(0.01, 1.0),
        rng.uniform(0.01, 1.0),
        rng.uniform(1.0, 3.0),
        rng.uniform(0.05, 1.0),
    )


def test_lambda_monotone_along_rarefaction_curves():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = _random_ecg(rng)
        base = State(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        rhos = np.linspace(0.05 * base.rho, base.rho, 100)
        lam1 = [
            eigenvalues(p, State(r, rarefaction_u(p, WaveFamily.ONE, base, r)))[0]
            for r in rhos
        ]
        assert all(b < a for a, b in zip(lam1, lam1[1:]))  # decreasing in rho
        rhos2 = np.linspace(base.rho, 4.0 * base.rho, 100)
        lam2 = [
            eigenvalues(p, State(r, rarefaction_u(p, WaveFamily.TWO, base, r)))[1]
            for r in rhos2
        ]
        assert all(b > a for a, b in zip(lam2, lam2[1:]))


def test_one_rarefaction_convex():
    rng = np.random.default_rng(22)
    for _ in range(10):
        p = _random_ecg(rng)
        base = State(1.0, 0.0)
        rhos = np.linspace(0.1, 1.0, 40)
        us = [rarefaction_u(p, WaveFamily.ONE, base, r) for r in rhos]
        second = [a - 2.0 * b + c for a, b, c in zip(us, us[1:], us[2:])]
        assert all(d > 0.0 for d in second)


def test_shock_curves_starlike():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = _random_ecg(rng)
        base = State(1.0, 0.0)
        rhos = np.linspace(1.01, 8.0, 50)
        us = [shock_u(p, WaveFamily.ONE, base, r) for r in rhos]
        assert all(b < a for a, b in zip(us, us[1:]))  # u decreasing in rho
        rhos2 = np.linspace(0.99, 0.05, 50)
        us2 = [shock_u(p, WaveFamily.TWO, base, r) for r in rhos2]
        assert all(b < a for a, b in zip(us2, us2[1:]))  # decreasing as rho drops


def test_random_shocks_satisfy_rh_and_lax():
    rng = np.random.default_rng(24)
    for _ in range(50):
        p = _random_ecg(rng)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        fam = WaveFamily.ONE if rng.random() < 0.5 else WaveFamily.TWO
        if fam is WaveFamily.ONE:
            rho = left.rho * rng.uniform(1.05, 4.0)
        else:
            rho = left.rho * rng.uniform(0.25, 0.95)
        right = State(rho, shock_u(p, fam, left, rho))
        sigma = shock_speed(p, left, right)
        r1, r2 = rh_residuals(p, left, right, sigma)
        from chapgas import pressure

        dm = right.rho * right.u - left.rho * left.u
        dflux = (
            right.rho * right.u**2
            + pressure(p, right.rho)
            - left.rho * left.u**2
            - pressure(p, left.rho)
        )
        assert abs(r1) <= 1e-9 * (1.0 + abs(dm))
        assert abs(r2) <= 1e-9 * (1.0 + abs(dflux))
        assert lax_check(p, fam, left, right, sigma)


def test_classify_matches_solver_pattern():
    rng = np.random.default_rng(25)
    for _ in range(100):
        p = _random_ecg(rng)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        right = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        region = classify_ecg(p, left, right)
        sol = solve_ecg(p, left, right)
        assert sol.pattern().replace("+", "") == region.resolve()


def test_entropy_window_inside_region_v():
    p = PressureParams.gcg(0.01, 1.0)
    lo, hi = gcg_entropy_window(p, State(1.0, 1.0), State(1.0, -1.0))
    assert lo < 0.0 < hi


def test_entropy_window_is_lambda2_right_and_lambda1_left():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = PressureParams.gcg(10.0 ** rng.uniform(-4.0, 1.0), rng.uniform(0.01, 1.0))
        left = State(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        right = State(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        lo, hi = gcg_entropy_window(p, left, right)
        assert lo == pytest.approx(eigenvalues(p, right)[1], rel=1e-14, abs=1e-14)
        assert hi == pytest.approx(eigenvalues(p, left)[0], rel=1e-14, abs=1e-14)


def test_entropy_window_where_the_squared_sound_speed_overflows():
    # c^2 = 1e400 at rho = 1e-200 (B = alpha = 1), while c = 1e200 is finite.
    p = PressureParams.gcg(1.0, 1.0)
    left, right = State(1e-200, 1e201), State(1e-200, -1e201)
    lo, hi = gcg_entropy_window(p, left, right)
    assert lo == pytest.approx(-9e200, rel=1e-14)
    assert hi == pytest.approx(9e200, rel=1e-14)


def test_curve_one_u_branches():
    p = _p_ecg()
    left = State(1.0, 0.0)
    assert curve_one_u(p, left, 1.0) == 0.0
    assert curve_one_u(p, left, 0.5) > 0.0
    assert curve_one_u(p, left, 2.0) < 0.0


@pytest.mark.parametrize(
    "fam, base, rho",
    [
        (WaveFamily.ONE, 1e-300, 1.0),  # the shock radicand overflows
        (WaveFamily.ONE, 1.0, 1e250),  # rho**n overflows
        (WaveFamily.TWO, 1.0, 1e-300),
    ],
    ids=["S1-from-1e-300", "S1-to-1e250", "S2-to-1e-300"],
)
def test_shock_curve_beyond_the_float_range_raises_numerical_limit_error(fam, base, rho):
    with pytest.raises(NumericalLimitError):
        shock_u(_p_ecg(), fam, State(base, 0.0), rho)
