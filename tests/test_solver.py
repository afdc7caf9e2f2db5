import math

import numpy as np
import pytest

from chapgas import (
    DomainError,
    NoDeltaShockError,
    PressureParams,
    SegmentKind,
    State,
    WaveFamily,
    delta_weight_at,
    lax_check,
    sample,
    solve,
    solve_ecg,
    solve_gcg,
    solve_transport,
)
from chapgas.waves import rh_residuals, shock_u

# Intermediate densities frozen from independent brute-force oracles
# (bisection on the jump relations; 2e6-panel midpoint quadrature).
S1S2_RHO_STAR = 3.7601459353093425  # (1,1),(1,-1), A=B=0.1, n=2, alpha=0.5
R1R2_RHO_STAR = 0.05577620931481109  # (1,0),(1,5), same parameters


def _p_ecg():
    return PressureParams.ecg(0.1, 0.1, 2.0, 0.5)


def test_equal_states_give_single_constant():
    sol = solve_ecg(_p_ecg(), State(1.0, 0.0), State(1.0, 0.0))
    assert len(sol.segments) == 1
    assert sol.segments[0].kind is SegmentKind.CONSTANT
    assert sol.pattern() == "constant"


def test_symmetric_two_shock():
    sol = solve_ecg(_p_ecg(), State(1.0, 1.0), State(1.0, -1.0))
    assert sol.pattern() == "S1+S2"
    assert abs(sol.intermediate.u) <= 1e-12
    assert sol.intermediate.rho == pytest.approx(S1S2_RHO_STAR, rel=1e-9)


def test_symmetric_two_rarefaction():
    sol = solve_ecg(_p_ecg(), State(1.0, 0.0), State(1.0, 5.0))
    assert sol.pattern() == "R1+R2"
    assert sol.intermediate.u == pytest.approx(2.5, abs=1e-12)
    assert sol.intermediate.rho == pytest.approx(R1R2_RHO_STAR, abs=1e-9)


def test_gcg_symmetric_delta():
    p = PressureParams.gcg(0.01, 1.0)
    sol = solve_gcg(p, State(1.0, 1.0), State(1.0, -1.0))
    d = sol.delta
    assert d is not None
    assert d.sigma == 0.0
    assert d.weight_rate == pytest.approx(2.0, rel=1e-14)
    assert d.entropy_satisfied


def test_gcg_region_one_intersection():
    p = PressureParams.gcg(1.0, 1.0)
    sol = solve_gcg(p, State(1.0, 0.0), State(1.0, 3.0))
    assert sol.intermediate.rho == pytest.approx(0.4, abs=1e-9)
    assert sol.intermediate.u == pytest.approx(1.5, abs=1e-12)
    # alpha = 1 waves are contact discontinuities
    kinds = {s.kind for s in sol.segments if s.kind is not SegmentKind.CONSTANT}
    assert kinds == {SegmentKind.CONTACT}


def test_gcg_alpha_below_one_contains_classical_waves():
    p = PressureParams.gcg(1.0, 0.5)
    sol = solve_gcg(p, State(1.0, 0.5), State(1.0, -0.5))
    assert sol.pattern() == "S1+S2"
    for seg in sol.segments:
        if seg.kind is SegmentKind.SHOCK:
            assert lax_check(p, seg.family, seg.left, seg.right, seg.speed)


def test_gcg_delta_generalized_jump_conditions():
    rng = np.random.default_rng(31)
    for _ in range(20):
        B = rng.uniform(1e-3, 0.1)
        alpha = rng.uniform(0.3, 1.0)
        p = PressureParams.gcg(B, alpha)
        left = State(rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.0))
        right = State(rng.uniform(0.3, 3.0), -left.u)
        from chapgas.waves import classify_gcg

        if classify_gcg(p, left, right).tag != "V":
            continue
        d = solve_gcg(p, left, right).delta
        drho = right.rho - left.rho
        dm = right.rho * right.u - left.rho * left.u
        dflux = (
            right.rho * right.u**2
            - B * right.rho**-alpha
            - (left.rho * left.u**2 - B * left.rho**-alpha)
        )
        assert d.weight_rate == pytest.approx(d.sigma * drho - dm, abs=1e-10)
        assert d.weight_rate * d.sigma == pytest.approx(
            d.sigma * dm - dflux, abs=1e-10
        )


def test_gcg_delta_exactly_in_classified_region_v():
    from chapgas.waves import classify_gcg

    rng = np.random.default_rng(47)
    for _ in range(200):
        p = PressureParams.gcg(rng.uniform(1e-3, 1.0), rng.uniform(0.05, 1.0))
        left = State(rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0))
        right = State(rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0))
        has_delta = solve_gcg(p, left, right).delta is not None
        assert has_delta == (classify_gcg(p, left, right).tag == "V")


def test_transport_symmetric_delta():
    sol = solve_transport(State(1.0, 1.0), State(1.0, -1.0))
    assert sol.delta.sigma == 0.0
    assert sol.delta.weight_rate == pytest.approx(2.0)
    assert sol.delta.entropy_satisfied


def test_transport_asymmetric_delta():
    sol = solve_transport(State(4.0, 2.0), State(1.0, -1.0))
    assert sol.delta.sigma == pytest.approx(1.0, rel=1e-14)
    assert sol.delta.weight_rate == pytest.approx(6.0, rel=1e-14)
    assert -1.0 < sol.delta.sigma < 2.0


def test_transport_vacuum():
    sol = solve_transport(State(1.0, -1.0), State(1.0, 1.0))
    vac = [s for s in sol.segments if s.kind is SegmentKind.VACUUM]
    assert len(vac) == 1
    assert vac[0].xi_lo == -1.0
    assert vac[0].xi_hi == 1.0


def test_transport_contact():
    sol = solve_transport(State(2.0, 0.5), State(1.0, 0.5))
    assert any(s.kind is SegmentKind.CONTACT for s in sol.segments)
    assert sol.segments[1].speed == 0.5


def test_sample_far_left_is_left_state():
    sol = solve_ecg(_p_ecg(), State(1.0, 1.0), State(1.0, -1.0))
    pt = sample(sol, -1e10)
    assert (pt.rho, pt.u) == (1.0, 1.0)


def test_sample_vacuum_interior():
    sol = solve_transport(State(1.0, -1.0), State(1.0, 1.0))
    pt = sample(sol, 0.3)
    assert pt.in_vacuum
    assert pt.rho == 0.0
    assert pt.u == 0.3


def test_sample_fan_edge_continuity():
    sol = solve_ecg(_p_ecg(), State(1.0, 0.0), State(1.0, 5.0))
    fan = next(s for s in sol.segments if s.family is WaveFamily.ONE)
    pt = sample(sol, fan.xi_hi)
    assert pt.rho == pytest.approx(sol.intermediate.rho, abs=1e-8)
    assert pt.u == pytest.approx(sol.intermediate.u, abs=1e-8)
    interior = sample(sol, 0.5 * (fan.xi_lo + fan.xi_hi))
    assert fan.right.rho < interior.rho < fan.left.rho


def test_sample_at_discontinuity_flags_left():
    sol = solve_transport(State(1.0, 1.0), State(1.0, -1.0))
    pt = sample(sol, 0.0)
    assert pt.on_delta and pt.at_discontinuity
    assert (pt.rho, pt.u) == (1.0, 1.0)
    sol2 = solve_ecg(_p_ecg(), State(1.0, 1.0), State(1.0, -1.0))
    s1 = sol2.segments[1].speed
    pt2 = sample(sol2, s1)
    assert pt2.at_discontinuity and not pt2.on_delta
    assert (pt2.rho, pt2.u) == (1.0, 1.0)


def test_sample_continuity_away_from_discontinuities():
    sol = solve_ecg(_p_ecg(), State(1.0, 0.2), State(0.25, -0.32))
    speeds = [s.xi_lo for s in sol.segments if s.xi_lo == s.xi_hi]
    xis = np.linspace(-1.5, 1.5, 801)
    vals = [sample(sol, float(x)).rho for x in xis]
    for a, b, xa, xb in zip(vals, vals[1:], xis, xis[1:]):
        crosses = any(xa < s <= xb for s in speeds)
        if not crosses:
            assert abs(b - a) < 0.02


def test_delta_weight_at():
    sol = solve_transport(State(1.0, 1.0), State(1.0, -1.0))
    assert delta_weight_at(sol, 1.0) == pytest.approx(2.0)
    assert delta_weight_at(sol, 0.0) == 0.0
    gcg = solve_gcg(PressureParams.gcg(0.01, 1.0), State(1.0, 1.0), State(1.0, -1.0))
    assert delta_weight_at(gcg, 2.0) == pytest.approx(4.0)
    classical = solve_ecg(_p_ecg(), State(1.0, 1.0), State(1.0, -1.0))
    with pytest.raises(NoDeltaShockError):
        delta_weight_at(classical, 1.0)
    with pytest.raises(DomainError):
        delta_weight_at(sol, -1.0)


def _random_ecg(rng):
    return PressureParams.ecg(
        rng.uniform(0.01, 1.0),
        rng.uniform(0.01, 1.0),
        rng.uniform(1.0, 3.0),
        rng.uniform(0.05, 1.0),
    )


def _check_structure(sol):
    segs = sol.segments
    assert segs[0].xi_lo == -math.inf
    assert segs[-1].xi_hi == math.inf
    for a, b in zip(segs, segs[1:]):
        assert a.xi_hi == b.xi_lo
        # adjacent boundary states agree
        ra, ua = a.right.rho, a.right.u
        rb, ub = b.left.rho, b.left.u
        assert abs(ra - rb) <= 1e-8 * max(1.0, ra)
        assert abs(ua - ub) <= 1e-8 * max(1.0, abs(ua))
    waves = [s for s in segs if s.kind is not SegmentKind.CONSTANT]
    speeds = []
    for w in waves:
        speeds.append(w.xi_lo)
        speeds.append(w.xi_hi)
    assert all(b >= a for a, b in zip(speeds, speeds[1:]))
    mids = [s for s in segs[1:-1] if s.kind is SegmentKind.CONSTANT]
    for m in mids:
        assert m.xi_lo < m.xi_hi


def test_random_solutions_structure_and_admissibility():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = _random_ecg(rng)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        right = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        sol = solve_ecg(p, left, right)
        _check_structure(sol)
        for seg in sol.segments:
            if seg.kind is SegmentKind.SHOCK:
                assert lax_check(p, seg.family, seg.left, seg.right, seg.speed)
                r1, r2 = rh_residuals(p, seg.left, seg.right, seg.speed)
                from chapgas import pressure

                dm = seg.right.rho * seg.right.u - seg.left.rho * seg.left.u
                dflux = (
                    seg.right.rho * seg.right.u**2
                    + pressure(p, seg.right.rho)
                    - seg.left.rho * seg.left.u**2
                    - pressure(p, seg.left.rho)
                )
                assert abs(r1) <= 1e-9 * (1.0 + abs(dm))
                assert abs(r2) <= 1e-9 * (1.0 + abs(dflux))


def test_two_shock_intermediate_satisfies_both_jump_relations():
    rng = np.random.default_rng(34)
    count = 0
    while count < 20:
        p = _random_ecg(rng)
        left = State(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0))
        right = State(rng.uniform(0.3, 2.0), rng.uniform(-2.0, -0.5))
        sol = solve_ecg(p, left, right)
        if sol.pattern() != "S1+S2":
            continue
        count += 1
        mid = sol.intermediate
        u_from_s1 = shock_u(p, WaveFamily.ONE, left, mid.rho)
        u_from_s2 = shock_u(p, WaveFamily.TWO, State(mid.rho, mid.u), right.rho)
        assert mid.u == pytest.approx(u_from_s1, abs=1e-9)
        assert right.u == pytest.approx(u_from_s2, abs=1e-9)


def test_solve_dispatcher():
    assert solve(_p_ecg(), State(1, 1), State(1, -1)).pattern() == "S1+S2"
    assert solve(PressureParams.transport(), State(1, 1), State(1, -1)).delta
    assert solve(PressureParams.gcg(0.01, 1.0), State(1, 1), State(1, -1)).delta
