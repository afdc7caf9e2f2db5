import math

import numpy as np
import pytest

from chapgas import (
    DomainError,
    PressureParams,
    ScheduleError,
    SegmentKind,
    State,
    classify_ecg,
    classify_gcg,
    run_to_gcg_sweep,
    run_vacuum_sweep,
    run_vanishing_pressure_sweep,
    sample,
    solve,
    target_A_rho_n,
    target_gcg_delta,
    target_transport_delta,
    threshold_A0,
    threshold_A1,
)
from chapgas.limits import Schedule, SweepMode, gcg_two_rarefaction_limit
from chapgas.solver import gcg_entropy_window
from oracles import delta_speed_quadratic_residual

# (1,1) vs (2,-1), B = 0.01, alpha = 1, n = 2: 2*(4 - 0.01*0.25)/3.
A0_EXAMPLE = 2.665
# (2,1) vs (1,-1), B = 0.001, alpha = 1, frozen from direct evaluation.
GCG_SIGMA_EXAMPLE = 0.17166126498256906
GCG_WR_EXAMPLE = 2.828338735017431


def test_target_transport_delta_symmetric():
    t = target_transport_delta(State(1, 1), State(1, -1))
    assert t.sigma == 0.0
    assert t.rate1 == pytest.approx(2.0)
    assert t.rate2 == pytest.approx(0.0)
    assert t.w1_rate == pytest.approx(2.0)  # sigma = 0 so no normalization


def test_target_transport_delta_asymmetric():
    t = target_transport_delta(State(4, 2), State(1, -1))
    assert t.sigma == pytest.approx(1.0)
    drho, dm, dfl = 1.0 - 4.0, -1.0 - 8.0, 1.0 - 16.0
    assert t.rate1 == pytest.approx(t.sigma * drho - dm)
    assert t.rate2 == pytest.approx(t.sigma * dm - dfl)
    assert t.w1_rate == pytest.approx(t.rate1 / math.sqrt(2.0))


def test_target_transport_delta_requires_compression():
    with pytest.raises(DomainError):
        target_transport_delta(State(1, 0), State(1, 0))
    with pytest.raises(DomainError):
        target_transport_delta(State(1, -1), State(1, 1))


def test_target_A_rho_n():
    assert target_A_rho_n(State(1, 1), State(1, -1)) == pytest.approx(1.0)
    assert target_A_rho_n(State(4, 2), State(1, -1)) == pytest.approx(4.0)
    assert target_A_rho_n(State(2, 1), State(3, 1)) == 0.0
    with pytest.raises(DomainError):
        target_A_rho_n(State(1, -1), State(1, 1))


def test_threshold_A0_example():
    a0 = threshold_A0(State(1, 1), State(2, -1), 0.01, 2.0, 1.0)
    assert a0 == pytest.approx(A0_EXAMPLE, rel=1e-12)
    p = PressureParams.ecg(0.9 * a0, 0.01, 2.0, 1.0)
    assert classify_ecg(p, State(1, 1), State(2, -1)).tag == "S1S2"


def test_threshold_A0_sentinel_and_errors():
    assert threshold_A0(State(1, 1), State(1, -1), 0.01, 2.0, 1.0) == math.inf
    with pytest.raises(DomainError):
        threshold_A0(State(1, 0), State(1, 3), 0.01, 2.0, 1.0)  # region I data


def test_threshold_A1_example():
    a1 = threshold_A1(State(1, 0), State(4, 3), 2.0)
    assert a1 == pytest.approx(9.0 / 8.0, rel=1e-14)
    p = PressureParams.ecg(0.9 * a1, 0.001, 2.0, 1.0)
    assert classify_ecg(p, State(1, 0), State(4, 3)).tag == "R1R2"


def test_threshold_A1_sentinels():
    assert threshold_A1(State(1, 0), State(1, 3), 2.0) == math.inf
    assert threshold_A1(State(1, 0), State(4, 3), 1.0) == math.inf
    with pytest.raises(DomainError):
        threshold_A1(State(1, 3), State(4, 0), 2.0)


def test_target_gcg_delta_symmetric():
    sig, wr = target_gcg_delta(State(1, 1), State(1, -1), 0.01, 1.0)
    assert sig == 0.0
    assert wr == pytest.approx(2.0)


def test_target_gcg_delta_asymmetric_solves_quadratic():
    left, right = State(2, 1), State(1, -1)
    sig, wr = target_gcg_delta(left, right, 0.001, 1.0)
    assert sig == pytest.approx(GCG_SIGMA_EXAMPLE, rel=1e-12)
    assert wr == pytest.approx(GCG_WR_EXAMPLE, rel=1e-12)
    assert abs(delta_speed_quadratic_residual(left, right, 0.001, 1.0, sig)) <= 1e-12
    lo, hi = gcg_entropy_window(PressureParams.gcg(0.001, 1.0), left, right)
    assert lo < sig < hi


def test_target_gcg_delta_outside_region():
    with pytest.raises(DomainError):
        target_gcg_delta(State(1, -1), State(1, 1), 0.01, 1.0)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        Schedule(SweepMode.BOTH_VANISH, ((0.1, 0.1), (0.1, 0.01)), 2.0, 0.5)
    with pytest.raises(ScheduleError):
        Schedule(SweepMode.A_VANISHES, ((0.1, 0.1), (0.01, 0.2)), 2.0, 0.5)
    with pytest.raises(ScheduleError):
        Schedule(SweepMode.BOTH_VANISH, (), 2.0, 0.5)
    with pytest.raises(ScheduleError):
        Schedule(SweepMode.BOTH_VANISH, ((0.1, 0.1), (-0.01, 0.01)), 2.0, 0.5)


def test_concentration_sweep_reference():
    sched = Schedule.both_vanish_decades(1, 7, 2.0, 0.5)
    rep = run_vanishing_pressure_sweep(State(1, 1), State(1, -1), sched)
    assert rep.all_converged
    assert rep.final_errors["u_star"] <= 1e-2
    # Lemma-style speed collapse: the three speeds share the limit
    last = rep.points[-1]
    gap = max(
        abs(last.u_star - last.sigma1),
        abs(last.u_star - last.sigma2),
        abs(last.sigma1 - last.sigma2),
    )
    assert gap <= 2.0 * rep.tol


def test_concentration_sweep_short_schedule_soft():
    sched = Schedule.both_vanish_decades(1, 2, 2.0, 0.5)
    rep = run_vanishing_pressure_sweep(State(1, 1), State(1, -1), sched)
    assert not rep.all_converged  # too few points to satisfy the flags


def test_concentration_sweep_rejects_expansion_data():
    sched = Schedule.both_vanish_decades(1, 3, 2.0, 0.5)
    with pytest.raises(ScheduleError):
        run_vanishing_pressure_sweep(State(1, -1), State(1, 1), sched)


def test_concentration_sweep_rejects_wrong_region():
    # u- > u+ but a shock/rarefaction mix at large A, B
    sched = Schedule(SweepMode.BOTH_VANISH, ((1.0, 1.0), (0.5, 0.5)), 2.0, 0.5)
    with pytest.raises(ScheduleError):
        run_vanishing_pressure_sweep(State(1.0, 0.1), State(4.0, 0.0), sched)


def test_vacuum_sweep_reference():
    sched = Schedule.both_vanish_decades(1, 7, 2.0, 0.5)
    rep = run_vacuum_sweep(State(1, -1), State(1, 1), sched)
    assert rep.all_converged
    assert rep.points[-1].rho_star <= 1e-2


def test_vacuum_sweep_direction_check():
    sched = Schedule.both_vanish_decades(1, 3, 2.0, 0.5)
    with pytest.raises(ScheduleError):
        run_vacuum_sweep(State(1, 1), State(1, -1), sched)


def test_vacuum_profile_smoke():
    """Pointwise comparison against the pressureless limit at 11 stations."""
    p = PressureParams.ecg(1e-7, 1e-7, 2.0, 0.5)
    sol = solve(p, State(1, -1), State(1, 1))
    limit = solve(PressureParams.transport(), State(1, -1), State(1, 1))
    # stations avoid the limit's contact speeds at xi = -1 and +1
    for xi in np.linspace(-2.75, 2.75, 11):
        got = sample(sol, float(xi))
        want = sample(limit, float(xi))
        assert abs(got.rho - want.rho) <= 0.05
        if want.rho > 0.1:
            assert abs(got.u - want.u) <= 0.05


def test_gcg_sweep_delta_branch():
    sched = Schedule.a_vanishes_decades(0.01, 3, 8, 2.0, 1.0)
    rep = run_to_gcg_sweep(State(1, 1), State(1, -1), sched)
    assert rep.kind == "gcg_delta"
    assert rep.all_converged
    assert rep.final_errors["u_star"] <= 1e-3
    bound = rep.targets.A_rho_n_bound
    assert all(pt.A_rho_star_n < bound for pt in rep.points)
    assert rep.extras["limit_residual_minus_consistent"] <= 10 * rep.tol
    assert rep.extras["limit_residual_plus_consistent"] <= 10 * rep.tol


def test_gcg_sweep_rarefaction_branch():
    sched = Schedule.a_vanishes_decades(1.0, 1, 8, 2.0, 1.0)
    rep = run_to_gcg_sweep(State(1, 0), State(1, 3), sched)
    assert rep.kind == "gcg_rarefaction"
    assert rep.all_converged
    assert rep.points[-1].rho_star == pytest.approx(0.4, abs=1e-3)
    assert rep.points[-1].u_star == pytest.approx(1.5, abs=1e-3)


def test_gcg_sweep_threshold_guard():
    # (1,1) vs (2,-1) has a finite A0; exceed it on purpose
    left, right = State(1, 1), State(2, -1)
    a0 = threshold_A0(left, right, 0.01, 2.0, 1.0)
    sched = Schedule(
        SweepMode.A_VANISHES, ((2.0 * a0, 0.01), (0.5 * a0, 0.01)), 2.0, 1.0
    )
    with pytest.raises(ScheduleError):
        run_to_gcg_sweep(left, right, sched)


def test_gcg_sweep_wrong_region():
    sched = Schedule.a_vanishes_decades(1.0, 3, 5, 2.0, 0.6)
    # region III data for the limit model
    left, right = State(1, 0), State(4.0, 0.1)
    assert classify_gcg(PressureParams.gcg(1.0, 0.6), left, right).tag == "III"
    with pytest.raises(ScheduleError):
        run_to_gcg_sweep(left, right, sched)


def test_gcg_sweep_wrong_mode():
    sched = Schedule.both_vanish_decades(1, 4, 2.0, 1.0)
    with pytest.raises(ScheduleError):
        run_to_gcg_sweep(State(1, 1), State(1, -1), sched)
    sched2 = Schedule.a_vanishes_decades(0.01, 3, 5, 2.0, 1.0)
    with pytest.raises(ScheduleError):
        run_vanishing_pressure_sweep(State(1, 1), State(1, -1), sched2)


def test_two_rarefaction_limit_formula():
    rho, u = gcg_two_rarefaction_limit(State(1, 0), State(1, 3), 1.0, 1.0)
    assert rho == pytest.approx(0.4, rel=1e-14)
    assert u == pytest.approx(1.5, rel=1e-14)


# Report structure of the four acceptance sweeps. The ordered names are what
# sweep.json and the CLI print, and all_converged ANDs whatever flags exist,
# so a dropped or renamed flag would otherwise go unnoticed.
_DELTA_TARGETS = [
    "sigma",
    "weight_rate_1",
    "weight_rate_2",
    "w1_normalized",
    "w2_normalized",
]
_SWEEP_STRUCTURE = {
    "concentration": (
        run_vanishing_pressure_sweep,
        State(1, 1),
        State(1, -1),
        Schedule.both_vanish_decades(1, 7, 2.0, 0.5),
        [
            "rho_star_increasing",
            "u_star_converged",
            "sigma1_converged",
            "sigma2_converged",
            "A_rho_n_decreasing",
            "mass_proxy_decreasing",
            "momentum_proxy_decreasing",
        ],
        ["u_star", "sigma1", "sigma2", "A_rho_n", "mass_proxy", "momentum_proxy"],
        _DELTA_TARGETS + ["A_rho_n_limit"],
        [],
    ),
    "cavitation": (
        run_vacuum_sweep,
        State(1, -1),
        State(1, 1),
        Schedule.both_vanish_decades(1, 7, 2.0, 0.5),
        [
            "rho_star_decreasing",
            "rho_star_converged",
            "lambda1_converged",
            "lambda2_converged",
        ],
        ["lambda1_edge", "lambda2_edge", "rho_star"],
        ["rho_star_limit", "lambda1_limit", "lambda2_limit"],
        [],
    ),
    "gcg_delta": (
        run_to_gcg_sweep,
        State(1, 1),
        State(1, -1),
        Schedule.a_vanishes_decades(0.01, 3, 8, 2.0, 1.0),
        [
            "rho_star_increasing",
            "u_star_converged",
            "sigma1_converged",
            "sigma2_converged",
            "A_rho_n_bounded",
            "mass_proxy_decreasing",
            "momentum_proxy_decreasing",
        ],
        ["u_star", "sigma1", "sigma2", "mass_proxy", "momentum_proxy"],
        _DELTA_TARGETS + ["A_rho_n_bound"],
        [
            "limit_residual_minus_consistent",
            "limit_residual_plus_consistent",
            "limit_residual_minus_swapped",
            "limit_residual_plus_swapped",
        ],
    ),
    "gcg_rarefaction": (
        run_to_gcg_sweep,
        State(1, 0),
        State(1, 3),
        Schedule.a_vanishes_decades(1.0, 1, 8, 2.0, 1.0),
        [
            "rho_star_converged",
            "u_star_converged",
            "lambda1_converged",
            "lambda2_converged",
        ],
        ["rho_star", "u_star", "lambda1_edge", "lambda2_edge"],
        ["rho_star_limit", "u_star_limit", "lambda1_limit", "lambda2_limit"],
        [],
    ),
}


@pytest.mark.parametrize("kind", list(_SWEEP_STRUCTURE))
def test_sweep_report_structure(kind):
    run, left, right, sched, flags, errors, targets, extras = _SWEEP_STRUCTURE[kind]
    rep = run(left, right, sched)
    assert rep.kind == kind
    assert list(rep.flags) == flags
    assert list(rep.final_errors) == errors
    assert [k for k, v in vars(rep.targets).items() if v is not None] == targets
    assert list(rep.extras) == extras
    assert [(pt.A, pt.B) for pt in rep.points] == list(sched.points)
    # sigma1/sigma2 are the shock speeds (S1S2) or the outer fan edges (R1R2).
    wave = SegmentKind.FAN if kind in ("cavitation", "gcg_rarefaction") else SegmentKind.SHOCK
    for pt in rep.points:
        p = PressureParams.ecg(pt.A, pt.B, sched.n, sched.alpha)
        w1, w2 = (s for s in solve(p, left, right).segments if s.kind is wave)
        assert (pt.sigma1, pt.sigma2) == (w1.xi_lo, w2.xi_hi)
        if wave is SegmentKind.SHOCK:
            assert (pt.sigma1, pt.sigma2) == (w1.speed, w2.speed)
