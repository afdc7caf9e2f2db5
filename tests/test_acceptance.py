"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math

import numpy as np
import pytest

from chapgas import (
    GridConfig,
    PressureParams,
    Scheme,
    State,
    WaveFamily,
    classify_ecg,
    classify_gcg,
    delta_weight_at,
    evolve,
    l1_error,
    lax_check,
    run_to_gcg_sweep,
    run_vacuum_sweep,
    run_vanishing_pressure_sweep,
    solve,
    threshold_A0,
    threshold_A1,
)
from chapgas.cli import EXIT_INPUT, EXIT_OK, EXIT_SOFT_FAIL, main, solution_from_dict
from chapgas.limits import Schedule, rh_residuals
from chapgas.solver import SegmentKind, forward_curve, gcg_entropy_window
from oracles import (
    delta_speed_quadratic_residual,
    gcg_velocity_jump,
    integrate,
    polytropic_velocity_jump,
)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _random_ecg(rng):
    return PressureParams.ecg(
        rng.uniform(0.01, 1.0),
        rng.uniform(0.01, 1.0),
        rng.uniform(1.0, 3.0),
        rng.uniform(0.05, 1.0),
    )


def test_criterion_01_rankine_hugoniot_exactness():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        p = _random_ecg(rng)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        fam = WaveFamily.ONE if rng.random() < 0.5 else WaveFamily.TWO
        rho = (
            left.rho * rng.uniform(1.05, 5.0)
            if fam is WaveFamily.ONE
            else left.rho * rng.uniform(0.2, 0.95)
        )
        right = State(rho, forward_curve(p, left, rho, fam))
        sigma = (right.rho * right.u - left.rho * left.u) / (right.rho - left.rho)
        r1, r2 = rh_residuals(p, left, right, sigma)
        from chapgas import pressure

        dm = right.rho * right.u - left.rho * left.u
        dflux = (
            right.rho * right.u**2
            + pressure(p, right.rho)
            - left.rho * left.u**2
            - pressure(p, left.rho)
        )
        ok &= abs(r1) <= 1e-9 * (1.0 + abs(dm))
        ok &= abs(r2) <= 1e-9 * (1.0 + abs(dflux))
        ok &= lax_check(p, fam, left, right, sigma)
    _report(1, "R-H exactness", ok)


def test_criterion_02_quadrature_oracle():
    rng = np.random.default_rng(102)
    ok = True
    for i in range(50):
        B = rng.uniform(0.01, 2.0)
        alpha = rng.uniform(0.05, 1.0)
        base = State(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        p = PressureParams.gcg(B, alpha)
        if i % 2 == 0:
            rho = base.rho * rng.uniform(0.2, 0.999)
            du = forward_curve(p, base, rho, WaveFamily.ONE) - base.u
            want = gcg_velocity_jump(B, alpha, rho, base.rho)
        else:
            rho = base.rho * rng.uniform(1.001, 5.0)
            du = forward_curve(p, base, rho, WaveFamily.TWO) - base.u
            want = gcg_velocity_jump(B, alpha, base.rho, rho)
        ok &= abs(du - want) <= 1e-8 * max(1.0, abs(du))
    for i in range(50):
        A = rng.uniform(0.01, 2.0)
        n = 1.0 if i % 5 == 0 else rng.uniform(1.0, 3.0)
        lo = rng.uniform(0.05, 1.0)
        hi = lo * rng.uniform(1.05, 5.0)
        got = integrate(
            lambda s, A=A, n=n: math.sqrt(A * n) * s ** ((n - 3.0) / 2.0), lo, hi
        )
        ok &= abs(got - polytropic_velocity_jump(A, n, lo, hi)) <= 1e-8 * max(
            1.0, abs(got)
        )
    _report(2, "quadrature oracle", ok)


def test_criterion_03_solver_totality_and_consistency():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(500):
        p = _random_ecg(rng)
        left = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        right = State(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        sol = solve(p, left, right)
        ok &= sol.pattern().replace("+", "") == classify_ecg(p, left, right).resolve()
        segs = sol.segments
        for a, b in zip(segs, segs[1:]):
            ok &= abs(a.right.rho - b.left.rho) <= 1e-8 * max(1.0, a.right.rho)
            ok &= abs(a.right.u - b.left.u) <= 1e-8 * max(1.0, abs(a.right.u))
        speeds = []
        for s in segs:
            if s.kind is not SegmentKind.CONSTANT:
                speeds.extend((s.xi_lo, s.xi_hi))
        ok &= all(y >= x for x, y in zip(speeds, speeds[1:]))
        mids = [s for s in segs[1:-1] if s.kind is SegmentKind.CONSTANT]
        ok &= all(m.xi_hi > m.xi_lo for m in mids)
    _report(3, "solver totality and consistency", ok)


def test_criterion_04_transport_delta_shock():
    sol = solve(PressureParams.transport(), State(4.0, 2.0), State(1.0, -1.0))
    d = sol.delta
    ok = d is not None
    ok &= d.sigma == 1.0
    ok &= d.weight_rate == 6.0
    ok &= -1.0 < d.sigma < 2.0 and d.entropy_satisfied
    ok &= delta_weight_at(sol, 1.0) == 6.0
    _report(4, "transport delta shock", ok)


def test_criterion_05_gcg_delta_shock():
    p = PressureParams.gcg(0.01, 1.0)
    sym = solve(p, State(1.0, 1.0), State(1.0, -1.0))
    ok = sym.delta.sigma == 0.0 and abs(sym.delta.weight_rate - 2.0) <= 1e-14
    left, right = State(2.0, 1.0), State(1.0, -1.0)
    sigma = solve(PressureParams.gcg(0.001, 1.0), left, right).delta.sigma
    ok &= abs(delta_speed_quadratic_residual(left, right, 0.001, 1.0, sigma)) <= 1e-12
    lo, hi = gcg_entropy_window(PressureParams.gcg(0.001, 1.0), left, right)
    ok &= lo < sigma < hi
    _report(5, "GCG delta shock", ok)


def test_criterion_06_vanishing_pressure_concentration_sweep():
    sched = Schedule.both_vanish_decades(1, 7, 2.0, 0.5)
    rep = run_vanishing_pressure_sweep(State(1, 1), State(1, -1), sched, tol=1e-2)
    rhos = [pt.rho_star for pt in rep.points]
    ok = all(b > a for a, b in zip(rhos, rhos[1:]))
    for key in ("u_star", "sigma1", "sigma2"):
        errs = [abs(getattr(pt, key) - rep.targets.sigma) for pt in rep.points]
        ok &= all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        ok &= errs[-1] <= 1e-2
    ok &= abs(rep.points[-1].A_rho_star_n - 1.0) <= 2e-2
    ok &= abs(rep.points[-1].mass_proxy - 2.0) <= 5e-2
    ok &= rep.all_converged
    _report(6, "vanishing-pressure concentration sweep", ok)


def test_criterion_07_cavitation_sweep():
    sched = Schedule.both_vanish_decades(1, 7, 2.0, 0.5)
    rep = run_vacuum_sweep(State(1, -1), State(1, 1), sched, tol=1e-2)
    rhos = [pt.rho_star for pt in rep.points]
    ok = all(b < a for a, b in zip(rhos, rhos[1:]))
    ok &= rhos[-1] <= 1e-2
    ok &= abs(rep.points[-1].sigma1 - (-1.0)) <= 1e-2
    ok &= abs(rep.points[-1].sigma2 - 1.0) <= 1e-2
    ok &= rep.all_converged
    _report(7, "cavitation sweep", ok)


def test_criterion_08_gcg_delta_sweep():
    left, right = State(1, 1), State(1, -1)
    a0 = threshold_A0(left, right, 0.01, 2.0, 1.0)
    sched = Schedule.a_vanishes_decades(0.01, 3, 8, 2.0, 1.0)
    ok = all(A < a0 for A, _ in sched.points)
    rep = run_to_gcg_sweep(left, right, sched, tol=1e-3)
    sigma_b = rep.targets.sigma
    ok &= abs(rep.points[-1].u_star - sigma_b) <= 1e-3
    ok &= all(pt.A_rho_star_n < 4.0 for pt in rep.points)
    ok &= rep.final_errors["mass_proxy"] <= 5e-3
    ok &= rep.final_errors["momentum_proxy"] <= 5e-3
    ok &= rep.all_converged
    _report(8, "fixed-B delta sweep", ok)


def test_criterion_09_gcg_two_rarefaction_sweep():
    sched = Schedule.a_vanishes_decades(1.0, 1, 8, 2.0, 1.0)
    rep = run_to_gcg_sweep(State(1, 0), State(1, 3), sched, tol=1e-3)
    last = rep.points[-1]
    ok = last.A == 1e-8
    ok &= abs(last.rho_star - 0.4) <= 1e-3
    ok &= abs(last.u_star - 1.5) <= 1e-3
    _report(9, "fixed-B two-rarefaction sweep", ok)


def test_criterion_10_threshold_contracts():
    rng = np.random.default_rng(110)
    ok = True
    drawn = 0
    while drawn < 20:  # region-V datasets
        rl, rr = rng.uniform(0.3, 3.0, 2)
        if abs(rl - rr) < 1e-3:
            continue
        U = rng.uniform(0.5, 2.0)
        B = rng.uniform(1e-3, 1e-2)
        alpha = rng.uniform(0.3, 1.0)
        n = rng.uniform(1.0, 3.0)
        left, right = State(rl, U), State(rr, -U)
        if classify_gcg(PressureParams.gcg(B, alpha), left, right).tag != "V":
            continue
        drawn += 1
        a0 = threshold_A0(left, right, B, n, alpha)
        tag = classify_ecg(PressureParams.ecg(0.99 * a0, B, n, alpha), left, right).tag
        ok &= tag == "S1S2"
    drawn = 0
    while drawn < 20:  # region-I datasets, n in (1, 3]
        rl, rr = rng.uniform(0.3, 3.0, 2)
        if abs(rl - rr) < 1e-3:
            continue
        B = rng.uniform(1e-4, 1e-3)
        alpha = rng.uniform(0.3, 1.0)
        n = rng.uniform(1.001, 3.0)
        du = rng.uniform(0.5, 3.0)
        left, right = State(rl, 0.0), State(rr, du)
        if classify_gcg(PressureParams.gcg(B, alpha), left, right).tag != "I":
            continue
        drawn += 1
        a1 = threshold_A1(left, right, n)
        tag = classify_ecg(PressureParams.ecg(0.99 * a1, B, n, alpha), left, right).tag
        ok &= tag == "R1R2"
    _report(10, "threshold contracts", ok)


def test_criterion_11_finite_volume_cross_check():
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    ok = classify_ecg(p, left, right).tag == "R1S2"
    sol = solve(p, left, right)
    errs = []
    for cells in (200, 400, 800, 1600):
        g = GridConfig(-0.4, 0.4, cells, 0.45, 0.2, Scheme.GODUNOV_EXACT)
        snap = evolve(p, left, right, g)
        mass0 = left.rho * 0.4 + right.rho * 0.4
        ok &= (
            abs(snap.total_mass() - mass0 - snap.boundary_mass_influx)
            <= 1e-12 * mass0
        )
        errs.append(l1_error(snap, sol)[0])
    ok &= all(b < a for a, b in zip(errs, errs[1:]))
    order = math.log2(errs[0] / errs[-1]) / 3.0
    ok &= order >= 0.7
    # transport delta datum with Lax-Friedrichs
    g = GridConfig(-2.0, 2.0, 1600, 0.45, 1.0, Scheme.LAX_FRIEDRICHS)
    snap = evolve(PressureParams.transport(), State(1, 1), State(1, -1), g)
    tsol = solve(PressureParams.transport(), State(1, 1), State(1, -1))
    weight = delta_weight_at(tsol, 1.0)
    window = snap.mass_in_window(0.0, 0.1)
    ok &= abs(window - weight) <= 0.1 * weight
    _report(11, "finite-volume cross-check", ok)


def test_criterion_12_cli_contract(tmp_path):
    prob = {
        "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
        "left": {"rho": 1.0, "u": 0.2},
        "right": {"rho": 0.25, "u": -0.32},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    ok = main(["solve", "--file", str(path), "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    direct = solve(
        PressureParams.ecg(0.1, 0.1, 2.0, 0.5), State(1.0, 0.2), State(0.25, -0.32)
    )
    ok &= solution_from_dict(doc) == direct

    sweep_doc = {
        "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
        "left": {"rho": 1.0, "u": 1.0},
        "right": {"rho": 1.0, "u": -1.0},
        "schedule": {"mode": "both_vanish", "decades": [1, 7]},
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(sweep_doc))
    ok &= main(["sweep", "--file", str(spath), "--out", str(tmp_path)]) == EXIT_OK

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    ok &= main(["solve", "--file", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT

    sweep_doc["schedule"]["decades"] = [1, 2]
    spath.write_text(json.dumps(sweep_doc))
    ok &= main(["sweep", "--file", str(spath), "--out", str(tmp_path)]) == EXIT_SOFT_FAIL

    sweep_doc["schedule"]["decades"] = [1, 4]
    sweep_doc["left"]["u"] = 0.1
    sweep_doc["right"] = {"rho": 4.0, "u": 0.0}
    spath.write_text(json.dumps(sweep_doc))
    ok &= main(["sweep", "--file", str(spath), "--out", str(tmp_path)]) == EXIT_INPUT
    _report(12, "CLI contract", ok)
