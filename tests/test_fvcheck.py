import logging

import numpy as np
import pytest

from chapgas import (
    DomainError,
    DomainTooSmallError,
    GridConfig,
    PressureParams,
    Scheme,
    State,
    UnsupportedComparisonError,
    evolve,
    l1_error,
    solve,
)
from chapgas import fvcore
from chapgas.fvcheck import FieldSnapshot, _GL5_W, _GL5_X
from chapgas.solver import sample


def _p_ecg():
    return PressureParams.ecg(0.1, 0.1, 2.0, 0.5)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridConfig(0.1, 1.0, 100, 0.5, 0.1)
    with pytest.raises(DomainError):
        GridConfig(-1.0, 1.0, 5, 0.5, 0.1)
    with pytest.raises(DomainError):
        GridConfig(-1.0, 1.0, 100, 0.95, 0.1)
    with pytest.raises(DomainError):
        GridConfig(-1.0, 1.0, 100, 0.5, 0.0)


def test_constant_data_stays_constant():
    p = _p_ecg()
    s = State(1.3, 0.4)
    g = GridConfig(-1.0, 1.0, 32, 0.5, 0.05)
    snap = evolve(p, s, s, g)
    assert np.all(snap.rho == 1.3)
    assert np.all(snap.momentum == 1.3 * 0.4)


def test_mass_and_momentum_conservation():
    p = _p_ecg()
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    g = GridConfig(-0.4, 0.4, 200, 0.45, 0.2)
    snap = evolve(p, left, right, g)
    mass0 = left.rho * 0.4 + right.rho * 0.4
    mom0 = left.rho * left.u * 0.4 + right.rho * right.u * 0.4
    assert abs(snap.total_mass() - mass0 - snap.boundary_mass_influx) <= 1e-12 * mass0
    assert (
        abs(snap.total_momentum() - mom0 - snap.boundary_momentum_influx)
        <= 1e-12 * max(abs(mom0), 1.0)
    )


def test_cfl_respected_every_step():
    p = _p_ecg()
    g = GridConfig(-0.4, 0.4, 64, 0.45, 0.1)
    snap = evolve(p, State(1.0, 0.2), State(0.25, -0.32), g)
    dx = g.dx
    for _, dt, smax in snap.steps:
        assert dt * smax / dx <= g.cfl * (1.0 + 1e-12)


def test_l1_error_zero_for_projected_exact_solution():
    p = _p_ecg()
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    sol = solve(p, left, right)
    g = GridConfig(-0.4, 0.4, 40, 0.45, 0.1)
    edges = np.linspace(g.x_lo, g.x_hi, g.cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * g.dx
    rho = np.zeros(g.cells)
    mom = np.zeros(g.cells)
    for i, xc in enumerate(centers):
        for k in range(5):
            pt = sample(sol, (xc + half * _GL5_X[k]) / g.t_end)
            rho[i] += 0.5 * _GL5_W[k] * pt.rho
            mom[i] += 0.5 * _GL5_W[k] * pt.rho * pt.u
    snap = FieldSnapshot(
        time=g.t_end,
        x=centers,
        rho=rho,
        momentum=mom,
        dx=g.dx,
        params=p,
        left=left,
        right=right,
        scheme=Scheme.GODUNOV_EXACT,
    )
    err_rho, err_mom = l1_error(snap, sol)
    assert err_rho == 0.0
    assert err_mom == 0.0


def test_l1_error_decreases_under_refinement():
    p = _p_ecg()
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    sol = solve(p, left, right)
    errs = []
    for cells in (50, 100, 200):
        g = GridConfig(-0.4, 0.4, cells, 0.45, 0.1)
        snap = evolve(p, left, right, g)
        errs.append(l1_error(snap, sol)[0])
    assert errs[0] > errs[1] > errs[2]


def test_l1_error_rejects_delta_solutions():
    p = PressureParams.transport()
    left, right = State(1.0, 1.0), State(1.0, -1.0)
    sol = solve(p, left, right)
    g = GridConfig(-1.0, 1.0, 50, 0.45, 0.2, Scheme.LAX_FRIEDRICHS)
    snap = evolve(p, left, right, g)
    with pytest.raises(UnsupportedComparisonError):
        l1_error(snap, sol)


def test_l1_error_rejects_mismatched_problem():
    p = _p_ecg()
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    g = GridConfig(-0.4, 0.4, 40, 0.45, 0.1)
    snap = evolve(p, left, right, g)
    other = solve(p, left, State(0.3, -0.32))
    with pytest.raises(DomainError):
        l1_error(snap, other)


def test_evolve_takes_the_callers_solution():
    p = _p_ecg()
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    g = GridConfig(-0.4, 0.4, 40, 0.45, 0.1)
    sol = solve(p, left, right)
    snap = evolve(p, left, right, g, sol=sol)
    fresh = evolve(p, left, right, g)
    assert snap.rho.tobytes() == fresh.rho.tobytes()
    assert snap.momentum.tobytes() == fresh.momentum.tobytes()
    other_datum = solve(p, left, State(0.3, -0.32))
    other_model = solve(PressureParams.ecg(0.1, 0.1, 2.0, 0.6), left, right)
    for other in (other_datum, other_model):
        with pytest.raises(DomainError):
            evolve(p, left, right, g, sol=other)


def test_domain_too_small():
    p = _p_ecg()
    g = GridConfig(-0.1, 0.1, 32, 0.45, 5.0)
    with pytest.raises(DomainTooSmallError):
        evolve(p, State(1.0, 1.0), State(1.0, -1.0), g)


def test_godunov_rejects_delta_data():
    g = GridConfig(-1.0, 1.0, 32, 0.45, 0.1, Scheme.GODUNOV_EXACT)
    with pytest.raises(DomainError):
        evolve(PressureParams.transport(), State(1.0, 1.0), State(1.0, -1.0), g)
    with pytest.raises(DomainError):
        evolve(PressureParams.transport(), State(1.0, -0.5), State(1.0, 0.5), g)


def test_lf_delta_concentrates_mass():
    p = PressureParams.transport()
    left, right = State(1.0, 1.0), State(1.0, -1.0)
    g = GridConfig(-1.0, 1.0, 400, 0.45, 0.5, Scheme.LAX_FRIEDRICHS)
    snap = evolve(p, left, right, g)
    # weight at t = 0.5 is 1.0; window mass = weight + background
    window = snap.mass_in_window(0.0, 0.1)
    background = 0.2  # rho = 1 on both sides
    assert window - background == pytest.approx(1.0, abs=0.15)


def _window_fractions(halfwidth_cells=None, halfwidth_x=None):
    p = PressureParams.transport()
    left, right = State(1.0, 1.0), State(1.0, -1.0)
    fracs = []
    for cells in (200, 400, 800):
        g = GridConfig(-1.0, 1.0, cells, 0.45, 0.5, Scheme.LAX_FRIEDRICHS)
        snap = evolve(p, left, right, g)
        w = halfwidth_cells * snap.dx if halfwidth_cells else halfwidth_x
        excess = snap.mass_in_window(0.0, w) - 2.0 * w  # background rho = 1
        fracs.append(excess / 1.0)  # weight at t = 0.5
    return fracs


@pytest.mark.xfail(
    strict=True,
    reason="the Lax-Friedrichs delta spike narrows more slowly than the grid: "
    "the mass fraction inside a +-5*dx window decreases under refinement",
)
def test_delta_window_fraction_nondecreasing_in_shrinking_window():
    fracs = _window_fractions(halfwidth_cells=5)
    assert fracs[0] <= fracs[1] + 1e-9
    assert fracs[1] <= fracs[2] + 1e-9


def test_delta_window_fraction_nondecreasing_fixed_window():
    # Concentration in the convergent sense: at fixed physical window the
    # captured fraction grows toward 1 under refinement.
    fracs = _window_fractions(halfwidth_x=0.05)
    assert fracs[0] <= fracs[1] + 1e-9
    assert fracs[1] <= fracs[2] + 1e-9
    assert fracs[-1] >= 0.99


def test_gcg_classical_godunov_runs():
    p = PressureParams.gcg(1.0, 0.6)
    left, right = State(1.0, 0.0), State(1.5, 0.4)
    g = GridConfig(-0.8, 0.8, 100, 0.45, 0.1, Scheme.GODUNOV_EXACT)
    snap = evolve(p, left, right, g)
    sol = solve(p, left, right)
    err, _ = l1_error(snap, sol)
    assert err < 0.05


def test_godunov_fallback_logged_as_warning(caplog, monkeypatch):
    real = fvcore.godunov_flux

    def one_fallback_per_step(*args):
        frho, fmom, fallbacks = real(*args)
        return frho, fmom, fallbacks + 1

    monkeypatch.setattr(fvcore, "godunov_flux", one_fallback_per_step)
    g = GridConfig(-0.4, 0.4, 20, 0.45, 0.05)
    with caplog.at_level(logging.WARNING, logger="chapgas.fvcheck"):
        snap = evolve(_p_ecg(), State(1.0, 0.2), State(0.25, -0.32), g)
    assert snap.godunov_fallbacks == len(snap.steps)
    [record] = [r for r in caplog.records if r.name == "chapgas.fvcheck"]
    assert record.levelno == logging.WARNING
    assert f"at {len(snap.steps)} interface solves" in record.getMessage()
