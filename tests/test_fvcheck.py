import dataclasses
import logging

import numpy as np
import pytest

from chapgas import (
    DomainError,
    DomainTooSmallError,
    GridConfig,
    PositivityError,
    PressureParams,
    Scheme,
    State,
    UnsupportedComparisonError,
    evolve,
    l1_error,
    solve,
)
from chapgas import fvcheck, fvcore
from chapgas.fvcheck import FieldSnapshot, _GL5_W, _GL5_X
from chapgas.solver import sample

from oracles import reference_evolve, reference_step, same_bits as _same_bits


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


@pytest.mark.parametrize(
    "x_lo, x_hi, t_end",
    [(-1.0, 1.0, np.inf), (-np.inf, 1.0, 0.1), (-1.0, np.inf, 0.1)],
    ids=["t_end-inf", "x_lo-inf", "x_hi-inf"],
)
def test_grid_rejects_non_finite_values(x_lo, x_hi, t_end):
    with pytest.raises(DomainError):
        GridConfig(x_lo, x_hi, 100, 0.5, t_end)


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


_LF = Scheme.LAX_FRIEDRICHS


@pytest.mark.parametrize(
    "p, left, right, g",
    [
        # The README model's R1+S2 datum, Godunov.
        (_p_ecg(), State(1.0, 0.2), State(0.25, -0.32), GridConfig(-0.4, 0.4, 96, 0.9, 0.2)),
        (PressureParams.gcg(1.0, 0.6), State(1.0, 0.0), State(1.5, 0.4), GridConfig(-0.8, 0.8, 100, 0.45, 0.1)),
        # GCG region V, a transport delta shock and transport vacuum, Lax-Friedrichs.
        (PressureParams.gcg(0.1, 0.5), State(1.0, 1.0), State(1.0, -1.0), GridConfig(-2.0, 2.0, 160, 0.9, 1.0, _LF)),
        (PressureParams.transport(), State(4.0, 0.5), State(1.0, -0.5), GridConfig(-2.0, 2.0, 160, 0.9, 1.0, _LF)),
        (PressureParams.transport(), State(1.0, -1.0), State(1.0, 1.0), GridConfig(-2.0, 2.0, 160, 0.9, 1.0, _LF)),
    ],
    ids=["ecg-r1s2-godunov", "gcg-godunov", "gcg-delta-lf", "transport-delta-lf", "transport-vacuum-lf"],
)
def test_evolve_on_padded_fields_is_the_re_padding_reference_bitwise(p, left, right, g):
    snap = evolve(p, left, right, g)
    rho, mom, steps, mass_in, mom_in, fallbacks = reference_evolve(p, left, right, g)
    assert _same_bits(snap.rho, rho) and _same_bits(snap.momentum, mom)
    assert _same_bits(snap.steps, steps)
    assert _same_bits(snap.boundary_mass_influx, mass_in)
    assert _same_bits(snap.boundary_momentum_influx, mom_in)
    assert snap.godunov_fallbacks == fallbacks


@pytest.mark.parametrize(
    "p, godunov",
    [(PressureParams.transport(), False), (PressureParams.transport(), True), (PressureParams.gcg(0.5, 0.7), False)],
    ids=["transport-lf", "transport-godunov", "gcg-lf"],
)
def test_step_on_a_field_with_an_empty_cell_is_the_guarded_reference_bitwise(p, godunov):
    rng = np.random.default_rng(16)
    rho = rng.uniform(0.1, 3.0, 12)
    mom = rho * rng.uniform(-2.0, 2.0, 12)
    rho[5], mom[5] = 0.0, 0.0  # an exactly empty cell
    got = fvcore.step(p, fvcore._padded(rho), fvcore._padded(mom), 0.1, 0.45, 1.0, godunov)
    want = reference_step(p, rho, mom, 0.1, 0.45, 1.0, godunov)
    for field, ref in zip(got[:2], want[:2]):
        assert _same_bits(field[1:-1], ref)
        assert field[0] == field[1] and field[-1] == field[-2]  # the ghosts copy the end cells
    for value, ref in zip(got[2:], want[2:]):
        assert _same_bits(value, ref)


@pytest.mark.parametrize("cell", [0, 7, 39])
def test_positivity_error_names_the_interior_cell(monkeypatch, cell):
    real = fvcore.lf_flux

    def draining(p, rho, u, lam):
        frho, fmom = real(p, rho, u, lam)
        frho[cell + 1] += 1e3  # out of the cell through its right interface
        return frho, fmom

    monkeypatch.setattr(fvcore, "lf_flux", draining)
    g = GridConfig(-2.0, 2.0, 40, 0.9, 1.0, Scheme.LAX_FRIEDRICHS)
    with pytest.raises(PositivityError) as exc:
        evolve(PressureParams.gcg(0.1, 0.5), State(1.0, 1.0), State(1.0, -1.0), g)
    assert exc.value.cell == cell


_BENCH = (_p_ecg(), State(1.0, 0.2), State(0.25, -0.32))


def _same_run(seeded, fresh):
    """Whether two snapshots hold the same run, to the bit."""
    return (
        _same_bits(seeded.rho, fresh.rho)
        and _same_bits(seeded.momentum, fresh.momentum)
        and _same_bits(seeded.steps, fresh.steps)
        and _same_bits(seeded.time, fresh.time)
        and _same_bits(seeded.boundary_mass_influx, fresh.boundary_mass_influx)
        and _same_bits(seeded.boundary_momentum_influx, fresh.boundary_momentum_influx)
        and seeded.godunov_fallbacks == fresh.godunov_fallbacks
    )


def _counting_steps(monkeypatch):
    calls = []
    real = fvcore.step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fvcore, "step", counted)
    return calls


def _grid(g, cells):
    return dataclasses.replace(g, cells=cells)


@pytest.mark.parametrize(
    "p, left, right, g, computed",
    [
        # The benchmark's R1+S2 datum, 12 to 96 cells at CFL 0.9: 52 steps reported.
        (*_BENCH, GridConfig(-0.4, 0.4, 12, 0.9, 0.2), [4, 4, 8, 14]),
        # The README model's S1+S2 and R1+R2 data.
        (_p_ecg(), State(1.0, 1.0), State(1.0, -1.0), GridConfig(-0.4, 0.4, 40, 0.45, 0.2), [34, 48, 95, 188]),
        (_p_ecg(), State(1.0, -1.0), State(1.0, 1.0), GridConfig(-0.4, 0.4, 40, 0.45, 0.2), [34, 48, 95, 188]),
        (PressureParams.gcg(1.0, 0.6), State(1.0, 0.0), State(1.5, 0.4), GridConfig(-0.8, 0.8, 20, 0.45, 0.1), [3, 4, 6, 12]),
        # GCG region V, a transport delta shock and transport vacuum, Lax-Friedrichs.
        (PressureParams.gcg(0.1, 0.5), State(1.0, 1.0), State(1.0, -1.0), GridConfig(-2.0, 2.0, 20, 0.9, 1.0, _LF), [7, 8, 15, 28]),
        (PressureParams.transport(), State(4.0, 0.5), State(1.0, -0.5), GridConfig(-2.0, 2.0, 20, 0.9, 1.0, _LF), [3, 4, 7, 12]),
        (PressureParams.transport(), State(1.0, -1.0), State(1.0, 1.0), GridConfig(-2.0, 2.0, 20, 0.9, 1.0, _LF), [6, 7, 12, 23]),
        # Off-centre, with the jump on an edge from 24 cells on: the first pair is refused.
        (*_BENCH, GridConfig(-0.3, 0.5, 12, 0.9, 0.2), [4, 7, 8, 14]),
    ],
    ids=[
        "bench-r1s2", "ecg-s1s2", "ecg-r1r2", "gcg-godunov",
        "gcg-delta-lf", "transport-delta-lf", "transport-vacuum-lf", "off-centre-12",
    ],
)
def test_seeded_refinement_is_the_fresh_run_bitwise(monkeypatch, p, left, right, g, computed):
    calls = _counting_steps(monkeypatch)
    coarser = None
    for level, want in enumerate(computed):
        cells = g.cells * 2**level
        calls.clear()
        seeded = evolve(p, left, right, _grid(g, cells), coarser=coarser)
        assert len(calls) == want
        assert seeded.steps_from_coarser == len(seeded.steps) - want
        assert _same_run(seeded, evolve(p, left, right, _grid(g, cells)))
        coarser = seeded


def _refused(p, left, right, g, coarser):
    seeded = evolve(p, left, right, g, coarser=coarser)
    assert seeded.steps_from_coarser == 0
    assert _same_run(seeded, evolve(p, left, right, g))


@pytest.mark.parametrize(
    "g",
    [
        # test_cli's refinement table: the jump is inside a cell of the 25-cell grid.
        GridConfig(-0.4, 0.4, 25, 0.45, 0.1),
        # Off-centre: the 16-cell grid's edge nearest the jump is at 5.6e-17.
        GridConfig(-0.3, 0.5, 16, 0.9, 0.2),
    ],
    ids=["refinement-table-25", "off-centre-16"],
)
def test_seed_from_a_datum_whose_jump_is_inside_a_cell_is_refused(g):
    _refused(*_BENCH, _grid(g, 2 * g.cells), evolve(*_BENCH, g))


def test_seed_whose_halves_would_be_subnormal_is_refused():
    # The benchmark grid scaled by 5e-307: the finer dx, 1.7e-308, is subnormal.
    # Scaled by 1e-306 instead, every half is normal and the seed is taken.
    for scale, taken in [(5e-307, 0), (1e-306, 3)]:
        g = GridConfig(-0.4 * scale, 0.4 * scale, 12, 0.9, 0.2 * scale)
        seeded = evolve(*_BENCH, _grid(g, 24), coarser=evolve(*_BENCH, g))
        assert seeded.steps_from_coarser == taken
        assert _same_run(seeded, evolve(*_BENCH, _grid(g, 24)))


def test_seed_from_another_problem_is_refused():
    p, left, right = _BENCH
    g = GridConfig(-0.4, 0.4, 24, 0.9, 0.2)
    coarser = evolve(p, left, right, _grid(g, 12))
    assert coarser.checkpoint is not None
    others = [
        (p, left, right, dataclasses.replace(g, cfl=0.45)),
        (p, left, right, dataclasses.replace(g, t_end=0.1)),
        (p, left, right, dataclasses.replace(g, scheme=_LF)),
        (p, left, State(0.3, -0.32), g),
        (PressureParams.ecg(0.1, 0.1, 2.0, 0.6), left, right, g),
        (p, left, right, _grid(g, 36)),
        (p, left, right, _grid(g, 12)),
    ]
    for other in others:
        _refused(*other, coarser)
    _refused(p, left, right, g, dataclasses.replace(coarser, checkpoint=None))


def test_seed_offset_needs_the_cells_right_of_the_window_to_hold_its_last_state():
    # A projected two-state datum always has them; a hand-made finer datum
    # whose last six cells differ from the window's last cell does not.
    p, left, right = _BENCH
    g = GridConfig(-0.4, 0.4, 24, 0.9, 0.2)
    coarser = evolve(p, left, right, _grid(g, 12))
    for last, want in [(right, 6), (State(0.3, -0.32), None)]:
        rho = np.array([left.rho] * 12 + [right.rho] * 6 + [last.rho] * 6)
        mom = np.array([left.rho * left.u] * 12 + [right.rho * right.u] * 6 + [last.rho * last.u] * 6)
        lead, trail = fvcheck._end_runs(rho, mom)
        assert fvcheck._seed_offset(coarser, p, left, right, g, rho, mom, lead, trail) == want


def test_checkpoint_is_left_out_of_repr_and_equality():
    snap = evolve(*_BENCH, GridConfig(-0.4, 0.4, 12, 0.9, 0.2))
    assert snap.checkpoint is not None and snap.checkpoint.steps == 3
    assert "checkpoint" not in repr(snap)
    [ck] = [f for f in dataclasses.fields(FieldSnapshot) if f.name == "checkpoint"]
    assert not ck.compare
