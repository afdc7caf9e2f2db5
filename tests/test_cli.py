import json
import math

import pytest

from chapgas import (
    PressureParams,
    SegmentKind,
    State,
    lax_check,
    pressure,
    sample,
    solve,
)
from chapgas import cli
from chapgas.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SOFT_FAIL,
    console_main,
    main,
    solution_from_dict,
    solution_to_dict,
)
from chapgas.waves import rh_residuals
from oracles import curve_one_u, curve_two_u


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _transport_delta_problem(tmp_path):
    return _write(
        tmp_path,
        "prob.json",
        {
            "model": {"tag": "transport"},
            "left": {"rho": 1.0, "u": 1.0},
            "right": {"rho": 1.0, "u": -1.0},
        },
    )


def test_solve_transport_delta(tmp_path, capsys):
    path = _transport_delta_problem(tmp_path)
    code = main(["solve", "--file", path, "--out", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["delta"]["sigma"] == 0.0
    assert doc["delta"]["weight_rate"] == 2.0
    assert doc["region"] == "delta"


def test_solve_json_round_trip(tmp_path):
    path = _write(
        tmp_path,
        "prob.json",
        {
            "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": 0.2},
            "right": {"rho": 0.25, "u": -0.32},
        },
    )
    assert main(["solve", "--file", path, "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    rebuilt = solution_from_dict(doc)
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    direct = solve(p, State(1.0, 0.2), State(0.25, -0.32))
    assert rebuilt == direct  # bit-exact field-for-field equality
    # and a second serialization pass is identical text
    assert json.dumps(solution_to_dict(rebuilt)) == json.dumps(solution_to_dict(direct))


def test_solve_constant_problem(tmp_path):
    path = _write(
        tmp_path,
        "prob.json",
        {
            "model": {"tag": "gcg", "B": 1.0, "alpha": 1.0},
            "left": {"rho": 2.0, "u": 0.5},
            "right": {"rho": 2.0, "u": 0.5},
        },
    )
    assert main(["solve", "--file", path, "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert [s["kind"] for s in doc["segments"]] == ["constant"]


def test_solve_profile_csv(tmp_path):
    path = _transport_delta_problem(tmp_path)
    code = main(
        ["solve", "--file", path, "--out", str(tmp_path), "--samples", "50", "--t", "2.0"]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,xi,rho,u,pressure"
    assert len(lines) == 51
    x, xi, rho, u, pres = (float(v) for v in lines[1].split(","))
    assert x == xi * 2.0


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--file", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT


def test_unknown_key_rejected(tmp_path):
    path = _write(
        tmp_path,
        "prob.json",
        {
            "model": {"tag": "transport", "bogus": 1},
            "left": {"rho": 1.0, "u": 1.0},
            "right": {"rho": 1.0, "u": -1.0},
        },
    )
    assert main(["solve", "--file", path, "--out", str(tmp_path)]) == EXIT_INPUT


def test_invalid_model_params_exit_2(tmp_path):
    args = ["classify", "--model", "ecg", "--A", "0.0", "--B", "1.0",
            "--n", "2.0", "--alpha", "0.5", "--left", "1,0", "--right", "1,1",
            "--out", str(tmp_path)]
    assert main(args) == EXIT_INPUT


def test_classify_outputs(tmp_path, capsys):
    assert (
        main(
            ["classify", "--model", "gcg", "--B", "0.01", "--alpha", "1.0",
             "--left", "1,1", "--right", "1,-1", "--out", str(tmp_path)]
        )
        == EXIT_OK
    )
    assert capsys.readouterr().out.strip() == "V"
    main(["classify", "--model", "ecg", "--A", "0.1", "--B", "0.1", "--n", "2.0",
          "--alpha", "0.5", "--left", "1,0", "--right", "1,5", "--out", str(tmp_path)])
    assert capsys.readouterr().out.strip() == "R1R2"
    main(["classify", "--model", "transport", "--left", "2,1", "--right", "1,1",
          "--out", str(tmp_path)])
    assert capsys.readouterr().out.strip() == "contact"


def _sweep_problem(tmp_path, decades, left_u=1.0, right_u=-1.0, right_rho=1.0):
    return _write(
        tmp_path,
        "sweep.json",
        {
            "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": left_u},
            "right": {"rho": right_rho, "u": right_u},
            "schedule": {"mode": "both_vanish", "decades": decades},
        },
    )


def test_sweep_reference_exit_0(tmp_path):
    path = _sweep_problem(tmp_path, [1, 7])
    assert main(["sweep", "--file", path, "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "sweep.json").read_text())
    assert rep["all_converged"] is True
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0].startswith("A,B,rho_star")
    assert len(csv_lines) == 8


def test_sweep_short_schedule_exit_1(tmp_path):
    path = _sweep_problem(tmp_path, [1, 2])
    assert main(["sweep", "--file", path, "--out", str(tmp_path)]) == EXIT_SOFT_FAIL


def test_sweep_wrong_region_exit_2(tmp_path):
    # u- > u+ but the coarse points classify S1R2 (dense right state)
    path = _write(
        tmp_path,
        "sweep.json",
        {
            "model": {"tag": "ecg", "A": 1.0, "B": 1.0, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": 0.1},
            "right": {"rho": 4.0, "u": 0.0},
            "schedule": {"mode": "both_vanish", "points": [[1.0, 1.0], [0.5, 0.5]]},
        },
    )
    assert main(["sweep", "--file", path, "--out", str(tmp_path)]) == EXIT_INPUT


def test_sweep_requires_schedule(tmp_path):
    path = _transport_delta_problem(tmp_path)
    assert main(["sweep", "--file", path, "--out", str(tmp_path)]) == EXIT_INPUT


def test_fv_snapshot_and_report(tmp_path):
    path = _write(
        tmp_path,
        "fv.json",
        {
            "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": 0.2},
            "right": {"rho": 0.25, "u": -0.32},
            "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": 64, "cfl": 0.45,
                     "t_end": 0.1, "scheme": "godunov"},
        },
    )
    assert main(["fv", "--file", path, "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "fv_report.json").read_text())
    assert rep["l1_rho"] > 0.0
    assert rep["mass_conservation_error"] <= 1e-12
    lines = (tmp_path / "snapshot.csv").read_text().splitlines()
    assert lines[0] == "x,rho,momentum,u,pressure"
    assert len(lines) == 65
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    for line in lines[1:]:
        _, rho, _, _, pres = (float(v) for v in line.split(","))
        assert pres == pressure(p, rho)


def test_fv_refinement_table(tmp_path):
    path = _write(
        tmp_path,
        "fv.json",
        {
            "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": 0.2},
            "right": {"rho": 0.25, "u": -0.32},
            "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": 25, "cfl": 0.45,
                     "t_end": 0.1, "scheme": "godunov"},
        },
    )
    assert main(["fv", "--file", path, "--refine", "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "fv_report.json").read_text())
    assert len(rep["refinement"]) == 4
    assert [r["cells"] for r in rep["refinement"]] == [25, 50, 100, 200]
    errs = [r["l1_rho"] for r in rep["refinement"]]
    assert errs[0] > errs[-1]
    assert len(rep["orders_rho"]) == 3


@pytest.mark.parametrize(
    "cells, from_coarser",
    [(12, [0, 3, 6, 13]), (25, [0, 0, 13, 27])],
    ids=["jump-on-an-edge", "jump-inside-a-cell"],
)
def test_fv_refinement_rows_report_steps_from_coarser(tmp_path, cells, from_coarser):
    doc = {
        "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
        "left": {"rho": 1.0, "u": 0.2},
        "right": {"rho": 0.25, "u": -0.32},
        "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": cells, "cfl": 0.9, "t_end": 0.2, "scheme": "godunov"},
    }
    path = _write(tmp_path, "fv.json", doc)
    assert main(["fv", "--file", path, "--refine", "--out", str(tmp_path)]) == EXIT_OK
    rows = json.loads((tmp_path / "fv_report.json").read_text())["refinement"]
    assert [r["steps_from_coarser"] for r in rows] == from_coarser
    assert all(r["steps"] > r["steps_from_coarser"] for r in rows)
    # The finest row is the single-grid run on as many cells, which reports no step counts.
    single = _write(tmp_path, "single.json", dict(doc, grid=dict(doc["grid"], cells=8 * cells)))
    assert main(["fv", "--file", single, "--out", str(tmp_path / "single")]) == EXIT_OK
    report = json.loads((tmp_path / "single" / "fv_report.json").read_text())
    assert "steps" not in report and report["l1_rho"] == rows[-1]["l1_rho"]


def test_fv_delta_concentration_report(tmp_path):
    path = _write(
        tmp_path,
        "fv.json",
        {
            "model": {"tag": "transport"},
            "left": {"rho": 1.0, "u": 1.0},
            "right": {"rho": 1.0, "u": -1.0},
            "grid": {"x_lo": -1.0, "x_hi": 1.0, "cells": 200, "cfl": 0.45,
                     "t_end": 0.5, "scheme": "lax_friedrichs"},
        },
    )
    assert main(["fv", "--file", path, "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "fv_report.json").read_text())
    assert "concentration" in rep
    assert rep["concentration"]["delta_weight"] == pytest.approx(1.0, rel=1e-12)


def test_fv_domain_too_small_exit_3(tmp_path):
    path = _write(
        tmp_path,
        "fv.json",
        {
            "model": {"tag": "transport"},
            "left": {"rho": 1.0, "u": 1.0},
            "right": {"rho": 1.0, "u": -1.0},
            "grid": {"x_lo": -0.1, "x_hi": 0.1, "cells": 64, "cfl": 0.45,
                     "t_end": 5.0, "scheme": "lax_friedrichs"},
        },
    )
    assert main(["fv", "--file", path, "--out", str(tmp_path)]) == EXIT_NUMERICAL


def test_plot_emits_svgs(tmp_path):
    path = _write(
        tmp_path,
        "prob.json",
        {
            "model": {"tag": "gcg", "B": 0.01, "alpha": 1.0},
            "left": {"rho": 1.0, "u": 1.0},
            "right": {"rho": 1.0, "u": -1.0},
        },
    )
    assert main(["plot", "--file", path, "--out", str(tmp_path), "--samples", "100"]) == EXIT_OK
    for name in ("profile_rho.svg", "profile_u.svg", "phase.svg"):
        text = (tmp_path / name).read_text()
        assert 'viewBox="0 0 800 600"' in text
        assert "<script" not in text


def test_plot_without_problem_exits_2(tmp_path):
    assert main(["plot", "--out", str(tmp_path)]) == EXIT_INPUT


def test_missing_subcommand_exits_2():
    assert main([]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["classify", "solve", "plot"])
def test_gcg_shock_radicand_overflow_exits_3_without_traceback(tmp_path, capsys, command):
    # GCG B = alpha = 1 at rho = 1e-160: rho^-alpha is finite, but the shock
    # radicand overflows; classify solves the datum, so it exits 3 as solve does.
    args = [command, "--model", "gcg", "--B", "1", "--alpha", "1"]
    args += ["--left", "1e-160,1", "--right", "1e-160,-1", "--out", str(tmp_path)]
    assert main(args) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "params", [PressureParams.ecg(0.1, 0.1, 2.0, 0.5), PressureParams.gcg(0.3, 0.5)], ids=["ecg", "gcg"]
)
def test_phase_plot_curves_match_the_scalar_curves(params):
    # phase.svg draws these series; the oracle curves are scalar floats on
    # models.shock_radicand, so the shock branches may differ in the last bits.
    left = State(2.0, 0.5)
    series = cli._phase_series(cli.Problem(params, left, State(1.0, -1.0)))
    curves = {"R1": curve_one_u, "S1": curve_one_u, "S2": curve_two_u, "R2": curve_two_u}
    drawn = [s for s in series if s.label in curves]
    assert [s.label for s in drawn] == ["R1", "S1", "S2", "R2"]
    for s in drawn:
        assert len(s.xs) == len(s.ys) == 160
        for u, rho in zip(s.xs, s.ys):
            want = curves[s.label](params, left, rho)
            assert abs(u - want) <= 1e-13 * max(1.0, abs(want))


def test_fv_refine_solves_the_datum_once(tmp_path, monkeypatch):
    calls = []

    def counted(p, left, right):
        calls.append((left, right))
        return solve(p, left, right)

    monkeypatch.setattr("chapgas.cli.solve", counted)
    monkeypatch.setattr("chapgas.fvcheck.solve", counted)
    path = _write(
        tmp_path,
        "fv.json",
        {
            "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
            "left": {"rho": 1.0, "u": 0.2},
            "right": {"rho": 0.25, "u": -0.32},
            "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": 12, "cfl": 0.45,
                     "t_end": 0.1, "scheme": "godunov"},
        },
    )
    assert main(["fv", "--file", path, "--refine", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize(
    "model, left, right",
    [
        ({"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5}, (1.0, -1.0), (1.0, 1.0)),
        ({"tag": "ecg", "A": 0.01, "B": 0.5, "n": 1.5, "alpha": 0.3}, (1.0, -1.0), (2.0, 1.0)),
        ({"tag": "gcg", "B": 0.3, "alpha": 0.5}, (1.0, -1.0), (2.0, 1.0)),
        ({"tag": "transport"}, (1.0, -1.0), (1.0, 1.0)),
    ],
)
def test_profile_csv_matches_pointwise_sample(tmp_path, model, left, right):
    path = _write(
        tmp_path,
        "prob.json",
        {
            "model": model,
            "left": {"rho": left[0], "u": left[1]},
            "right": {"rho": right[0], "u": right[1]},
        },
    )
    args = ["solve", "--file", path, "--out", str(tmp_path), "--samples", "101"]
    assert main(args) == EXIT_OK
    sol = solution_from_dict(json.loads((tmp_path / "solution.json").read_text()))
    lines = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    assert len(lines) == 101
    for line in lines:
        x, xi, rho, u, pres = (float(v) for v in line.split(","))
        pt = sample(sol, xi)
        assert (rho, u) == (pt.rho, pt.u)
        want = pressure(sol.params, pt.rho) if pt.rho > 0.0 else 0.0
        assert abs(pres - want) <= 1e-15 * abs(want)


def test_console_script_entry_point(monkeypatch, capsys):
    argv = "chapgas classify --model ecg --A 0.1 --B 0.1 --n 2 --alpha 0.5 --left 1,1 --right 1,-1"
    monkeypatch.setattr("sys.argv", argv.split())
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out == "S1S2\n"


_README_ECG = ["--model", "ecg", "--A", "0.1", "--B", "0.1", "--n", "2", "--alpha", "0.5"]


def test_profile_pressure_is_models_pressure_bitwise(tmp_path):
    # numpy's vector pow can differ from libm's pow in the last bit; the
    # profile must carry the pressure that models.pressure gives.
    args = ["solve", *_README_ECG, "--left", "1,-1", "--right", "1,1", "--out", str(tmp_path)]
    assert main(args + ["--samples", "401"]) == EXIT_OK
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    for line in (tmp_path / "profile.csv").read_text().splitlines()[1:]:
        _, _, rho, _, pres = (float(v) for v in line.split(","))
        assert pres == pressure(p, rho)


@pytest.mark.parametrize(
    "command, left",
    [
        ("solve", "1e-300,0"),  # the shock radicand overflows
        ("classify", "1e-300,0"),  # the shock radicand and the quadrature overflow
        ("solve", "1e250,0"),  # rho**n overflows
        ("classify", "1e250,0"),
    ],
)
def test_extreme_densities_exit_3_with_one_line(tmp_path, capsys, command, left):
    args = [command, *_README_ECG, "--left", left, "--right", "1,0", "--out", str(tmp_path)]
    assert main(args) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert err.count("\n") == 1


def test_gcg_delta_weight_overflow_exits_3_with_one_line(tmp_path, capsys):
    # (u- - u+)^2 passes 1e308 in the delta-shock weight.
    args = ["solve", "--model", "gcg", "--B", "1", "--alpha", "1"]
    args += ["--left", "1e-200,1e201", "--right", "1,0", "--out", str(tmp_path)]
    assert main(args) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert err.count("\n") == 1


def _shocks_across_150_decades(tmp_path, left):
    args = ["solve", *_README_ECG, "--left", left, "--right", "1,0", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    sol = solution_from_dict(json.loads((tmp_path / "solution.json").read_text()))
    shocks = [s for s in sol.segments if s.kind is SegmentKind.SHOCK]
    assert shocks
    return sol.params, shocks


def _flux_scale(p, a, b, sigma):
    """Sizes of the terms whose differences make up the mass and momentum RH residuals."""
    ma, mb = a.rho * a.u, b.rho * b.u
    fa, fb = ma * a.u + pressure(p, a.rho), mb * b.u + pressure(p, b.rho)
    mass = abs(sigma) * (a.rho + b.rho) + abs(ma) + abs(mb)
    return mass, abs(sigma) * (abs(ma) + abs(mb)) + abs(fa) + abs(fb)


# 1e-200 once exited 3: the shock radicand divided by rho_a * rho_b, which
# underflowed to 0 at a bisection point.
_EXTREME_LEFT = ["1e-150,0", "1e-200,0"]


@pytest.mark.parametrize("left", _EXTREME_LEFT)
def test_solve_across_150_decades_of_density(tmp_path, left):
    p, shocks = _shocks_across_150_decades(tmp_path, left)
    for seg in shocks:
        r_mass, _ = rh_residuals(p, seg.left, seg.right, seg.speed)
        assert abs(r_mass) <= 1e-8 * _flux_scale(p, seg.left, seg.right, seg.speed)[0]
        assert lax_check(p, seg.family, seg.left, seg.right, seg.speed)


@pytest.mark.parametrize("left", _EXTREME_LEFT)
def test_solve_across_150_decades_balances_shock_momentum(tmp_path, left):
    p, shocks = _shocks_across_150_decades(tmp_path, left)
    for seg in shocks:
        _, r_mom = rh_residuals(p, seg.left, seg.right, seg.speed)
        assert abs(r_mom) <= 1e-8 * _flux_scale(p, seg.left, seg.right, seg.speed)[1]


def test_solve_samples_a_fan_across_200_decades(tmp_path):
    # The profile samples the 2-fan from rho* = 2.5e-200 up to 1; its
    # Newton once ran out of iterations there and the command exited 3.
    args = ["solve", *_README_ECG, "--left", "1e-200,0", "--right", "1,0", "--samples", "400"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "profile.csv").read_text().splitlines()[1:]]
    assert len(rows) == 400
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_solve_both_sides_below_1e162_returns_two_fans(tmp_path):
    # rho_l * rho_r underflows to 0, and a velocity jump of 1 moves log rho by
    # about 2e-150, so rho* is 1e-200 to double precision between two fans.
    args = ["solve", *_README_ECG, "--left", "1e-200,0", "--right", "1e-200,1"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
    sol = solution_from_dict(json.loads((tmp_path / "solution.json").read_text()))
    assert sol.pattern() == "R1+R2"
    assert sol.intermediate.rho == pytest.approx(1e-200, rel=1e-12, abs=0.0)


def test_gcg_shocks_below_1e162_exit_3_on_the_radicand(tmp_path, capsys):
    args = ["solve", "--model", "gcg", "--B", "1", "--alpha", "1"]
    args += ["--left", "1e-200,1e150", "--right", "1e-200,-1e150", "--out", str(tmp_path)]
    assert main(args) == EXIT_NUMERICAL
    # The shock radicand overflows at rho* ~ 1e-200 for |u| ~ 1e150; the
    # core reports the non-finite mismatch as an escape.
    err = capsys.readouterr().err
    assert err.startswith("numerical error: wave-curve intersection escaped the density range")
    assert err.count("\n") == 1


def test_solve_both_sides_below_1e162_resolves_rho_star():
    # c is about 2.2e149 there, so the velocity jump of 1 moves log rho by
    # about 2e-150: rho* is 1e-200 to double precision (fvcore.star_state
    # gives 9.99999999999978e-201).
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    sol = solve(p, State(1e-200, 0.0), State(1e-200, 1.0))
    assert sol.intermediate.rho == pytest.approx(1e-200, rel=1e-12, abs=0.0)
    assert sol.intermediate.u == pytest.approx(0.5, rel=1e-12)
    # The density jumps are below DEGENERATE_RTOL but the velocity jumps are
    # not: both fans stay, with zero width, and the far states are the data.
    fans = [seg for seg in sol.segments if seg.kind is SegmentKind.FAN]
    assert len(fans) == 2 and all(seg.xi_lo == seg.xi_hi for seg in fans)
    assert [sample(sol, xi).u for xi in (-3e149, 0.0, 3e149)] == [0.0, sol.intermediate.u, 1.0]


@pytest.mark.parametrize("command", ["solve", "plot"])
def test_negative_sample_count_is_an_input_error(tmp_path, capsys, command):
    args = [command, *_README_ECG, "--left", "1,1", "--right", "1,-1", "--out", str(tmp_path)]
    assert main(args + ["--samples", "-5"]) == EXIT_INPUT
    assert "--samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_CLASSIFY_S1S2 = [
    "classify", "--model", "ecg", "--A", "0.1", "--B", "0.1", "--n", "2", "--alpha", "0.5",
    "--left", "1,1", "--right", "1,-1",
]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    runs = []
    for _ in range(2):
        code = main(_CLASSIFY_S1S2)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] == (EXIT_OK, "S1S2\n")
    assert len(built) == 1


def test_parser_survives_a_bad_argv(capsys):
    assert main(["classify", "--model", "steam"]) == EXIT_INPUT
    assert "invalid choice" in capsys.readouterr().err
    assert main(_CLASSIFY_S1S2) == EXIT_OK
    assert capsys.readouterr().out == "S1S2\n"


@pytest.mark.parametrize(
    "model, left, right",
    [
        (["--model", "gcg", "--B", "1", "--alpha", "0.5"], "1,0", "1,0"),
        (_README_ECG, "1,0.5", "1,0.5"),
        (["--model", "transport"], "1,0", "1,0"),
        # Both velocity jumps within DEGENERATE_RTOL: both waves are dropped.
        (["--model", "gcg", "--B", "1", "--alpha", "1"], "1,0", "1,-1.03e-10"),
    ],
)
def test_solution_without_waves_is_labelled_constant(tmp_path, capsys, model, left, right):
    data = [*model, "--left", left, "--right", right]
    assert main(["classify", *data]) == EXIT_OK
    assert capsys.readouterr().out == "constant\n"
    assert main(["solve", *data, "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert (doc["region"], doc["pattern"]) == ("constant", "constant")
