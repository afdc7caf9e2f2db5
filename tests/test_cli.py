import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chapgas import (
    GridConfig,
    Model,
    NumericalLimitError,
    PressureParams,
    SegmentKind,
    State,
    evolve,
    l1_error,
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
from chapgas.limits import rh_residuals
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


_FV_PROBLEM = {
    "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
    "left": {"rho": 1.0, "u": 0.2},
    "right": {"rho": 0.25, "u": -0.32},
    "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": 40, "cfl": 0.45, "t_end": 0.2, "scheme": "godunov"},
}


@pytest.mark.parametrize(
    "command, path, raw",
    [
        ("fv", ("model",), '"ecg"'),
        ("fv", ("left",), "[1, 0]"),
        ("fv", ("model", "A"), '"x"'),
        ("fv", ("model", "A"), "null"),
        ("fv", ("grid", "cells"), '"many"'),
        ("fv", ("grid", "cells"), "null"),
        ("fv", ("grid", "cells"), "1e400"),
        ("sweep", ("schedule",), '{"mode": "both_vanish", "decades": ["a", 3]}'),
        ("fv", ("left",), "1"),
        ("fv", ("grid",), "5"),
        ("fv", ("right", "rho"), "null"),
        ("fv", ("model", "A"), '"0.1"'),
        ("fv", ("model", "B"), "true"),
        ("fv", ("grid", "cells"), "40.7"),
        ("sweep", ("schedule",), '{"mode": "both_vanish", "decades": [1.9, 7.9]}'),
        ("fv", ("grid", "x_lo"), "-1e400"),
        ("fv", ("model",), '{"tag": "gcg", "A": 0.1, "B": 0.1, "alpha": 0.5}'),
        ("fv", ("model",), '{"tag": "transport", "B": 1}'),
        ("fv --model gcg --A 0.1", ("model",), '{"tag": "gcg", "B": 0.1, "alpha": 0.5}'),
        ("sweep", ("schedule",), '{"mode": "both_vanish", "decades": [-400, 1]}'),
    ],
    ids=[
        "model-string",
        "left-list",
        "A-string",
        "A-null",
        "cells-string",
        "cells-null",
        "cells-1e400",
        "decades-string",
        "left-number",
        "grid-number",
        "rho-null",
        "A-numeric-string",
        "B-true",
        "cells-fractional",
        "decades-fractional",
        "x_lo-1e400",
        "gcg-with-A",
        "transport-with-B",
        "gcg-with-A-flag",
        "decades-beyond-float-range",
    ],
)
def test_malformed_problem_blocks_exit_2(tmp_path, capsys, command, path, raw):
    """The README problem file with one value replaced by the raw JSON ``raw``.

    ``command`` may carry flags, which override the file's values.
    """
    doc = json.loads(json.dumps(_FV_PROBLEM))
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = "@"
    (tmp_path / "prob.json").write_text(json.dumps(doc).replace('"@"', raw))
    args = [*command.split(), "--file", str(tmp_path / "prob.json"), "--out", str(tmp_path)]
    assert main(args) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


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


def test_fv_refinement_rows_read_the_l1_error_of_a_plain_run(tmp_path):
    doc = {
        "model": {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5},
        "left": {"rho": 1.0, "u": 0.2},
        "right": {"rho": 0.25, "u": -0.32},
        "grid": {"x_lo": -0.4, "x_hi": 0.4, "cells": 12, "cfl": 0.9, "t_end": 0.2, "scheme": "godunov"},
    }
    path = _write(tmp_path, "fv.json", doc)
    assert main(["fv", "--file", path, "--refine", "--out", str(tmp_path)]) == EXIT_OK
    rows = json.loads((tmp_path / "fv_report.json").read_text())["refinement"]
    p = PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    left, right = State(1.0, 0.2), State(0.25, -0.32)
    sol = solve(p, left, right)
    for row in rows:
        snap = evolve(p, left, right, GridConfig(-0.4, 0.4, row["cells"], 0.9, 0.2))
        assert (row["l1_rho"], row["l1_momentum"]) == l1_error(snap, sol)


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


@pytest.mark.parametrize("command", ["solve", "plot"])
def test_zero_sample_count_is_an_input_error(tmp_path, capsys, command):
    # solve wrote no profile and plot drew 400 samples for --samples 0.
    args = [command, *_README_ECG, "--left", "1,1", "--right", "1,-1", "--out", str(tmp_path)]
    assert main(args + ["--samples", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: --samples must be >= 1, got 0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t", ["nan", "inf", "-1", "0"])
def test_t_must_be_finite_and_positive(tmp_path, capsys, t):
    args = ["solve", "--model", "transport", "--left", "1,1", "--right", "1,-1", "--out", str(tmp_path)]
    assert main(args + ["--samples", "3", "--t", t]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: --t must be finite and positive")
    assert not list(tmp_path.iterdir())


def test_transport_model_block_reaches_solution_json_as_written(tmp_path):
    """A transport block's n and alpha are kept, and ``solution.json`` rebuilds the solution."""
    model = {"tag": "transport", "n": 2.0}
    doc = {"model": model, "left": {"rho": 1.0, "u": 1.0}, "right": {"rho": 1.0, "u": -1.0}}
    assert main(["solve", "--file", _write(tmp_path, "prob.json", doc), "--out", str(tmp_path)]) == EXIT_OK
    written = json.loads((tmp_path / "solution.json").read_text())
    assert written["model"] == {"tag": "transport", "A": 0.0, "B": 0.0, "n": 2.0, "alpha": 1.0}
    p = PressureParams(Model.TRANSPORT, n=2.0)
    direct = solve(p, State(1.0, 1.0), State(1.0, -1.0))
    assert solution_from_dict(written) == direct
    assert solution_from_dict(solution_to_dict(direct)) == direct


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


_GCG_V = ["--model", "gcg", "--B", "0.1", "--alpha", "0.5", "--left", "1,1", "--right", "1,-1"]


def _one_input_error_line(err):
    assert err.startswith("input error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve --samples 10", _FV_PROBLEM),
        (
            "sweep",
            dict(
                _FV_PROBLEM,
                left={"rho": 1.0, "u": 1.0},
                right={"rho": 1.0, "u": -1.0},
                schedule={"mode": "both_vanish", "decades": [1, 3]},
            ),
        ),
        ("fv", _FV_PROBLEM),
        ("fv --refine", _FV_PROBLEM),
        ("plot", _FV_PROBLEM),
    ],
    ids=["solve", "sweep", "fv", "fv-refine", "plot"],
)
def test_out_under_a_regular_file_exits_2(tmp_path, capsys, command, doc):
    path = _write(tmp_path, "prob.json", doc)
    out_dir = str(tmp_path / "prob.json" / "sub")
    assert main([*command.split(), "--file", path, "--out", out_dir]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    _one_input_error_line(err)
    assert out_dir in err


@pytest.mark.parametrize("command", ["solve", "classify"])
@pytest.mark.parametrize("model", [_README_ECG, ["--model", "transport"]], ids=["ecg", "transport"])
def test_zero_density_datum_exits_2(tmp_path, capsys, command, model):
    args = [command, *model, "--left", "0,1", "--right", "1,1", "--out", str(tmp_path / "out")]
    assert main(args) == EXIT_INPUT
    _one_input_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, left, right",
    [
        ({"tag": "gcg", "B": 0.1, "alpha": 0.5}, (1.0, 1.0), (1.0, -1.0)),  # region V, a delta shock
        ({"tag": "transport"}, (1.0, -1.0), (1.0, 1.0)),  # vacuum
    ],
    ids=["gcg-region-V", "transport-vacuum"],
)
def test_godunov_on_data_it_cannot_flux_exits_2(tmp_path, capsys, model, left, right):
    doc = dict(_FV_PROBLEM, model=model, left=dict(rho=left[0], u=left[1]), right=dict(rho=right[0], u=right[1]))
    args = ["fv", "--file", _write(tmp_path, "prob.json", doc), "--out", str(tmp_path / "out")]
    assert main(args) == EXIT_INPUT
    _one_input_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, failing",
    [("plot", "_phase_series"), ("solve --samples 10", "_pressure_column")],
)
def test_failed_command_writes_no_file_and_no_stdout(tmp_path, capsys, monkeypatch, command, failing):
    # Both fail after the outputs before them (two profile SVGs; the solution) are built.
    def fail(*args):
        raise NumericalLimitError("injected")

    monkeypatch.setattr(cli, failing, fail)
    assert main([*command.split(), *_GCG_V, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert (out, err) == ("", "numerical error: injected\n")
    assert not list(tmp_path.iterdir())


def test_format_option_is_refused(tmp_path, capsys):
    args = ["solve", *_GCG_V, "--out", str(tmp_path), "--format", "json"]
    assert main(args) == EXIT_INPUT
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Inputs that once ended in a traceback, an unbounded tick loop, a numpy
# warning on stderr, a multi-line message, or exit 0 with NaN or Infinity
# in the output. Each is a numerical error now: one stderr line, no file.
_NUMERICAL_LIMITS = {
    # The xi axis collapses onto 5e307 (-5e299): no span left to draw.
    "plot-axis-without-span": "plot --model transport --left 1,1e308 --right 1,0",
    "plot-gcg-axis-without-span": "plot --model gcg --B 1e100 --alpha 0.5 --left 1,1 --right 1,-1e300",
    # The delta speed's sqrt(rho) * u overflows: sigma is NaN.
    "plot-delta-speed-nan": "plot --model transport --left 1,1.7e308 --right 1,-1.7e308",
    # A tick step below the float spacing at the tick: the loop never ended.
    "plot-tick-step-below-ulp": "plot --model gcg --B 1e-200 --alpha 0.05603172769023899"
    " --left 1e-300,7.036101643317404e+65 --right 1e-200,-1.3065680673010004e-131",
    # The profile window's width overflows before np.linspace.
    "plot-profile-window-overflow": "plot --model transport --left 1e+300,-1.7e+308 --right 1e-200,1.7e+308",
    # x = xi * t overflows.
    "solve-profile-x-overflow": "solve --model transport --left 1,-1e10 --right 1,1e10 --samples 2 --t 1e300",
    # The phase curve overflows: the message named all 320 densities.
    "plot-phase-curve-one-line": "plot --model gcg --B 5.679040880212651e+165 --alpha 0.7925056580623269"
    " --left 1e+308,9.956208036808509e-73 --right 1e+200,-1e-200",
    "solve-transport-delta-speed-nan": "solve --model transport --left 1e300,1e300 --right 1e300,-1e300",
    "solve-transport-weight-rate-inf": "solve --model transport --left 1,1e308 --right 1,-1e308",
    "solve-gcg-weight-rate-inf": "solve --model gcg --B 1 --alpha 1 --left 1,1e308 --right 1,-1e308",
    # An S1+S2 solution whose two shock speeds overflow to -inf, in order.
    "solve-ecg-shock-speeds-inf": "solve --model ecg --A 9.95114493608514e-184 --B 2.4073917747242204e-88"
    " --n 1.8669425458103859 --alpha 0.2804499662822417"
    " --left 1.0,3.1849976813691056e+115 --right 1.5914449758556495e+145,-0.0",
    # Region V by rounding only: the delta weight's radicand reads -4.2e-104.
    "solve-gcg-delta-weight-unresolved": "solve --model gcg --B 1.3938427795070714e-05 --alpha 1.0"
    " --left 6.378102980054121e+201,1e-12 --right 1.8181853926578998e+49,1e-12",
    # Both sound speeds underflow: the Newton start divided by zero.
    "classify-star-guess-divide-by-zero": "classify --model gcg --B 1e-300 --alpha 1.0"
    " --left 1e+200,1.0 --right 8.852837204634122e+218,1e+200",
}


@pytest.mark.parametrize("argv", list(_NUMERICAL_LIMITS.values()), ids=list(_NUMERICAL_LIMITS))
def test_numerical_limit_exits_3_with_one_line_and_no_file(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out_dir)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error:")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_fan_newton_step_that_overflows_bisects_without_a_warning(tmp_path, capsys):
    # A point in the 1-fan: toward / dh overflows in the Newton step, which
    # then bisects the bracket; numpy warned of the overflow on stderr.
    argv = "plot --model ecg --A 5.090263690023086e-178 --B 3.2079684884971483e+60 --n 2.062471105265873"
    argv += " --alpha 1.0 --left 8.688405624922037,-8.381653236950847e+94 --right 4.14643410898539e-88,9.753545838932984e+59"
    assert main([*argv.split(), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


_MAGNITUDE = st.floats(math.log(1e-300), math.log(1.7e308)).map(math.exp)
_SPEED = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1]),
)
_DENSITY = st.one_of(st.floats(1e-2, 1e2), _MAGNITUDE)
_ALPHA = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _argv(draw):
    """solve, classify or plot argv on any model, over the whole float range."""
    command = draw(st.sampled_from(["solve", "classify", "plot"]))
    model = draw(st.sampled_from(["ecg", "gcg", "transport"]))
    argv = [command, "--model", model]
    if model == "ecg":
        argv += ["--A", repr(draw(_MAGNITUDE)), "--n", repr(draw(st.floats(1.0, 3.0)))]
    if model != "transport":
        argv += ["--B", repr(draw(_MAGNITUDE)), "--alpha", repr(draw(_ALPHA))]
    for side in ("--left", "--right"):
        argv += [side, f"{draw(_DENSITY)!r},{draw(_SPEED)!r}"]
    if command != "classify":
        samples = draw(st.one_of(st.none(), st.integers(1, 50)))
        t = draw(st.one_of(st.none(), _MAGNITUDE))
        argv += ["--samples", str(samples)] if samples else []
        argv += ["--t", repr(t)] if t else []
    return argv


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc] if isinstance(doc, float) else []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_every_argv_gets_a_documented_exit_and_finite_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out_dir])
        err = stderr.getvalue()
        assert code in (EXIT_OK, EXIT_SOFT_FAIL, EXIT_INPUT, EXIT_NUMERICAL)
        if code in (EXIT_INPUT, EXIT_NUMERICAL):
            assert err.count("\n") == 1
            assert err.startswith("input error:" if code == EXIT_INPUT else "numerical error:")
            assert not os.path.exists(out_dir)
            return
        assert code == EXIT_OK and err == ""
        files = sorted(os.listdir(out_dir)) if os.path.exists(out_dir) else []
        command, model = argv[0], argv[2]
        if command == "solve":
            assert files == (["profile.csv"] if "--samples" in argv else []) + ["solution.json"]
            doc = json.loads(stdout.getvalue())
            segs = doc["segments"]
            # The far-field edges are the only numbers that are not finite.
            assert (segs[0]["xi_lo"], segs[-1]["xi_hi"]) == (-math.inf, math.inf)
            segs[0]["xi_lo"] = segs[-1]["xi_hi"] = 0.0
            assert all(math.isfinite(x) for x in _numbers(doc))
            if "--samples" in argv:
                with open(os.path.join(out_dir, "profile.csv"), encoding="utf-8") as fh:
                    values = [float(v) for line in fh.read().splitlines()[1:] for v in line.split(",")]
                assert all(math.isfinite(v) for v in values)
        elif command == "plot":
            svgs = ["profile_rho.svg", "profile_u.svg"] + (["phase.svg"] if model != "transport" else [])
            assert files == sorted(svgs)
        else:
            assert files == []
