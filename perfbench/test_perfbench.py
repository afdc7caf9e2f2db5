"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_chapgas()

import chapgas as cg  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from tracer import Hook, Hooks, Tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, details = run.run(workload, 3, 0.01, trace, tiny=True, setup_repeats=1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, details
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0.0, name


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    same = workloads.make_workload(workload, 11).inputs
    assert workloads.make_workload(workload, 11).inputs == same
    assert workloads.make_workload(workload, 12).inputs != same


def test_tracer_reports_missing_entry_point_as_absent():
    tracer = Tracer()
    original = cg.solver.find_root
    hooks = [
        Hook("chapgas.solver", "no_such_function", "solver.gone", "timed"),
        Hook("chapgas.no_such_module", "f", "gone.f", "counted"),
        Hook("chapgas.solver", "find_root", "solver.find_root", "counted_with_evals"),
    ]
    with Hooks(tracer, hooks):
        assert cg.solver.find_root is not original
        cg.solve(cg.PressureParams.ecg(0.1, 0.1, 2.0, 0.5), cg.State(1.0, -1.0), cg.State(1.0, 1.0))
    assert cg.solver.find_root is original
    assert tracer.absent == ["chapgas.solver.no_such_function", "chapgas.no_such_module.f"]
    assert tracer.counts["solver.find_root.calls"] >= 1
    assert tracer.counts["solver.find_root.f_evals"] > tracer.counts["solver.find_root.calls"]


def test_traced_run_survives_a_missing_entry_point(monkeypatch):
    missing = Hook("chapgas.waves", "no_such_function", "waves.gone", "counted")
    monkeypatch.setattr(workloads, "NUMERIC_HOOKS", workloads.NUMERIC_HOOKS + [missing])
    result, details = run.run("exact-solve-sweep", 3, 0.01, True, tiny=True, setup_repeats=1)
    assert result["correct"]
    assert "chapgas.waves.no_such_function" in details["absent"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.span_totals()
    assert totals["inner"][0] == 3
    assert totals["outer"][2] == pytest.approx(totals["outer"][1] - totals["inner"][1], abs=1e-12)


def test_check_rejects_a_shock_that_breaks_rankine_hugoniot():
    p = cg.PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
    sol = cg.solve(p, cg.State(1.0, 1.0), cg.State(1.0, -1.0))
    assert workloads._check_solution(sol, [], []) == ""
    segs = list(sol.segments)
    i = next(k for k, s in enumerate(segs) if s.kind is cg.SegmentKind.SHOCK)
    star = segs[i].right
    segs[i] = dataclasses.replace(segs[i], right=cg.State(star.rho * 1.01, star.u))
    assert "residual" in workloads._check_solution(dataclasses.replace(sol, segments=tuple(segs)), [], [])


def test_stored_reference_regenerates():
    import mpmath as mp

    k = 1
    with open(refs.REFS_PATH, encoding="utf-8") as fh:
        stored = {pt["k"]: pt["rho_star"] for pt in json.load(fh)["ladder"]}
    fresh = refs.reference_rho_star(k)
    with mp.workdps(40):
        assert abs(mp.mpf(fresh) / mp.mpf(stored[k]) - 1) < mp.mpf(10) ** -(refs.DIGITS - 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fv-delta-lf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
