"""The names ``chapgas`` exports, and the names the benchmark reads from it."""

import importlib
import pathlib
import re

import pytest

import chapgas
from chapgas import PressureParams, State, classify_ecg, classify_gcg
from chapgas.solver import Region

PUBLIC_NAMES = [
    "ChapgasError",
    "DeltaShock",
    "DomainError",
    "DomainTooSmallError",
    "FieldSnapshot",
    "GridConfig",
    "Model",
    "NoDeltaShockError",
    "NumericalLimitError",
    "PositivityError",
    "PressureParams",
    "RiemannSolution",
    "SamplePoint",
    "Schedule",
    "ScheduleError",
    "Scheme",
    "SegmentKind",
    "State",
    "SweepMode",
    "SweepReport",
    "UnsupportedComparisonError",
    "UnsupportedModelError",
    "WaveFamily",
    "WaveSegment",
    "classify_ecg",
    "classify_gcg",
    "delta_weight_at",
    "eigenvalues",
    "evolve",
    "l1_error",
    "lax_check",
    "pressure",
    "run_to_gcg_sweep",
    "run_vacuum_sweep",
    "run_vanishing_pressure_sweep",
    "sample",
    "solve",
    "sound_speed_sq",
    "target_A_rho_n",
    "target_gcg_delta",
    "target_transport_delta",
    "threshold_A0",
    "threshold_A1",
]

REMOVED_NAMES = [
    "DegenerateError",
    "RegionECG",
    "RegionGCG",
    "genuine_nonlinearity_indicator",
    "rarefaction_u",
    "shock_speed",
    "shock_u",
    "solve_ecg",
    "solve_gcg",
    "solve_transport",
]

# The benchmark imports chapgas as ``cg`` and reads these files' names from it.
BENCHMARK_FILES = ["workloads.py", "test_perfbench.py"]


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert sorted(chapgas.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(chapgas, name), name


def test_removed_names_and_the_waves_module_are_gone():
    for name in REMOVED_NAMES:
        assert not hasattr(chapgas, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("chapgas.waves")


@pytest.mark.parametrize("filename", BENCHMARK_FILES)
def test_every_name_the_benchmark_reads_exists(filename):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / filename
    names = set(re.findall(r"\bcg\.(\w+)", path.read_text(encoding="utf-8")))
    assert names, f"no cg.<name> found in {path}"
    missing = sorted(name for name in names if not hasattr(chapgas, name))
    assert not missing, f"{filename} reads names chapgas lacks: {missing}"


def test_both_classifiers_return_one_region_type():
    ecg = classify_ecg(PressureParams.ecg(0.1, 0.1, 2.0, 0.5), State(1.0, 0.0), State(1.0, 0.0))
    gcg = classify_gcg(PressureParams.gcg(1.0, 0.5), State(1.0, 0.0), State(1.0, 0.0))
    assert type(ecg) is type(gcg) is Region
    assert (ecg.tag, ecg.boundary, ecg.gcg) == ("OnBoundary", ("R1", "S2"), False)
    assert (gcg.tag, gcg.boundary, gcg.gcg) == ("OnBoundary", ("R1", "S2"), True)
    assert (ecg.resolve(), gcg.resolve()) == ("R1S2", "II")
