"""Command-line surface: solve / classify / sweep / fv / plot.

Problems are described by a JSON file (``--file``) and/or flags; flags win.
Artifacts are written into ``--out`` (JSON and CSV reports, SVG plots); a
command that fails writes no file and nothing to stdout.

Exit codes: 0 success, 1 soft convergence failure (sweep flags false),
2 input error (the flags or problem file, a ``DomainError`` or
``ScheduleError``, an unwritable ``--out``), 3 numerical error (every other
``ChapgasError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import limits, svgplot
from .errors import ChapgasError, DomainError, NumericalLimitError, ScheduleError
from .fvcheck import FieldSnapshot, GridConfig, Scheme, evolve, l1_error, l1_errors
from .limits import Schedule, SweepMode, SweepPoint, SweepReport
from .models import Model, PressureParams, State, WaveFamily, gcg_asymptote, pressure
from .solver import (
    DeltaShock,
    RiemannSolution,
    SegmentKind,
    WaveSegment,
    forward_curve,
    region_of,
    sample_arrays,
    solve,
)

EXIT_OK = 0
EXIT_SOFT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# What a command returns: its exit code, its stdout text or None, and the
# texts of its files by name, which ``main`` writes into ``--out``.
Outputs = tuple[int, Optional[str], dict[str, str]]


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# Problem loading


@dataclasses.dataclass
class Problem:
    params: PressureParams
    left: State
    right: State
    schedule: Optional[Schedule] = None
    grid: Optional[GridConfig] = None


_MODEL_DEFAULTS = {"A": 0.0, "B": 0.0, "n": 1.0, "alpha": 1.0}
_MODEL_KEYS = {"tag", *_MODEL_DEFAULTS}
_STATE_KEYS = {"rho", "u"}
_SCHEDULE_KEYS = {"mode", "decades", "points"}
_GRID_NUMBERS = ("x_lo", "x_hi", "cells", "cfl", "t_end")
_TOP_KEYS = {"model", "left", "right", "schedule", "grid"}


def _check_block(block: dict, allowed: set, where: str, required=()) -> None:
    if not isinstance(block, dict):
        raise InputError(f"{where} must hold a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise InputError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k in required if k not in block]
    if missing:
        raise InputError(f"{where} missing {missing}")


def _number(value, what: str, integral: bool = False):
    """``value`` read as a JSON number.

    It must not be a bool, a string or null, and it must be finite; with
    ``integral`` it must also be integral-valued, and comes back an int.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
        or (integral and value != int(value))
    ):
        kind = "an integer" if integral else "a finite number"
        raise InputError(f"{what} must be {kind}, got {json.dumps(value)}")
    return int(value) if integral else float(value)


def _pair(value, what: str, integral: bool = False) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise InputError(f"{what} must be a pair [a, b], got {json.dumps(value)}")
    return tuple(_number(v, what, integral) for v in value)


def _parse_state_text(txt: str) -> State:
    parts = txt.split(",")
    if len(parts) != 2:
        raise InputError(f"state must be 'rho,u', got {txt!r}")
    try:
        return State(float(parts[0]), float(parts[1]))
    except ValueError as exc:  # float() or the State's DomainError
        raise InputError(f"bad state {txt!r}: {exc}") from exc


def _schedule_from_block(block: dict, params: PressureParams) -> Schedule:
    _check_block(block, _SCHEDULE_KEYS, "schedule block", required=("mode",))
    try:
        mode = SweepMode(block["mode"])
    except ValueError as exc:
        raise InputError(f"unknown schedule mode {block['mode']!r}") from exc
    if ("decades" in block) == ("points" in block):
        raise InputError("schedule block needs exactly one of 'decades' or 'points'")
    if "decades" in block:
        k_lo, k_hi = _pair(block["decades"], "'decades'", integral=True)
        if mode is SweepMode.BOTH_VANISH:
            return Schedule.both_vanish_decades(k_lo, k_hi, params.n, params.alpha)
        if params.B <= 0.0:
            raise InputError("a-vanishes schedule needs model B > 0")
        return Schedule.a_vanishes_decades(params.B, k_lo, k_hi, params.n, params.alpha)
    pts = block["points"]
    if not isinstance(pts, list):
        raise InputError(f"'points' must be a list of [A, B] pairs, got {json.dumps(pts)}")
    return Schedule(mode, tuple(_pair(pt, "schedule point") for pt in pts), params.n, params.alpha)


def _grid_from_block(block: dict) -> GridConfig:
    _check_block(block, {*_GRID_NUMBERS, "scheme"}, "grid block", required=_GRID_NUMBERS)
    try:
        scheme = Scheme(block.get("scheme", "godunov"))
    except ValueError as exc:
        raise InputError(f"unknown scheme {block.get('scheme')!r}") from exc
    values = {k: _number(block[k], f"grid '{k}'", integral=k == "cells") for k in _GRID_NUMBERS}
    return GridConfig(**values, scheme=scheme)


def load_problem(args: argparse.Namespace) -> Problem:
    """The problem the flags and ``--file`` name, flags winning.

    Raises ``InputError``, or the ``ChapgasError`` of a value that the
    model, state, schedule or grid rejects.
    """
    if args.samples is not None and args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    if args.t is not None and not 0.0 < args.t < math.inf:
        raise InputError(f"--t must be finite and positive, got {args.t}")
    file_data: dict = {}
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                file_data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read problem file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed problem file: {exc}") from exc
        _check_block(file_data, _TOP_KEYS, "problem file")

    model_block = file_data.get("model", {})
    _check_block(model_block, _MODEL_KEYS, "model block")
    if args.model is None and "tag" not in model_block:
        raise InputError("no model given (problem file 'model.tag' or --model)")
    flags = {"tag": args.model, "A": args.A, "B": args.B, "n": args.n, "alpha": args.alpha}
    params = params_from_dict({**model_block, **{k: v for k, v in flags.items() if v is not None}})

    def _state(name: str, flag_value: Optional[str]) -> State:
        if flag_value is not None:
            return _parse_state_text(flag_value)
        if file_data.get(name) is None:
            raise InputError(f"no {name} state given")
        return state_from_dict(file_data[name])

    left = _state("left", args.left)
    right = _state("right", args.right)
    schedule = grid = None
    if "schedule" in file_data:
        schedule = _schedule_from_block(file_data["schedule"], params)
    if "grid" in file_data:
        grid = _grid_from_block(file_data["grid"])
    return Problem(params, left, right, schedule, grid)


# ---------------------------------------------------------------------------
# Serialization (stable key names; floats round-trip bit-exactly)


def params_to_dict(p: PressureParams) -> dict:
    return {"tag": p.model.value, "A": p.A, "B": p.B, "n": p.n, "alpha": p.alpha}


def params_from_dict(d: dict) -> PressureParams:
    """A model block read as given, its absent coefficients A = B = 0 and n = alpha = 1.

    ``PressureParams`` checks the values against the tag: nothing is set
    to what the model needs.
    """
    _check_block(d, _MODEL_KEYS, "model block", required=("tag",))
    try:
        model = Model(d["tag"])
    except ValueError as exc:
        raise InputError(f"unknown model tag {d['tag']!r}") from exc
    values = {k: _number(d.get(k, v), f"model '{k}'") for k, v in _MODEL_DEFAULTS.items()}
    return PressureParams(model, **values)


def state_to_dict(s: Optional[State]) -> Optional[dict]:
    if s is None:
        return None
    return {"rho": s.rho, "u": s.u}


def state_from_dict(d: Optional[dict]) -> Optional[State]:
    if d is None:
        return None
    _check_block(d, _STATE_KEYS, "state block", required=("rho", "u"))
    return State(_number(d["rho"], "state 'rho'"), _number(d["u"], "state 'u'"))


def delta_to_dict(d: Optional[DeltaShock]) -> Optional[dict]:
    if d is None:
        return None
    return {
        "sigma": d.sigma,
        "u_delta": d.u_delta,
        "weight_rate": d.weight_rate,
        "entropy_satisfied": d.entropy_satisfied,
    }


def delta_from_dict(d: Optional[dict]) -> Optional[DeltaShock]:
    if d is None:
        return None
    return DeltaShock(d["sigma"], d["u_delta"], d["weight_rate"], d["entropy_satisfied"])


def segment_to_dict(seg: WaveSegment) -> dict:
    return {
        "kind": seg.kind.value,
        "xi_lo": seg.xi_lo,
        "xi_hi": seg.xi_hi,
        "left": state_to_dict(seg.left),
        "right": state_to_dict(seg.right),
        "family": seg.family.value if seg.family else None,
        "delta": delta_to_dict(seg.delta),
    }


def segment_from_dict(d: dict) -> WaveSegment:
    return WaveSegment(
        kind=SegmentKind(d["kind"]),
        xi_lo=d["xi_lo"],
        xi_hi=d["xi_hi"],
        left=state_from_dict(d["left"]),
        right=state_from_dict(d["right"]),
        family=WaveFamily(d["family"]) if d["family"] else None,
        delta=delta_from_dict(d["delta"]),
    )


def region_label(sol: RiemannSolution) -> str:
    """The solution's region, resolved off the boundary; for transport, its wave; without waves, constant."""
    if len(sol.segments) == 1:
        return "constant"
    if sol.params.model is not Model.TRANSPORT:
        return region_of(sol).resolve()
    return sol.segments[1].kind.value


def solution_to_dict(sol: RiemannSolution) -> dict:
    return {
        "model": params_to_dict(sol.params),
        "left": state_to_dict(sol.left),
        "right": state_to_dict(sol.right),
        "region": region_label(sol),
        "pattern": sol.pattern(),
        "intermediate": state_to_dict(sol.intermediate),
        "delta": delta_to_dict(sol.delta),
        "segments": [segment_to_dict(s) for s in sol.segments],
    }


def solution_from_dict(d: dict) -> RiemannSolution:
    return RiemannSolution(
        params=params_from_dict(d["model"]),
        left=state_from_dict(d["left"]),
        right=state_from_dict(d["right"]),
        segments=tuple(segment_from_dict(s) for s in d["segments"]),
        intermediate=state_from_dict(d["intermediate"]),
    )


def sweep_report_to_dict(rep: SweepReport) -> dict:
    targets = {
        k: v for k, v in vars(rep.targets).items() if v is not None
    }
    return {
        "kind": rep.kind,
        "mode": rep.schedule.mode.value,
        "n": rep.schedule.n,
        "alpha": rep.schedule.alpha,
        "tol": rep.tol,
        "left": state_to_dict(rep.left),
        "right": state_to_dict(rep.right),
        "points": [vars(pt).copy() for pt in rep.points],
        "targets": targets,
        "flags": dict(rep.flags),
        "final_errors": dict(rep.final_errors),
        "extras": dict(rep.extras),
        "all_converged": rep.all_converged,
    }


def _json(doc: dict) -> str:
    """``doc`` as indented JSON text, one line end closing it."""
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[float]]) -> str:
    """CSV text: the header, then one line per row, each float in 17 significant digits."""
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Commands


def _pressure_column(p: PressureParams, rho: np.ndarray) -> list[float]:
    """``models.pressure`` at each density, and 0 where rho = 0 (only in a vacuum).

    Evaluated per density because numpy's vector pow can differ in the last bit.
    """
    try:
        pval = [pressure(p, r) if r > 0.0 else 0.0 for r in rho.tolist()]
    except OverflowError as exc:
        raise NumericalLimitError("pressure beyond the float range") from exc
    if not all(math.isfinite(v) for v in pval):
        raise NumericalLimitError("pressure beyond the float range")
    return pval


def _profile_rows(
    sol: RiemannSolution, t: float, samples: int
) -> tuple[list[str], list[list[float]]]:
    span = sol.speed_range()
    if span is None:
        lo, hi = -1.0, 1.0
    else:
        width = max(span[1] - span[0], 1e-3)
        lo = span[0] - 0.2 * width - 0.05
        hi = span[1] + 0.2 * width + 0.05
    # Both the xi window and x = xi * t must be finite to be sampled and written.
    if not (math.isfinite(hi - lo) and math.isfinite(max(abs(lo), abs(hi)) * t)):
        raise NumericalLimitError(f"profile from xi = {lo!r} to {hi!r} at t = {t!r} beyond the float range")
    xis = np.linspace(lo, hi, samples)
    rho, u = sample_arrays(sol, xis)
    rows = np.column_stack([xis * t, xis, rho, u, _pressure_column(sol.params, rho)]).tolist()
    return ["x", "xi", "rho", "u", "pressure"], rows


def cmd_solve(problem: Problem, args: argparse.Namespace) -> Outputs:
    sol = solve(problem.params, problem.left, problem.right)
    text = _json(solution_to_dict(sol))
    files = {"solution.json": text}
    if args.samples:
        t = args.t if args.t is not None else 1.0
        files["profile.csv"] = _csv(*_profile_rows(sol, t, args.samples))
    return EXIT_OK, text, files


def cmd_classify(problem: Problem, args: argparse.Namespace) -> Outputs:
    return EXIT_OK, region_label(solve(problem.params, problem.left, problem.right)) + "\n", {}


def _run_sweep(problem: Problem) -> SweepReport:
    sched = problem.schedule
    if sched is None:
        raise InputError("sweep needs a schedule block in the problem file")
    left, right = problem.left, problem.right
    if sched.mode is SweepMode.BOTH_VANISH:
        if left.u > right.u:
            return limits.run_vanishing_pressure_sweep(left, right, sched)
        return limits.run_vacuum_sweep(left, right, sched)
    return limits.run_to_gcg_sweep(left, right, sched)


def cmd_sweep(problem: Problem, args: argparse.Namespace) -> Outputs:
    rep = _run_sweep(problem)
    header = [f.name for f in dataclasses.fields(SweepPoint)]
    rows = [dataclasses.astuple(pt) for pt in rep.points]
    files = {"sweep.json": _json(sweep_report_to_dict(rep)), "sweep.csv": _csv(header, rows)}
    summary = _json({"kind": rep.kind, "flags": rep.flags, "final_errors": rep.final_errors})
    return EXIT_OK if rep.all_converged else EXIT_SOFT_FAIL, summary, files


def _fv_report(
    problem: Problem,
    sol: RiemannSolution,
    grid: GridConfig,
    snap: FieldSnapshot,
    l1: Optional[tuple[float, float]] = None,
) -> dict:
    mass0 = _initial_mass(problem, grid)
    report: dict = {
        "scheme": grid.scheme.value,
        "cells": grid.cells,
        "t_end": grid.t_end,
        "godunov_fallbacks": snap.godunov_fallbacks,
        "mass_conservation_error": abs(
            snap.total_mass() - mass0 - snap.boundary_mass_influx
        )
        / max(abs(mass0), 1e-300),
    }
    if sol.delta is None:
        err_rho, err_mom = l1 or l1_error(snap, sol)
        report["l1_rho"] = err_rho
        report["l1_momentum"] = err_mom
    else:
        w = 0.1
        center = sol.delta.sigma * snap.time
        window = snap.mass_in_window(center, w)
        background = _background_mass(problem, center, w)
        report["concentration"] = {
            "window_center": center,
            "window_halfwidth": w,
            "window_mass": window,
            "window_mass_excess": window - background,
            "delta_weight": sol.delta.weight_rate * snap.time,
        }
    return report


def _initial_mass(problem: Problem, grid: GridConfig) -> float:
    return problem.left.rho * (0.0 - grid.x_lo) + problem.right.rho * (grid.x_hi - 0.0)


def _background_mass(problem: Problem, center: float, w: float) -> float:
    lo, hi = center - w, center + w
    return problem.left.rho * max(0.0, min(hi, center) - lo) + problem.right.rho * max(
        0.0, hi - max(lo, center)
    )


def cmd_fv(problem: Problem, args: argparse.Namespace) -> Outputs:
    grid = problem.grid
    if grid is None:
        raise InputError("fv needs a grid block in the problem file")
    sol = solve(problem.params, problem.left, problem.right)
    if args.refine:
        grids = [dataclasses.replace(grid, cells=grid.cells * 2**level) for level in range(4)]
        snaps: list[FieldSnapshot] = []
        for g in grids:
            coarser = snaps[-1] if snaps else None
            snaps.append(evolve(problem.params, problem.left, problem.right, g, sol=sol, coarser=coarser))
        # The exact solution is sampled once, for every grid.
        errors = l1_errors(snaps, sol) if sol.delta is None else [None] * len(snaps)
        table = []
        for g, snap, l1 in zip(grids, snaps, errors):
            rep = _fv_report(problem, sol, g, snap, l1)
            rep["steps"] = len(snap.steps)
            rep["steps_from_coarser"] = snap.steps_from_coarser
            table.append(rep)
        orders = []
        if all("l1_rho" in r for r in table):
            for a, b in zip(table, table[1:]):
                orders.append(math.log2(a["l1_rho"] / b["l1_rho"]))
        doc = {"refinement": table, "orders_rho": orders}
        files = {}
    else:
        snap = evolve(problem.params, problem.left, problem.right, grid, sol=sol)
        pval = _pressure_column(snap.params, snap.rho)
        rows = np.column_stack([snap.x, snap.rho, snap.momentum, snap.velocity, pval]).tolist()
        files = {"snapshot.csv": _csv(["x", "rho", "momentum", "u", "pressure"], rows)}
        doc = _fv_report(problem, sol, grid, snap)
    text = _json(doc)
    files["fv_report.json"] = text
    return EXIT_OK, text, files


@np.errstate(over="ignore", invalid="ignore")
def _phase_series(problem: Problem) -> list[svgplot.Series]:
    p, left = problem.params, problem.left
    rho0 = left.rho
    lo, hi = np.geomspace(rho0 * 1e-3, rho0, 160), np.geomspace(rho0, rho0 * 1e3, 160)
    # Each curve in one call: rarefaction and shock branch below and above rho0.
    one, two = (forward_curve(p, left, np.concatenate([lo, hi]), fam) for fam in WaveFamily)
    series = [
        svgplot.Series(one[:160].tolist(), lo.tolist(), "R1"),
        svgplot.Series(one[160:].tolist(), hi.tolist(), "S1"),
        svgplot.Series(two[:160].tolist(), lo.tolist(), "S2"),
        svgplot.Series(two[160:].tolist(), hi.tolist(), "R2"),
    ]
    if p.model is Model.GCG:
        rhos = np.geomspace(rho0 * 1e-3, rho0 * 1e3, 200)
        sdelta = left.u - gcg_asymptote(p, left.rho) - gcg_asymptote(p, rhos)
        series.append(svgplot.Series(list(sdelta), list(rhos), "S_delta", dashed=True))
    series.append(
        svgplot.Series([problem.right.u], [problem.right.rho], "right", marker=True)
    )
    series.append(svgplot.Series([left.u], [left.rho], "left", marker=True))
    return series


def cmd_plot(problem: Problem, args: argparse.Namespace) -> Outputs:
    sol = solve(problem.params, problem.left, problem.right)
    t = args.t if args.t is not None else 1.0
    samples = args.samples if args.samples else 400
    _, rows = _profile_rows(sol, t, samples)
    xi = [r[1] for r in rows]
    files = {
        "profile_rho.svg": svgplot.render(
            [svgplot.Series(xi, [r[2] for r in rows], "rho")],
            f"density profile ({problem.params.model.value})",
            "xi = x/t",
            "rho",
        ),
        "profile_u.svg": svgplot.render(
            [svgplot.Series(xi, [r[3] for r in rows], "u")],
            f"velocity profile ({problem.params.model.value})",
            "xi = x/t",
            "u",
        ),
    }
    if problem.params.model in (Model.ECG, Model.GCG):
        files["phase.svg"] = svgplot.render(
            _phase_series(problem),
            f"wave curves through the left state ({problem.params.model.value})",
            "u",
            "rho",
        )
    return EXIT_OK, None, files


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chapgas",
        description="Exact Riemann solvers for Chaplygin-type gas models, "
        "limit sweeps and finite-volume cross-checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("solve", "solve one Riemann problem and emit the solution"),
        ("classify", "print the phase-plane region of the datum"),
        ("sweep", "run a vanishing-parameter schedule and report convergence"),
        ("fv", "run the finite-volume cross-validator"),
        ("plot", "emit SVG profile and phase-plane plots"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--file", help="problem file (JSON)")
        sp.add_argument("--model", choices=["ecg", "gcg", "transport"])
        sp.add_argument("--A", type=float)
        sp.add_argument("--B", type=float)
        sp.add_argument("--n", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--left", help="left state as 'rho,u'")
        sp.add_argument("--right", help="right state as 'rho,u'")
        sp.add_argument("--t", type=float, help="time for x = xi*t columns/plots")
        sp.add_argument("--samples", type=int, help="number of xi samples")
        sp.add_argument("--out", default=".", help="output directory")
        if name == "fv":
            sp.add_argument(
                "--refine",
                action="store_true",
                help="run 4 grids (cells x1,x2,x4,x8) and report the error table",
            )
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and reused by the later ones."""
    return build_parser()


_COMMANDS = {
    "solve": cmd_solve,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "fv": cmd_fv,
    "plot": cmd_plot,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code, out, files = _COMMANDS[args.command](load_problem(args), args)
        if files:
            os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except (InputError, DomainError, ScheduleError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChapgasError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if out is not None:
        print(out, end="")
    return code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
