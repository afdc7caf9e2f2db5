"""The benchmark's three workloads: inputs from a seed, timed repetitions, output checks.

Each workload builds its inputs from the seed alone, runs a fixed amount of
work per repetition, times only calls into chapgas, and checks every output
afterwards. An operation fails when it raises or when a check on its output
fails; failures are counted against attempts and nothing is dropped.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import chapgas as cg
from chapgas import cli

import refs
from tracer import Hook, Hooks, Tracer

WORKLOADS = ("fv-godunov-ecg", "fv-delta-lf", "exact-solve-sweep")

# Mass may change only by the boundary influx, to rounding.
MASS_RTOL = 1e-12
# Rankine-Hugoniot residuals relative to the size of the flux terms.
RH_RTOL = 1e-8

_KERNEL_TIMED = (
    "interface_fluxes_godunov",
    "interface_fluxes_lf",
    "max_abs_speed",
    "conservative_update",
    "star_state",
    "sample_classical",
)
KERNEL_HOOKS = [Hook("chapgas._kernels", f, "kernels." + f, "timed") for f in _KERNEL_TIMED] + [
    Hook("chapgas._kernels", "du_integral", "kernels.du_integral", "counted")
]
NUMERIC_HOOKS = [
    Hook("chapgas.solver", "find_root", "solver.find_root", "counted_with_evals"),
    Hook("chapgas.solver", "expand_bracket", "solver.expand_bracket", "counted_with_evals"),
    Hook("chapgas.waves", "integrate", "waves.integrate", "counted_with_evals"),
]
CLI_HOOKS = [
    Hook("chapgas.cli", "evolve", "fvcheck.evolve", "timed"),
    Hook("chapgas.cli", "l1_error", "fvcheck.l1_error", "timed"),
]


def trace_hooks(tracer: Tracer, extra: list[Hook]) -> list[Hook]:
    """Hooks for a traced repetition.

    The kernel hooks work only on the pure-Python lane: compiled kernels call
    each other without going through module attributes, so on the numba lane
    they are reported absent.
    """
    if not getattr(cg, "NUMBA_ENABLED", False):
        return KERNEL_HOOKS + NUMERIC_HOOKS + extra
    for h in KERNEL_HOOKS:
        label = f"chapgas._kernels.{h.attr} (numba lane)"
        if label not in tracer.absent:
            tracer.absent.append(label)
    return NUMERIC_HOOKS + extra


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_errors) < 5:
                self.first_errors.append(what)


@dataclass
class Rep:
    """One repetition: the time of each timed operation, in a fixed order, and what they did."""

    op_s: list[float] = field(default_factory=list)
    cell_updates: int = 0
    quality: dict[str, float] = field(default_factory=dict)


def _last_quality(reps: list[Rep], key: str) -> float:
    """The accuracy figure of the last repetition that measured it (0 if none did)."""
    return next((r.quality[key] for r in reversed(reps) if key in r.quality), 0.0)


def _jitter_state(rng: np.random.Generator, rho: float, u: float) -> cg.State:
    """A state near (rho, u): density within 0.25 %, velocity within 0.0025.

    Small on purpose: the L1 error and the delta-window mass depend on where
    the shock sits relative to the cells, so larger moves make the accuracy
    metrics jump from seed to seed.
    """
    return cg.State(rho * math.exp(rng.uniform(-0.0025, 0.0025)), u + rng.uniform(-0.0025, 0.0025))


def _mass_ok(snap, left: cg.State, right: cg.State, x_lo: float, x_hi: float) -> bool:
    mass0 = left.rho * (0.0 - x_lo) + right.rho * (x_hi - 0.0)
    drift = snap.total_mass() - mass0 - snap.boundary_mass_influx
    return abs(drift) <= MASS_RTOL * mass0


def best_op_times(reps: list[Rep]) -> np.ndarray:
    """Each operation's fastest time over the repetitions.

    Interference from other work on the machine only ever slows an operation
    down, and on a shared host it comes in spells that can outlast a whole
    repetition; an operation's fastest time is what stays put from run to run.
    """
    return np.min(np.array([r.op_s for r in reps]), axis=0)


def timing_metrics(reps: list[Rep], latency_ops: int) -> dict[str, float]:
    """wall_s (one repetition, each operation at its fastest) and op_ms percentiles.

    The percentiles are across the first ``latency_ops`` operations.
    """
    best = best_op_times(reps)
    return {
        "wall_s": float(best.sum()),
        "op_ms.p50": 1e3 * float(np.median(best[:latency_ops])),
        "op_ms.p99": 1e3 * float(np.percentile(best[:latency_ops], 99)),
    }


def _snapshot_counts(tracer: Tracer) -> Callable:
    def on_snapshot(snap) -> None:
        steps = len(snap.steps)
        tracer.counts["fvcheck.steps"] += steps
        tracer.counts["fvcheck.interface_evals"] += (snap.x.shape[0] + 1) * steps
        tracer.counts["fvcheck.godunov_fallbacks"] += snap.godunov_fallbacks

    return on_snapshot


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.inputs = self.make_inputs(np.random.default_rng([seed, WORKLOADS.index(self.name)]))
        self.workdir = ""

    def make_inputs(self, rng: np.random.Generator):
        raise NotImplementedError

    def prepare(self, workdir: str) -> None:
        self.workdir = workdir

    def warmup(self) -> None:
        raise NotImplementedError

    def rep(self, tally: Tally, tracer: Optional[Tracer]) -> Rep:
        raise NotImplementedError

    def metrics(self, reps: list[Rep]) -> dict[str, float]:
        """End-to-end metrics that apply to this workload (setup_s excluded)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class FvGodunovEcg(Workload):
    """``chapgas fv --refine`` in-process on an R1+S2 ECG problem file."""

    name = "fv-godunov-ecg"
    PARAMS = {"tag": "ecg", "A": 0.1, "B": 0.1, "n": 2.0, "alpha": 0.5}
    LEVELS = 4  # grids in one ``fv --refine`` call

    def make_inputs(self, rng):
        p = cg.PressureParams.ecg(0.1, 0.1, 2.0, 0.5)
        left = _jitter_state(rng, 1.0, 0.2)
        right = _jitter_state(rng, 0.25, -0.32)
        if cg.classify_ecg(p, left, right).tag != "R1S2":
            raise ValueError("jittered fv-godunov-ecg datum left the R1S2 region")
        return {
            "model": self.PARAMS,
            "left": {"rho": left.rho, "u": left.u},
            "right": {"rho": right.rho, "u": right.u},
            # 12 -> 96 cells at CFL 0.9, the most GridConfig accepts: one CLI
            # call takes about 0.13 s (see README.md, "Steadiness"). At 10
            # base cells the two coarsest L1 errors are not yet in order on
            # some seeds.
            "grid": {
                "x_lo": -0.4,
                "x_hi": 0.4,
                "cells": 12,
                "cfl": 0.9,
                "t_end": 0.2,
                "scheme": "godunov",
            },
        }

    def _write_problem(self, name: str, cells: int) -> str:
        doc = dict(self.inputs, grid=dict(self.inputs["grid"], cells=cells))
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def prepare(self, workdir):
        super().prepare(workdir)
        self.problem_path = self._write_problem("problem.json", self.inputs["grid"]["cells"])
        self.out_dir = os.path.join(workdir, "out")

    def _cli(self, main: Callable, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def warmup(self):
        path = self._write_problem("warmup.json", 10)
        rc = self._cli(cli.main, ["fv", "--file", path, "--out", os.path.join(self.workdir, "warmup")])
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"warm-up fv run exited with {rc}")

    def rep(self, tally, tracer):
        snaps = []
        sink = tracer if tracer is not None else Tracer()
        counts = _snapshot_counts(sink)

        def on_snapshot(snap):
            snaps.append(snap)
            counts(snap)

        if tracer is None:
            # Only the snapshots are needed: they give the step counts and mass.
            module = "chapgas.cli" if hasattr(cli, "evolve") else "chapgas.fvcheck"
            hooks = [Hook(module, "evolve", "fvcheck.evolve", "timed")]
            main = cli.main
        else:
            hooks = trace_hooks(tracer, CLI_HOOKS)
            main = tracer.timed("cli.main", cli.main)
        argv = ["fv", "--refine", "--file", self.problem_path, "--out", self.out_dir]
        rep = Rep()
        since = len(sink.start)
        with Hooks(sink, hooks, {"fvcheck.evolve": on_snapshot}):
            t0 = perf_counter()
            try:
                rc = self._cli(main, argv)
            except Exception as exc:  # an operation that raises is a failed operation
                rc = repr(exc)
            total = perf_counter() - t0
        # The call is timed in parts, each grid's evolve and then the rest
        # (solves, l1_error, report), so that each part is short enough to
        # meet an undisturbed moment (see README.md, "Steadiness").
        parts = sink.durations("fvcheck.evolve", since)
        if len(parts) != self.LEVELS:  # a failed call, which the check counts
            parts = [0.0] * self.LEVELS
        rep.op_s = parts + [total - sum(parts)]

        why = self._check(rc, snaps)
        tally.record(not why, why)
        if not why:
            rep.cell_updates = sum(s.x.shape[0] * len(s.steps) for s in snaps)
            rep.quality["l1_rho"] = self.l1_errors[-1]
        return rep

    def _check(self, rc, snaps) -> str:
        """Why the run's outputs are wrong, or "" when every check holds."""
        if rc != cli.EXIT_OK:
            return f"fv --refine returned {rc!r}"
        if len(snaps) != self.LEVELS:
            return f"expected {self.LEVELS} grids, saw {len(snaps)}"
        g = self.inputs["grid"]
        left = cg.State(**self.inputs["left"])
        right = cg.State(**self.inputs["right"])
        for s in snaps:
            if not _mass_ok(s, left, right, g["x_lo"], g["x_hi"]):
                return f"mass not conserved on {s.x.shape[0]} cells"
        with open(os.path.join(self.out_dir, "fv_report.json"), encoding="utf-8") as fh:
            self.l1_errors = errs = [row["l1_rho"] for row in json.load(fh)["refinement"]]
        if not all(math.isfinite(e) and e > 0.0 for e in errs):
            return f"bad L1 errors {errs}"
        if not all(b < a for a, b in zip(errs, errs[1:])):
            return f"L1 error not decreasing under refinement: {errs}"
        return ""

    def metrics(self, reps):
        # One operation, the CLI call, so its latency is the whole repetition.
        wall = float(best_op_times(reps).sum())
        return {
            "wall_s": wall,
            "op_ms.p50": 1e3 * wall,
            "op_ms.p99": 1e3 * wall,
            # Cell updates are the same in every repetition that succeeded.
            "cell_updates_per_s": max(r.cell_updates for r in reps) / wall,
            "l1_rho": _last_quality(reps, "l1_rho"),
        }


# ---------------------------------------------------------------------------


class FvDeltaLf(Workload):
    """Lax-Friedrichs runs on delta-shock data, then the CLI's concentration numbers."""

    name = "fv-delta-lf"
    WINDOW = 0.1  # half-width of the mass window around the delta, as the CLI uses

    # The GCG waves reach |x| = 1.22 at t = 1, so the domain cannot shrink.
    # 160 cells at CFL 0.9 keep one evolve near 0.05 s (see README.md,
    # "Steadiness"); the larger time step also halves the Lax-Friedrichs
    # smearing of the delta, whose diffusion grows as dx^2 / dt.
    CELLS = 160
    CFL = 0.9

    def make_inputs(self, rng):
        grid = cg.GridConfig(-2.0, 2.0, self.CELLS, self.CFL, 1.0, cg.Scheme.LAX_FRIEDRICHS)
        transport = (cg.PressureParams.transport(), _jitter_state(rng, 4.0, 0.5), _jitter_state(rng, 1.0, -0.5))
        gcg = cg.PressureParams.gcg(0.1, 0.5)
        gcg_case = (gcg, _jitter_state(rng, 1.0, 1.0), _jitter_state(rng, 1.0, -1.0))
        if cg.classify_gcg(*gcg_case).tag != "V":
            raise ValueError("jittered GCG datum left region V")
        return {"grid": grid, "problems": [transport, gcg_case]}

    def warmup(self):
        p, left, right = self.inputs["problems"][0]
        g = self.inputs["grid"]
        cg.evolve(p, left, right, cg.GridConfig(g.x_lo, g.x_hi, 10, g.cfl, g.t_end, g.scheme))

    def rep(self, tally, tracer):
        evolve, solve, hooks = cg.evolve, cg.solve, []
        if tracer is not None:
            hooks = trace_hooks(tracer, [])
            evolve = tracer.timed("fvcheck.evolve", cg.evolve, _snapshot_counts(tracer))
            solve = tracer.timed("solver.solve", cg.solve)
        g = self.inputs["grid"]
        rep = Rep()
        with Hooks(tracer or Tracer(), hooks):
            for p, left, right in self.inputs["problems"]:
                t0 = perf_counter()
                try:
                    snap = evolve(p, left, right, g)
                    sol = solve(p, left, right)
                    t = snap.time
                    center = sol.delta.sigma * t
                    window = snap.mass_in_window(center, self.WINDOW)
                    excess = window - (left.rho + right.rho) * self.WINDOW
                    weight = sol.delta.weight_rate * t
                    error = None
                except Exception as exc:  # an operation that raises is a failed operation
                    error = repr(exc)
                rep.op_s.append(perf_counter() - t0)
                if error is not None:
                    tally.record(False, f"{p.model.value}: {error}")
                    continue
                relerr = abs(excess - weight) / weight
                ok = _mass_ok(snap, left, right, g.x_lo, g.x_hi) and relerr <= 0.5
                tally.record(ok, f"{p.model.value}: mass drift or no concentration (relerr {relerr:.3g})")
                rep.cell_updates += snap.x.shape[0] * len(snap.steps)
                rep.quality["delta_mass_relerr"] = max(relerr, rep.quality.get("delta_mass_relerr", 0.0))
        return rep

    def metrics(self, reps):
        timing = timing_metrics(reps, len(self.inputs["problems"]))
        return timing | {
            "cell_updates_per_s": max(r.cell_updates for r in reps) / timing["wall_s"],
            "delta_mass_relerr": _last_quality(reps, "delta_mass_relerr"),
        }


# ---------------------------------------------------------------------------


# Sobol direction numbers (s, a, m_1..m_s) for dimensions 2..8, from Joe and
# Kuo's table; dimension 1 has every m_k = 1.
_SOBOL_DIRECTIONS = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
)
_SOBOL_BITS = 30


def _sobol(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of the Sobol sequence in [0, 1)^dims under a random digital shift."""
    v = np.zeros((dims, _SOBOL_BITS), dtype=np.int64)
    v[0] = [1 << (_SOBOL_BITS - 1 - k) for k in range(_SOBOL_BITS)]
    for j, (s, a, m) in enumerate(_SOBOL_DIRECTIONS[: dims - 1], start=1):
        mm = list(m)
        for k in range(s, _SOBOL_BITS):
            new = mm[k - s] ^ (mm[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= mm[k - i] << i
            mm.append(new)
        v[j] = [mm[k] << (_SOBOL_BITS - 1 - k) for k in range(_SOBOL_BITS)]
    x = rng.integers(0, 1 << _SOBOL_BITS, dims)
    out = np.empty((n, dims), dtype=np.int64)
    for i in range(n):
        out[i] = x
        x = x ^ v[:, (~i & (i + 1)).bit_length() - 1]  # column of i's lowest zero bit
    return out / float(1 << _SOBOL_BITS)


# The sweep's problems are one fixed Sobol design; the seed moves every
# design point by up to DESIGN_JITTER in each unit-cube coordinate.
DESIGN_SEED = 1707
DESIGN_JITTER = 0.002


def _design(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """The fixed design, jittered by ``rng``.

    A few problems cost twenty times the median one, so with a design drawn
    afresh for each seed the median and the 99th percentile of the problems'
    work moved by a sixth to a fifth between seeds. Jittering one design
    changes every problem but not that mix.
    """
    u = _sobol(np.random.default_rng(DESIGN_SEED), n, dims)
    return np.clip(u + rng.uniform(-DESIGN_JITTER, DESIGN_JITTER, u.shape), 0.0, 1.0 - 2.0**-_SOBOL_BITS)


def _log_uniform(u, lo: float, hi: float):
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _limit_sweeps() -> list[tuple]:
    """(kind, sweep function, left, right, schedule, tol) of acceptance criteria 6-9."""
    both = cg.Schedule.both_vanish_decades(1, 7, 2.0, 0.5)
    return [
        ("concentration", cg.run_vanishing_pressure_sweep, cg.State(1.0, 1.0), cg.State(1.0, -1.0), both, 1e-2),
        ("cavitation", cg.run_vacuum_sweep, cg.State(1.0, -1.0), cg.State(1.0, 1.0), both, 1e-2),
        (
            "gcg_delta",
            cg.run_to_gcg_sweep,
            cg.State(1.0, 1.0),
            cg.State(1.0, -1.0),
            cg.Schedule.a_vanishes_decades(0.01, 3, 8, 2.0, 1.0),
            1e-3,
        ),
        (
            "gcg_rarefaction",
            cg.run_to_gcg_sweep,
            cg.State(1.0, 0.0),
            cg.State(1.0, 3.0),
            cg.Schedule.a_vanishes_decades(1.0, 1, 8, 2.0, 1.0),
            1e-3,
        ),
    ]


class ExactSolveSweep(Workload):
    """One-shot ``solve`` + ``sample`` on random data, the four limit sweeps, the cavitation ladder."""

    name = "exact-solve-sweep"
    # Problems per model. Powers of two suit the Sobol design. With half of
    # them ECG, the median latency sat on the cliff between the cheap GCG and
    # transport problems and the ECG ones and swung by a third between runs;
    # with two thirds ECG it lies inside the ECG distribution. The total is
    # kept small so that one repetition, sweeps and ladder included, takes
    # under a second (see README.md, "Steadiness").
    PROBLEMS = {"ecg": 32, "gcg": 8, "transport": 8}
    SAMPLES = 8  # evenly spaced sample points per problem, plus one inside each fan
    RHO_RANGE = (1e-2, 1e2)
    COEF_RANGE = (1e-3, 1.0)
    U_RANGE = (-2.0, 2.0)
    # Below this, GCG data next to the delta region have rho* beyond 1e308
    # (NumericalLimitError) or so large that the Lax inequalities tie in
    # double precision; the acceptance suite's random box uses the same floor.
    ALPHA_MIN = 0.05

    def make_inputs(self, rng):
        n_ecg, n_gcg, n_tr = (n // 8 if self.tiny else n for n in self.PROBLEMS.values())
        lo_u, hi_u = self.U_RANGE

        def states(u):
            rl = _log_uniform(u[:, 0], *self.RHO_RANGE)
            rr = _log_uniform(u[:, 1], *self.RHO_RANGE)
            ul = lo_u + u[:, 2] * (hi_u - lo_u)
            ur = lo_u + u[:, 3] * (hi_u - lo_u)
            return [(cg.State(float(a), float(b)), cg.State(float(c), float(d))) for a, b, c, d in zip(rl, ul, rr, ur)]

        problems = []
        u = _design(rng, n_ecg, 8)
        for (left, right), row in zip(states(u), u):
            p = cg.PressureParams.ecg(
                float(_log_uniform(row[4], *self.COEF_RANGE)),
                float(_log_uniform(row[5], *self.COEF_RANGE)),
                float(1.0 + 2.0 * row[6]),
                float(self.ALPHA_MIN + (1.0 - self.ALPHA_MIN) * row[7]),
            )
            problems.append((p, left, right))
        u = _design(rng, n_gcg, 6)
        for (left, right), row in zip(states(u), u):
            alpha = self.ALPHA_MIN + (1.0 - self.ALPHA_MIN) * row[5]
            p = cg.PressureParams.gcg(float(_log_uniform(row[4], *self.COEF_RANGE)), float(alpha))
            problems.append((p, left, right))
        u = _design(rng, n_tr, 4)
        transport = cg.PressureParams.transport()
        problems.extend((transport, left, right) for left, right in states(u))
        return {"problems": problems}

    def prepare(self, workdir):
        super().prepare(workdir)
        self.refs = refs.load_refs()
        self.sweeps = _limit_sweeps()

    def warmup(self):
        p, left, right = self.inputs["problems"][0]
        sol = cg.solve(p, left, right)
        for xi in self._sample_points(sol):
            cg.sample(sol, xi)

    def _sample_points(self, sol) -> list[float]:
        span = sol.speed_range()
        lo, hi = span if span is not None else (-1.0, 1.0)
        width = max(hi - lo, 1e-3)
        xis = [float(x) for x in np.linspace(lo - 0.2 * width - 0.05, hi + 0.2 * width + 0.05, self.SAMPLES)]
        xis += [0.5 * (s.xi_lo + s.xi_hi) for s in sol.segments if s.kind is cg.SegmentKind.FAN]
        return xis

    def rep(self, tally, tracer):
        solve, sample, hooks = cg.solve, cg.sample, []
        if tracer is not None:
            hooks = trace_hooks(tracer, [])
            solve = tracer.timed("solver.solve", cg.solve)
            sample = tracer.timed("solver.sample", cg.sample)
        rep = Rep()
        with Hooks(tracer or Tracer(), hooks):
            for p, left, right in self.inputs["problems"]:
                t0 = perf_counter()
                try:
                    sol = solve(p, left, right)
                    xis = self._sample_points(sol)
                    pts = [sample(sol, xi) for xi in xis]
                    error = None
                except Exception as exc:  # an operation that raises is a failed operation
                    error = repr(exc)
                rep.op_s.append(perf_counter() - t0)
                why = error or _check_solution(sol, xis, pts)
                tally.record(not why, f"{p.model.value} {left} | {right}: {why}")

            for kind, run, left, right, schedule, tol in self.sweeps:
                if tracer is not None:
                    run = tracer.timed(f"limits.sweep.{kind}", run)
                t0 = perf_counter()
                try:
                    report = run(left, right, schedule, tol)
                    why = "" if report.kind == kind and all(report.flags.values()) else f"flags {report.flags}"
                except Exception as exc:  # an operation that raises is a failed operation
                    why = repr(exc)
                rep.op_s.append(perf_counter() - t0)
                tally.record(not why, f"sweep {kind}: {why}")

            for k, ref in self.refs.items():
                p = cg.PressureParams.ecg(10.0**-k, 10.0**-k, refs.LADDER_N, refs.LADDER_ALPHA)
                t0 = perf_counter()
                try:
                    sol = solve(p, cg.State(*refs.LADDER_LEFT), cg.State(*refs.LADDER_RIGHT))
                    rho = sol.intermediate.rho
                    why = "" if math.isfinite(rho) and rho > 0.0 else f"rho* = {rho!r}"
                except Exception as exc:  # an operation that raises is a failed operation
                    why = repr(exc)
                rep.op_s.append(perf_counter() - t0)
                tally.record(not why, f"ladder k={k}: {why}")
                if not why:
                    relerr = abs(rho - ref) / ref
                    rep.quality["rho_star_relerr.max"] = max(relerr, rep.quality.get("rho_star_relerr.max", 0.0))
        return rep

    def metrics(self, reps):
        # Operations are the problems, then the limit sweeps and ladder
        # points, which count in wall_s but not in the latencies.
        problems = len(self.inputs["problems"])
        return timing_metrics(reps, problems) | {
            "solves_per_s": problems / float(best_op_times(reps)[:problems].sum()),
            "rho_star_relerr.max": _last_quality(reps, "rho_star_relerr.max"),
        }


def _check_solution(sol, xis: list[float], pts) -> str:
    """Why the solution or its samples are wrong, or "" when every check holds."""
    p = sol.params
    segs = sol.segments
    for seg in segs:
        if not seg.xi_lo <= seg.xi_hi:
            return f"segment {seg.kind.value} has xi_lo > xi_hi"
    for a, b in zip(segs, segs[1:]):
        if b.xi_lo < a.xi_hi - 1e-12 * (1.0 + abs(a.xi_hi)):
            return f"segments out of order at xi={a.xi_hi!r}"
    for seg in segs:
        if seg.kind is not cg.SegmentKind.SHOCK:
            continue
        a, b, s = seg.left, seg.right, seg.speed
        ma, mb = a.rho * a.u, b.rho * b.u
        fa = ma * a.u + cg.pressure(p, a.rho)
        fb = mb * b.u + cg.pressure(p, b.rho)
        # Residuals are differences of flux-sized terms; scale by those terms,
        # not by the jump, which vanishes for weak shocks.
        r1 = s * (b.rho - a.rho) - (mb - ma)
        r2 = s * (mb - ma) - (fb - fa)
        if abs(r1) > RH_RTOL * (abs(s) * (a.rho + b.rho) + abs(ma) + abs(mb)):
            return f"mass jump condition residual {r1:.3g}"
        if abs(r2) > RH_RTOL * (abs(s) * (abs(ma) + abs(mb)) + abs(fa) + abs(fb)):
            return f"momentum jump condition residual {r2:.3g}"
        if not cg.lax_check(p, seg.family, a, b, s):
            return f"{seg.family.name} shock at {s!r} is not Lax-admissible"
    for xi, pt in zip(xis, pts):
        if not (math.isfinite(pt.rho) and math.isfinite(pt.u)):
            return f"non-finite sample at xi={xi!r}"
        if (pt.rho == 0.0) != pt.in_vacuum or pt.rho < 0.0:
            return f"bad density {pt.rho!r} at xi={xi!r}"
    return ""


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    for cls in (FvGodunovEcg, FvDeltaLf, ExactSolveSweep):
        if cls.name == name:
            return cls(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
