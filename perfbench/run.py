#!/usr/bin/env python3
"""chapgas benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fv-godunov-ecg --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it holds
the lane, the environment and the details behind the numbers. chapgas is
imported from ``src/`` next to this directory, never from an installed copy.
Outputs (spans, result files, CLI reports) go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
# Reported for a metric that has no meaning on a workload (see README.md).
NOT_APPLICABLE = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_updates_per_s", "1/s"),
    ("solves_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
    ("l1_rho", "mass"),
    ("delta_mass_relerr", "ratio"),
    ("rho_star_relerr.max", "ratio"),
)

# (metric, unit, source): source is ("span", name) for total span time,
# ("self", name) for self time, ("calls", name) for the number of spans, or
# ("count", key) for a counter. Values are per traced repetition.
PER_LAYER = (
    ("fvcheck.evolve.s", "s", ("span", "fvcheck.evolve")),
    ("fvcheck.steps", "count", ("count", "fvcheck.steps")),
    ("fvcheck.interface_evals", "count", ("count", "fvcheck.interface_evals")),
    ("fvcheck.godunov_fallbacks", "count", ("count", "fvcheck.godunov_fallbacks")),
    ("fvcheck.l1_error.s", "s", ("span", "fvcheck.l1_error")),
    ("kernels.interface_fluxes_godunov.s", "s", ("span", "kernels.interface_fluxes_godunov")),
    ("kernels.star_state.calls", "count", ("calls", "kernels.star_state")),
    ("kernels.star_state.s", "s", ("span", "kernels.star_state")),
    ("kernels.sample_classical.s", "s", ("span", "kernels.sample_classical")),
    ("kernels.du_integral.calls", "count", ("count", "kernels.du_integral.calls")),
    ("kernels.interface_fluxes_lf.s", "s", ("span", "kernels.interface_fluxes_lf")),
    ("kernels.max_abs_speed.s", "s", ("span", "kernels.max_abs_speed")),
    ("kernels.conservative_update.s", "s", ("span", "kernels.conservative_update")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("solver.solve.s", "s", ("span", "solver.solve")),
    ("solver.sample.s", "s", ("span", "solver.sample")),
    ("solver.find_root.calls", "count", ("count", "solver.find_root.calls")),
    ("solver.find_root.f_evals", "count", ("count", "solver.find_root.f_evals")),
    ("solver.expand_bracket.f_evals", "count", ("count", "solver.expand_bracket.f_evals")),
    ("waves.integrate.calls", "count", ("count", "waves.integrate.calls")),
    ("waves.integrate.f_evals", "count", ("count", "waves.integrate.f_evals")),
    ("limits.sweep.concentration.s", "s", ("span", "limits.sweep.concentration")),
    ("limits.sweep.cavitation.s", "s", ("span", "limits.sweep.cavitation")),
    ("limits.sweep.gcg_delta.s", "s", ("span", "limits.sweep.gcg_delta")),
    ("limits.sweep.gcg_rarefaction.s", "s", ("span", "limits.sweep.gcg_rarefaction")),
)
TRACE_SUMMARY = (
    ("kernels.star_state.per_interface", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def import_chapgas():
    """Import chapgas from this checkout's ``src``; refuse any other copy.

    The benchmark's own modules import chapgas, so they are imported only
    after this has run.
    """
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import chapgas

    where = os.path.realpath(chapgas.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"chapgas imported from {where}, not from {SRC}")
    return chapgas


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(cg, args) -> dict:
    import numpy

    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "NUMBA_ENABLED": getattr(cg, "NUMBA_ENABLED", "absent"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh interpreter does before the first timed operation."""
    import_chapgas()
    import workloads

    wl = workloads.make_workload(workload, seed)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        wl.prepare(workdir)
        wl.warmup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return times


def run_reps(wl, tally, seconds: float, traced_too: bool):
    """Repeat the workload's fixed work for about ``seconds``.

    Untraced runs repeat untraced repetitions. Traced runs alternate an
    untraced and a traced repetition, so the tracing overhead is measured on
    the same inputs within the same run.
    """
    from tracer import Tracer

    plain, traced = [], []
    tracer = Tracer() if traced_too else None
    t_start = perf_counter()
    while True:
        plain.append(wl.rep(tally, None))
        if tracer is not None:
            traced.append(wl.rep(tally, tracer))
        elapsed = perf_counter() - t_start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            return plain, traced, tracer


def layer_metrics(tracer, plain, traced) -> dict[str, float]:
    import workloads

    totals = tracer.span_totals()
    reps = len(traced)
    out = {}
    for name, _, (kind, key) in PER_LAYER:
        if kind == "count":
            value = tracer.counts.get(key, 0)
        elif kind == "calls":
            value = totals.get(key, (0, 0.0, 0.0))[0]
        else:
            value = totals.get(key, (0, 0.0, 0.0))[1 if kind == "span" else 2]
        out[name] = value / reps
    evals = out["fvcheck.interface_evals"]
    out["kernels.star_state.per_interface"] = out["kernels.star_state.calls"] / evals if evals else 0.0
    # Each operation at its fastest, as for the end-to-end wall_s.
    out["trace.wall_s"] = float(workloads.best_op_times(traced).sum())
    out["trace.untraced_wall_s"] = float(workloads.best_op_times(plain).sum())
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result line, details)."""
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make_workload(workload, seed, tiny)
    setup = measure_setup(workload, seed, setup_repeats)
    tally = workloads.Tally()
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        wl.prepare(workdir)
        wl.warmup()
        plain, traced, tracer = run_reps(wl, tally, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "reps": len(plain),
        "traced_reps": len(traced),
        # Timed operations per repetition, each timed `reps` times.
        "timed_ops": len(plain[0].op_s),
        "ops_failed": tally.failed / tally.attempted,
        "first_errors": tally.first_errors,
        "setup_s_samples": setup,
    }
    if trace:
        values = layer_metrics(tracer, plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER} | dict(TRACE_SUMMARY)
        details["absent"] = tracer.absent
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")
        tracer.write_spans(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        applicable = wl.metrics(plain)
        applicable["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
        values = {name: applicable.get(name, NOT_APPLICABLE) for name in units}
        details["not_applicable"] = [name for name in units if name not in applicable]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chapgas benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        cg = import_chapgas()
    except ImportError as exc:
        print(f"perfbench: cannot import chapgas from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {"perfbench": environment(cg, args) | details}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(info | {"result": result}, fh, indent=2)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
