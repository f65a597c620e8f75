"""Benchmark entry point for the killing-graphs package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` there, in this process, single-threaded.  One run sets up, warms
up, then repeats the workload's round until ``--seconds`` have passed.
Every round's outputs are checked after its timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for half the time, then installs the layer wrappers of
``tracing.py`` and runs traced rounds for the other half; it prints the
per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Single-threaded: a second BLAS thread only competes for the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MODULES = ("cli", "solver", "operator", "grids", "models", "experiments", "growth",
           "radial", "fields", "expressions")

# name -> (unit, better); the same lists as BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "converged_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "grids.build_s": "s", "grids.nodes": "count",
    "operator.cache_build_s": "s", "operator.cache_builds": "count",
    "operator.jacobian_s": "s", "operator.jacobian_calls": "count",
    "operator.residual_s": "s", "operator.residual_calls": "count",
    "solver.solves": "count", "solver.linear_s": "s", "solver.factorizations": "count",
    "solver.linear_solves": "count", "solver.lu_fill_nnz": "nnz",
    "solver.newton_iters": "count", "solver.picard_sweeps": "count",
    "solver.linesearch_trials": "count", "solver.final_fnorm_over_tol": "ratio",
    "solver.self_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "growth.circle_s": "s", "growth.circles": "count", "growth.L_s": "s",
    "fields.value_calls": "count", "fields.partials_calls": "count",
    "radial.profile_s": "s", "radial.quad_calls": "count",
    "expressions.evaluate_calls": "count",
    "solver.factorizations_per_linear_solve": "ratio",
    "operator.cache_builds_per_solve": "ratio",
    "solver.linesearch_trials_per_newton_iter": "ratio",
    "trace.overhead_s": "s",
}


def import_package():
    """Import the package from this checkout's ``src``; None when absent."""
    src = ROOT / "src"
    if not (src / "killing_graphs" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    return SimpleNamespace(**{m: importlib.import_module(f"killing_graphs.{m}") for m in MODULES})


def run_rounds(wl, budget, tracer=None):
    """Repeat the round until ``budget`` seconds have passed (at least once)."""
    times, ops, layers = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget:
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        round_ops, artifacts = wl.run()
        times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.active = False
        wl.check(round_ops, artifacts)
        if tracer is not None:
            layers.append(tracer.finish_round(wl.output_bytes()))
        for op in round_ops:
            if op.failed:
                print(f"[{wl.name}] {op.name} FAILED: {op.note}", file=sys.stderr)
        ops += round_ops
    return times, ops, layers


def converged_frac(ops):
    """Share of operations that converged and passed their output check."""
    return sum(op.converged and not op.failed for op in ops) / len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kg = import_package()
    if kg is None:
        print(f"no package source at {ROOT / 'src' / 'killing_graphs'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(sys.stderr):   # keep stdout for the result
            result = measure(kg, WORKLOADS[args.workload], args, work, import_s, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(kg, cls, args, work, import_s, out_dir):
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(kg, args.seed, work)
        wl.prepare()
        wl.warmup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    if not args.trace:
        times, ops, _ = run_rounds(wl, args.seconds)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "converged_frac": converged_frac(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: END_TO_END[k][0] for k in metrics}
        print(f"[{cls.name}] seed {args.seed}: {len(times)} rounds, wall_s median "
              f"{metrics['wall_s']:.4f} s (min {min(times):.4f}, max {max(times):.4f}); "
              f"setup {setup_s:.4f} s (import {import_s:.4f} s)", file=sys.stderr)
    else:
        from tracing import Tracer, median_metrics
        plain_times, plain_ops, _ = run_rounds(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            times, ops, layers = run_rounds(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        ops += plain_ops
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = statistics.median(times) - statistics.median(plain_times)
        units = PER_LAYER
        spans_file = out_dir / f"spans-{cls.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "rounds": tracer.rounds}), encoding="utf-8")
        print(f"[{cls.name}] seed {args.seed}: wall_s median {statistics.median(plain_times):.4f} s "
              f"over {len(plain_times)} untraced rounds, {statistics.median(times):.4f} s over "
              f"{len(times)} traced rounds; spans in {spans_file}", file=sys.stderr)
        for k, v in metrics.items():
            print(f"  {k:42s} {v:.6g} {units[k]}", file=sys.stderr)
        print(f"  waste: factorizations/linear solves = {metrics['solver.factorizations']:g}"
              f"/{metrics['solver.linear_solves']:g}; cache builds/solves = "
              f"{metrics['operator.cache_builds']:g}/{metrics['solver.solves']:g}; "
              f"line-search trials/Newton steps = {metrics['solver.linesearch_trials']:g}"
              f"/{metrics['solver.newton_iters']:g}; lu_fill_nnz computed by splu "
              f"with the solver's ordering", file=sys.stderr)

    failed = sum(op.failed for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
