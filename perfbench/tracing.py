"""Spans and counters recorded around the package's public layer entry points.

The wrappers live here, in the benchmark, and are installed by patching the
package's module and class attributes in the traced process only; the package
source is never edited.  An untraced run never calls :meth:`Tracer.install`.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span in the same round (or -1).  Spans are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter

# (module, function, span name): module-level functions timed as spans.
SPAN_FUNCTIONS = [
    ("killing_graphs.cli", "main", "cli"),
    ("killing_graphs.solver", "solve_dirichlet", "solver"),
    ("killing_graphs.growth", "geodesic_circle", "growth.circle"),
    ("killing_graphs.growth", "L_plain", "growth.L"),
    ("killing_graphs.growth", "L_weighted", "growth.L"),
    ("killing_graphs.radial", "radial_profile", "radial.profile"),
]
# Every sparse solve or factorization the solver can reach through scipy,
# so that a later solver that switches routine is still timed and counted.
LINEAR_FUNCTIONS = ["spsolve", "splu", "spilu", "factorized", "gmres", "lgmres",
                    "bicgstab", "cg", "minres", "spsolve_triangular"]
FACTORING = {"spsolve", "splu", "spilu", "factorized"}
# (module, class, method, span name): methods timed as spans.
SPAN_METHODS = [
    ("killing_graphs.operator", "AssemblyCache", "__init__", "operator.cache_build"),
    ("killing_graphs.operator", "AssemblyCache", "residual", "operator.residual"),
    ("killing_graphs.operator", "AssemblyCache", "jacobian", "operator.jacobian"),
    ("killing_graphs.grids", "GridDomain", "rectangle", "grids.build"),
    ("killing_graphs.grids", "GridDomain", "masked", "grids.build"),
    ("killing_graphs.grids", "GridDomain", "annulus", "grids.build"),
    ("killing_graphs.grids", "GridDomain", "with_puncture", "grids.build"),
]
# Calls that are only counted: too frequent and too small to time one by one.
COUNTED_METHODS = [
    ("killing_graphs.fields", "ScalarField", "value", "fields.value_calls"),
    ("killing_graphs.fields", "ScalarField", "partials", "fields.partials_calls"),
]
COUNTED_FUNCTIONS = [
    ("killing_graphs.expressions", "evaluate", "expressions.evaluate_calls"),
    ("scipy.integrate", "quad", "radial.quad_calls"),
]
_MIN_STEP = 2.0 ** -20      # SolveConfig.min_step, if the package stops exposing it


def self_times(spans):
    """Per-span self time: duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[k], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def linesearch_trials(damping_history, min_step):
    """Residual evaluations the backtracking search spent, from accepted
    step lengths t = 2^-k (k + 1 trials) and rejected steps (recorded as 0,
    every halving down to ``min_step``)."""
    full = int(round(-math.log2(min_step))) + 1
    return sum(int(round(-math.log2(t))) + 1 if t > 0 else full for t in damping_history)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.active = False        # off while the benchmark checks outputs
        self.rounds = []           # spans of finished rounds
        self._patches = []         # (owner, attribute, original raw value)
        self.reset()

    def reset(self):
        """Start a round: fresh spans, counters and solve records."""
        self.spans = []
        self.counts = Counter()
        self.reports = []          # SolveReports returned by the solver
        self.fill_probes = {}      # solver span -> (first matrix, ordering)
        self.fill_measured = []    # L.nnz + U.nnz of factors the solver made
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, k):
        self.spans[k][2] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs):
        k = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(k)

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            out = self._call(name, fn, args, kwargs)
            if name == "solver":
                self.reports.append(out)
            elif name == "grids.build":
                self.counts["grids.nodes"] += int(out.status.size)
            return out
        wrapper._perfbench_wrapper = True
        return wrapper

    def linear(self, fname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if fname in FACTORING:
                self.counts["solver.factorizations"] += 1
            solve = next((k for k in reversed(self._stack) if self.spans[k][0] == "solver"), None)
            if fname == "spsolve" and solve is not None and solve not in self.fill_probes:
                self.fill_probes[solve] = (args[0].copy(), kwargs.get("permc_spec") or "COLAMD")
            out = self._call("solver.linear", fn, args, kwargs)
            if fname == "splu":
                self.fill_measured.append(int(out.L.nnz + out.U.nnz))
            return out
        wrapper._perfbench_wrapper = True
        return wrapper

    def counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        wrapper._perfbench_wrapper = True
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return          # the layer no longer has this entry point
        new = staticmethod(make(raw.__func__)) if isinstance(raw, staticmethod) else make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))
        if not isinstance(owner, type):
            # a from-import elsewhere in the package holds the same object
            for mod in _package_modules():
                for key, val in list(vars(mod).items()):
                    if val is raw and mod is not owner:
                        setattr(mod, key, new)
                        self._patches.append((mod, key, raw))

    def install(self):
        import scipy.integrate  # noqa: F401  (quad is patched on this module)
        import scipy.sparse.linalg as spla
        for mod, attr, name in SPAN_FUNCTIONS:
            self._patch(sys.modules[mod], attr, lambda f, n=name: self.spanned(n, f))
        for fname in LINEAR_FUNCTIONS:
            self._patch(spla, fname, lambda f, n=fname: self.linear(n, f))
        for mod, cls, attr, name in SPAN_METHODS:
            self._patch(getattr(sys.modules[mod], cls), attr,
                        lambda f, n=name: self.spanned(n, f))
        for mod, cls, attr, key in COUNTED_METHODS:
            self._patch(getattr(sys.modules[mod], cls), attr,
                        lambda f, k=key: self.counted(k, f))
        for mod, attr, key in COUNTED_FUNCTIONS:
            self._patch(sys.modules[mod], attr, lambda f, k=key: self.counted(k, f))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- per-round metrics -------------------------------------------------

    def finish_round(self, output_bytes):
        """Per-layer metrics of the round just run; archives its spans."""
        spans = self.spans
        selfs = self_times(spans)
        total, own, calls = Counter(), Counter(), Counter()
        for span, s in zip(spans, selfs):
            name = span[0]
            calls[name] += 1
            own[name] += s
            if not _has_ancestor(spans, span, name):
                total[name] += span[2] - span[1]
        reps = self.reports
        fills = list(self.fill_measured)
        import scipy.sparse.linalg as spla   # inactive wrappers pass straight through
        for matrix, ordering in self.fill_probes.values():
            lu = spla.splu(matrix.tocsc(), permc_spec=ordering)
            fills.append(int(lu.L.nnz + lu.U.nnz))
        try:
            from killing_graphs.solver import SolveConfig
            min_step = SolveConfig().min_step
        except (ImportError, AttributeError):
            min_step = _MIN_STEP
        newton = sum(r.iterations for r in reps)
        trials = sum(linesearch_trials(r.damping_history, min_step) for r in reps)
        m = {
            "grids.build_s": total["grids.build"],
            "grids.nodes": self.counts["grids.nodes"],
            "operator.cache_build_s": total["operator.cache_build"],
            "operator.cache_builds": calls["operator.cache_build"],
            "operator.jacobian_s": total["operator.jacobian"],
            "operator.jacobian_calls": calls["operator.jacobian"],
            "operator.residual_s": total["operator.residual"],
            "operator.residual_calls": calls["operator.residual"],
            "solver.solves": len(reps),
            "solver.linear_s": total["solver.linear"],
            "solver.factorizations": self.counts["solver.factorizations"],
            "solver.linear_solves": calls["operator.jacobian"],
            "solver.lu_fill_nnz": max(fills, default=0),
            "solver.newton_iters": newton,
            "solver.picard_sweeps": sum(r.picard_sweeps for r in reps),
            "solver.linesearch_trials": trials,
            "solver.final_fnorm_over_tol": max((r.residual_norm / r.tolerance for r in reps),
                                               default=0.0),
            "solver.self_s": own["solver"],
            "cli.self_s": own["cli"],
            "cli.output_bytes": output_bytes,
            "growth.circle_s": total["growth.circle"],
            "growth.circles": calls["growth.circle"],
            "growth.L_s": total["growth.L"],
            "fields.value_calls": self.counts["fields.value_calls"],
            "fields.partials_calls": self.counts["fields.partials_calls"],
            "radial.profile_s": total["radial.profile"],
            "radial.quad_calls": self.counts["radial.quad_calls"],
            "expressions.evaluate_calls": self.counts["expressions.evaluate_calls"],
        }
        m["solver.factorizations_per_linear_solve"] = _ratio(m["solver.factorizations"],
                                                             m["solver.linear_solves"])
        m["operator.cache_builds_per_solve"] = _ratio(m["operator.cache_builds"],
                                                      m["solver.solves"])
        m["solver.linesearch_trials_per_newton_iter"] = _ratio(trials, newton)
        self.rounds.append(spans)
        self.reset()
        return m


def _has_ancestor(spans, span, name):
    p = span[3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def median_metrics(per_round):
    """Median of each metric over the traced rounds."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "killing_graphs" or name.startswith("killing_graphs."))]


def patch_points():
    """The object now at every patch point, keyed by its dotted name."""
    import scipy.sparse.linalg as spla
    out = {}
    for mod, attr, _ in SPAN_FUNCTIONS + COUNTED_FUNCTIONS:
        out[f"{mod}.{attr}"] = vars(sys.modules[mod]).get(attr)
    for fname in LINEAR_FUNCTIONS:
        out[f"scipy.sparse.linalg.{fname}"] = vars(spla).get(fname)
    for mod, cls, attr, _ in SPAN_METHODS + COUNTED_METHODS:
        out[f"{mod}.{cls}.{attr}"] = vars(getattr(sys.modules[mod], cls)).get(attr)
    return out


def is_wrapped(obj):
    fn = obj.__func__ if isinstance(obj, staticmethod) else obj
    return getattr(fn, "_perfbench_wrapper", False)
