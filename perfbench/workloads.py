"""The benchmark's four workloads: inputs from a seed, warm-up, timed round, output checks.

Each workload is a subset of the ROADMAP ladder sized to a few seconds, chosen
so that one layer does most of the work (see README.md beside this file).
The seed perturbs the problem data only inside the range where the measured
regime (Newton steps, factorizations, stalls) stays the same; seed 0 gives
the nominal problem.  The package receives only the generated inputs.

A round returns one :class:`Op` per operation (a solve or a CLI run).  The
checks run after the timed region and never raise: a failed check marks its
operation failed.
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Op:
    name: str
    converged: bool = False
    failed: bool = False
    note: str = ""


def _jitter(rng, seed, scale):
    """Uniform in [-scale, scale]; exactly 0 for the nominal seed 0."""
    return 0.0 if seed == 0 else float(rng.uniform(-scale, scale))


def _cli_op(name, kg, argv):
    """Run one CLI command; exit 0 is converged, 2 is non-convergence."""
    try:
        rc = kg.cli.main(argv)
    except Exception:
        return Op(name, failed=True, note=traceback.format_exc())
    if rc == 0:
        return Op(name, converged=True)
    if rc == 2:
        return Op(name, note="exit 2: not converged")
    return Op(name, failed=True, note=f"exit code {rc}")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


class Workload:
    """Base: subclasses set ``name`` and implement the hooks below."""

    name = ""

    def __init__(self, kg, seed: int, work: Path):
        self.kg = kg
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)

    def prepare(self):
        """Model and config construction (part of set-up)."""

    def warmup(self):
        """A small instance of the round, so lazy imports and first calls
        happen before timing."""

    def run(self):
        """The timed round; returns (ops, artifacts)."""
        raise NotImplementedError

    def check(self, ops, artifacts):
        """Mark ops whose output is wrong as failed (never raises)."""

    def output_bytes(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# CLI solves

class _CliSolve(Workload):
    def solve_config(self, h):
        raise NotImplementedError

    def domain(self):
        raise NotImplementedError

    def prepare(self):
        self.cfg_path = self.work / f"{self.name}.json"
        self.warm_path = self.work / f"{self.name}-warm.json"
        self.out = self.work / f"{self.name}-out"
        self.warm_out = self.work / f"{self.name}-warm-out"
        _write_json(self.cfg_path, self.solve_config(self.h))
        _write_json(self.warm_path, self.solve_config(1 / 16))

    def warmup(self):
        self.kg.cli.main(["solve", "--config", str(self.warm_path), "--out", str(self.warm_out)])

    def run(self):
        op = _cli_op("solve", self.kg, ["solve", "--config", str(self.cfg_path),
                                        "--out", str(self.out)])
        return [op], None

    def output_bytes(self):
        return _dir_bytes(self.out)

    def check(self, ops, artifacts):
        op = ops[0]
        if op.failed:
            return
        try:
            op.note = self._check_solution()
        except Exception:
            op.note = "check raised:\n" + traceback.format_exc()
        op.failed = bool(op.note)

    def _check_solution(self) -> str:
        """Recompute the residual from the written ``u``: it must meet the
        reported tolerance, with one CSV row per unknown."""
        kg = self.kg
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        data = np.loadtxt(self.out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
        dom = self.domain()
        interior = dom.interior_mask()
        if data.shape[0] != int(interior.sum()):
            return f"{data.shape[0]} CSV rows for {int(interior.sum())} unknowns"
        i = np.rint((data[:, 0] - dom.x_start) / dom.hx).astype(int)
        j = np.rint((data[:, 1] - dom.y_start) / dom.hy).astype(int)
        values = np.where(dom.status == kg.grids.BOUNDARY, dom.bdata, np.nan)
        values[j, i] = data[:, 2]
        if not np.all(np.isfinite(values[interior])):
            return "CSV rows do not cover every interior node"
        model = kg.models.builtin_model("nil3", (0.5,))
        res = kg.operator.mean_curvature_residual(model, kg.grids.ScalarGrid(dom, values), H="0")
        worst = float(np.nanmax(np.abs(res.values)))
        if not worst <= report["tolerance"]:
            return f"recomputed residual {worst:.3e} > tolerance {report['tolerance']:.3e}"
        return ""


class SolveSmooth(_CliSolve):
    """nil3(0.5) on [-1,1]^2, h = 1/128, data sin(a x) + b x y; 6 Newton steps."""

    name = "solve-smooth"
    h = 1 / 128

    def __init__(self, kg, seed, work):
        super().__init__(kg, seed, work)
        # +-5% keeps 6 full Newton steps and 7 factorizations (measured)
        self.a = 3.0 * (1.0 + _jitter(self.rng, seed, 0.05))
        self.b = 1.0 + _jitter(self.rng, seed, 0.05)

    def solve_config(self, h):
        return {"model": {"preset": "nil3", "params": [0.5]},
                "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": h},
                "boundary": f"sin({self.a!r}*x)+{self.b!r}*x*y",
                "H": "0", "solver": {"max_iters": 60, "tol_factor": 1e-10}}

    def domain(self):
        a, b = self.a, self.b
        return self.kg.grids.GridDomain.rectangle(
            -1, 1, -1, 1, self.h, boundary=lambda x, y: np.sin(a * x) + b * x * y)


class SolveClamped(_CliSolve):
    """nil3(0.5) strip |y| <= 1, |x| <= 2, h = 1/64, clamp K on the left and
    right arcs; 11 damped steps, 18 factorizations for 12 linear solves."""

    name = "solve-clamped"
    h = 1 / 64

    def __init__(self, kg, seed, work):
        super().__init__(kg, seed, work)
        # K in (4.8, 5] keeps the damping schedule; K = 5.1 takes a 12th step
        self.K = 5.0 - abs(_jitter(self.rng, seed, 0.2))

    def solve_config(self, h):
        return {"model": {"preset": "nil3", "params": [0.5]},
                "domain": {"shape": "strip", "half_width": 1.0, "length": 2.0, "h": h},
                "boundary": {"left": self.K, "right": self.K, "bottom": "0", "top": "0"},
                "H": "0", "solver": {"max_iters": 60, "tol_factor": 1e-10}}

    def domain(self):
        K = self.K
        return self.kg.grids.GridDomain.rectangle(
            -2.0, 2.0, -1.0, 1.0, self.h,
            boundary={"left": K, "right": K, "bottom": 0.0, "top": 0.0})


# ---------------------------------------------------------------------------
# Puncture pairs through solve_dirichlet

class PuncturePair(Workload):
    """The full and punctured solves of run_sol3_puncture (h = 1/16) and
    run_disk_puncture (h = 1/32), at tol_factor 1e-13."""

    name = "puncture-pair"

    def __init__(self, kg, seed, work):
        super().__init__(kg, seed, work)
        # Every sol3 node near (0, 2) stalls at 60 iterations.  The disk
        # puncture only jitters inside its lattice cell: the node (40, 40)
        # takes 34 iterations and 3 Picard sweeps, its neighbours 5 to 19.
        self.sol3_point = (0.0 + _jitter(self.rng, seed, 0.5), 2.0 + _jitter(self.rng, seed, 0.12))
        self.disk_point = (0.25 + _jitter(self.rng, seed, 0.012),
                           0.25 + _jitter(self.rng, seed, 0.012))

    def prepare(self):
        kg = self.kg
        self.cases = [
            ("sol3", kg.models.builtin_model("sol3-halfplane"),
             kg.experiments.sol3_exact_domain, self.sol3_point, 1 / 16),
            ("disk", kg.models.builtin_model("euclidean"),
             kg.experiments.disk_sin2theta_domain, self.disk_point, 1 / 32),
        ]
        self.config = kg.solver.SolveConfig(tol_factor=1e-13)

    def _pairs(self, scale):
        ops, arts = [], []
        for name, model, factory, point, h in self.cases:
            try:
                dom = factory(h * scale)
                node = dom.nearest_node(point)
                dom_p = dom.with_puncture(node)
                reps = [self.kg.solver.solve_dirichlet(model, d, config=self.config)
                        for d in (dom, dom_p)]
            except Exception:
                note = traceback.format_exc()
                ops += [Op(f"{name}-full", failed=True, note=note),
                        Op(f"{name}-punctured", failed=True, note=note)]
                arts.append(None)
                continue
            ops += [Op(f"{name}-full", converged=bool(reps[0].converged)),
                    Op(f"{name}-punctured", converged=bool(reps[1].converged))]
            arts.append((name, dom, node, reps))
        return ops, arts

    def warmup(self):
        self._pairs(scale=4.0)

    def run(self):
        return self._pairs(scale=1.0)

    def check(self, ops, artifacts):
        for k, art in enumerate(artifacts):
            if art is None or art[0] != "sol3":
                continue
            _, dom, node, (full, punct) = art
            mask = dom.carried().copy()
            mask[node] = False
            diff = float(np.max(np.abs(full.u.values[mask] - punct.u.values[mask])))
            if not diff <= 1e-8:
                for op in ops[2 * k: 2 * k + 2]:
                    op.failed = True
                    op.note = f"sol3 max |u_full - u_punct| = {diff:.3e} > 1e-8"


# ---------------------------------------------------------------------------
# Growth along geodesic circles, and one radial profile

class GrowthFlow(Workload):
    """CLI growth on sol3-disk about an off-centre p (RK4 geodesic flow,
    40 radii in [0.1, 2], weighted), then a CLI radial catenoid profile."""

    name = "growth-flow"
    n_arc = 512
    arcs_checked = 8        # per round; the check is as costly as the flow

    def __init__(self, kg, seed, work):
        super().__init__(kg, seed, work)
        self.p = (0.3 + _jitter(self.rng, seed, 0.02), _jitter(self.rng, seed, 0.02))
        self.c = 2.0 * (1.0 + _jitter(self.rng, seed, 0.05))
        self.checks_done = 0

    def _growth_cfg(self, n_radii):
        return {"model": {"preset": "sol3-disk"},
                "growth": {"p": list(self.p), "r0": 0.1, "r_max": 2.0, "n_radii": n_radii,
                           "variant": "weighted", "n_arc": self.n_arc}}

    def _radial_cfg(self, n):
        return {"radial": {"c": self.c, "mu": "1", "r0": 1.0, "r1": 20.0, "n_samples": n}}

    def prepare(self):
        w = self.work
        self.paths = {}
        for tag, cfg in (("growth", self._growth_cfg(40)), ("growth-warm", self._growth_cfg(4)),
                         ("radial", self._radial_cfg(200)), ("radial-warm", self._radial_cfg(10))):
            self.paths[tag] = w / f"{tag}.json"
            _write_json(self.paths[tag], cfg)
        self.g_out = w / "growth-out"
        self.r_out = w / "radial-out"
        self.model = self.kg.models.builtin_model("sol3-disk")

    def _cmds(self, suffix):
        return [("growth", ["growth", "--config", str(self.paths["growth" + suffix]),
                            "--out", str(self.work / f"growth{suffix}-out")]),
                ("radial", ["radial", "--config", str(self.paths["radial" + suffix]),
                            "--out", str(self.work / f"radial{suffix}-out")])]

    def warmup(self):
        for _, argv in self._cmds("-warm"):
            self.kg.cli.main(argv)

    def run(self):
        return [_cli_op(name, self.kg, argv) for name, argv in self._cmds("")], None

    def output_bytes(self):
        return _dir_bytes(self.g_out) + _dir_bytes(self.r_out)

    def check(self, ops, artifacts):
        self.checks_done += 1
        for op, fn in zip(ops, (self._check_growth, self._check_radial)):
            if op.failed:
                continue
            try:
                op.note = fn()
            except Exception:
                op.note = "check raised:\n" + traceback.format_exc()
            op.failed = bool(op.note)

    def _check_growth(self) -> str:
        """Flow arcs must have total weight 2 pi sinh r (hyperbolic circles)
        to 1e-5, and reproduce the written L_weighted to the same tolerance.
        The arcs are traced again for a rotating subset of radii each round."""
        growth = self.kg.growth
        with open(self.g_out / "growth.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh)][1:]
        rows = [r for r in rows if r[0] != "verdict"]
        if len(rows) != 40:
            return f"growth.csv has {len(rows)} radii, expected 40"
        picks = sorted({0, len(rows) - 1} | {(self.checks_done + 7 * k) % len(rows)
                                              for k in range(self.arcs_checked - 2)})
        for k in picks:
            r, L_w = float(rows[k][0]), float(rows[k][2])
            arc = growth.geodesic_circle(self.model, self.p, r, n_samples=self.n_arc)
            exact = 2.0 * math.pi * math.sinh(r)
            err = abs(float(np.sum(arc.weights)) - exact) / exact
            if not err <= 1e-5:
                return f"arc r={r:.6g}: total weight off 2 pi sinh r by {err:.2e} (> 1e-5)"
            L = growth.L_weighted(self.model, arc)
            if not abs(L - L_w) <= 1e-5 * abs(L):
                return f"r={r:.6g}: written L_weighted {L_w!r} != recomputed {L!r}"
        return ""

    def _check_radial(self) -> str:
        """The profile must be the catenoid (arccosh(sqrt(c) r) - arccosh(sqrt(c)))/sqrt(c)."""
        data = np.loadtxt(self.r_out / "radial.csv", delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != 200:
            return f"radial.csv has {data.shape[0]} samples, expected 200"
        s = math.sqrt(self.c)
        exact = (np.arccosh(s * data[:, 0]) - np.arccosh(s)) / s
        err = float(np.max(np.abs(data[:, 1] - exact)))
        return "" if err <= 1e-10 else f"radial profile off the catenoid by {err:.2e} (> 1e-10)"


WORKLOADS = {w.name: w for w in (SolveSmooth, SolveClamped, PuncturePair, GrowthFlow)}
