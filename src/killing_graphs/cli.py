"""Command-line front end: JSON experiment configs, CSV/JSON emission.

Subcommands::

    killing-graph solve      --config cfg.json [--out DIR]
    killing-graph radial     --config cfg.json [--out DIR]
    killing-graph growth     --config cfg.json [--out DIR]
    killing-graph experiment <name> --config cfg.json [--out DIR]

Experiment names: nil-strip, removable-singularity, collin-krust-fit,
sol3-wedge, e1tau-growth, iterated-log.

Exit codes: 0 success, 1 config error (no output files are written),
2 solver non-convergence (diagnostics are written), 3 numerical error after
the config was read: a vertical slope, a geodesic circle leaving the chart,
or an expression undefined where it was evaluated.
CSV is RFC-4180 with a header row; floats carry 17 significant digits so a
re-parse reproduces the in-memory values bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, growth, nil, radial
from .expressions import ExprDomainError
from .fields import as_field, expr_field
from .grids import GridDomain
from .models import MetricModel, Rect, builtin_model
from .operator import NodeFields
from .solver import SolveConfig, SolveReport, solve_dirichlet

EXPERIMENT_NAMES = ("nil-strip", "removable-singularity", "collin-krust-fit",
                    "sol3-wedge", "e1tau-growth", "iterated-log")


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {key!r} in {where}")
    return cfg[key]


def _build_model(cfg: dict) -> MetricModel:
    mc = _need(cfg, "model", "config")
    try:
        if "preset" in mc:
            chart = Rect(*mc["chart"]) if "chart" in mc else None
            return builtin_model(mc["preset"], tuple(mc.get("params", ())), chart=chart)
        chart = Rect(*_need(mc, "chart", "model"))
        return MetricModel(chart=chart,
                           lam=as_field(_need(mc, "lambda", "model")),
                           mu=as_field(_need(mc, "mu", "model")),
                           a=as_field(mc.get("a", 0.0)),
                           b=as_field(mc.get("b", 0.0)))
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad model spec: {e}")


def _boundary_spec(bc):
    """A config boundary as grids data: numbers stay constants, expressions
    become callables of chart (x, y), a per-arc dict maps each entry."""
    if bc is None:
        return 0.0
    if isinstance(bc, (int, float)):
        return float(bc)
    if isinstance(bc, str):
        return expr_field(bc).value
    if isinstance(bc, dict):
        return {k: _boundary_spec(v) for k, v in bc.items()}
    raise ConfigError("boundary must be a number, expression or per-arc dict")


def _build_domain(cfg: dict) -> GridDomain:
    dc = _need(cfg, "domain", "config")
    shape = _need(dc, "shape", "domain")
    try:
        bspec = _boundary_spec(cfg.get("boundary"))
        if shape in ("rectangle", "strip"):
            if shape == "rectangle":
                x0, x1, y0, y1 = dc["rect"]
            else:
                w = float(dc["half_width"])
                L = float(dc["length"])
                x0, x1, y0, y1 = -L, L, -w, w
            dom = GridDomain.rectangle(x0, x1, y0, y1, float(dc["h"]), boundary=bspec)
        elif shape == "annulus":
            arcs = bspec if isinstance(bspec, dict) else {"inner": bspec, "outer": bspec}
            dom = GridDomain.annulus(float(dc["r0"]), float(dc["r1"]), int(dc["nr"]),
                                     int(dc["ntheta"]),
                                     center=tuple(dc.get("center", (0.0, 0.0))), **arcs)
        elif shape in ("disk", "masked"):
            if shape == "disk":
                R = float(dc["radius"])
                x0, x1, y0, y1 = -R, R, -R, R
                keep = lambda x, y: x ** 2 + y ** 2 <= R ** 2 + 1e-12
            else:
                x0, x1, y0, y1 = dc["rect"]
                mask_f = expr_field(_need(dc, "mask", "domain"))
                keep = lambda x, y: mask_f.value(x, y) > 0.0
            dom = GridDomain.masked(x0, x1, y0, y1, float(dc["h"]), keep=keep,
                                    boundary=bspec)
        else:
            raise ConfigError(f"unknown domain shape {shape!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad domain spec: {e}")
    if "puncture" in cfg and cfg["puncture"] is not None:
        dom = dom.with_puncture(dom.nearest_node(tuple(cfg["puncture"])))
    return dom


_SOLVER_KEYS = {"max_iters": int, "tol_factor": float}


def _solver_config(cfg: dict) -> SolveConfig:
    sc = cfg.get("solver", {})
    unknown = sorted(set(sc) - set(_SOLVER_KEYS))
    if unknown:
        raise ConfigError(f"unknown solver key(s) {unknown}; "
                          f"the solver section takes max_iters and tol_factor")
    return SolveConfig(**{k: _SOLVER_KEYS[k](v) for k, v in sc.items()})


def _out_dir(cfg: dict, args) -> Path:
    d = args.out or cfg.get("output", {}).get("dir", ".")
    p = Path(d)
    p.mkdir(parents=True, exist_ok=True)
    return p


_CSV_BLOCK_ROWS = 4096     # rows per format: at 6 columns the block's floats take < 1 MiB


def _write_csv(path: Path, header, rows, footer=None):
    """Header and footer go through csv.writer; the numeric rows are
    "%.17g,..." lines ended by the writer's "\\r\\n", each block of
    ``_CSV_BLOCK_ROWS`` rows made by one format."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    table = np.asarray(rows, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # a block at a time: a whole-table tolist() would add ~10 MiB at 32k rows
        for k in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[k:k + _CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
        if footer is not None:
            w.writerow(footer)


def _write_json(path: Path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, default=float)
        fh.write("\n")


def _solve_record(rep: SolveReport, prefix: str = "") -> dict:
    """The JSON record of one solve, every key led by ``prefix``:
    ``report.json`` is this record, and each experiment run holds one per
    solve beside its own keys."""
    record = {
        "converged": rep.converged,
        "stop_reason": rep.stop_reason,
        "start": rep.start,
        "iterations": rep.iterations,
        "coarse_iterations": rep.coarse_iterations,
        "residual_norm": rep.residual_norm,
        "tolerance": rep.tolerance,
        "factorizations": rep.factorizations,
        "krylov_iterations": rep.krylov_iterations,
        "lu_fill": rep.lu_fill,
        "damping_history": rep.damping_history,
        "message": rep.message,
        "runtime_seconds": rep.runtime,
        "unknowns": int(np.sum(rep.u.domain.unknown_mask())),
    }
    return {prefix + k: v for k, v in record.items()}


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve(cfg: dict, args) -> int:
    model = _build_model(cfg)
    dom = _build_domain(cfg)
    H = cfg.get("H")
    scfg = _solver_config(cfg)
    out = _out_dir(cfg, args)

    rep = solve_dirichlet(model, dom, H=H, config=scfg)
    nf = NodeFields(model, dom)
    G1, G2 = nf.gradient_arrays(rep.u.values)
    W = np.sqrt(1.0 + nf.MU ** 2 * (G1 ** 2 + G2 ** 2))
    NU = nf.MU / W
    m = dom.interior_mask()
    rows = np.column_stack([nf.X[m], nf.Y[m], rep.u.values[m], W[m], NU[m],
                            rep.residual.values[m]])
    _write_csv(out / "solution.csv", ["x", "y", "u", "W", "nu", "residual"], rows)
    _write_json(out / "report.json", _solve_record(rep))
    if not rep.converged:
        print(f"solve: NOT converged ({rep.message}); residual {rep.residual_norm:.3e} "
              f"> tolerance {rep.tolerance:.3e}", file=sys.stderr)
        return 2
    print(f"solve: converged in {rep.iterations} iterations, "
          f"residual {rep.residual_norm:.3e}; wrote {out/'solution.csv'}")
    return 0


def cmd_radial(cfg: dict, args) -> int:
    rc = _need(cfg, "radial", "config")
    out = _out_dir(cfg, args)
    prof = radial.radial_profile(float(rc.get("c", 1.0)), rc.get("mu", "1"),
                                 float(rc.get("r0", 1.0)), float(_need(rc, "r1", "radial")),
                                 int(rc.get("n_samples", 50)))
    _write_csv(out / "radial.csv", ["r", "u"], list(zip(prof.radii, prof.values)))
    _write_json(out / "radial.json", {
        "c": prof.c, "r0": prof.r0,
        "sup_estimate": prof.sup_estimate, "tail": prof.tail,
        "n_samples": len(prof.radii),
    })
    print(f"radial: c={prof.c}, sup estimate {prof.sup_estimate:.12g}; "
          f"wrote {out/'radial.csv'}")
    return 0


def cmd_growth(cfg: dict, args) -> int:
    gc = _need(cfg, "growth", "config")
    model = _build_model(cfg)
    out = _out_dir(cfg, args)
    mask = None
    if "mask" in gc and gc["mask"] is not None:
        mf = expr_field(gc["mask"])
        mask = lambda x, y: mf.value(x, y) > 0.0
    p = tuple(gc.get("p", (0.0, 0.0)))
    n_arc = int(gc.get("n_arc", 512))
    prof = growth.g_of_r(model, p, float(_need(gc, "r0", "growth")),
                         float(_need(gc, "r_max", "growth")),
                         n_radii=int(gc.get("n_radii", 200)),
                         variant=gc.get("variant", "plain"), mask=mask, n_arc=n_arc)
    # the profile holds its own variant's L; compute only the other one
    plain = prof.variant == "plain"
    other = [(growth.L_weighted if plain else growth.L_plain)(model, a) for a in prof.arcs]
    Lb, Lw = (prof.L, other) if plain else (other, prof.L)
    rows = list(zip(prof.radii, Lb, Lw, prof.g))
    _write_csv(out / "growth.csv", ["r", "L_plain", "L_weighted", "g"], rows,
               footer=["verdict", prof.verdict, "", ""])
    _write_json(out / "growth.json", {
        "p": list(prof.p), "variant": prof.variant, "verdict": prof.verdict,
        "g_final": float(prof.g[-1]), "n_radii": len(prof.radii),
        # the first radius whose arc kept enough samples, and what the mask
        # dropped from the arc at each radius used
        "r0": float(prof.radii[0]),
        "dropped_arc_samples": [n_arc - len(a.points) for a in prof.arcs],
        # the geodesic flow's accepted steps out to r_max and the sum of
        # their local error estimates; null when every circle has a closed form
        "flow_steps": prof.arcs[-1].flow_steps,
        "flow_error_estimate": prof.arcs[-1].flow_error_estimate,
    })
    print(f"growth: verdict {prof.verdict}, g({prof.radii[-1]:g}) = {prof.g[-1]:.9g}; "
          f"wrote {out/'growth.csv'}")
    return 0


def _experiment_exit(name: str, converged) -> int:
    """2 when any solve of the experiment did not converge, as in ``solve``."""
    failed = sum(not c for c in converged)
    if failed:
        print(f"{name}: {failed} of {len(converged)} solves NOT converged "
              f"(see the json report)", file=sys.stderr)
        return 2
    return 0


def _exp_nil_strip(cfg, out):
    ec = cfg.get("experiment", {})
    rep = nil.strip_uniqueness_experiment(float(ec.get("tau", 0.5)),
                                          float(ec.get("half_width", 1.0)),
                                          ec.get("n_list", [2, 4, 8]),
                                          float(ec.get("K", 5.0)),
                                          h=float(ec.get("h", 1 / 16)),
                                          config=_solver_config(cfg))
    rows = [(r.n, r.K, r.core_sup) for r in rep.runs]
    _write_csv(out / "nil_strip.csv", ["n", "K", "core_sup"], rows)
    sups = [r.core_sup for r in rep.runs]
    _write_json(out / "nil_strip.json", {
        "tau": rep.tau, "half_width": rep.width,
        "core_sups": sups,
        "strictly_decreasing": all(b < a for a, b in zip(sups, sups[1:])),
        "barrier_comparison_passed": rep.barrier_ok,
        "note": rep.note,
        "runs": [{"n": r.n, **_solve_record(r.report)} for r in rep.runs],
    })
    print(f"nil-strip: core sups {['%.6g' % s for s in sups]}; wrote {out/'nil_strip.csv'}")
    return _experiment_exit("nil-strip", [r.converged for r in rep.runs])


def _exp_removable(cfg, out):
    ec = cfg.get("experiment", {})
    case = ec.get("case", "disk")
    hs = tuple(ec.get("hs", experiments._HS))
    # the config's solver section goes over the experiment's tight tolerance
    scfg = _solver_config({"solver": {"tol_factor": experiments._TOL_FACTOR,
                                      **cfg.get("solver", {})}})
    if case in experiments._PUNCTURE_CASES:
        rep = experiments._run_puncture_case(case, hs, ec.get("puncture"), config=scfg)
    elif case == "custom":
        model = _build_model(cfg)
        shape = _need(cfg, "domain", "config").get("shape")
        if shape == "annulus":
            raise ConfigError(f"removable-singularity case 'custom' needs a domain with "
                              f"'h'; shape {shape!r} has none")
        factory = lambda h: _build_domain({**cfg, "puncture": None,
                                           "domain": {**cfg["domain"], "h": h}})
        point = _need(ec, "puncture", "experiment")
        rep = experiments.removable_singularity_experiment(model, factory, tuple(point),
                                                           H=cfg.get("H"), hs=hs, config=scfg)
    else:
        raise ConfigError(f"unknown removable-singularity case {case!r}")
    rows = [(r.h, r.max_difference) for r in rep.runs]
    _write_csv(out / "removable_singularity.csv", ["h", "max_difference"], rows)
    _write_json(out / "removable_singularity.json", {
        "case": case,
        "differences": [r.max_difference for r in rep.runs],
        "monotone_decay": rep.monotone_decay,
        "runs": [{"h": r.h, **_solve_record(r.full, "full_"),
                  **_solve_record(r.punctured, "punctured_")} for r in rep.runs],
    })
    print(f"removable-singularity[{case}]: diffs "
          f"{['%.3e' % r.max_difference for r in rep.runs]}, monotone={rep.monotone_decay}")
    return _experiment_exit("removable-singularity",
                            [s.converged for r in rep.runs for s in (r.full, r.punctured)])


def _exp_ck_fit(cfg, out):
    ec = cfg.get("experiment", {})
    c_u, c_v = (float(c) for c in ec.get("c_pair", (1.0, 4.0)))
    r0 = float(ec.get("r0", 1.0))
    n_radii = int(ec.get("n_radii", 200))
    model = builtin_model("euclidean")

    def u_of(c):
        s = np.sqrt(c)
        return lambda x, y: (np.arccosh(np.maximum(s * np.hypot(x, y), 1.0))
                             - np.arccosh(s)) / s

    slopes = []
    rows = []
    for r_max in ec.get("r_max_list", (10.0, 50.0, 100.0)):
        prof = growth.g_of_r(model, (0.0, 0.0), r0, float(r_max), n_radii=n_radii)
        fit = growth.collin_krust_rate(u_of(c_u), u_of(c_v), prof)
        slopes.append(fit.slope)
        for r, M, g in zip(fit.radii, fit.M, fit.g):
            rows.append((r_max, r, M, g))
    _write_csv(out / "collin_krust.csv", ["r_max", "r", "M", "g"], rows)
    mean = float(np.mean(slopes))
    _write_json(out / "collin_krust.json", {
        "c_pair": [c_u, c_v], "slopes": slopes, "mean_slope": mean,
        "max_relative_deviation": float(max(abs(s - mean) / mean for s in slopes)),
        "all_positive": all(s > 0 for s in slopes),
    })
    print(f"collin-krust-fit: slopes {['%.4f' % s for s in slopes]}")
    return 0


def _exp_sol3_wedge(cfg, out):
    ec = cfg.get("experiment", {})
    th1 = float(ec.get("theta1", np.pi / 4))
    th2 = float(ec.get("theta2", np.pi / 4))
    rho0 = float(ec.get("rho0", 1.0))
    rho_max = float(ec.get("rho_max", 30.0))
    n = int(ec.get("n", 4000))
    verdict, rhos, g = growth.sol3_wedge_divergence(th1, th2, rho0, rho_max, n)
    rows = []
    for rho, gv in zip(rhos[:: max(1, n // 400)], g[:: max(1, n // 400)]):
        wb = growth.sol3_wedge_bound(th1, th2, float(rho))
        rows.append((rho, wb.T, wb.length_bound, wb.g_lower_integrand, gv))
    _write_csv(out / "sol3_wedge.csv",
               ["rho", "T", "length_bound", "g_lower_integrand", "g_lower"],
               rows, footer=["verdict", verdict, "", "", ""])
    _write_json(out / "sol3_wedge.json", {
        "theta1": th1, "theta2": th2, "verdict": verdict,
        "T_at_1": growth.sol3_wedge_bound(th1, th2, 1.0).T,
    })
    print(f"sol3-wedge: verdict {verdict}")
    return 0


def _exp_e1tau(cfg, out):
    ec = cfg.get("experiment", {})
    H = float(ec.get("H", 0.5))
    tau = float(ec.get("tau", 0.0))
    kind = ec.get("domain_kind", "bounded-width")
    r0 = float(ec.get("r0", 1.0))
    r_max = float(ec.get("r_max", 30.0))
    n = int(ec.get("n", 4000))
    rs, g = growth.e1tau_g(H, tau, kind, r0, r_max, n)
    sample = growth.e1tau_growth(H, tau, kind, r_max)
    rows = []
    for r, gv in zip(rs[:: max(1, n // 400)], g[:: max(1, n // 400)]):
        s = growth.e1tau_growth(H, tau, kind, float(r))
        rows.append((r, s.h_value, s.g_prime, gv))
    _write_csv(out / "e1tau_growth.csv", ["r", "h", "g_prime", "g"], rows)
    report = {"H": H, "tau": tau, "domain_kind": kind,
              "asymptote_coeff": sample.asymptote_coeff,
              "asymptote_kind": sample.asymptote_kind,
              "g_final": float(g[-1])}
    if kind == "bounded-width" and H == 0.5:
        report["ratio_to_exp_half"] = float(g[-1] / np.exp(r_max / 2.0))
    _write_json(out / "e1tau_growth.json", report)
    print(f"e1tau-growth: g({r_max:g}) = {g[-1]:.6g} ({sample.asymptote_kind})")
    return 0


def _exp_iterated_log(cfg, out):
    ec = cfg.get("experiment", {})
    levels = ec.get("levels", [0, 1, 2])
    x0 = float(ec.get("x0", 16.0))
    n_windows = int(ec.get("n_windows", 16))
    rows = []
    verdicts = {}
    for nlev in levels:
        xs = x0 * 2.0 ** np.arange(n_windows + 1)
        vals = [growth.iterated_log(int(nlev), float(x)) for x in xs]
        for x, (f, gt) in zip(xs, vals):
            rows.append((int(nlev), x, f, gt))
        gts = np.array([v[1] for v in vals])
        verdict, _, _ = growth.window_verdict(xs, gts)
        verdicts[str(nlev)] = verdict
    _write_csv(out / "iterated_log.csv", ["level", "x", "f", "g_tilde"], rows)
    _write_json(out / "iterated_log.json", {"verdicts": verdicts})
    print(f"iterated-log: verdicts {verdicts}")
    return 0


_EXPERIMENTS = {
    "nil-strip": _exp_nil_strip,
    "removable-singularity": _exp_removable,
    "collin-krust-fit": _exp_ck_fit,
    "sol3-wedge": _exp_sol3_wedge,
    "e1tau-growth": _exp_e1tau,
    "iterated-log": _exp_iterated_log,
}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="killing-graph",
        description="Prescribed-mean-curvature Killing graphs: solver, "
                    "radial families, growth functionals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "radial", "growth", "experiment"):
        p = sub.add_parser(name)
        if name == "experiment":
            p.add_argument("name", choices=EXPERIMENT_NAMES)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.command == "experiment":
            return _EXPERIMENTS[args.name](cfg, _out_dir(cfg, args))
        commands = {"solve": cmd_solve, "radial": cmd_radial, "growth": cmd_growth}
        return commands[args.command](cfg, args)
    except (radial.VerticalSlopeError, growth.ChartExitError, ExprDomainError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:   # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
