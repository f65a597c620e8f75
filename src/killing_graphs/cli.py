"""Command-line front end: JSON experiment configs, CSV/JSON emission.

Subcommands::

    killing-graph solve      --config cfg.json [--out DIR]
    killing-graph radial     --config cfg.json [--out DIR]
    killing-graph growth     --config cfg.json [--out DIR]
    killing-graph experiment <name> --config cfg.json [--out DIR]

Experiment names: nil-strip, removable-singularity, collin-krust-fit,
sol3-wedge, e1tau-growth, iterated-log.

Each command returns its table, its record, a summary and the solves it
ran; one runner writes the table (CSV) and the record (JSON), prints
``<command>: <summary>; wrote <table>`` and picks the exit code.
Exit codes: 0 success, 1 config error (no output files are written), 2 some
solve did not converge (outputs written; stderr gives each failing solve's
message, residual and tolerance), 3 numerical error after the config was
read: a vertical slope, a geodesic circle leaving the chart, or an
expression undefined where it was evaluated.  A list key with no value, an
``n`` below 2 and a lattice node outside the model's chart are config errors.
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


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Reading a config: one rule for every section

def _read(section: dict, where: str, spec: dict) -> dict:
    """The values of a config section.  ``spec`` maps each declared key to ``(convert,
    default)``, or to ``convert`` if it is required; ``convert`` takes each value but a null
    default.  An undeclared or missing key, or a refused value, is a ConfigError naming it."""
    for key in section:
        if key not in spec:
            raise ConfigError(f"unknown key {key!r} in {where}; "
                              f"it takes {', '.join(map(repr, spec))}")
    values = {}
    for key, entry in spec.items():
        convert, default = entry if isinstance(entry, tuple) else (entry, ...)
        if key not in section and default is ...:
            raise ConfigError(f"missing {key!r} in {where}")
        value = section.get(key, default)
        try:
            values[key] = None if value is None and default is None else convert(value)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad {key!r} in {where}: {e}") from None
    return values


def _at_least(low, kind=float):
    """A converter for finite values >= ``low`` that ``kind`` keeps as they are (2.7 is no int)."""
    def convert(v):
        if isinstance(v, (int, float)) and low <= v < np.inf and kind(v) == v:
            return kind(v)
        raise ValueError(f"expected a finite {kind.__name__} >= {low}, got {v!r}")
    return convert


def _array(v) -> tuple:
    if isinstance(v, (list, tuple)):    # a string is not split into characters
        return tuple(v)
    raise TypeError(f"expected a list, got {v!r}")


def _list_of(convert, n=None):
    """A converter for a list of exactly ``n`` values, or of one or more if ``n`` is None,
    each taken by ``convert``."""
    def read(v):
        values = _array(v)
        if (len(values) != n) if n else not values:
            raise ValueError(f"expected a list of {n or 'one or more'} values, got {v!r}")
        return tuple(map(convert, values))
    return read


_count, _tolerance = _at_least(0, int), _at_least(0)
_floats, _pair, _bounds = _list_of(float), _list_of(float, 2), _list_of(float, 4)
_chart = lambda v: Rect(*_bounds(v))     # x0, x1, y0, y1


def _region(v):
    """A mask expression as the predicate "positive at (x, y)"."""
    f = as_field(v)
    return lambda x, y: f.value(x, y) > 0.0


def _boundary_spec(bc):
    """A boundary as grids data: a constant, a callable of chart (x, y) or a dict of them."""
    if isinstance(bc, dict):
        return {k: _boundary_spec(v) for k, v in bc.items()}
    if isinstance(bc, str):
        return expr_field(bc).value
    return 0.0 if bc is None else float(bc)


# the top-level keys: every section that some command reads, and the solve's data
_CONFIG = {**dict.fromkeys(("model", "domain", "solver", "output", "radial", "growth",
                            "experiment"), (dict, {})),
           "boundary": (_boundary_spec, 0.0), "H": (as_field, None), "puncture": (_pair, None)}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:   # a missing file, or malformed JSON
        raise ConfigError(f"cannot read {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return _read(cfg, "config", _CONFIG)


def _build_model(cfg: dict) -> MetricModel:
    mc = cfg["model"]
    if "preset" in mc:
        m = _read(mc, "model", {"preset": str, "params": (_array, ()), "chart": (_chart, None)})
        try:
            return builtin_model(m["preset"], m["params"], chart=m["chart"])
        except (TypeError, ValueError) as e:   # an unknown preset, or a wrong count or type of params
            raise ConfigError(f"bad model spec: {e}")
    m = _read(mc, "model", {"chart": _chart, "lambda": as_field, "mu": as_field,
                            "a": (as_field, 0.0), "b": (as_field, 0.0)})
    return MetricModel(chart=m["chart"], lam=m["lambda"], mu=m["mu"], a=m["a"], b=m["b"])


_SHAPES = {     # the keys of each domain shape besides 'shape'
    "rectangle": {"rect": _bounds, "h": float},
    "strip": {"half_width": float, "length": float, "h": float},
    "annulus": {"r0": float, "r1": float, "nr": _count, "ntheta": _count,
                "center": (_pair, (0.0, 0.0))},
    "disk": {"radius": float, "h": float},
    "masked": {"rect": _bounds, "h": float, "mask": _region},
}


def _build_domain(cfg: dict, h=None) -> GridDomain:
    """The lattice of the domain, its data and puncture; ``h`` replaces the domain's step."""
    dc = cfg["domain"]
    if dc.get("shape") not in _SHAPES:
        raise ConfigError(f"bad 'shape' in domain: {dc.get('shape')!r} is none of {list(_SHAPES)}")
    d, b = _read(dc, "domain", {"shape": str, **_SHAPES[dc["shape"]]}), cfg["boundary"]
    if h is not None:
        if "h" not in d:
            raise ConfigError(f"domain shape {d['shape']!r} has no 'h' to refine")
        d["h"] = h
    try:
        if d["shape"] == "annulus":
            arcs = b if isinstance(b, dict) else {"inner": b, "outer": b}
            dom = GridDomain.annulus(d["r0"], d["r1"], d["nr"], d["ntheta"],
                                     center=d["center"], **arcs)
        elif d["shape"] == "strip":
            w, L = d["half_width"], d["length"]
            dom = GridDomain.rectangle(-L, L, -w, w, d["h"], boundary=b)
        elif d["shape"] == "rectangle":
            dom = GridDomain.rectangle(*d["rect"], d["h"], boundary=b)
        elif d["shape"] == "disk":
            R = d["radius"]
            dom = GridDomain.masked(-R, R, -R, R, d["h"], boundary=b,
                                    keep=lambda x, y: x ** 2 + y ** 2 <= R ** 2 + 1e-12)
        else:
            dom = GridDomain.masked(*d["rect"], d["h"], keep=d["mask"], boundary=b)
    except (TypeError, ValueError) as e:   # a bad rect, or an undefined boundary expression
        raise ConfigError(f"bad domain spec: {e}") from None
    if cfg["puncture"] is not None:
        dom = dom.with_puncture(dom.nearest_node(cfg["puncture"]))
    return dom


def _solver_config(section: dict) -> SolveConfig:
    return SolveConfig(**_read(section, "solver", {
        "max_iters": (_count, SolveConfig.max_iters),
        "tol_factor": (_tolerance, SolveConfig.tol_factor)}))


_CSV_BLOCK_ROWS = 4096     # rows per format: at 6 columns the block's floats take < 1 MiB


def _write_csv(path: Path, header, rows, footer=None):
    """Header and footer go through csv.writer; the numeric rows are
    "%.17g,..." lines ended by the writer's "\\r\\n", each block of
    ``_CSV_BLOCK_ROWS`` rows made by one format."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    table = np.asarray(rows, dtype=np.float64)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, default=float)
        fh.write("\n")


def _solve_record(rep: SolveReport, prefix: str = "") -> dict:
    """The JSON record of one solve, every key led by ``prefix``:
    ``report.json`` is this record, and each experiment run holds one per
    solve beside its own keys."""
    record = {k: getattr(rep, k) for k in (
        "converged", "stop_reason", "start", "iterations", "coarse_iterations", "residual_norm",
        "tolerance", "factorizations", "krylov_iterations", "lu_fill", "damping_history",
        "message")}
    record["runtime_seconds"] = rep.runtime
    record["unknowns"] = int(np.sum(rep.u.domain.unknown_mask()))
    return {prefix + k: v for k, v in record.items()}


# ---------------------------------------------------------------------------
# Commands: each reads its own sections of the config, runs, and returns
# ((csv name, header, rows, footer), (json name, record), summary, solves),
# where solves are the SolveReports it ran; the runner writes the files

def cmd_solve(cfg: dict):
    model, dom = _build_model(cfg), _build_domain(cfg)
    rep = solve_dirichlet(model, dom, H=cfg["H"], config=_solver_config(cfg["solver"]))
    nf = NodeFields(model, dom)
    G1, G2 = nf.gradient_arrays(rep.u.values)
    W = np.sqrt(1.0 + nf.MU ** 2 * (G1 ** 2 + G2 ** 2))
    NU = nf.MU / W
    m = dom.interior_mask()
    rows = np.column_stack([nf.X[m], nf.Y[m], rep.u.values[m], W[m], NU[m],
                            rep.residual.values[m]])
    state = "converged in" if rep.converged else f"stopped ({rep.stop_reason}) after"
    return (("solution.csv", ["x", "y", "u", "W", "nu", "residual"], rows, None),
            ("report.json", _solve_record(rep)),
            f"{state} {rep.iterations} iterations, residual {rep.residual_norm:.3e}", [rep])


def cmd_radial(cfg: dict):
    rc = _read(cfg["radial"], "radial", {
        "c": (float, 1.0), "mu": (radial.as_radial, "1"), "r0": (float, 1.0),
        "r1": float, "n_samples": (_count, 50)})
    prof = radial.radial_profile(**rc)
    return (("radial.csv", ["r", "u"], list(zip(prof.radii, prof.values)), None),
            ("radial.json", {"c": prof.c, "r0": prof.r0, "sup_estimate": prof.sup_estimate,
                             "tail": prof.tail, "n_samples": len(prof.radii)}),
            f"c={prof.c}, sup estimate {prof.sup_estimate:.12g}", [])


def cmd_growth(cfg: dict):
    gc = _read(cfg["growth"], "growth", {
        "p": (_pair, (0.0, 0.0)), "r0": float, "r_max": float, "n_radii": (_count, 200),
        "variant": (str, "plain"), "mask": (_region, None), "n_arc": (_count, 512)})
    model = _build_model(cfg)
    prof = growth.g_of_r(model, **gc)
    # the profile holds its own variant's L; compute only the other one
    plain = prof.variant == "plain"
    other = [(growth.L_weighted if plain else growth.L_plain)(model, a) for a in prof.arcs]
    Lb, Lw = (prof.L, other) if plain else (other, prof.L)
    return (("growth.csv", ["r", "L_plain", "L_weighted", "g"],
             list(zip(prof.radii, Lb, Lw, prof.g)), ["verdict", prof.verdict, "", ""]),
            ("growth.json", {
                "p": list(prof.p), "variant": prof.variant, "verdict": prof.verdict,
                "g_final": float(prof.g[-1]), "n_radii": len(prof.radii),
                # the first radius whose arc kept enough samples, and what the mask
                # dropped from the arc at each radius used
                "r0": float(prof.radii[0]),
                "dropped_arc_samples": [gc["n_arc"] - len(a.points) for a in prof.arcs],
                # the geodesic flow's accepted steps out to r_max and the sum of
                # their local error estimates; null when every circle has a closed form
                "flow_steps": prof.arcs[-1].flow_steps,
                "flow_error_estimate": prof.arcs[-1].flow_error_estimate}),
            f"verdict {prof.verdict}, g({prof.radii[-1]:g}) = {prof.g[-1]:.9g}", [])


def _exp_nil_strip(cfg):
    scfg = _solver_config(cfg["solver"])
    ec = _read(cfg["experiment"], "experiment", {
        "tau": (float, 0.5), "half_width": (float, 1.0), "n_list": (_floats, (2, 4, 8)),
        "K": (float, 5.0), "h": (float, 1 / 16)})
    rep = nil.strip_uniqueness_experiment(ec["tau"], ec["half_width"], ec["n_list"], ec["K"],
                                          h=ec["h"], config=scfg)
    sups, rows = [r.core_sup for r in rep.runs], [(r.n, r.K, r.core_sup) for r in rep.runs]
    return (("nil_strip.csv", ["n", "K", "core_sup"], rows, None),
            ("nil_strip.json", {
                "tau": rep.tau, "half_width": rep.width, "core_sups": sups,
                "strictly_decreasing": experiments.decays(sups),
                "barrier_comparison_passed": rep.barrier_ok, "note": rep.note,
                "runs": [{"n": r.n, **_solve_record(r.report)} for r in rep.runs]}),
            f"core sups {['%.6g' % s for s in sups]}", [r.report for r in rep.runs])


def _exp_removable(cfg):
    # the config's solver section goes over the experiment's tight tolerance
    scfg = _solver_config({"tol_factor": experiments._TOL_FACTOR, **cfg["solver"]})
    ec = _read(cfg["experiment"], "experiment", {
        "case": (str, "disk"), "hs": (_floats, experiments._HS), "puncture": (_pair, None)})
    case, hs, point = ec["case"], ec["hs"], ec["puncture"]
    if case in experiments._PUNCTURE_CASES:
        rep = experiments._run_puncture_case(case, hs, point, config=scfg)
    elif case == "custom":
        if point is None:
            raise ConfigError("missing 'puncture' in experiment")
        factory = lambda h: _build_domain({**cfg, "puncture": None}, h)   # unpunctured, at h
        rep = experiments.removable_singularity_experiment(_build_model(cfg), factory, point,
                                                           H=cfg["H"], hs=hs, config=scfg)
    else:
        raise ConfigError(f"unknown removable-singularity case {case!r}")
    return (("removable_singularity.csv", ["h", "max_difference"],
             [(r.h, r.max_difference) for r in rep.runs], None),
            ("removable_singularity.json", {
                "case": case, "differences": [r.max_difference for r in rep.runs],
                "monotone_decay": rep.monotone_decay,
                "runs": [{"h": r.h, **_solve_record(r.full, "full_"),
                          **_solve_record(r.punctured, "punctured_")} for r in rep.runs]}),
            f"case {case}, diffs {['%.3e' % r.max_difference for r in rep.runs]}, "
            f"monotone={rep.monotone_decay}",
            [s for r in rep.runs for s in (r.full, r.punctured)])


def _exp_ck_fit(cfg):
    ec = _read(cfg["experiment"], "experiment", {
        "c_pair": (_list_of(_at_least(1), 2), (1.0, 4.0)), "r0": (float, 1.0),
        "n_radii": (_count, 200), "r_max_list": (_floats, (10.0, 50.0, 100.0))})
    c_u, c_v = ec["c_pair"]
    model = builtin_model("euclidean")

    def u_of(c):
        s = np.sqrt(c)
        return lambda x, y: (np.arccosh(np.maximum(s * np.hypot(x, y), 1.0))
                             - np.arccosh(s)) / s

    slopes, rows = [], []
    for r_max in ec["r_max_list"]:
        prof = growth.g_of_r(model, (0.0, 0.0), ec["r0"], r_max, n_radii=ec["n_radii"])
        fit = growth.collin_krust_rate(u_of(c_u), u_of(c_v), prof)
        slopes.append(fit.slope)
        for r, M, g in zip(fit.radii, fit.M, fit.g):
            rows.append((r_max, r, M, g))
    mean = float(np.mean(slopes))
    return (("collin_krust.csv", ["r_max", "r", "M", "g"], rows, None),
            ("collin_krust.json", {
                "c_pair": [c_u, c_v], "slopes": slopes, "mean_slope": mean,
                "max_relative_deviation": float(max(abs(s - mean) / mean for s in slopes)),
                "all_positive": all(s > 0 for s in slopes)}),
            f"slopes {['%.4f' % s for s in slopes]}", [])


def _exp_sol3_wedge(cfg):
    ec = _read(cfg["experiment"], "experiment", {
        "theta1": (float, np.pi / 4), "theta2": (float, np.pi / 4), "rho0": (float, 1.0),
        "rho_max": (float, 30.0), "n": (_count, 4000)})
    verdict, rhos, g = growth.sol3_wedge_divergence(**ec)
    th1, th2, n = ec["theta1"], ec["theta2"], ec["n"]
    rows = []
    for rho, gv in zip(rhos[:: max(1, n // 400)], g[:: max(1, n // 400)]):
        wb = growth.sol3_wedge_bound(th1, th2, float(rho))
        rows.append((rho, wb.T, wb.length_bound, wb.g_lower_integrand, gv))
    return (("sol3_wedge.csv", ["rho", "T", "length_bound", "g_lower_integrand", "g_lower"],
             rows, ["verdict", verdict, "", "", ""]),
            ("sol3_wedge.json", {"theta1": th1, "theta2": th2, "verdict": verdict,
                                 "T_at_1": growth.sol3_wedge_bound(th1, th2, 1.0).T}),
            f"verdict {verdict}", [])


def _exp_e1tau(cfg):
    ec = _read(cfg["experiment"], "experiment", {
        "H": (float, 0.5), "tau": (float, 0.0), "domain_kind": (str, "bounded-width"),
        "r0": (float, 1.0), "r_max": (float, 30.0), "n": (_count, 4000)})
    rs, g = growth.e1tau_g(**ec)
    H, tau, kind, r_max, n = ec["H"], ec["tau"], ec["domain_kind"], ec["r_max"], ec["n"]
    sample = growth.e1tau_growth(H, tau, kind, r_max)
    rows = []
    for r, gv in zip(rs[:: max(1, n // 400)], g[:: max(1, n // 400)]):
        s = growth.e1tau_growth(H, tau, kind, float(r))
        rows.append((r, s.h_value, s.g_prime, gv))
    report = {"H": H, "tau": tau, "domain_kind": kind, "asymptote_coeff": sample.asymptote_coeff,
              "asymptote_kind": sample.asymptote_kind, "g_final": float(g[-1])}
    if kind == "bounded-width" and H == 0.5:
        report["ratio_to_exp_half"] = float(g[-1] / np.exp(r_max / 2.0))
    return (("e1tau_growth.csv", ["r", "h", "g_prime", "g"], rows, None),
            ("e1tau_growth.json", report),
            f"g({r_max:g}) = {g[-1]:.6g} ({sample.asymptote_kind})", [])


def _exp_iterated_log(cfg):
    ec = _read(cfg["experiment"], "experiment", {
        "levels": (_list_of(_count), (0, 1, 2)), "x0": (float, 16.0),
        "n_windows": (_count, 16)})
    rows, verdicts = [], {}
    xs = ec["x0"] * 2.0 ** np.arange(ec["n_windows"] + 1)
    for nlev in ec["levels"]:
        vals = [growth.iterated_log(nlev, float(x)) for x in xs]
        rows += [(nlev, x, f, gt) for x, (f, gt) in zip(xs, vals)]
        verdicts[str(nlev)] = growth.window_verdict(xs, np.array([v[1] for v in vals]))[0]
    return (("iterated_log.csv", ["level", "x", "f", "g_tilde"], rows, None),
            ("iterated_log.json", {"verdicts": verdicts}), f"verdicts {verdicts}", [])


_EXPERIMENTS = {"nil-strip": _exp_nil_strip, "removable-singularity": _exp_removable,
                "collin-krust-fit": _exp_ck_fit, "sol3-wedge": _exp_sol3_wedge,
                "e1tau-growth": _exp_e1tau, "iterated-log": _exp_iterated_log}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)
_COMMANDS = {"solve": cmd_solve, "radial": cmd_radial, "growth": cmd_growth, **_EXPERIMENTS}


# ---------------------------------------------------------------------------
# Running a command: one rule for its files, its summary line and its exit code

def _run(name: str, cfg: dict, out) -> int:
    """Run the command ``name`` on ``cfg``, write its table and record under ``out`` (else the
    output dir), print its summary line, and return 2 if any of its solves did not converge.
    Nothing is written before the command returns, so a config error writes nothing."""
    d = _read(cfg["output"], "output", {"dir": (str, ".")})["dir"]   # its keys, even under --out
    out = Path(out or d)
    (table, *columns), (record, obj), summary, solves = _COMMANDS[name](cfg)
    _write_csv(out / table, *columns)
    _write_json(out / record, obj)
    print(f"{name}: {summary}; wrote {out / table}")
    failed = [r for r in solves if not r.converged]
    for r in failed:
        print(f"{name}: NOT converged ({r.message}); residual {r.residual_norm:.3e} "
              f"> tolerance {r.tolerance:.3e}", file=sys.stderr)
    if failed:
        print(f"{name}: {len(failed)} of {len(solves)} solves NOT converged; see "
              f"{out / record}", file=sys.stderr)
        return 2
    return 0


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
        return _run(args.name if args.command == "experiment" else args.command,
                    _load_config(args.config), args.out)
    except (radial.VerticalSlopeError, growth.ChartExitError, ExprDomainError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:   # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
