import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import killing_graphs
from killing_graphs import experiments, solver
from killing_graphs.cli import _build_domain, _load_config, main
from killing_graphs.grids import GridDomain
from killing_graphs.models import builtin_model
from killing_graphs.operator import AssemblyCache
from killing_graphs.solver import SolveConfig, solve_dirichlet


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_plane(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [0, 1, 0, 1], "h": 0.125},
        "boundary": "0.3*x+0.7*y",
        "H": "0",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 0
    rows = read_csv(tmp_path / "out" / "solution.csv")
    assert rows[0] == ["x", "y", "u", "W", "nu", "residual"]
    resid = [abs(float(r[5])) for r in rows[1:]]
    assert max(resid) <= 1e-10
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True
    assert report["start"] == "picard" and report["coarse_iterations"] == []


def test_solve_report_records_the_coarse_start(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "nil3", "params": [0.5]},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 1 / 64},
        "boundary": "sin(3*x)+x*y",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True and report["start"] == "coarse"
    # the 1/16 and 1/32 levels; iterations counts the 1/64 level alone
    assert len(report["coarse_iterations"]) == 2
    assert 1 <= report["iterations"] <= min(report["coarse_iterations"])


def test_solve_report_records_the_linear_algebra(tmp_path):
    # the clamped strip: a Picard start, then Newton steps on one held LU
    # with a refactor wherever GMRES misses its bound
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "nil3", "params": [0.5]},
        "domain": {"shape": "strip", "half_width": 1.0, "length": 2.0, "h": 1 / 16},
        "boundary": {"left": 5.0, "right": 5.0, "bottom": "0", "top": "0"},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _build_domain(_load_config(cfg)))
    assert report["start"] == "picard" and report["iterations"] == rep.iterations
    assert report["factorizations"] == rep.factorizations
    assert report["krylov_iterations"] == rep.krylov_iterations
    assert report["lu_fill"] == rep.lu_fill > 0
    # every float32 step met the forcing bound after its refinement step
    assert report["lu_fallbacks"] == rep.lu_fallbacks == 0
    # a Picard sweep happens only at the start, so no count of them is kept
    assert "picard_sweeps" not in report
    # the Picard matrix and the first Newton Jacobian at least, and fewer
    # factorizations than matrices; at most _KRYLOV_MAX GMRES iterations
    # per Newton step after the first
    assert 2 <= report["factorizations"] < 1 + report["iterations"]
    assert 1 <= report["krylov_iterations"] <= solver._KRYLOV_MAX * (report["iterations"] - 1)


def test_solve_csv_round_trip_bit_exact(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "nil3", "params": [0.5]},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": "0.2*x*y",
        "output": {"dir": str(out)},
    })
    assert main(["solve", "--config", cfg]) == 0
    from killing_graphs.grids import GridDomain
    from killing_graphs.models import builtin_model
    from killing_graphs.solver import solve_dirichlet
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25,
                               boundary=lambda x, y: 0.2 * x * y)
    rep = solve_dirichlet(m, dom)
    rows = read_csv(out / "solution.csv")[1:]
    X, Y = dom.coords()
    got = {(r[0], r[1]): float(r[2]) for r in rows}
    for j, i in zip(*np.nonzero(dom.interior_mask())):
        key = ("%.17g" % X[j, i], "%.17g" % Y[j, i])
        assert got[key] == rep.u.values[j, i]  # bit-exact round trip


def test_malformed_json_exit_1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"model": ')
    out = tmp_path / "should_not_exist"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
    assert not (out / "solution.csv").exists()


def test_missing_sections_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": {"shape": "rectangle"}})
    assert main(["solve", "--config", cfg]) == 1


def test_unattainable_tolerance_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.125},
        "boundary": 0.0,
        "H": "5.0",
        "solver": {"max_iters": 20},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is False


def test_radial_csv_matches_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, {
        "radial": {"mu": "r", "c": 1.0, "r0": 1.0, "r1": 20.0, "n_samples": 50},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["radial", "--config", cfg]) == 0
    rows = read_csv(tmp_path / "out" / "radial.csv")[1:]
    for row in rows:
        r, u = float(row[0]), float(row[1])
        assert abs(u - 0.5 * np.arctan(np.sqrt(max(r ** 4 - 1, 0.0)))) <= 1e-9
    record = json.loads((tmp_path / "out" / "radial.json").read_text())
    assert record["tail"] == "quad"
    assert record["sup_estimate"] == pytest.approx(np.pi / 4, abs=1e-12)


def test_radial_json_reports_a_divergent_tail(tmp_path):
    cfg = write_cfg(tmp_path, {
        "radial": {"mu": "1", "c": 2.0, "r0": 1.0, "r1": 20.0, "n_samples": 200},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["radial", "--config", cfg]) == 0
    record = json.loads((tmp_path / "out" / "radial.json").read_text())
    assert record["tail"] == "diverges"
    assert record["sup_estimate"] == np.inf


def test_growth_verdict_and_footer(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "growth": {"p": [0, 0], "r0": 1.0, "r_max": 100.0, "n_radii": 150},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["growth", "--config", cfg]) == 0
    rows = read_csv(tmp_path / "out" / "growth.csv")
    assert rows[0] == ["r", "L_plain", "L_weighted", "g"]
    assert rows[-1][0] == "verdict" and rows[-1][1] == "diverges"
    # g ~ ln r / 2 pi
    g_final = float(rows[-2][3])
    assert g_final == pytest.approx(np.log(100.0) / (2 * np.pi), rel=1e-3)


def test_growth_json_records_effective_r0_and_dropped_samples(tmp_path):
    # the half-plane y > 1/2 misses the small circles: the first radius whose
    # arc keeps 8 of its 64 samples becomes the effective r0
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "growth": {"p": [0, 0], "r0": 0.1, "r_max": 20.0, "n_radii": 40,
                   "n_arc": 64, "mask": "y - 0.5"},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["growth", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "growth.json").read_text())
    written = [float(row[0]) for row in read_csv(tmp_path / "out" / "growth.csv")[1:-1]]
    radii = np.geomspace(0.1, 20.0, 40)
    phis = 2 * np.pi * (np.arange(64) + 0.5) / 64
    kept = [int(np.sum(r * np.sin(phis) > 0.5)) for r in radii]
    first = next(k for k, n in enumerate(kept) if n >= 8)
    assert first > 0 and rep["r0"] == written[0]
    assert rep["r0"] == pytest.approx(radii[first], rel=1e-15)
    assert rep["dropped_arc_samples"] == [64 - n for n in kept[first:]]
    assert rep["n_radii"] == len(written) == 40 - first


@pytest.mark.parametrize("preset, p", [("sol3-disk", [0.3, 0.0]), ("euclidean", [0, 0])])
def test_growth_json_records_flow_steps_and_error_estimate(tmp_path, preset, p):
    # off centre the disk's circles are traced by the flow; the euclidean
    # circles about the origin have a closed form, and nothing is traced
    cfg = write_cfg(tmp_path, {
        "model": {"preset": preset},
        "growth": {"p": p, "r0": 0.1, "r_max": 2.0, "n_radii": 12, "n_arc": 64},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["growth", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "growth.json").read_text())
    if preset == "euclidean":
        assert rep["flow_steps"] is None and rep["flow_error_estimate"] is None
        return
    # at least one accepted step lands on each radius
    assert isinstance(rep["flow_steps"], int) and rep["flow_steps"] >= 12
    assert 0.0 < rep["flow_error_estimate"] <= 1e-8


@pytest.mark.parametrize("command, cfg, key", [
    ("radial", {"radial": {"mu": "r", "c": 2.0, "r0": 1.0, "r1": 2.0, "n_samples": 0}},
     "n_samples"),
    ("growth", {"model": {"preset": "euclidean"},
                "growth": {"r0": 1.0, "r_max": 10.0, "n_radii": 0}}, "n_radii"),
])
def test_no_samples_is_a_config_error(tmp_path, capsys, command, cfg, key):
    path = write_cfg(tmp_path, {**cfg, "output": {"dir": str(tmp_path / "out")}})
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_experiment_iterated_log(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"levels": [0, 1, 2], "x0": 16.0, "n_windows": 16},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "iterated-log", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "iterated_log.json").read_text())
    assert all(v == "diverges" for v in rep["verdicts"].values())


def test_experiment_nil_strip(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"tau": 0.5, "half_width": 1.0, "n_list": [2, 3],
                       "K": 5.0, "h": 0.125},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "nil-strip", "--config", cfg]) == 0
    rows = read_csv(tmp_path / "out" / "nil_strip.csv")
    assert rows[0] == ["n", "K", "core_sup"]
    assert len(rows) == 3
    rep = json.loads((tmp_path / "out" / "nil_strip.json").read_text())
    assert [r["n"] for r in rep["runs"]] == [2, 3]
    assert all(r["converged"] is True and r["stop_reason"] == "tolerance"
               for r in rep["runs"])
    assert all(r["start"] == "picard" and r["coarse_iterations"] == [] for r in rep["runs"])


def test_one_run_shows_no_decay(tmp_path):
    # one rule for both flags: a single run shows no decay (both read true)
    for name, experiment, record, flag in (
            ("nil-strip", {"n_list": [2], "h": 0.25}, "nil_strip.json", "strictly_decreasing"),
            ("removable-singularity", {"case": "disk", "hs": [0.125]},
             "removable_singularity.json", "monotone_decay")):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, {"experiment": experiment, "output": {"dir": str(out)}})
        assert main(["experiment", name, "--config", cfg]) == 0
        rep = json.loads((out / record).read_text())
        assert len(rep["runs"]) == 1 and rep[flag] is False


def test_experiment_nil_strip_nonconvergence_exit_2(tmp_path, monkeypatch):
    # one Newton step is too few for the clamped strip; the truncations
    # reach the solver through exhaustion_solve
    monkeypatch.setattr(solver, "solve_dirichlet", lambda model, dom, H=None, config=None:
                        solve_dirichlet(model, dom, H=H, config=SolveConfig(max_iters=1)))
    cfg = write_cfg(tmp_path, {
        "experiment": {"tau": 0.5, "half_width": 1.0, "n_list": [2, 3],
                       "K": 5.0, "h": 0.125},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "nil-strip", "--config", cfg]) == 2
    rep = json.loads((tmp_path / "out" / "nil_strip.json").read_text())
    assert all(r["converged"] is False and r["stop_reason"] == "max-iters"
               for r in rep["runs"])


def test_experiment_nil_strip_honours_solver_section(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"tau": 0.5, "half_width": 1.0, "n_list": [2, 3],
                       "K": 5.0, "h": 0.125},
        "solver": {"max_iters": 1},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "nil-strip", "--config", cfg]) == 2
    rep = json.loads((tmp_path / "out" / "nil_strip.json").read_text())
    assert all(r["converged"] is False and r["stop_reason"] == "max-iters"
               for r in rep["runs"])


def removable_cfg(tmp_path, case):
    # the disk and sol3 cases bring their own model and domain
    return write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": "x^2-y^3",
        "experiment": {"case": case, "hs": [0.25], "puncture": [0.25, 0.25]} if case == "custom"
        else {"case": case, "hs": [0.25]},
        "solver": {"max_iters": 1},
        "output": {"dir": str(tmp_path / "out")},
    })


@pytest.mark.parametrize("case", ["disk", "sol3", "custom"])
def test_experiment_removable_honours_solver_section(tmp_path, case):
    cfg = removable_cfg(tmp_path, case)
    assert main(["experiment", "removable-singularity", "--config", cfg]) == 2
    run, = json.loads((tmp_path / "out" / "removable_singularity.json").read_text())["runs"]
    assert run["full_stop_reason"] == run["punctured_stop_reason"] == "max-iters"


def test_experiment_removable_solver_section_keeps_tight_tolerance(tmp_path, monkeypatch):
    seen = []

    def spy(model, dom, H=None, config=None, init=None):
        seen.append(config)
        return solve_dirichlet(model, dom, H=H, config=config, init=init)

    monkeypatch.setattr(experiments, "solve_dirichlet", spy)
    main(["experiment", "removable-singularity", "--config", removable_cfg(tmp_path, "disk")])
    assert [(c.max_iters, c.tol_factor) for c in seen] == [(1, 1e-13)] * 2


def test_experiment_removable_small(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"case": "disk", "hs": [0.125, 0.0625]},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "removable-singularity", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "removable_singularity.json").read_text())
    assert rep["monotone_decay"] is True
    assert [r["h"] for r in rep["runs"]] == [0.125, 0.0625]
    for r in rep["runs"]:
        assert r["full_converged"] is True and r["punctured_converged"] is True
        assert r["full_stop_reason"] in ("tolerance", "rounding-floor")
        assert r["punctured_stop_reason"] in ("tolerance", "rounding-floor")
        # masked lattices start from Picard; the punctured solve from the full one
        assert r["full_start"] == "picard" and r["punctured_start"] == "given"
        assert r["full_coarse_iterations"] == r["punctured_coarse_iterations"] == []


def test_experiment_runs_carry_the_solve_report_keys(tmp_path):
    # one record per solve: report.json's keys, with nil-strip's n and
    # removable-singularity's h and full_/punctured_ prefixes
    solve_cfg = write_cfg(tmp_path, {
        "model": {"preset": "nil3", "params": [0.5]},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": "x*y", "output": {"dir": str(tmp_path / "solve")},
    }, "solve.json")
    assert main(["solve", "--config", solve_cfg]) == 0
    keys = set(json.loads((tmp_path / "solve" / "report.json").read_text()))
    strip_cfg = write_cfg(tmp_path, {
        "experiment": {"n_list": [2, 3], "h": 0.125},
        "output": {"dir": str(tmp_path / "strip")},
    }, "strip.json")
    assert main(["experiment", "nil-strip", "--config", strip_cfg]) == 0
    removable_cfg = write_cfg(tmp_path, {
        "experiment": {"case": "disk", "hs": [0.125]},
        "output": {"dir": str(tmp_path / "removable")},
    }, "removable.json")
    assert main(["experiment", "removable-singularity", "--config", removable_cfg]) == 0
    strip = json.loads((tmp_path / "strip" / "nil_strip.json").read_text())
    run, = json.loads((tmp_path / "removable" / "removable_singularity.json").read_text())["runs"]
    assert "picard_sweeps" not in keys and "converged" in keys and "unknowns" in keys
    assert "lu_fallbacks" in keys
    assert [set(r) for r in strip["runs"]] == [keys | {"n"}] * 2
    assert set(run) == ({"h"} | {"full_" + k for k in keys}
                        | {"punctured_" + k for k in keys})
    assert run["punctured_start"] == "given" and run["punctured_iterations"] >= 1
    assert run["full_lu_fallbacks"] == run["punctured_lu_fallbacks"] == 0


def test_unknowns_count_the_bridge_node(tmp_path):
    # a puncture turns an interior node into a bridge, which is still an
    # unknown of its system: both solves of a pair have as many unknowns
    cfg = write_cfg(tmp_path, {
        "experiment": {"case": "disk", "hs": [1 / 16]},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "removable-singularity", "--config", cfg]) == 0
    run, = json.loads((tmp_path / "out" / "removable_singularity.json").read_text())["runs"]
    dom = experiments.disk_sin2theta_domain(1 / 16)
    n_unknowns = AssemblyCache(builtin_model("euclidean"), dom).n_unknowns
    assert run["punctured_unknowns"] == run["full_unknowns"] == n_unknowns == 709


@pytest.mark.filterwarnings("error")
def test_experiment_removable_nonconvergence_exit_2(tmp_path):
    # H too large for the square: no graph solution, so no solve converges;
    # on this coarse lattice the full solve's iterate runs away after a short
    # step, and the line search rejects a step of the punctured solve
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": 0.0,
        "H": "5.0",
        "experiment": {"case": "custom", "hs": [0.25], "puncture": [0.25, 0.25]},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "removable-singularity", "--config", cfg]) == 2
    rep = json.loads((tmp_path / "out" / "removable_singularity.json").read_text())
    run, = rep["runs"]
    assert run["full_converged"] is False and run["punctured_converged"] is False
    assert run["full_stop_reason"] == "diverged"
    assert run["punctured_stop_reason"] == "stalled"
    # no difference is measured between solves that did not converge
    assert np.isnan(rep["differences"][0])
    assert rep["monotone_decay"] is False


def test_experiment_sol3_wedge(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"theta1": 0.7853981633974483, "theta2": 0.7853981633974483},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "sol3-wedge", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "sol3_wedge.json").read_text())
    assert rep["verdict"] == "diverges"
    t2 = np.tanh(1.0) ** 2
    assert rep["T_at_1"] == pytest.approx(
        (1 - t2) / (1 + t2 - 2 * np.tanh(1.0) * np.cos(np.pi / 4)), rel=1e-10)


def test_experiment_e1tau(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"H": 0.5, "tau": 0.0, "domain_kind": "bounded-width",
                       "r0": 1.0, "r_max": 30.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "e1tau-growth", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "e1tau_growth.json").read_text())
    assert rep["ratio_to_exp_half"] == pytest.approx(0.5, rel=0.02)


def test_experiment_collin_krust(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": {"c_pair": [1.0, 4.0], "r_max_list": [10.0, 50.0],
                       "n_radii": 120},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "collin-krust-fit", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "collin_krust.json").read_text())
    assert rep["all_positive"] is True


def test_unknown_experiment_name():
    with pytest.raises(SystemExit):
        main(["experiment", "frobnicate", "--config", "nope.json"])


def test_annulus_config_solve(tmp_path):
    u2 = 0.5 * (np.arctan(np.sqrt(2 * 16 - 1.0)) - np.arctan(1.0))
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "warped-plane", "params": ["r"]},
        "domain": {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 16, "ntheta": 64},
        "boundary": {"inner": 0.0, "outer": u2},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True


def test_per_arc_expressions_evaluated_at_arc_nodes(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": {"left": "x+10", "right": "x*y", "bottom": "y-x", "top": 2.0},
        "output": {"dir": str(out)},
    })
    assert main(["solve", "--config", cfg]) == 0
    dom = _build_domain(_load_config(cfg))
    X, Y = dom.coords()
    np.testing.assert_array_equal(dom.bdata[1:-1, 0], 9.0)   # x = -1 on the left arc
    np.testing.assert_array_equal(dom.bdata[1:-1, -1], X[1:-1, -1] * Y[1:-1, -1])
    np.testing.assert_array_equal(dom.bdata[0, 1:-1], Y[0, 1:-1] - X[0, 1:-1])
    assert dom.bdata[0, 0] == 0.5 * (9.0 + 0.0)   # corners average their two arcs


def test_annulus_expression_evaluated_at_ring_nodes(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 8, "ntheta": 32,
                   "center": [5.0, 0.0]},
        "boundary": {"inner": "x", "outer": "y"},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["solve", "--config", cfg]) == 0
    dom = _build_domain(_load_config(cfg))
    t = dom.ht * np.arange(32)
    np.testing.assert_allclose(dom.bdata[:, 0], 5.0 + np.cos(t), rtol=0, atol=1e-15)
    np.testing.assert_allclose(dom.bdata[:, -1], 2.0 * np.sin(t), rtol=0, atol=1e-15)


@pytest.mark.parametrize("domain, boundary, builder", [
    ({"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
     {"left": "x+10", "right": "x*y", "bottom": "y-x", "top": 2.0}, "rectangle"),
    ({"shape": "strip", "half_width": 1.0, "length": 2.0, "h": 0.25}, "x*y", "rectangle"),
    ({"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 8, "ntheta": 32, "center": [5.0, 0.0]},
     {"inner": "x", "outer": "y"}, "annulus"),
    ({"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 8, "ntheta": 32}, "x", "annulus"),
])
def test_solve_builds_its_domain_once(tmp_path, monkeypatch, domain, boundary, builder):
    from killing_graphs.grids import GridDomain
    calls = {"rectangle": 0, "annulus": 0}

    def counting(name):
        build = getattr(GridDomain, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        return staticmethod(wrapped)

    for name in calls:
        monkeypatch.setattr(GridDomain, name, counting(name))
    cfg = write_cfg(tmp_path, {"model": {"preset": "euclidean"}, "domain": domain,
                               "boundary": boundary, "output": {"dir": str(tmp_path / "out")}})
    assert main(["solve", "--config", cfg]) == 0
    assert calls == {"rectangle": 0, "annulus": 0, builder: 1}


@pytest.mark.parametrize("shape, boundary", [
    ({"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25}, {"lft": "1"}),
    ({"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25}, {"corners": 1.0}),
    ({"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 4, "ntheta": 8}, {"left": "1"}),
])
def test_unknown_boundary_arc_exit_1(tmp_path, capsys, shape, boundary):
    cfg = write_cfg(tmp_path, {"model": {"preset": "euclidean"}, "domain": shape,
                               "boundary": boundary, "output": {"dir": str(tmp_path / "out")}})
    assert main(["solve", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("shape", [
    {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0},
    {"shape": "disk", "radius": 1.0, "h": 0},
    {"shape": "rectangle", "rect": [1, -1, -1, 1], "h": 0.25},
    {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": -0.25},
    {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 0, "ntheta": 8},
    {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 4, "ntheta": 0},
    {"shape": "annulus", "r0": 2.0, "r1": 1.0, "nr": 4, "ntheta": 8},
    {"shape": "annulus", "r0": 1.0, "r1": 1.0, "nr": 4, "ntheta": 8},
    {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 4, "ntheta": 1},
])
def test_degenerate_lattice_exit_1(tmp_path, capsys, shape):
    cfg = write_cfg(tmp_path, {"model": {"preset": "euclidean"}, "domain": shape,
                               "boundary": "x", "output": {"dir": str(tmp_path / "out")}})
    assert main(["solve", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_experiment_removable_custom_annulus_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "warped-plane", "params": ["r"]},
        "domain": {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 8, "ntheta": 32},
        "experiment": {"case": "custom", "puncture": [1.5, 0.0], "hs": [0.25, 0.125]},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "removable-singularity", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'annulus'" in err and "'h'" in err
    assert not (tmp_path / "out" / "removable_singularity.csv").exists()


@pytest.mark.parametrize("command, cfg, message", [
    (["radial"], {"radial": {"mu": "1", "c": 1.5, "r0": 0.5, "r1": 2.0}}, "invalid c"),
    (["growth"], {"model": {"preset": "euclidean", "chart": [-1, 1, -1, 1]},
                  "growth": {"r0": 0.3, "r_max": 2.0, "n_radii": 6}}, "exits the chart"),
    (["solve"], {"model": {"preset": "euclidean"},
                 "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
                 "boundary": "0", "H": "log(x)"}, "non-finite"),
    # 2 r^2 log(1+r)^4 - log(1+r)^2 < 0 at r0 = 1: no NaN profile is written
    (["radial"], {"radial": {"mu": "log(1+r)", "c": 2.0, "r0": 1.0, "r1": 20.0}}, "at r0"),
    # exp(r) overflows in the tail: the message comes with no RuntimeWarning
    (["radial"], {"radial": {"mu": "exp(r)", "c": 2.0, "r0": 1.0, "r1": 2.0}}, "non-finite"),
])
def test_numerical_error_exit_3(tmp_path, capsys, command, cfg, message):
    path = write_cfg(tmp_path, {**cfg, "output": {"dir": str(tmp_path / "out")}})
    assert main(command + ["--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and message in err
    assert not list((tmp_path / "out").glob("*"))


def test_expression_error_while_building_domain_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": {"preset": "euclidean"},
                               "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
                               "boundary": "log(x)", "output": {"dir": str(tmp_path / "out")}})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", [["solve"], ["experiment", "nil-strip"],
                                     ["experiment", "removable-singularity"]])
@pytest.mark.parametrize("key", ["max_iter", "armijo"])
def test_unknown_solver_key_exit_1(tmp_path, capsys, command, key):
    # a typo must not run a default solve: only max_iters and tol_factor exist
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "model": {"preset": "euclidean"},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
        "boundary": 0.0,
        "experiment": {"n_list": [2], "h": 0.25, "hs": [0.25]},
        "solver": {key: 1},
        "output": {"dir": str(out)},
    })
    assert main(command + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err
    assert not out.exists() or not any(out.iterdir())


_LEAN_RUN = textwrap.dedent("""
    import json, sys
    import killing_graphs
    from killing_graphs import cli
    solve_cfg, growth_cfg, out = sys.argv[1:]
    codes = [cli.main(["solve", "--config", solve_cfg, "--out", out + "/solve"]),
             cli.main(["growth", "--config", growth_cfg, "--out", out + "/growth"])]
    loaded = sorted(m for m in sys.modules if m.split(".")[:2] in (
        ["scipy", "integrate"], ["scipy", "special"], ["scipy", "optimize"]))
    sparse = [m in sys.modules for m in ("scipy.sparse", "scipy.sparse.linalg")]
    # a later quadrature imports what it needs
    prof = killing_graphs.radial_profile(2.0, "1", 1.0, 20.0, 20)
    print(json.dumps({"codes": codes, "loaded": loaded, "sparse": sparse,
                      "radial_u20": prof.values[-1],
                      "integrate_after": "scipy.integrate" in sys.modules}))
""")


def test_solve_and_growth_leave_scipy_integrate_unimported(tmp_path):
    # a fresh interpreter: this one imported scipy.integrate with pytest
    solve_cfg = write_cfg(tmp_path, {
        "model": {"preset": "nil3", "params": [0.5]},
        "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 1 / 16},
        "boundary": "sin(3*x)+x*y", "H": "0",
    }, "solve.json")
    # off centre, the sol3-disk circles are traced by the geodesic flow
    growth_cfg = write_cfg(tmp_path, {
        "model": {"preset": "sol3-disk"},
        "growth": {"p": [0.3, 0.0], "r0": 0.1, "r_max": 2.0, "n_radii": 12, "n_arc": 64},
    }, "growth.json")
    src = str(Path(killing_graphs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    run = subprocess.run([sys.executable, "-c", _LEAN_RUN, solve_cfg, growth_cfg,
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    rep = json.loads(run.stdout.splitlines()[-1])
    assert rep["codes"] == [0, 0]
    assert json.loads((tmp_path / "out" / "growth" / "growth.json").read_text())["flow_steps"]
    assert rep["loaded"] == []
    assert rep["sparse"] == [True, True]
    # the catenoid: u(r) = (arccosh(sqrt(2) r) - arccosh(sqrt(2))) / sqrt(2)
    s2 = np.sqrt(2.0)
    assert rep["radial_u20"] == pytest.approx((np.arccosh(20 * s2) - np.arccosh(s2)) / s2,
                                              rel=1e-9)
    assert rep["integrate_after"]


# ---------------------------------------------------------------------------
# One reading rule: every section takes only the keys it declares

_SOLVE = {"model": {"preset": "euclidean"},
          "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
          "boundary": "x*y"}
_SHAPES = {
    "rectangle": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.25},
    "strip": {"shape": "strip", "half_width": 1.0, "length": 2.0, "h": 0.25},
    "annulus": {"shape": "annulus", "r0": 1.0, "r1": 2.0, "nr": 4, "ntheta": 8},
    "disk": {"shape": "disk", "radius": 1.0, "h": 0.25},
    "masked": {"shape": "masked", "rect": [-1, 1, -1, 1], "h": 0.25, "mask": "1 - x^2 - y^2"},
}
_EXPERIMENT_TYPOS = {"nil-strip": "nlist", "removable-singularity": "hss",
                     "collin-krust-fit": "c_pairs", "sol3-wedge": "thetal",
                     "e1tau-growth": "kind", "iterated-log": "level"}


def _with(cfg, path, value):
    """``cfg`` with ``value`` set at the key path ``path``, sections copied."""
    cfg = json.loads(json.dumps(cfg))
    *sections, key = path
    node = cfg
    for s in sections:
        node = node.setdefault(s, {})
    node[key] = value
    return cfg


def _config_error(tmp_path, capsys, command, cfg):
    """Run ``command`` on ``cfg``; check that main returns 1 (no exception
    escapes) with a config error and writes nothing, and return stderr."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg)
    assert main(command + ["--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert not out.exists()
    return err


_UNDECLARED = [
    (["solve"], _SOLVE, ("Hh",)),
    (["solve"], _with(_SOLVE, ("model", "params"), [0.5]), ("model", "param")),
    (["solve"], {**_SOLVE, "model": {"chart": [-2, 2, -2, 2], "lambda": "1", "mu": "1"}},
     ("model", "b0")),
    (["solve"], _SOLVE, ("solver", "max_iter")),
    (["solve"], _SOLVE, ("output", "dirr")),
    (["radial"], {"radial": {"c": 2.0, "r1": 2.0}}, ("radial", "n_sample")),
    (["growth"], {"model": {"preset": "euclidean"}, "growth": {"r0": 1.0, "r_max": 10.0}},
     ("growth", "n_arcs")),
] + [(["solve"], {**_SOLVE, "domain": d}, ("domain", "hx")) for d in _SHAPES.values()] + [
    (["experiment", name], {}, ("experiment", key)) for name, key in _EXPERIMENT_TYPOS.items()]


@pytest.mark.parametrize("command, cfg, path", _UNDECLARED,
                         ids=["/".join(c[1:] + list(p)) for c, _, p in _UNDECLARED])
def test_undeclared_key_exit_1(tmp_path, capsys, command, cfg, path):
    # a misnamed key must not run a different problem: {"Hh": "1"} solved H = 0
    err = _config_error(tmp_path, capsys, command, _with(cfg, path, 1))
    assert repr(path[-1]) in err


@pytest.mark.parametrize("command, cfg, key", [
    (["radial"], {"radial": {"c": 2.0, "r0": 1.0}}, "r1"),
    (["growth"], {"model": {"preset": "euclidean"}, "growth": {"r_max": 10.0}}, "r0"),
    (["solve"], {**_SOLVE, "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1]}}, "h"),
])
def test_missing_required_key_exit_1(tmp_path, capsys, command, cfg, key):
    err = _config_error(tmp_path, capsys, command, cfg)
    assert "missing" in err and repr(key) in err


@pytest.mark.parametrize("command, cfg, section", [
    # the first three raised an uncaught TypeError
    (["growth"], {"model": {"preset": "euclidean"},
                  "growth": {"p": 0.3, "r0": 1.0, "r_max": 10.0}}, "growth"),
    (["solve"], _with(_SOLVE, ("model",), {"preset": "nil3", "params": 0.5}), "model"),
    (["experiment", "nil-strip"], {"experiment": {"n_list": 3}}, "experiment"),
    # a string is not split into a list: "0.5" solved nil3(0), from the character "0"
    (["solve"], _with(_SOLVE, ("model",), {"preset": "nil3", "params": "0.5"}), "model"),
])
def test_mistyped_value_exit_1(tmp_path, capsys, command, cfg, section):
    assert section in _config_error(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("key, value", [
    ("max_iters", 2.7), ("max_iters", -1), ("max_iters", "60"),
    ("tol_factor", float("nan")), ("tol_factor", float("inf")), ("tol_factor", -1e-10),
])
def test_solver_values_are_range_checked(tmp_path, capsys, key, value):
    # max_iters 2.7 ran 2 iterations; tol_factor NaN "converged" with a NaN tolerance
    err = _config_error(tmp_path, capsys, ["solve"], _with(_SOLVE, ("solver", key), value))
    assert repr(key) in err


def test_solver_values_at_their_bounds_are_read(tmp_path):
    cfg = write_cfg(tmp_path, _with(_with(_SOLVE, ("solver", "max_iters"), 0.0),
                                    ("solver", "tol_factor"), 0))
    # no Newton step and a zero tolerance: a solve that reports non-convergence
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["iterations"] == 0 and report["tolerance"] == 0.0


def _readme_config(title):
    """The JSON block that follows ``title`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split(title, 1)[1].split("```json", 1)[1].split("```", 1)[0]
    return json.loads(block)


@pytest.mark.parametrize("command, title", [("solve", "A solve config:"),
                                            ("growth", "A growth config:")])
def test_readme_example_configs_run(tmp_path, command, title):
    # the documented keys are the declared keys
    cfg = write_cfg(tmp_path, _readme_config(title))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# Preset params and list values are read with their count

@pytest.mark.parametrize("model", [{"preset": "nil3", "params": [0.5, 9]},
                                   {"preset": "euclidean", "params": [0.5]},
                                   {"preset": "nil3"}])
def test_wrong_preset_params_count_exit_1(tmp_path, capsys, model):
    # one param too many solved without a word; one too few raised IndexError
    err = _config_error(tmp_path, capsys, ["solve"], {**_SOLVE, "model": model})
    assert repr(model["preset"]) in err and "params" in err


@pytest.mark.parametrize("model", [{"preset": "nil3", "params": [None]},
                                   {"preset": "warped-plane", "params": [[1, 2]]}])
def test_preset_param_of_wrong_type_exit_1(tmp_path, capsys, model):
    # a TypeError traceback
    assert "bad model spec" in _config_error(tmp_path, capsys, ["solve"], {**_SOLVE, "model": model})


_ANNULUS = {**_SOLVE, "domain": _SHAPES["annulus"]}
_GROWTH = {"model": {"preset": "euclidean"}, "growth": {"r0": 1.0, "r_max": 10.0}}
_BAD_LISTS = [
    # the first two raised IndexError, the next three TypeError
    (["growth"], _GROWTH, ("growth", "p"), [0.3]),
    (["solve"], _ANNULUS, ("domain", "center"), [0.5]),
    (["experiment", "nil-strip"], {}, ("experiment", "n_list"), ["a"]),
    (["experiment", "removable-singularity"], {}, ("experiment", "hs"), ["x"]),
    (["solve"], _SOLVE, ("puncture",), ["a", 0]),
    # the extra value was dropped
    (["growth"], _GROWTH, ("growth", "p"), [0.3, 0.0, 5]),
    (["solve"], _SOLVE, ("puncture",), [0.1, 0.1, 7]),
    (["solve"], _SOLVE, ("domain", "rect"), [-1, 1, -1]),
    (["solve"], {**_SOLVE, "domain": _SHAPES["masked"]}, ("domain", "rect"), [-1, 1, -1, 1, 2]),
    (["solve"], _SOLVE, ("model", "chart"), ["a", "b", "c", "d"]),
    (["experiment", "removable-singularity"], {}, ("experiment", "puncture"), [0.1]),
    (["experiment", "collin-krust-fit"], {}, ("experiment", "c_pair"), [1.0, 4.0, 9.0]),
]


@pytest.mark.parametrize("command, cfg, path, value", _BAD_LISTS,
                         ids=[f"{'/'.join(p)}={v}" for _, _, p, v in _BAD_LISTS])
def test_list_value_of_wrong_shape_exit_1(tmp_path, capsys, command, cfg, path, value):
    err = _config_error(tmp_path, capsys, command, _with(cfg, path, value))
    assert repr(path[-1]) in err


def _solution_u(tmp_path, cfg):
    """The u column of the solve of ``cfg``, in its CSV's order."""
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    return np.array([float(r[2]) for r in read_csv(out / "solution.csv")[1:]])


def test_explicit_model_solve_matches_the_preset(tmp_path):
    explicit = {**_SOLVE, "model": {"chart": [-2, 2, -2, 2], "lambda": "1", "mu": "1"}}
    out_e, out_p = tmp_path / "explicit", tmp_path / "preset"
    for cfg, out in ((explicit, out_e), (_SOLVE, out_p)):
        assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out_e / "solution.csv").read_bytes() == (out_p / "solution.csv").read_bytes()


def test_masked_shape_solves_the_masked_lattice(tmp_path):
    dom = GridDomain.masked(-1, 1, -1, 1, 0.25, keep=lambda x, y: 1 - x ** 2 - y ** 2 > 0.0,
                            boundary=lambda x, y: x * y)
    rep = solve_dirichlet(builtin_model("euclidean"), dom)
    u = _solution_u(tmp_path, {**_SOLVE, "domain": _SHAPES["masked"]})
    assert np.array_equal(u, rep.u.values[dom.interior_mask()])


def test_top_level_puncture_solves_the_punctured_lattice(tmp_path):
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25, boundary=lambda x, y: x * y)
    dom = dom.with_puncture(dom.nearest_node((0.1, 0.3)))
    rep = solve_dirichlet(builtin_model("euclidean"), dom)
    u = _solution_u(tmp_path, {**_SOLVE, "puncture": [0.1, 0.3]})
    assert np.array_equal(u, rep.u.values[dom.interior_mask()])


def test_config_root_not_an_object_exit_1(tmp_path, capsys):
    assert "config root must be a JSON object" in _config_error(tmp_path, capsys, ["solve"], [1, 2])


def test_unknown_shape_exit_1(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, ["solve"], _with(_SOLVE, ("domain", "shape"), "hexagon"))
    assert "'hexagon'" in err and "'shape'" in err


# ---------------------------------------------------------------------------
# One runner: every command writes its table and record and prints one line

_EVERY_COMMAND = [
    (["solve"], _SOLVE, "solution.csv", "report.json"),
    (["radial"], {"radial": {"mu": "r", "c": 2.0, "r0": 1.0, "r1": 2.0, "n_samples": 5}},
     "radial.csv", "radial.json"),
    (["growth"], {**_GROWTH, "growth": {"r0": 1.0, "r_max": 10.0, "n_radii": 8, "n_arc": 32}},
     "growth.csv", "growth.json"),
    (["experiment", "nil-strip"], {"experiment": {"n_list": [2], "h": 0.25}},
     "nil_strip.csv", "nil_strip.json"),
    (["experiment", "removable-singularity"], {"experiment": {"case": "disk", "hs": [0.25]}},
     "removable_singularity.csv", "removable_singularity.json"),
    (["experiment", "collin-krust-fit"], {"experiment": {"n_radii": 20, "r_max_list": [10]}},
     "collin_krust.csv", "collin_krust.json"),
    (["experiment", "sol3-wedge"], {"experiment": {"n": 40}}, "sol3_wedge.csv", "sol3_wedge.json"),
    (["experiment", "e1tau-growth"], {"experiment": {"n": 40}},
     "e1tau_growth.csv", "e1tau_growth.json"),
    (["experiment", "iterated-log"], {"experiment": {"levels": [0], "n_windows": 4}},
     "iterated_log.csv", "iterated_log.json"),
]


@pytest.mark.parametrize("command, cfg, table, record", _EVERY_COMMAND,
                         ids=[c[-1] for c, *_ in _EVERY_COMMAND])
def test_every_command_writes_its_table_and_record_and_one_summary_line(
        tmp_path, capsys, command, cfg, table, record):
    out = tmp_path / "out"
    assert main(command + ["--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"{command[-1]}: ") and last.endswith(f"; wrote {out / table}")
    assert sorted(p.name for p in out.iterdir()) == sorted([table, record])


def test_non_converged_solve_writes_both_files_and_explains_on_stderr(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {**_SOLVE, "model": {"preset": "nil3", "params": [0.5]}, "boundary": "sin(3*x)+x*y",
           "solver": {"max_iters": 1}}
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    outs = capsys.readouterr()
    assert outs.out.splitlines()[-1].endswith(f"; wrote {out / 'solution.csv'}")
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["stop_reason"] == "max-iters"
    assert (out / "solution.csv").exists()
    assert (f"solve: NOT converged ({report['message']}); residual "
            f"{report['residual_norm']:.3e} > tolerance {report['tolerance']:.3e}") in outs.err
    assert "1 of 1 solves NOT converged" in outs.err


# ---------------------------------------------------------------------------
# Lattices outside the chart, sample counts and empty lists are config errors

_HALFPLANE = {"model": {"preset": "sol3-halfplane"},
              "domain": {"shape": "rectangle", "rect": [-1, 1, -1, 1], "h": 0.125},
              "boundary": "0"}
_REFUSED = [
    # divide-by-zero warnings, then exit 2 with a non-finite residual
    (["solve"], _HALFPLANE, "outside the chart of model 'sol3-halfplane'"),
    # "converged in 0 iterations", though the chart excludes the domain
    (["solve"], {**_HALFPLANE, "model": {"preset": "sol3-disk", "chart": [0, 1, 0, 1]},
                 "domain": {"shape": "rectangle", "rect": [-0.5, 0.5, -0.5, 0.5], "h": 0.125}},
     "outside the chart of model 'sol3-disk'"),
    # an IndexError traceback; exit 0 with g(30) = 0
    (["experiment", "sol3-wedge"], {"experiment": {"n": 0}}, "need n >= 2, got 0"),
    (["experiment", "sol3-wedge"], {"experiment": {"n": 1}}, "need n >= 2, got 1"),
    (["experiment", "e1tau-growth"], {"experiment": {"n": 0}}, "need n >= 2, got 0"),
    (["experiment", "e1tau-growth"], {"experiment": {"n": 1}}, "need n >= 2, got 1"),
    # exit 0 over no runs; numpy's "Mean of empty slice", then a ValueError
    (["experiment", "nil-strip"], {"experiment": {"n_list": []}}, "'n_list'"),
    (["experiment", "removable-singularity"], {"experiment": {"hs": []}}, "'hs'"),
    (["experiment", "collin-krust-fit"], {"experiment": {"r_max_list": []}}, "'r_max_list'"),
    (["experiment", "iterated-log"], {"experiment": {"levels": []}}, "'levels'"),
    # arccosh warnings, then "fewer than 2 usable radii"
    (["experiment", "collin-krust-fit"], {"experiment": {"c_pair": [0.5, 4]}}, "'c_pair'"),
    (["experiment", "collin-krust-fit"], {"experiment": {"c_pair": [1, 0.5]}}, "'c_pair'"),
    # exit 0 with g_final -5.53 from a trapezoid run backwards; exit 0 "inconclusive"
    (["experiment", "e1tau-growth"], {"experiment": {"r0": 5, "r_max": 1}},
     "need r_max > r0, got r0 = 5.0, r_max = 1.0"),
    (["experiment", "sol3-wedge"], {"experiment": {"rho0": 5, "rho_max": 1}},
     "need rho_max > rho0, got rho0 = 5.0, rho_max = 1.0"),
    # exit 0 with core_sups [5.0], the clamp itself, and strictly_decreasing true
    (["experiment", "nil-strip"], {"experiment": {"n_list": [0.5], "h": 0.25}},
     "n_list must increase strictly from above the half width 1, got [0.5]"),
    (["experiment", "nil-strip"], {"experiment": {"n_list": [3, 2], "h": 0.25}},
     "n_list must increase strictly from above the half width 1, got [3.0, 2.0]"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, cfg, message", _REFUSED,
                         ids=[f"{c[-1]}-{i}" for i, (c, _, _) in enumerate(_REFUSED)])
def test_refused_lattice_count_or_list_exit_1(tmp_path, capsys, command, cfg, message):
    err = _config_error(tmp_path, capsys, command, cfg)
    assert message in err and "Traceback" not in err
