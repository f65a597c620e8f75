import csv
import json

import numpy as np
import pytest

from killing_graphs import experiments, solver
from killing_graphs.cli import _build_domain, _load_config, main
from killing_graphs.models import builtin_model
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


@pytest.mark.filterwarnings("error")
def test_experiment_removable_nonconvergence_exit_2(tmp_path):
    # H too large for the square: no graph solution, so no solve converges;
    # on this coarse lattice the line search rejects a step of each solve
    # before the iterate runs away
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
    assert run["full_stop_reason"] == run["punctured_stop_reason"] == "stalled"
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
])
def test_numerical_error_exit_3(tmp_path, capsys, command, cfg, message):
    path = write_cfg(tmp_path, {**cfg, "output": {"dir": str(tmp_path / "out")}})
    assert main(command + ["--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and message in err


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
