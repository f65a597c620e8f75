import numpy as np
import pytest
import scipy.sparse.linalg as spla

from killing_graphs import grids, solver
from killing_graphs.grids import GridDomain, ScalarGrid, coincident_nodes
from killing_graphs.models import builtin_model
from killing_graphs.operator import AssemblyCache, mean_curvature_residual
from killing_graphs.solver import (SolveConfig, check_max_principle,
                                   exhaustion_solve, solve_dirichlet)
from killing_graphs.nil import strip_truncation_domain
from killing_graphs.experiments import disk_sin2theta_domain, sol3_exact_domain


def arctan_profile(c):
    def u(r):
        r = np.asarray(r, dtype=np.float64)
        return 0.5 * (np.arctan(np.sqrt(c * r ** 4 - 1)) - np.arctan(np.sqrt(c - 1.0)))
    return u


def test_plane_is_exact_in_one_step():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(0, 1, 0, 1, 1 / 16,
                               boundary=lambda x, y: 0.3 * x + 0.7 * y)
    rep = solve_dirichlet(m, dom)
    exact = ScalarGrid.from_function(dom, lambda x, y: 0.3 * x + 0.7 * y)
    assert rep.converged and rep.iterations <= 1
    assert np.nanmax(np.abs(rep.u.values - exact.values)) <= 1e-10


def test_annulus_smooth_arctan_second_order():
    # c = 2 keeps the slope finite on [1, 2]: genuine O(h^2) convergence
    m = builtin_model("warped-plane", ("r",))
    u = arctan_profile(2.0)
    errs = []
    for nr in (16, 32, 64):
        dom = GridDomain.annulus(1, 2, nr, 4 * nr, inner=0.0, outer=float(u(2.0)))
        rep = solve_dirichlet(m, dom)
        assert rep.converged
        X, Y = dom.coords()
        errs.append(np.nanmax(np.abs(rep.u.values - u(np.hypot(X, Y)))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_catenoid_annulus():
    # euclidean annulus away from the vertical tangent at r = 1
    m = builtin_model("euclidean")
    uex = lambda r: np.arccosh(np.maximum(r, 1.0)) - np.arccosh(1.5)
    errs = []
    for nr in (24, 48):
        dom = GridDomain.annulus(1.5, 3.0, nr, 4 * nr, inner=0.0,
                                 outer=float(uex(3.0)))
        rep = solve_dirichlet(m, dom)
        assert rep.converged and rep.iterations <= 8
        X, Y = dom.coords()
        errs.append(np.nanmax(np.abs(rep.u.values - uex(np.hypot(X, Y)))))
    assert errs[0] / errs[1] >= 3.5


def test_polar_solution_matches_radial_quadrature():
    # ties the 2D solver to the 1D quadrature oracle (smooth case)
    from killing_graphs.radial import radial_profile
    m = builtin_model("warped-plane", ("r",))
    prof = radial_profile(2.0, "r", 1.0, 2.0, 33)
    dom = GridDomain.annulus(1, 2, 32, 128, inner=0.0, outer=float(prof.values[-1]))
    rep = solve_dirichlet(m, dom)
    X, Y = dom.coords()
    R = np.hypot(X, Y)
    interp = np.interp(R[dom.carried()], prof.radii, prof.values)
    err = np.max(np.abs(rep.u.values[dom.carried()] - interp))
    assert err <= 5e-4  # O(h^2) at h = 1/32


def test_vertical_translation_of_solutions():
    m = builtin_model("nil3", (0.5,))
    phi = lambda x, y: 0.3 * np.sin(x) + 0.2 * y
    dom0 = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=phi)
    dom1 = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8,
                                boundary=lambda x, y: phi(x, y) + 2.0)
    r0 = solve_dirichlet(m, dom0)
    r1 = solve_dirichlet(m, dom1)
    assert np.nanmax(np.abs(r1.u.values - r0.u.values - 2.0)) <= 1e-9


def test_prescribed_H_small_cap():
    # small constant H on a disk-like rectangle: solvable, converged
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 16)
    rep = solve_dirichlet(m, dom, H="0.2")
    assert rep.converged
    # downward-bending cap: interior below the zero boundary data
    assert np.nanmin(rep.u.values[dom.interior_mask()]) < -0.05


def test_nonconvergence_reported():
    # an H too large for the domain has no graph solution; the solver must
    # report failure rather than fake convergence
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8)
    cfg = SolveConfig(max_iters=25)
    rep = solve_dirichlet(m, dom, H="5.0", config=cfg)
    assert not rep.converged
    assert rep.message != ""


def test_rejected_step_stops_as_stalled(monkeypatch):
    # a line-search floor above t = 1 rejects every Newton step; the first
    # rejection ends the solve, as a retry from the same iterate would take
    # the same step
    monkeypatch.setattr(solver, "_MIN_STEP", 2.0)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip(),
                          config=SolveConfig(max_iters=8))
    assert not rep.converged and rep.stop_reason == "stalled"
    assert rep.iterations == 1 and rep.damping_history == [0.0]
    assert f"max|F| = {rep.residual_norm:.3e}" in rep.message


@pytest.mark.parametrize("case", ["converged", "stalled", "diverged"])
def test_report_residual_is_the_residual_of_its_iterate(case, monkeypatch):
    # the residual the solve ends on, at the iterate it returns, and nothing
    # the caller has to recompute: the same bits, NaN off the interior
    if case == "converged":
        model, H = builtin_model("nil3", (0.5,)), "0.3"
        dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=lambda x, y: x * y)
        dom = dom.with_puncture(dom.nearest_node((0.25, 0.25)))
    elif case == "stalled":
        monkeypatch.setattr(solver, "_MIN_STEP", 2.0)
        model, H, dom = builtin_model("nil3", (0.5,)), None, _clamped_strip()
    else:
        model, H = builtin_model("euclidean"), "5.0"
        dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8)
    rep = solve_dirichlet(model, dom, H=H, config=SolveConfig(tol_factor=1e-13))
    assert rep.stop_reason in {"converged": ("tolerance", "rounding-floor"),
                               "stalled": ("stalled",), "diverged": ("diverged",)}[case]
    res = mean_curvature_residual(model, rep.u, H)
    assert rep.residual.domain is rep.u.domain
    assert rep.residual.values.tobytes() == res.values.tobytes()
    assert np.array_equal(np.isnan(rep.residual.values), ~dom.interior_mask())
    # residual_norm also covers the bridge rows, which the grid leaves out
    assert np.nanmax(np.abs(rep.residual.values)) <= rep.residual_norm


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [1 / 4, 1 / 8])
@pytest.mark.parametrize("punctured", [False, True])
def test_unsolvable_problem_stops_as_diverged(h, punctured):
    # H = 5 has no graph over the square: at h = 1/8 the iterate runs away,
    # and the solve says so within a few iterations, before anything
    # overflows; at h = 1/4 the punctured solve's line search rejects a step
    # first, while the full one accepts a short step at its third iteration
    # (rounding decides which, and how short: its Jacobian there is singular
    # to working precision) and then runs away
    dom = GridDomain.rectangle(-1, 1, -1, 1, h)
    if punctured:
        dom = dom.with_puncture(dom.nearest_node((0.25, 0.25)))
    rep = solve_dirichlet(builtin_model("euclidean"), dom, H="5.0",
                          config=SolveConfig(tol_factor=1e-13))
    assert not rep.converged
    if h == 1 / 4 and punctured:
        assert rep.stop_reason == "stalled" and rep.iterations == 3
        assert rep.damping_history[-1] == 0.0
    elif h == 1 / 4:
        assert rep.stop_reason == "diverged" and rep.iterations == 3
        assert rep.damping_history[-1] == 2.0 ** -9 and "ran away" in rep.message
    else:
        assert rep.stop_reason == "diverged"
        assert 1 <= rep.iterations <= 5 and "ran away" in rep.message


def test_non_finite_jacobian_stops_as_diverged(monkeypatch):
    jacobian = AssemblyCache.jacobian

    def inf_newton_jacobian(self, u_grid, frozen_W=None):
        J = jacobian(self, u_grid, frozen_W=frozen_W)
        if frozen_W is None:
            J.data[0] = np.inf
        return J

    monkeypatch.setattr(AssemblyCache, "jacobian", inf_newton_jacobian)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert not rep.converged and rep.stop_reason == "diverged"
    assert rep.iterations == 1 and rep.message == "non-finite Jacobian"


# -- comparison principle -------------------------------------------------------------

def test_max_principle_identical_data():
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8,
                               boundary=lambda x, y: np.sin(x) * y)
    rep = solve_dirichlet(m, dom)
    v = check_max_principle(rep, rep)
    assert v.passed and v.worst_violation >= 0.0


def test_max_principle_shifted_data():
    m = builtin_model("euclidean")
    phi = lambda x, y: 0.4 * np.cos(x) + 0.1 * y
    dom_u = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=phi)
    dom_v = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8,
                                 boundary=lambda x, y: phi(x, y) + 1.0)
    ru = solve_dirichlet(m, dom_u)
    rv = solve_dirichlet(m, dom_v)
    verdict = check_max_principle(ru, rv)
    assert verdict.passed
    diff = rv.u.values - ru.u.values
    assert np.nanmin(diff[dom_u.interior_mask()]) >= 1.0 - 1e-9


def test_max_principle_flags_unordered_boundary():
    m = builtin_model("euclidean")
    dom_u = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=1.0)
    dom_v = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=0.0)
    ru = solve_dirichlet(m, dom_u)
    rv = solve_dirichlet(m, dom_v)
    verdict = check_max_principle(ru, rv)
    assert not verdict.boundary_ordered and not verdict.passed


# -- exhaustion --------------------------------------------------------------------------

def test_exhaustion_zero_data_small():
    # zero boundary data on nil3 strip truncations: the continuum solution is
    # identically 0; discrete solutions are O(h^2)-small (the flux form is
    # not exact on the nil zero section), not bitwise zero
    m = builtin_model("nil3", (0.5,))
    doms = [strip_truncation_domain(1.0, n, 1 / 16, K=0.0) for n in (2, 3, 4)]
    ex = exhaustion_solve(m, doms)
    for rep in ex.reports:
        assert rep.converged
        assert np.nanmax(np.abs(rep.u.values)) <= 1e-5


def test_exhaustion_clamped_strip_monotone():
    m = builtin_model("nil3", (0.5,))
    doms = [strip_truncation_domain(1.0, n, 1 / 16, K=5.0) for n in (2, 3, 4, 5)]
    ex = exhaustion_solve(m, doms)
    sups = []
    for dom, rep in zip(doms, ex.reports):
        X, _ = dom.coords()
        core = dom.carried() & (np.abs(X) <= 1.0 + 1e-12)
        sups.append(float(np.max(np.abs(rep.u.values[core]))))
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_exhaustion_cauchy_monitor_decreases():
    m = builtin_model("euclidean")

    def make(n):
        arc_l = float(np.clip(np.sin(-n), -1, 1))
        arc_r = float(np.clip(np.sin(n), -1, 1))
        return GridDomain.rectangle(-n, n, -1, 1, 1 / 8, boundary={
            "bottom": lambda x, y: np.sin(x), "top": lambda x, y: np.sin(x),
            "left": arc_l, "right": arc_r})

    ex = exhaustion_solve(m, [make(n) for n in (2, 3, 4, 5, 6)])
    assert all(b < a for a, b in zip(ex.cauchy, ex.cauchy[1:]))


def test_exhaustion_cauchy_nan_without_convergence():
    # one Newton step cannot converge the clamped strip, so no pair of
    # truncations may enter the monitor
    m = builtin_model("nil3", (0.5,))
    doms = [strip_truncation_domain(1.0, n, 1 / 16, K=5.0) for n in (2, 3, 4)]
    ex = exhaustion_solve(m, doms, config=SolveConfig(max_iters=1))
    assert not any(rep.converged for rep in ex.reports)
    assert len(ex.cauchy) == 2 and all(np.isnan(c) for c in ex.cauchy)


def _rounded_coordinate_cauchy(ex, domains):
    """The Cauchy monitor by the former rule: a dict of carried-node values
    keyed by coordinates rounded to 9 decimals, and the common keys."""
    maps = []
    for dom, rep in zip(domains, ex.reports):
        X, Y = dom.coords()
        m = dom.carried()
        maps.append({(round(float(x), 9), round(float(y), 9)): float(v)
                     for x, y, v in zip(X[m], Y[m], rep.u.values[m])})
    core = set(maps[0])
    for m in maps[1:]:
        core &= m.keys()
    return len(core), [max(abs(a[n] - b[n]) for n in core) for a, b in zip(maps, maps[1:])]


def _sin_rectangle(n):
    return GridDomain.rectangle(-n, n, -1, 1, 1 / 8, boundary={
        "bottom": lambda x, y: np.sin(x), "top": lambda x, y: np.sin(x),
        "left": float(np.sin(-n)), "right": float(np.sin(n))})


@pytest.mark.parametrize("model, domains", [
    (("nil3", (0.5,)), [strip_truncation_domain(1.0, n, 1 / 16, K=0.0) for n in (2, 3, 4)]),
    (("nil3", (0.5,)), [strip_truncation_domain(1.0, n, 1 / 16, K=5.0) for n in (2, 3, 4, 5)]),
    (("euclidean", ()), [_sin_rectangle(n) for n in (2, 3, 4, 5, 6)]),
])
def test_exhaustion_core_from_indices_matches_rounded_coordinates(model, domains):
    ex = exhaustion_solve(builtin_model(*model), domains)
    n_core, cauchy = _rounded_coordinate_cauchy(ex, domains)
    assert all(c.size == n_core for c in ex.core)
    assert ex.cauchy == cauchy


def test_unequal_snapped_steps_share_no_node():
    # rectangle snaps each step to its extent: h = 0.3 gives 2/7 on [-1, 1]
    # and 4/13 on [-2, 2], whose x nodes never meet
    a = GridDomain.rectangle(-1, 1, -1, 1, 0.3)
    b = GridDomain.rectangle(-2, 2, -1, 1, 0.3)
    assert np.all(coincident_nodes(a, b) == -1)
    c = GridDomain.rectangle(-2, 2, -1, 1, 1 / 4)
    d = GridDomain.rectangle(-1, 1, -1, 1, 1 / 4)
    idx = coincident_nodes(c, d)
    X, Y = c.coords()
    Xd, Yd = d.coords()
    assert np.all(idx >= 0)
    np.testing.assert_array_equal(X.ravel()[idx], Xd)
    np.testing.assert_array_equal(Y.ravel()[idx], Yd)
    # polar lattices match in (theta, r), and only about the same centre
    wide, narrow = GridDomain.annulus(1, 3, 16, 16), GridDomain.annulus(1, 2, 8, 16)
    np.testing.assert_array_equal(coincident_nodes(wide, narrow) % 17,
                                  np.broadcast_to(np.arange(9), (16, 9)))
    moved = GridDomain.annulus(1, 2, 8, 16, center=(0.5, 0.0))
    assert np.all(coincident_nodes(wide, moved) == -1)


# -- nested iteration and warm starts --------------------------------------------------

def _limited_cubic_midpoints(a):
    """Midpoints along axis 0 of ``a``, one at a time: the cubic (-1, 9, 9, -1)/16
    inside, the one-sided (5, 15, -5, 1)/16 at the ends, each clipped to the
    range of its two neighbours."""
    n = a.shape[0]
    out = []
    for k in range(n - 1):
        if k == 0:
            m = (5 * a[0] + 15 * a[1] - 5 * a[2] + a[3]) / 16
        elif k == n - 2:
            m = (5 * a[n - 1] + 15 * a[n - 2] - 5 * a[n - 3] + a[n - 4]) / 16
        else:
            m = (-a[k - 1] + 9 * a[k] + 9 * a[k + 1] - a[k + 2]) / 16
        out.append(np.clip(m, np.minimum(a[k], a[k + 1]), np.maximum(a[k], a[k + 1])))
    return np.array(out)


def test_transfer_copies_coincident_nodes_and_interpolates_the_rest():
    rng = np.random.default_rng(7)
    coarse = GridDomain.rectangle(-1, 1, -1, 1, 1 / 4)
    src = ScalarGrid(coarse, rng.uniform(-1, 1, coarse.shape))
    fine = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8, boundary=lambda x, y: 3.0 + x * y)
    out = src.transfer(fine)
    c, v = src.values, out.values
    inter = fine.interior_mask()
    # coincident nodes: the same bits
    np.testing.assert_array_equal(v[::2, ::2][inter[::2, ::2]], c[inter[::2, ::2]])
    # midpoints: the limited cubic along x on the coarse rows, then along y
    # on the coarse columns and on the rows of x midpoints
    edge_x = _limited_cubic_midpoints(c.T).T
    edge_y = _limited_cubic_midpoints(c)
    centre = _limited_cubic_midpoints(edge_x)
    for got, want, where in ((v[::2, 1::2], edge_x, inter[::2, 1::2]),
                             (v[1::2, ::2], edge_y, inter[1::2, ::2]),
                             (v[1::2, 1::2], centre, inter[1::2, 1::2])):
        np.testing.assert_allclose(got[where], want[where], rtol=0, atol=1e-15)
    # the random data exercise the clip, and the one-sided ends reach interior nodes
    lo, hi = np.minimum(c[:, :-1], c[:, 1:]), np.maximum(c[:, :-1], c[:, 1:])
    assert np.any(edge_x == lo) and np.any(edge_x == hi)
    assert np.any((edge_x > lo) & (edge_x < hi))
    assert inter[2, 1] and inter[2, -2]
    # boundary nodes: the target's Dirichlet data, not the source values
    bnd = fine.status == 1
    np.testing.assert_array_equal(v[bnd], fine.bdata[bnd])
    # a bridge node: the mean of its pair on the target
    node = fine.nearest_node((0.25, 0.25))
    punct = fine.with_puncture(node)
    (q1, q2), = [punct.bridges[node]]
    w = src.transfer(punct).values
    assert w[node] == 0.5 * (w[q1] + w[q2])


def test_refinement_transfer_reproduces_a_monotone_cubic():
    def f(x, y):
        return x ** 3 + x + 2 * y ** 3 + y ** 2 + y
    coarse = GridDomain.rectangle(0, 2, -1, 0.5, 1 / 8, boundary=f)
    fine = GridDomain.rectangle(0, 2, -1, 0.5, 1 / 16, boundary=f)
    out = ScalarGrid.from_function(coarse, f).transfer(fine)
    X, Y = fine.coords()
    assert np.max(np.abs(out.values - f(X, Y))) <= 1e-13


def test_refinement_transfer_keeps_a_jump_within_its_neighbours():
    # clamped-strip data: 5 on the left and right arcs, 0 on the others and inside
    coarse = _clamped_strip()
    c = np.where(coarse.status == 1, coarse.bdata, 0.0)
    fine = GridDomain.rectangle(-2.0, 2.0, -1.0, 1.0, 1 / 32, boundary={
        "left": 5.0, "right": 5.0, "bottom": 0.0, "top": 0.0})
    v = ScalarGrid(coarse, c).transfer(fine).values
    inter = fine.interior_mask()
    np.testing.assert_array_equal(v[::2, ::2], c)
    # each midpoint lies between the two nodes it sits between, each centre
    # between its four corners
    corners = np.stack([c[:-1, :-1], c[:-1, 1:], c[1:, :-1], c[1:, 1:]])
    for got, pair, where in ((v[::2, 1::2], (c[:, :-1], c[:, 1:]), inter[::2, 1::2]),
                             (v[1::2, ::2], (c[:-1, :], c[1:, :]), inter[1::2, ::2]),
                             (v[1::2, 1::2], corners, inter[1::2, 1::2])):
        lo, hi = np.min(pair, axis=0), np.max(pair, axis=0)
        # without the clip the cubic puts -5/16 between two zeros beside the jump
        assert np.all((lo[where] <= got[where]) & (got[where] <= hi[where]))


def test_periodic_refinement_wraps_theta():
    rng = np.random.default_rng(11)
    coarse = GridDomain.annulus(1, 2, 8, 32)
    src = ScalarGrid(coarse, rng.uniform(-1, 1, coarse.shape))
    fine = GridDomain.annulus(1, 2, 16, 64, inner=lambda x, y: 1.0 + x * y, outer=-2.0)
    out = src.transfer(fine)
    c, v = src.values, out.values
    inter = fine.interior_mask()
    # coincident nodes: the same bits
    np.testing.assert_array_equal(v[::2, ::2][inter[::2, ::2]], c[inter[::2, ::2]])
    # every odd theta row: the clipped inner cubic of its four theta neighbours,
    # wrapped, so row 63 reads rows 60, 62, 0 and 2
    j = np.arange(1, 64, 2)
    a0, a1, a2, a3 = (v[(j + k) % 64, 1:-1] for k in (-3, -1, 1, 3))
    want = np.clip((9.0 * (a1 + a2) - (a0 + a3)) / 16.0,
                   np.minimum(a1, a2), np.maximum(a1, a2))
    assert j[-1] == 63
    np.testing.assert_allclose(v[j, 1:-1], want, rtol=0, atol=1e-15)
    # the random data exercise the clip
    assert np.any(want == np.minimum(a1, a2)) and np.any(want == np.maximum(a1, a2))
    # the rings: the target's Dirichlet data, not the source values
    bnd = fine.status == 1
    np.testing.assert_array_equal(v[bnd], fine.bdata[bnd])


def _transfer_by_coincidence_and_bilinear(src, target):
    # the rule for every target that is not the source lattice with halved steps
    idx = coincident_nodes(src.domain, target)
    vals = np.full(target.shape, np.nan)
    hit = idx >= 0
    vals[hit] = src.values.ravel()[idx[hit]]
    rest = target.carried() & ~hit
    if np.any(rest):
        X, Y = target.coords()
        vals[rest] = src.sample(X[rest], Y[rest])
    bnd = target.status == 1
    vals[bnd] = target.bdata[bnd]
    vals[~target.carried()] = np.nan
    for p, (q1, q2) in target.bridges.items():
        vals[p] = 0.5 * (vals[q1] + vals[q2])
    return vals


_rect = GridDomain.rectangle
_full = _rect(-1, 1, -1, 1, 1 / 8, boundary=lambda x, y: x * y)


@pytest.mark.parametrize("src, target", [
    # rectangle snaps h = 0.3 to 4/13 on [-2, 2] and to 2/7 on [-1, 1]
    (_rect(-2, 2, -1, 1, 0.3), _rect(-1, 1, -1, 1, 0.3, boundary=1.0)),
    (GridDomain.annulus(1, 3, 16, 16), GridDomain.annulus(1, 2, 8, 16, outer=1.0)),
    (_full, _full.with_puncture(_full.nearest_node((0.25, 0.25)))),
    (_rect(-1, 1, -1, 1, 1 / 4), _rect(-0.5, 1, -1, 1, 1 / 8, boundary=2.0)),
    (_rect(-1, 1, -1, 1, 1 / 8), _rect(-1, 1, -1, 1, 1 / 4, boundary=2.0)),
    (_rect(0, 1, 0, 1, 1 / 2), _rect(0, 1, 0, 1, 1 / 4)),
], ids=["snapped-steps", "annulus", "full-to-punctured", "sub-rectangle",
        "coarser", "three-node-source"])
def test_non_refinement_targets_transfer_as_before(src, target):
    rng = np.random.default_rng(3)
    grid = ScalarGrid(src, rng.uniform(-1, 1, src.shape))
    got = grid.transfer(target).values
    np.testing.assert_array_equal(got, _transfer_by_coincidence_and_bilinear(grid, target))


def test_odd_interval_count_is_not_coarsened():
    odd = GridDomain.rectangle(0, 129 / 128, 0, 1, 1 / 128)
    assert odd.shape == (129, 130)
    assert solver._coarse_domain(odd) is None
    rep = solve_dirichlet(builtin_model("euclidean"), odd,
                          config=SolveConfig(max_iters=0))
    assert rep.start == "picard" and rep.coarse_iterations == []
    # masked lattices keep the Picard start too
    assert solver._coarse_domain(GridDomain.masked(
        -1, 1, -1, 1, 1 / 64, keep=lambda x, y: x * x + y * y <= 1)) is None
    # an annulus halves both axes; theta has one interval per node
    ann = GridDomain.annulus(1, 2, 128, 128)
    c = solver._coarse_domain(ann)
    assert c.shape == (64, 65) and c.hr == 2 * ann.hr and c.ht == 2 * ann.ht
    assert solver._coarse_domain(GridDomain.annulus(1, 2, 128, 127)) is None
    # the even lattice halves down to 32 intervals a side, bridges dropped
    even = GridDomain.rectangle(0, 1, 0, 1, 1 / 128)
    even = even.with_puncture(even.nearest_node((0.5, 0.5)))
    c = solver._coarse_domain(even)
    assert c.shape == (65, 65) and c.hx == 2 * even.hx and c.bridges == {}
    assert np.all(c.status[1:-1, 1:-1] == 0)
    np.testing.assert_array_equal(c.bdata, even.bdata[::2, ::2])
    assert solver._coarse_domain(c) is not None
    assert solver._coarse_domain(solver._coarse_domain(c)) is None


def test_nested_solve_matches_cold_solve(monkeypatch):
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 64,
                               boundary=lambda x, y: np.sin(3 * x) + x * y)
    nested = solve_dirichlet(m, dom)
    assert nested.converged and nested.start == "coarse"
    assert len(nested.coarse_iterations) == 2 and min(nested.coarse_iterations) >= 1
    # the limited cubic start saves the fine level a Newton step (4 steps and
    # 25 GMRES iterations from a bilinear start)
    assert nested.iterations == 3
    assert nested.krylov_iterations <= 15
    monkeypatch.setattr(solver, "_MIN_COARSE_INTERVALS", 10 ** 9)
    cold = solve_dirichlet(m, dom)
    assert cold.converged and cold.start == "picard" and cold.coarse_iterations == []
    assert nested.iterations < cold.iterations
    inter = dom.interior_mask()
    diff = np.max(np.abs(nested.u.values[inter] - cold.u.values[inter]))
    assert diff <= 10 * nested.tolerance


def test_nested_annulus_solve_matches_picard_start(monkeypatch):
    m = builtin_model("warped-plane", ("r",))
    dom = GridDomain.annulus(1, 2, 64, 256, inner=0.0, outer=float(arctan_profile(2.0)(2.0)))
    nested = solve_dirichlet(m, dom)
    assert nested.converged and nested.start == "coarse"
    assert len(nested.coarse_iterations) == 1
    monkeypatch.setattr(solver, "_MIN_COARSE_INTERVALS", 10 ** 9)
    cold = solve_dirichlet(m, dom)
    assert cold.converged and cold.start == "picard" and cold.coarse_iterations == []
    assert nested.factorizations < cold.factorizations
    inter = dom.interior_mask()
    diff = np.max(np.abs(nested.u.values[inter] - cold.u.values[inter]))
    assert diff <= 10 * nested.tolerance


def test_failed_coarse_solve_falls_back_to_picard(monkeypatch):
    monkeypatch.setattr(solver, "_MIN_COARSE_INTERVALS", 4)
    dom = _clamped_strip()
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), dom,
                          config=SolveConfig(max_iters=1))
    # the 8 x 4, 16 x 8 and 32 x 16 levels stop after one step, unconverged
    assert rep.coarse_iterations == [1, 1, 1] and rep.start == "picard"


def test_converged_init_still_takes_a_newton_step():
    m = builtin_model("nil3", (0.5,))
    done = solve_dirichlet(m, _clamped_strip())
    assert done.converged and done.residual_norm <= done.tolerance
    rep = solve_dirichlet(m, _clamped_strip(), init=done.u)
    assert rep.start == "given" and rep.converged
    assert rep.iterations >= 1 and len(rep.damping_history) >= 1


# -- linear-solve layer ------------------------------------------------------------------

def _clamped_strip():
    return GridDomain.rectangle(-2.0, 2.0, -1.0, 1.0, 1 / 16, boundary={
        "left": 5.0, "right": 5.0, "bottom": 0.0, "top": 0.0})


class _CountingLU:
    def __init__(self, lu, counts, kind):
        self._lu, self._counts, self.kind = lu, counts, kind

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs, trans="N"):
        if self._counts["in_gmres"]:
            self._counts["gmres_preconditioners"].append(self.kind)
        else:
            self._counts["lu_solves"] += 1
        return self._lu.solve(rhs, trans=trans)


def _count_linear_algebra(monkeypatch):
    """Count factorizations, triangular solves, GMRES calls and assembled
    matrices; record the column ordering each factorization asks for,
    whether it was given the transpose of the last matrix assembled, its
    stored entries, the sequence of events, and the kind of matrix
    ("newton" or "picard") whose LU each triangular solve inside GMRES
    used."""
    counts = {"splu": 0, "spsolve": 0, "gmres": 0, "lu_solves": 0, "matrices": 0,
              "permc_spec": [], "transposed": [], "lu_nnz": [], "events": [],
              "in_gmres": False, "gmres_preconditioners": []}
    splu, spsolve, gmres, jacobian = spla.splu, spla.spsolve, spla.gmres, AssemblyCache.jacobian

    def counting_splu(*args, **kwargs):
        counts["splu"] += 1
        counts["permc_spec"].append(kwargs.get("permc_spec"))
        counts["events"].append("splu")
        # the LU is of the transpose of the matrix assembled last, in its CSC
        # view, with its values cast to float32
        kind = next(e for e in reversed(counts["events"]) if e in ("newton", "picard"))
        J = counts["last_matrix"]
        A = args[0]
        counts["transposed"].append(A.format == "csc" and A.dtype == np.float32
                                    and (A != J.T.astype(np.float32)).nnz == 0)
        lu = _CountingLU(splu(*args, **kwargs), counts, kind)
        counts["lu_nnz"].append(lu.nnz)
        return lu

    def counting_spsolve(*args, **kwargs):
        counts["spsolve"] += 1
        return spsolve(*args, **kwargs)

    def counting_gmres(*args, **kwargs):
        counts["gmres"] += 1
        counts["events"].append("gmres")
        counts["in_gmres"] = True
        try:
            return gmres(*args, **kwargs)
        finally:
            counts["in_gmres"] = False

    def counting_jacobian(self, *args, **kwargs):
        counts["matrices"] += 1
        counts["events"].append("newton" if kwargs.get("frozen_W") is None else "picard")
        J = jacobian(self, *args, **kwargs)
        counts["last_matrix"] = J.copy()
        return J

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    monkeypatch.setattr(spla, "gmres", counting_gmres)
    monkeypatch.setattr(AssemblyCache, "jacobian", counting_jacobian)
    return counts


def _solves_per_matrix(events):
    """The linear-algebra events after each assembled matrix, as a string
    per matrix: "picard:splu", "newton:gmres", "newton:gmres,splu", ..."""
    out = []
    for e in events:
        if e in ("newton", "picard"):
            out.append([e])
        else:
            out[-1].append(e)
    return [f"{m[0]}:{','.join(m[1:])}" for m in out]


def test_one_factorization_per_lattice_plus_picard_and_refactors(monkeypatch):
    counts = _count_linear_algebra(monkeypatch)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert rep.converged and rep.iterations >= 3
    # one Picard matrix for the initial iterate, one Jacobian per Newton step
    assert counts["matrices"] == 1 + rep.iterations
    per_matrix = _solves_per_matrix(counts["events"])
    # the Picard matrix is factored and solved directly; the first Newton
    # Jacobian is factored, and so is each one after an accepted damped step;
    # every other one goes to GMRES first and is factored only when GMRES
    # misses the forcing bound
    newton = [m for m in per_matrix if m.startswith("newton")]
    assert [m for m in per_matrix if m.startswith("picard")] == ["picard:splu"]
    assert len(newton) == len(rep.damping_history) == rep.iterations
    after_damped = [0.0 < t < 1.0 for t in rep.damping_history[:-1]]
    assert any(after_damped) and not all(after_damped)
    assert newton[0] == "newton:splu"
    for m, damped in zip(newton[1:], after_damped):
        assert m == "newton:splu" if damped else m in ("newton:gmres", "newton:gmres,splu")
    refactors = newton.count("newton:gmres,splu")
    assert counts["splu"] == rep.factorizations == 1 + 1 + sum(after_damped) + refactors
    assert counts["splu"] < counts["matrices"] and "newton:gmres" in newton
    assert counts["spsolve"] == 0
    # three triangular solves per direct solve, one and its two refinement
    # steps, with no float64 fallback; a GMRES step combines the LU solves
    # GMRES made, so it costs none outside GMRES
    assert rep.lu_fallbacks == 0
    assert counts["lu_solves"] == 3 * counts["splu"]
    # SuperLU keeps the nested-dissection numbering it is given
    assert counts["permc_spec"] == ["NATURAL"] * counts["splu"]
    assert all(counts["transposed"]) and len(counts["transposed"]) == counts["splu"]


def test_lu_fill_is_the_largest_factorization(monkeypatch):
    m = builtin_model("nil3", (0.5,))
    counts = _count_linear_algebra(monkeypatch)
    rep = solve_dirichlet(m, _clamped_strip())
    assert rep.factorizations == len(counts["lu_nnz"]) >= 2
    assert rep.lu_fill == max(counts["lu_nnz"])
    # minimum degree stores more entries on this lattice
    _minimum_degree_reference(monkeypatch)
    assert solve_dirichlet(m, _clamped_strip()).lu_fill > rep.lu_fill


def test_picard_lu_never_preconditions_a_newton_step(monkeypatch):
    # the Picard start comes first, then Newton steps on the held LU
    counts = _count_linear_algebra(monkeypatch)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip(),
                          config=SolveConfig(max_iters=8))
    assert rep.start == "picard" and counts["gmres"] >= 1
    assert counts["gmres_preconditioners"]
    assert set(counts["gmres_preconditioners"]) == {"newton"}
    assert _solves_per_matrix(counts["events"])[1] == "newton:splu"


@pytest.mark.parametrize("dom", [
    GridDomain.rectangle(-1, 1, -1, 1, 1 / 64, boundary=lambda x, y: np.sin(3 * x) + x * y),
    _clamped_strip(),
], ids=["nil3-sin3x", "clamped-strip"])
def test_krylov_solve_matches_all_direct_path(monkeypatch, dom):
    m = builtin_model("nil3", (0.5,))
    krylov = solve_dirichlet(m, dom)
    # GMRES never meets the bound, so every system is factored and solved directly
    monkeypatch.setattr(solver._LinearSolves, "_krylov", lambda self, J, rhs: None)
    direct = solve_dirichlet(m, dom)
    assert krylov.converged and direct.converged
    assert krylov.iterations == direct.iterations
    assert krylov.coarse_iterations == direct.coarse_iterations
    assert krylov.krylov_iterations > 0 and direct.krylov_iterations == 0
    assert krylov.factorizations < direct.factorizations
    inter = dom.interior_mask()
    diff = np.max(np.abs(krylov.u.values[inter] - direct.u.values[inter]))
    assert diff <= 10 * krylov.tolerance


def _spsolve_linear_solve(J, rhs):
    # the reference: one spsolve per system, in SuperLU's own column order
    delta = spla.spsolve(J.tocsc(), rhs)
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("singular Jacobian")
    return delta


def test_direct_path_matches_one_spsolve_per_system(monkeypatch):
    # the direct path alone (no GMRES): nested-dissection float32 LU, refined
    m = builtin_model("nil3", (0.5,))
    monkeypatch.setattr(solver._LinearSolves, "_krylov", lambda self, J, rhs: None)
    rep = solve_dirichlet(m, _clamped_strip())
    monkeypatch.setattr(solver._LinearSolves, "solve",
                        lambda self, J, rhs: _spsolve_linear_solve(J, rhs))
    ref = solve_dirichlet(m, _clamped_strip())
    assert rep.converged and ref.converged
    assert rep.iterations == ref.iterations
    assert rep.stop_reason == ref.stop_reason
    np.testing.assert_allclose(rep.damping_history, ref.damping_history,
                               rtol=1e-14, atol=0.0)
    inter = _clamped_strip().interior_mask()
    scale = np.max(np.abs(ref.u.values[inter]))
    assert np.max(np.abs(rep.u.values[inter] - ref.u.values[inter])) <= 1e-14 * scale


# -- nested-dissection numbering -----------------------------------------------------

def _model(preset):
    return builtin_model(preset, (0.5,)) if preset == "nil3" else builtin_model(preset)


def _disk_pair(h):
    dom = disk_sin2theta_domain(h)
    return dom, dom.with_puncture(dom.nearest_node((0.25, 0.25)))


_ORDER_LATTICES = {
    "rectangle": lambda: ("nil3", GridDomain.rectangle(-1, 1, -1, 1, 1 / 16,
                                                       boundary=lambda x, y: np.sin(3 * x))),
    "strip": lambda: ("nil3", _clamped_strip()),
    "punctured-disk": lambda: ("euclidean", _disk_pair(1 / 16)[1]),
    "sol3": lambda: ("sol3-halfplane", sol3_exact_domain(1 / 16)),
    "annulus": lambda: ("euclidean", GridDomain.annulus(1, 2, 16, 64, outer=1.0)),
}


def _order_cache(name):
    preset, dom = _ORDER_LATTICES[name]()
    return AssemblyCache(_model(preset), dom)


def _first_jacobian(cache):
    """The Newton Jacobian at zero interior values."""
    return cache.jacobian(solver._full_grid(cache.dom, np.zeros(cache.n_unknowns), cache))


@pytest.mark.parametrize("name", list(_ORDER_LATTICES))
def test_dissection_order_numbers_every_unknown_once(name):
    cache = _order_cache(name)
    if name == "punctured-disk":
        assert cache.dom.bridges and cache.bridge_rows.size == 1
    order = cache.dom.dissection()
    np.testing.assert_array_equal(np.sort(order), np.arange(cache.n1 * cache.n0))
    # the cache numbers its unknowns in that order
    np.testing.assert_array_equal(cache.flat_unknown,
                                  order[cache.dom.unknown_mask().ravel()[order]])


@pytest.mark.parametrize("name", list(_ORDER_LATTICES))
def test_no_jacobian_entry_couples_the_halves_of_a_split_box(monkeypatch, name):
    cache = _order_cache(name)
    boxes, parents, stack = [], [], []
    dissect = grids._dissect

    def recording(ids, j0, j1, i0, i1, out):
        boxes.append((j0, j1, i0, i1))
        parents.append(stack[-1] if stack else None)
        stack.append(len(boxes) - 1)
        try:
            dissect(ids, j0, j1, i0, i1, out)
        finally:
            stack.pop()

    monkeypatch.setattr(grids, "_dissect", recording)
    cache.dom.dissection()
    # the halves of each split box; the lattice is one box with no parent,
    # except on the annulus, where the two halves of the first cut (rows 0
    # and n1/2 taken out) have none
    halves = {}
    for k, parent in enumerate(parents):
        halves.setdefault(parent, []).append(k)
    top = halves.pop(None)
    if cache.dom.periodic:
        halves[None] = top
    else:
        assert boxes[top[0]] == (0, cache.n1, 0, cache.n0)
    assert all(len(pair) == 2 for pair in halves.values()) and len(halves) > 10
    pattern = _first_jacobian(cache)
    pattern.data[:] = 1.0
    ids = cache.unknown_ids.reshape(cache.n1, cache.n0)

    def members(box):
        j0, j1, i0, i1 = box
        inside = np.zeros(cache.n_unknowns)
        block = ids[j0:j1, i0:i1]
        inside[block[block >= 0]] = 1.0
        return inside

    for a, b in halves.values():
        ina, inb = members(boxes[a]), members(boxes[b])
        assert ina @ (pattern @ inb) == 0 and inb @ (pattern @ ina) == 0


@pytest.mark.parametrize("name", ["rectangle", "punctured-disk", "annulus"])
def test_factored_matrix_shares_the_jacobians_data(monkeypatch, name):
    # cartesian, masked and bridged, and periodic lattices: SuperLU factors
    # a CSC matrix on J's own index arrays, J.T's structure, with J's values
    # cast to float32, so only the values are copied
    cache = _order_cache(name)
    received, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: received.append(A) or splu(A, **kw))
    linear = solver._LinearSolves()
    rhs = np.ones(cache.n_unknowns)
    for J in (_first_jacobian(cache), cache.jacobian(solver._full_grid(
            cache.dom, np.linspace(-1.0, 1.0, cache.n_unknowns), cache))):
        arrays = [a.copy() for a in (J.data, J.indices, J.indptr)]
        linear.lu = None
        delta = linear.solve(J, rhs)
        A = received[-1]
        assert A.format == "csc" and A.shape == J.shape
        assert np.shares_memory(A.indices, J.indices) and np.shares_memory(A.indptr, J.indptr)
        assert A.data.dtype == np.float32
        np.testing.assert_array_equal(A.data, J.data.astype(np.float32))
        # SuperLU reads the Jacobian and leaves it as it was
        for a, b in zip((J.data, J.indices, J.indptr), arrays):
            np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(J @ delta - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert linear.lu_fallbacks == 0 and len(received) == linear.factorizations == 2


def test_missed_forcing_bound_falls_back_to_float64(monkeypatch):
    # a float32 solve perturbed by 10%: its refined step misses the forcing
    # bound, so every factorization is followed by a float64 one, whose
    # SuperLU object is held; the solve then runs on float64 LUs alone
    m = builtin_model("nil3", (0.5,))
    ref = solve_dirichlet(m, _clamped_strip())
    lu_solve = solver._lu_solve

    def perturbed(lu, v, dtype):
        w = lu_solve(lu, v, dtype)
        return 1.1 * w if dtype is np.float32 else w

    monkeypatch.setattr(solver, "_lu_solve", perturbed)
    rep = solve_dirichlet(m, _clamped_strip())
    # one fallback per float32 factorization the unpatched solve made
    assert rep.converged and rep.lu_fallbacks == ref.factorizations >= 1
    assert rep.factorizations == 2 * rep.lu_fallbacks
    inter = _clamped_strip().interior_mask()
    assert np.max(np.abs(rep.u.values[inter] - ref.u.values[inter])) <= 1e-12
    cache = _order_cache("strip")
    linear = solver._LinearSolves()
    linear.solve(_first_jacobian(cache), np.ones(cache.n_unknowns))
    assert linear.lu_fallbacks == 1 and linear.factorizations == 2
    assert linear.lu.L.dtype == np.float64 and linear.lu.nnz == linear.lu_fill


def _fill(lu):
    """Nonzeros of the factors L and U."""
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("preset, dom, bound", [
    ("nil3", GridDomain.rectangle(-1, 1, -1, 1, 1 / 64,
                                  boundary=lambda x, y: np.sin(3 * x) + x * y), 1.0),
    ("nil3", GridDomain.rectangle(-2.0, 2.0, -1.0, 1.0, 1 / 32, boundary={
        "left": 5.0, "right": 5.0, "bottom": 0.0, "top": 0.0}), 1.0),
    ("euclidean", disk_sin2theta_domain(1 / 32), 1.0),
    ("sol3-halfplane", sol3_exact_domain(1 / 16), 1.15),
    ("euclidean", GridDomain.annulus(1, 2, 64, 256, outer=1.0), 1.15),
], ids=["rectangle", "strip", "disk", "sol3", "annulus"])
def test_dissection_fills_no_more_than_minimum_degree(preset, dom, bound):
    cache = AssemblyCache(_model(preset), dom)
    J = _first_jacobian(cache)
    linear = solver._LinearSolves()
    linear.solve(J, np.ones(cache.n_unknowns))
    # the reference: minimum degree on the Jacobian numbered in raster order
    p = np.argsort(cache.flat_unknown)
    mmd = spla.splu(J[p][:, p].tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert _fill(linear.lu) <= bound * _fill(mmd)


def _minimum_degree_reference(monkeypatch):
    """Factor every matrix as before nested dissection: with the unknowns
    numbered in raster order, and SuperLU ordering the columns by minimum
    degree on A^T + A."""
    splu = spla.splu
    monkeypatch.setattr(GridDomain, "dissection", lambda self: np.arange(self.status.size))
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: splu(A, **{**kw, "permc_spec": "MMD_AT_PLUS_A"}))


def _pair_solves(model, dom):
    """The solve of ``dom``, or of a (full, punctured) pair with the
    punctured solve started from the full one."""
    if isinstance(dom, tuple):
        full = solve_dirichlet(model, dom[0])
        return [full, solve_dirichlet(model, dom[1], init=full.u.transfer(dom[1]))]
    return [solve_dirichlet(model, dom)]


@pytest.mark.parametrize("preset, dom", [
    ("nil3", GridDomain.rectangle(-1, 1, -1, 1, 1 / 64,
                                  boundary=lambda x, y: np.sin(3 * x) + x * y)),
    ("nil3", _clamped_strip()),
    ("euclidean", _disk_pair(1 / 32)),
], ids=["nested-nil3", "clamped-strip", "disk-pair"])
def test_dissection_order_matches_minimum_degree_run(monkeypatch, preset, dom):
    model = _model(preset)
    reps = _pair_solves(model, dom)
    _minimum_degree_reference(monkeypatch)
    refs = _pair_solves(model, dom)
    for rep, ref in zip(reps, refs):
        assert rep.converged and ref.converged
        for key in ("start", "iterations", "coarse_iterations", "factorizations",
                    "stop_reason"):
            assert getattr(rep, key) == getattr(ref, key), key
        # the two LUs round differently, so a GMRES cycle may meet its bound an
        # iteration sooner or later (the clamped strip takes 49 against 50)
        assert abs(rep.krylov_iterations - ref.krylov_iterations) <= 1
        carried = rep.u.domain.carried()
        assert np.max(np.abs(rep.u.values[carried] - ref.u.values[carried])) <= 1e-12


def _splu_singular_from(monkeypatch, n_ok):
    """Let the first ``n_ok`` factorizations succeed, then report singular."""
    splu = spla.splu
    calls = []

    def flaky_splu(*args, **kwargs):
        calls.append(1)
        if len(calls) > n_ok:
            raise RuntimeError("Factor is exactly singular")
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", flaky_splu)
    return calls


def test_singular_initial_picard_reported_not_raised(monkeypatch):
    calls = _splu_singular_from(monkeypatch, 0)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert not rep.converged
    assert rep.iterations == 0 and len(calls) == 1
    assert "singular Picard" in rep.message
    assert rep.stop_reason == "singular"
    assert np.isfinite(rep.residual_norm)


def test_singular_jacobian_reported_not_raised(monkeypatch):
    # the initial Picard solve succeeds and the first Jacobian is singular:
    # the solve stops there, with no step taken
    calls = _splu_singular_from(monkeypatch, 1)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert not rep.converged
    assert rep.iterations == 1 and len(calls) == 2
    assert rep.damping_history == []
    assert rep.message == "singular Jacobian"
    assert rep.stop_reason == "singular"
    assert np.isfinite(rep.residual_norm)


# -- stop rules -----------------------------------------------------------------------

def _sol3_pair(h=1 / 16):
    dom = sol3_exact_domain(h)
    return dom, dom.with_puncture(dom.nearest_node((0.0, 2.0)))


def test_sol3_pair_stops_at_rounding_floor():
    # tol_factor 1e-13 is below the discrete residual's rounding floor here
    cfg = SolveConfig(tol_factor=1e-13)
    for dom in _sol3_pair():
        rep = solve_dirichlet(builtin_model("sol3-halfplane"), dom, config=cfg)
        assert rep.converged and rep.stop_reason == "rounding-floor"
        assert rep.iterations <= 4 and set(rep.damping_history) == {1.0}
        assert rep.residual_norm > rep.tolerance


def test_default_tolerance_stop_reason():
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert rep.converged and rep.stop_reason == "tolerance"
    assert rep.residual_norm <= rep.tolerance


def test_max_iters_stop_reason():
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip(),
                          config=SolveConfig(max_iters=1))
    assert not rep.converged and rep.stop_reason == "max-iters"
    assert rep.iterations == 1


def test_rounding_size_step_far_above_floor_does_not_stop(monkeypatch):
    # every linear solve returns a step of rounding size, while the residual
    # of the (near-zero) iterate stays far above its rounding floor
    linear_solve = solver._LinearSolves.solve

    def tiny_step(self, J, rhs):
        delta = linear_solve(self, J, rhs)
        return delta * (1e-3 * np.finfo(float).eps / np.max(np.abs(delta)))

    monkeypatch.setattr(solver._LinearSolves, "solve", tiny_step)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip(),
                          config=SolveConfig(max_iters=2))
    # the line search rejects the step, as it barely moves the residual
    assert not rep.converged and rep.stop_reason == "stalled"
    assert rep.damping_history == [0.0]
    assert rep.residual_norm > 1e-3


def test_large_step_under_floor_does_not_stop(monkeypatch):
    # start from a solution whose residual is under its rounding floor, with
    # tolerance 0; a step far above rounding size must not end the solve
    model = builtin_model("sol3-halfplane")
    dom = _sol3_pair()[0]
    cfg = SolveConfig(tol_factor=1e-13)
    done = solve_dirichlet(model, dom, config=cfg)
    assert done.stop_reason == "rounding-floor"
    monkeypatch.setattr(solver._LinearSolves, "solve",
                        lambda self, J, rhs: np.full(rhs.shape, 1e-3))
    rep = solve_dirichlet(model, dom, init=done.u,
                          config=SolveConfig(tol_factor=0.0, max_iters=1))
    # the large step was rejected, never taken, and the solve stopped there
    assert rep.damping_history == [0.0]
    assert not rep.converged and rep.stop_reason == "stalled"


def test_jump_data_stops_at_rounding_floor():
    # data +-500 for x >< 0: near the jump the Jacobian is ill-conditioned,
    # so the last Newton step stays far above rounding size while the
    # residual and the step's predicted change of it are under the floor
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 32,
                               boundary=lambda x, y: np.where(x > 0, 500.0, -500.0))
    rep = solve_dirichlet(builtin_model("euclidean"), dom, config=SolveConfig(max_iters=40))
    assert rep.converged and rep.stop_reason == "rounding-floor"
    assert rep.start == "coarse" and rep.iterations <= 30
    assert rep.residual_norm > rep.tolerance
