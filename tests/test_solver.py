import numpy as np
import scipy.sparse.linalg as spla

from killing_graphs import solver
from killing_graphs.grids import GridDomain, ScalarGrid
from killing_graphs.models import builtin_model
from killing_graphs.operator import AssemblyCache
from killing_graphs.solver import (SolveConfig, check_max_principle,
                                   exhaustion_solve, solve_dirichlet)
from killing_graphs.nil import strip_truncation_domain
from killing_graphs.experiments import sol3_exact_domain


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


def test_rejected_step_ends_its_iteration_with_a_picard_sweep():
    # no solution exists, so the line search keeps rejecting steps; each
    # rejection is followed by a sweep in the same iteration, not retried
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8)
    rep = solve_dirichlet(m, dom, H="5.0", config=SolveConfig(max_iters=8))
    assert not rep.converged and rep.stop_reason == "max-iters"
    assert rep.damping_history.count(0.0) > 1
    assert rep.picard_sweeps == rep.damping_history.count(0.0)


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


# -- linear-solve layer ------------------------------------------------------------------

def _clamped_strip():
    return GridDomain.rectangle(-2.0, 2.0, -1.0, 1.0, 1 / 16, boundary={
        "left": 5.0, "right": 5.0, "bottom": 0.0, "top": 0.0})


class _CountingLU:
    def __init__(self, lu, counts):
        self._lu, self._counts = lu, counts

    def solve(self, rhs):
        self._counts["lu_solves"] += 1
        return self._lu.solve(rhs)


def _count_linear_algebra(monkeypatch):
    """Count factorizations, triangular solves and assembled matrices, and
    record the column ordering each factorization asks for."""
    counts = {"splu": 0, "spsolve": 0, "lu_solves": 0, "matrices": 0, "permc_spec": []}
    splu, spsolve, jacobian = spla.splu, spla.spsolve, AssemblyCache.jacobian

    def counting_splu(*args, **kwargs):
        counts["splu"] += 1
        counts["permc_spec"].append(kwargs.get("permc_spec"))
        return _CountingLU(splu(*args, **kwargs), counts)

    def counting_spsolve(*args, **kwargs):
        counts["spsolve"] += 1
        return spsolve(*args, **kwargs)

    def counting_jacobian(self, *args, **kwargs):
        counts["matrices"] += 1
        return jacobian(self, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    monkeypatch.setattr(AssemblyCache, "jacobian", counting_jacobian)
    return counts


def test_each_linear_system_factored_once(monkeypatch):
    # _LINEAR_RTOL = 0 forces the refinement step on every system
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 0.0)
    counts = _count_linear_algebra(monkeypatch)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert rep.converged and rep.iterations >= 3
    # one Picard matrix for the initial iterate, one Jacobian per Newton step
    assert counts["matrices"] == 1 + rep.iterations + rep.picard_sweeps
    assert counts["splu"] == counts["matrices"]
    assert counts["spsolve"] == 0
    assert counts["lu_solves"] == 2 * counts["splu"]
    # the symmetric 5/9-point pattern is ordered by minimum degree on A^T + A
    assert counts["permc_spec"] == ["MMD_AT_PLUS_A"] * counts["splu"]


def _two_spsolve_linear_solve(J, rhs, rtol):
    # the former path: the refinement step factors J a second time
    delta = spla.spsolve(J.tocsc(), rhs)
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("singular Jacobian")
    nr = np.linalg.norm(rhs)
    if nr > 0 and np.linalg.norm(J @ delta - rhs) / nr > rtol:
        delta = delta + spla.spsolve(J.tocsc(), rhs - J @ delta)
    return delta


def test_factor_reuse_matches_two_spsolve_path(monkeypatch):
    m = builtin_model("nil3", (0.5,))
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 0.0)
    rep = solve_dirichlet(m, _clamped_strip())
    monkeypatch.setattr(solver, "_linear_solve", _two_spsolve_linear_solve)
    ref = solve_dirichlet(m, _clamped_strip())
    assert rep.converged and ref.converged
    assert rep.iterations == ref.iterations
    assert rep.picard_sweeps == ref.picard_sweeps
    np.testing.assert_allclose(rep.damping_history, ref.damping_history,
                               rtol=1e-14, atol=0.0)
    inter = _clamped_strip().interior_mask()
    scale = np.max(np.abs(ref.u.values[inter]))
    assert np.max(np.abs(rep.u.values[inter] - ref.u.values[inter])) <= 1e-14 * scale


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


def test_singular_picard_fallback_reported_not_raised(monkeypatch):
    # the initial Picard solve succeeds, the first Jacobian is singular and
    # so is the Picard system that replaces it
    calls = _splu_singular_from(monkeypatch, 1)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip())
    assert not rep.converged
    assert rep.iterations == 1 and len(calls) == 3
    assert rep.picard_sweeps == 0
    assert "singular Picard" in rep.message
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
        assert rep.iterations <= 4 and rep.picard_sweeps == 0
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
    linear_solve = solver._linear_solve

    def tiny_step(J, rhs, rtol):
        delta = linear_solve(J, rhs, rtol)
        return delta * (1e-3 * np.finfo(float).eps / np.max(np.abs(delta)))

    monkeypatch.setattr(solver, "_linear_solve", tiny_step)
    rep = solve_dirichlet(builtin_model("nil3", (0.5,)), _clamped_strip(),
                          config=SolveConfig(max_iters=2))
    assert not rep.converged and rep.stop_reason == "max-iters"
    assert rep.residual_norm > 1e-3


def test_large_step_under_floor_does_not_stop(monkeypatch):
    # start from a solution whose residual is under its rounding floor, with
    # tolerance 0; a step far above rounding size must not end the solve
    model = builtin_model("sol3-halfplane")
    dom = _sol3_pair()[0]
    cfg = SolveConfig(tol_factor=1e-13)
    done = solve_dirichlet(model, dom, config=cfg)
    assert done.stop_reason == "rounding-floor"
    monkeypatch.setattr(solver, "_linear_solve",
                        lambda J, rhs, rtol: np.full(rhs.shape, 1e-3))
    rep = solve_dirichlet(model, dom, init=done.u,
                          config=SolveConfig(tol_factor=0.0, max_iters=1))
    # the large step was rejected, never taken, and a Picard sweep replaced it
    assert rep.damping_history == [0.0] and rep.picard_sweeps == 1
    assert not rep.converged and rep.stop_reason == "max-iters"
