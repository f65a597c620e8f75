"""Damped Newton solver for the Dirichlet problem F(u) = 0.

The Jacobian is the exact derivative of the flux-form residual.  When the
backtracking search rejects a Newton step, or the Jacobian is singular, the
same iteration ends with a Picard sweep (frozen area element): a rejected
step would only be retried from the same iterate, with the same result.
The initial iterate always comes from one Picard solve with the area
element frozen at the zero-section value W0.

Each Newton or Picard matrix is LU-factored exactly once with SuperLU.
Its pattern is the symmetric 5/9-point lattice stencil, so the columns are
ordered by multiple minimum degree on A^T + A (``MMD_AT_PLUS_A``; Liu,
ACM TOMS 1985; Davis, *Direct Methods for Sparse Linear Systems*, ch. 7),
which fills far less than the unsymmetric COLAMD ordering.  The one step of
iterative refinement taken when the linear relative residual exceeds
``_LINEAR_RTOL`` reuses those factors.  The factors live only for the
duration of one linear solve.

The solve stops, with ``converged=True``, on either of two rules:

- ``tolerance``: ``max|F| <= tol_factor * (1 + max|2 mu H|)``;
- ``rounding-floor``: the Newton step is at rounding size,
  ``max|delta| <= eps * (1 + max|u|)``, and the residual is under its
  rounding floor, ``max|F| <= eps * max(|J| |u|)`` over the unknowns, so no
  further step can lower it (Kelley, *Iterative Methods for Linear and
  Nonlinear Equations*, ch. 5 on stagnation).

Otherwise it ends with ``converged=False`` and ``stop_reason``
``max-iters`` (the iteration budget ran out) or ``singular`` (a Picard
system could not be factored).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .grids import BOUNDARY, GridDomain, ScalarGrid
from .models import MetricModel
from .operator import AssemblyCache, nodal_rhs, raw_grid


@dataclass
class SolveConfig:
    max_iters: int = 60
    tol_factor: float = 1e-10          # residual tol = tol_factor * (1 + |2 mu H|_inf)


@dataclass
class SolveReport:
    u: ScalarGrid
    converged: bool
    iterations: int
    residual_norm: float
    tolerance: float
    damping_history: List[float] = field(default_factory=list)
    picard_sweeps: int = 0
    message: str = ""
    runtime: float = 0.0
    stop_reason: str = ""      # tolerance | rounding-floor | max-iters | singular


# what a singular or non-finite linear system raises
_SINGULAR = (np.linalg.LinAlgError, RuntimeError)

_EPS = float(np.finfo(float).eps)
_ARMIJO = 1e-4              # sufficient decrease of |F|^2 in the line search
_MIN_STEP = 2.0 ** -20      # the line search rejects the step below this t
_LINEAR_RTOL = 1e-12        # linear relative residual that triggers refinement


def _linear_solve(J, rhs, rtol):
    # splu raises RuntimeError on an exactly singular factor
    lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    delta = lu.solve(rhs)
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("singular Jacobian")
    nr = np.linalg.norm(rhs)
    if nr > 0:
        res = np.linalg.norm(J @ delta - rhs) / nr
        if res > rtol:
            # one step of iterative refinement on the same factors
            delta = delta + lu.solve(rhs - J @ delta)
    return delta


def _full_grid(dom: GridDomain, interior_vec, cache: AssemblyCache) -> np.ndarray:
    u = np.where(dom.status == BOUNDARY, dom.bdata, 0.0)
    u[~dom.carried()] = np.nan
    u.ravel()[cache.flat_unknown] = interior_vec
    return u


def _picard_solve(cache: AssemblyCache, u_grid: np.ndarray, rhs: np.ndarray,
                  frozen_W: list) -> np.ndarray:
    """Solve the affine frozen-coefficient system exactly (one linear solve)."""
    J = cache.jacobian(u_grid, frozen_W=frozen_W)
    vec = u_grid.ravel()[cache.flat_unknown].copy()
    F = cache.residual(u_grid, rhs, frozen_W=frozen_W)
    delta = _linear_solve(J, -F, _LINEAR_RTOL)
    return vec + delta


def solve_dirichlet(model: MetricModel, dom: GridDomain, H=None,
                    config: Optional[SolveConfig] = None,
                    init: Optional[ScalarGrid] = None,
                    cache: Optional[AssemblyCache] = None) -> SolveReport:
    """Solve the prescribed-mean-curvature Dirichlet problem on ``dom``.

    Newton iteration with backtracking line search and a Picard sweep in
    place of a rejected step; the default initial iterate is one Picard
    solve with the area element frozen at the zero-section value
    W0 = sqrt(1 + mu^2 (a^2 + b^2)).
    """
    t0 = time.perf_counter()
    cfg = config or SolveConfig()
    if cache is None:
        cache = AssemblyCache(model, dom)
    rhs = nodal_rhs(model, dom, H)
    tol = cfg.tol_factor * (1.0 + float(np.max(np.abs(rhs[dom.carried()]))))

    message = ""
    singular_start = False
    if init is not None:
        vec = init.values.ravel()[cache.flat_unknown].copy()
    else:
        zero_grid = _full_grid(dom, np.zeros(cache.n_unknowns), cache)
        zeros_everywhere = np.where(dom.carried(), 0.0, np.nan)
        W0 = cache.frozen_W(zeros_everywhere)
        try:
            vec = _picard_solve(cache, zero_grid, rhs, W0)
        except _SINGULAR:
            vec = np.zeros(cache.n_unknowns)
            singular_start = True
            message = "singular Picard system for the initial iterate"

    damping: List[float] = []
    picard_sweeps = 0
    stop_reason = "singular" if singular_start else "max-iters"
    iters = 0
    u = _full_grid(dom, vec, cache)
    F = cache.residual(u, rhs)
    fnorm = float(np.max(np.abs(F))) if F.size else 0.0

    while not singular_start and iters < cfg.max_iters:
        if fnorm <= tol:
            stop_reason = "tolerance"
            break
        iters += 1
        try:
            J = cache.jacobian(u)
            delta = _linear_solve(J, -F, _LINEAR_RTOL)
        except _SINGULAR:
            delta = None

        if delta is not None:
            # the step test comes first: the mat-vec runs only when the
            # step is already at rounding size
            if np.max(np.abs(delta)) <= _EPS * (1.0 + np.max(np.abs(vec))):
                floor = _EPS * float(np.max(abs(J) @ np.abs(vec)))
                if fnorm <= floor:
                    stop_reason = "rounding-floor"
                    message = f"residual at its rounding floor {floor:.3e}"
                    break
            phi0 = float(F @ F)
            t = 1.0
            accepted = False
            while t >= _MIN_STEP:
                trial = vec + t * delta
                u_try = _full_grid(dom, trial, cache)
                F_try = cache.residual(u_try, rhs)
                if float(F_try @ F_try) <= (1.0 - 2.0 * _ARMIJO * t) * phi0:
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                vec, u, F = trial, u_try, F_try
                fnorm = float(np.max(np.abs(F)))
                damping.append(t)
                continue
            damping.append(0.0)

        # Picard sweep: after a singular Jacobian or a rejected Newton step
        try:
            vec = _picard_solve(cache, u, rhs, cache.frozen_W(u))
        except _SINGULAR:
            after = "a singular Jacobian" if delta is None else "a rejected Newton step"
            message = f"singular Picard system in the fallback after {after}"
            stop_reason = "singular"
            break
        picard_sweeps += 1
        u = _full_grid(dom, vec, cache)
        F = cache.residual(u, rhs)
        fnorm = float(np.max(np.abs(F)))
        if delta is None:
            message = "singular Jacobian; Picard fallback"
        else:
            message = "Picard fallback after a rejected Newton step"

    if fnorm <= tol:
        stop_reason = "tolerance"
    converged = stop_reason in ("tolerance", "rounding-floor")
    if stop_reason == "max-iters" and not message:
        message = f"no convergence in {cfg.max_iters} iterations"

    sol = raw_grid(dom, u)
    return SolveReport(u=sol, converged=converged, iterations=iters,
                       residual_norm=fnorm, tolerance=tol,
                       damping_history=damping, picard_sweeps=picard_sweeps,
                       message=message, runtime=time.perf_counter() - t0,
                       stop_reason=stop_reason)


# ---------------------------------------------------------------------------
# Exhaustion of unbounded domains by truncation

@dataclass
class ExhaustionReport:
    reports: List[SolveReport]
    cauchy: List[float]        # sup |u_n - u_{n-1}| over the common core, or NaN


def _common_value_map(dom: GridDomain, values: np.ndarray) -> dict:
    X, Y = dom.coords()
    m = dom.carried()
    out = {}
    for x, y, v in zip(X[m], Y[m], values[m]):
        out[(round(float(x), 9), round(float(y), 9))] = float(v)
    return out


def exhaustion_solve(model: MetricModel, domains: Sequence[GridDomain], H=None,
                     config: Optional[SolveConfig] = None) -> ExhaustionReport:
    """Solve an increasing family of truncated domains and monitor the
    pointwise change between consecutive solutions.

    The Cauchy monitor is taken over the core common to every domain of the
    family (the smallest truncation, for nested families): a fixed compact
    region, so successive changes measure genuine convergence rather than
    the moving artificial-boundary layers.  An entry is NaN when the core is
    empty, or when either solve of its pair did not converge.
    """
    reports = []
    maps = []
    for dom in domains:
        rep = solve_dirichlet(model, dom, H=H, config=config)
        reports.append(rep)
        maps.append(_common_value_map(dom, rep.u.values))
    core = set(maps[0].keys()) if maps else set()
    for m in maps[1:]:
        core &= m.keys()
    cauchy = []
    for k, (prev, cur) in enumerate(zip(maps[:-1], maps[1:])):
        if core and reports[k].converged and reports[k + 1].converged:
            cauchy.append(max(abs(prev[n] - cur[n]) for n in core))
        else:
            cauchy.append(float("nan"))
    return ExhaustionReport(reports=reports, cauchy=cauchy)


# ---------------------------------------------------------------------------
# Discrete comparison principle

@dataclass
class MaxPrincipleVerdict:
    passed: bool
    worst_violation: float
    node: tuple
    boundary_ordered: bool


def check_max_principle(u_report, v_report) -> MaxPrincipleVerdict:
    """Check min(v - u) >= -10 max(1e-10, tolerances) over the interior for
    solutions whose boundary data satisfy u <= v (H(u) >= H(v) is the
    caller's contract).  Each argument is a SolveReport or a ScalarGrid; the
    lattice is that of ``u``."""
    grids = [r.u if isinstance(r, SolveReport) else r for r in (u_report, v_report)]
    u, v = (g.values for g in grids)
    dom = grids[0].domain
    tol_mp = 10.0 * max([1e-10] + [r.tolerance for r in (u_report, v_report)
                                   if isinstance(r, SolveReport)])
    bnd = dom.status == BOUNDARY
    boundary_ordered = bool(np.all(u[bnd] <= v[bnd] + 1e-14))
    inter = dom.interior_mask()
    diff = np.where(inter, v - u, np.inf)
    j, i = np.unravel_index(int(np.argmin(diff)), diff.shape)
    worst = float(diff[j, i])
    return MaxPrincipleVerdict(passed=boundary_ordered and worst >= -tol_mp,
                               worst_violation=worst, node=(int(j), int(i)),
                               boundary_ordered=boundary_ordered)
