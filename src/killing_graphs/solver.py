"""Damped Newton solver for the Dirichlet problem F(u) = 0.

The Jacobian is the exact derivative of the flux-form residual.  Each
iteration is one Newton step with an Armijo backtracking line search.  A
step the search rejects ends the solve: a retry from the same iterate
would take the same step.

The initial iterate (``SolveReport.start``) comes from one of three places:

- ``given``: the caller's ``init``, such as a full solution carried onto
  its punctured lattice by :meth:`ScalarGrid.transfer`;
- ``coarse``: nested iteration.  A cartesian lattice with no excluded node,
  even interval counts and at least ``2 * _MIN_COARSE_INTERVALS`` intervals
  a side is first solved on the lattice of every other node (recursively),
  and that converged solution is transferred back by the limited cubic of
  :meth:`ScalarGrid.transfer`: an interpolation of higher order than the
  second-order scheme, as full-multigrid start-up needs (Trottenberg,
  Oosterlee & Schüller, *Multigrid*, 2001, §2.6).  By mesh independence
  (Allgower, Böhmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 1986) the
  fine lattice then needs a few full Newton steps and no damped phase;
- ``picard``: everywhere else, or when the coarse solve did not converge,
  one Picard solve with the area element frozen at the zero-section value
  W0.

A warm start (``given`` or ``coarse``) takes at least one Newton step
before the tolerance test may stop it.  ``iterations`` counts the steps on
this lattice; ``coarse_iterations`` lists those of the coarse levels.

Linear systems are solved by inexact Newton-Krylov with a direct-factor
preconditioner (Knoll & Keyes, J. Comput. Phys. 2004; Kelley, *Iterative
Methods for Linear and Nonlinear Equations*, ch. 6).  Each solve holds the
LU of the last Newton Jacobian it factored on its lattice.  A later Newton
system is solved by one cycle of right-preconditioned GMRES on that LU, and
the step is kept when ``|J delta + F| <= _FORCING |F|`` holds when
recomputed.  Otherwise the held LU is dropped and the Jacobian is factored
and solved directly, and its LU is held instead.  So a lattice makes one
factorization when GMRES keeps meeting the bound.  An accepted damped step
(``0 < t < 1``) also drops the held LU, so the next Newton system is
factored directly: the iterate has moved far from the held LU's, and GMRES
on it ran whole cycles before missing the bound.  The Picard start's
matrix is factored and solved directly, its LU never held: a frozen-W
LU preconditions a Newton system poorly.  Every factorization is SuperLU's,
of the Jacobian with its unknowns in nested-dissection order, computed once
per solve from the lattice itself (George, "Nested dissection of a regular
finite element mesh", SIAM J. Numer. Anal. 1973): each index box is split
across its longer side by one lattice line, which the 5/9-point stencil
cannot cross, and both halves are numbered (recursively) before the line;
boxes of at most ``_LEAF_NODES`` nodes are numbered in raster order.  On a
periodic polar lattice the first cut takes two theta rows, 0 and n1/2, as
the wrap joins the two ends.  The permuted matrix is factored with
SuperLU's ``NATURAL`` column order and its default pivot threshold, and
every LU solve, GMRES's included, permutes its vector in and out.  Against
multiple minimum degree on A^T + A, found anew at each factorization, it
factors square and strip lattices about a third faster with about 5% less
fill.  A direct solve takes one step of iterative refinement on the same
factors when its linear relative residual exceeds ``_LINEAR_RTOL``.  GMRES
ends its cycle with the residual of its solution y, which applies the LU to
y; that M^-1 y is kept and is the step.

The solve stops, with ``converged=True``, on either of two rules:

- ``tolerance``: ``max|F| <= tol_factor * (1 + max|2 mu H|)``;
- ``rounding-floor``: with ``floor = eps * max(|J| |u|)`` over the
  unknowns, the rounding error of evaluating F at u, both the residual
  and the Newton step's predicted change of it are under the floor,
  ``max|F| <= floor`` and ``max|J delta| <= floor``, so no further step can
  lower F (Kelley, *Iterative Methods for Linear and Nonlinear Equations*,
  ch. 5 on stagnation).  The step itself may be far above rounding size:
  near a jump in the boundary data the Jacobian is ill-conditioned.

Otherwise it ends with ``converged=False`` and ``stop_reason``
``max-iters`` (the iteration budget ran out), ``stalled`` (the line search
rejected the Newton step, t below ``_MIN_STEP``; a ``0.0`` closes
``damping_history``), ``singular`` (the Picard start or a Jacobian could
not be factored) or ``diverged``: the residual or the Jacobian is not
finite, or max|u| has grown past ``_RUNAWAY`` times its starting scale
1 + max|u_0|, as it does on a problem with no solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .grids import (BOUNDARY, BRIDGE, EXCLUDED, INTERIOR, GridDomain, ScalarGrid,
                    coincident_nodes)
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
    picard_sweeps: int = 0     # always 0: kept only for the benchmark tracer, which reads it
    message: str = ""
    runtime: float = 0.0       # seconds, coarse levels included
    stop_reason: str = ""      # tolerance | rounding-floor | max-iters | stalled | singular | diverged
    start: str = "picard"      # picard | coarse | given: where the first iterate came from
    coarse_iterations: List[int] = field(default_factory=list)   # per coarse level, coarsest first
    factorizations: int = 0    # LU factorizations on this lattice, the Picard start's included
    krylov_iterations: int = 0  # GMRES iterations on this lattice
    lu_fill: int = 0           # most entries of L and U stored by one factorization on this lattice


# what a singular or non-finite linear system raises
_SINGULAR = (np.linalg.LinAlgError, RuntimeError)

_EPS = float(np.finfo(float).eps)
_ARMIJO = 1e-4              # sufficient decrease of |F|^2 in the line search
_MIN_STEP = 2.0 ** -20      # the line search rejects the step below this t
_LINEAR_RTOL = 1e-12        # linear relative residual that triggers refinement
_RUNAWAY = 1e6              # max|u| past this many times its starting scale is divergence
_MIN_COARSE_INTERVALS = 32  # intervals per side that a coarse lattice keeps at least
_FORCING = 1e-6             # linear relative residual a GMRES step must reach
_KRYLOV_MAX = 30            # GMRES iterations (one cycle) before the Jacobian is refactored
_LEAF_NODES = 16            # nested dissection numbers boxes this small in raster order


def _dissect(ids: np.ndarray, j0: int, j1: int, i0: int, i1: int, out: list) -> None:
    """Append to ``out`` the lattice ids of the box ``ids[j0:j1, i0:i1]`` in
    nested-dissection order: the half before the middle line of its longer
    side, the half after it, then that line."""
    nj, ni = j1 - j0, i1 - i0
    if nj * ni <= _LEAF_NODES:
        out.append(ids[j0:j1, i0:i1].ravel())
    elif nj >= ni:
        m = (j0 + j1) // 2
        _dissect(ids, j0, m, i0, i1, out)
        _dissect(ids, m + 1, j1, i0, i1, out)
        out.append(ids[m, i0:i1])
    else:
        m = (i0 + i1) // 2
        _dissect(ids, j0, j1, i0, m, out)
        _dissect(ids, j0, j1, m + 1, i1, out)
        out.append(ids[j0:j1, m])


def _dissection_order(cache: AssemblyCache) -> np.ndarray:
    """The unknowns of ``cache`` in nested-dissection order of its lattice
    (module docstring): ``order[k]`` is the unknown numbered k."""
    ids = cache.unknown_ids.reshape(cache.n1, cache.n0)
    n1, n0 = ids.shape
    out: list = []
    if cache.dom.periodic:
        # theta wraps, so the first cut takes two rows
        half = n1 // 2
        _dissect(ids, 1, half, 0, n0, out)
        _dissect(ids, half + 1, n1, 0, n0, out)
        out += [ids[0], ids[half]]
    else:
        _dissect(ids, 0, n1, 0, n0, out)
    order = np.concatenate(out)
    return order[order >= 0]


class _LinearSolves:
    """The linear algebra of one lattice: its nested-dissection order, the
    LU of the last Newton Jacobian factored on it (until a damped step drops
    it), the count of factorizations and GMRES iterations, and the largest
    fill."""

    def __init__(self, cache: AssemblyCache):
        self.order = _dissection_order(cache)
        self.lu = None
        self.factorizations = 0
        self.krylov_iterations = 0
        self.lu_fill = 0

    def solve(self, J, rhs, newton: bool) -> np.ndarray:
        """delta with J delta = rhs.  A Newton system tries GMRES on the held
        LU first; the Picard start's system, or a Newton one that GMRES
        leaves above the forcing bound, is factored and solved directly."""
        if newton:
            # _KRYLOV_MAX = 0 leaves the direct path alone
            if self.lu is not None and _KRYLOV_MAX:
                delta = self._krylov(J, rhs)
                if delta is not None:
                    return delta
            # dropped before the new factors exist, so one LU is held at a time
            self.lu = None
        p = self.order
        # splu raises RuntimeError on an exactly singular factor
        lu = spla.splu(J[p][:, p].tocsc(), permc_spec="NATURAL")
        self.factorizations += 1
        # SuperLU's own count: reading L.nnz + U.nnz would export both factors
        self.lu_fill = max(self.lu_fill, lu.nnz)
        delta = self._lu_solve(lu, rhs)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError("singular Jacobian")
        nr = np.linalg.norm(rhs)
        if nr > 0 and np.linalg.norm(J @ delta - rhs) / nr > _LINEAR_RTOL:
            # one step of iterative refinement on the same factors
            delta = delta + self._lu_solve(lu, rhs - J @ delta)
        if newton:
            self.lu = lu
        return delta

    def _lu_solve(self, lu, v: np.ndarray) -> np.ndarray:
        """M^-1 v, for ``lu`` the factors of the permuted matrix."""
        out = np.empty_like(v)
        out[self.order] = lu.solve(v[self.order])
        return out

    def _krylov(self, J, rhs) -> Optional[np.ndarray]:
        """One cycle of GMRES on J M^-1 y = rhs, delta = M^-1 y with M the held
        LU, so that GMRES minimises the true residual; None unless delta is
        finite and meets the forcing bound.  gmres's ``info`` is not read:
        the bound is checked on the recomputed residual."""
        lu = self.lu
        last = [None, None]     # the last (v, M^-1 v) the operator made

        def matvec(v):
            w = self._lu_solve(lu, v)
            last[:] = v.copy(), w
            return J @ w

        op = spla.LinearOperator(J.shape, matvec=matvec, dtype=float)
        residuals = []      # one per GMRES iteration
        y, _ = spla.gmres(op, rhs, rtol=_FORCING, restart=_KRYLOV_MAX, maxiter=1,
                          callback=residuals.append, callback_type="pr_norm")
        self.krylov_iterations += len(residuals)
        # gmres's last matvec is the residual of y, so M^-1 y is at hand
        v, w = last
        delta = w if np.array_equal(v, y) else self._lu_solve(lu, y)
        if (np.all(np.isfinite(delta))
                and np.linalg.norm(J @ delta - rhs) <= _FORCING * np.linalg.norm(rhs)):
            return delta
        return None


def _full_grid(dom: GridDomain, interior_vec, cache: AssemblyCache) -> np.ndarray:
    u = np.where(dom.status == BOUNDARY, dom.bdata, 0.0)
    u[~dom.carried()] = np.nan
    u.ravel()[cache.flat_unknown] = interior_vec
    return u


def _coarse_domain(dom: GridDomain) -> Optional[GridDomain]:
    """The lattice of every other node of ``dom``, with the steps doubled and
    the bridges dropped; None where nested iteration does not apply: polar
    lattices, lattices with an excluded node (masks), odd interval counts,
    or a coarse lattice with fewer than ``_MIN_COARSE_INTERVALS`` intervals
    on a side."""
    n1, n0 = dom.shape
    if (dom.kind != "cartesian" or np.any(dom.status == EXCLUDED)
            or (n1 - 1) % 2 or (n0 - 1) % 2
            or min(n1, n0) - 1 < 2 * _MIN_COARSE_INTERVALS):
        return None
    status = dom.status[::2, ::2].copy()
    status[status == BRIDGE] = INTERIOR
    return replace(dom, status=status, bdata=dom.bdata[::2, ::2].copy(),
                   hx=2.0 * dom.hx, hy=2.0 * dom.hy, bridges={})


def _runaway(vec: np.ndarray, F: np.ndarray, scale: float) -> str:
    """Why the iterate counts as diverged, or "" while it does not."""
    if not np.all(np.isfinite(F)):
        return "non-finite residual"
    top = float(np.max(np.abs(vec)))
    if not top <= _RUNAWAY * scale:
        return (f"iterate ran away: max|u| = {top:.3e} passed {_RUNAWAY:.0e} times "
                f"its starting scale {scale:.3e}")
    return ""


def solve_dirichlet(model: MetricModel, dom: GridDomain, H=None,
                    config: Optional[SolveConfig] = None,
                    init: Optional[ScalarGrid] = None,
                    cache: Optional[AssemblyCache] = None) -> SolveReport:
    """Solve the prescribed-mean-curvature Dirichlet problem on ``dom``.

    Damped Newton iteration: a backtracking line search on each step, and
    a rejected step stops the solve as ``stalled``; the stop rules are in
    the module docstring.  The initial iterate is ``init`` (values on
    this lattice; see :meth:`ScalarGrid.transfer`) when given; else, where
    the lattice coarsens (see :func:`_coarse_domain`), the converged
    solution of the same problem on the coarse lattice carried onto this
    one; else one Picard solve with the area element frozen at the
    zero-section value W0 = sqrt(1 + mu^2 (a^2 + b^2)).  A warm start takes
    at least one Newton step.
    """
    t0 = time.perf_counter()
    cfg = config or SolveConfig()
    start = "picard" if init is None else "given"
    coarse_iterations: List[int] = []
    coarse = _coarse_domain(dom) if init is None else None
    if coarse is not None:
        # called by its module name: each level is a solve_dirichlet call of its own
        crep = solve_dirichlet(model, coarse, H=H, config=cfg)
        coarse_iterations = crep.coarse_iterations + [crep.iterations]
        if crep.converged:
            init, start = crep.u.transfer(dom), "coarse"
    if cache is None:
        cache = AssemblyCache(model, dom)
    rhs = nodal_rhs(model, dom, H)
    tol = cfg.tol_factor * (1.0 + float(np.max(np.abs(rhs[dom.carried()]))))

    linear = _LinearSolves(cache)
    message = ""
    singular_start = False
    if init is not None:
        vec = init.values.ravel()[cache.flat_unknown].copy()
    else:
        # one Picard solve: the system with W frozen at W0 is affine in u
        zero_grid = _full_grid(dom, np.zeros(cache.n_unknowns), cache)
        W0 = cache.frozen_W(np.where(dom.carried(), 0.0, np.nan))
        try:
            vec = linear.solve(cache.jacobian(zero_grid, frozen_W=W0),
                               -cache.residual(zero_grid, rhs, frozen_W=W0), newton=False)
        except _SINGULAR:
            vec = np.zeros(cache.n_unknowns)
            singular_start = True
            message = "singular Picard system for the initial iterate"

    damping: List[float] = []
    stop_reason = "singular" if singular_start else "max-iters"
    iters = 0
    # a warm start skips the tolerance test before its first Newton step
    first = 0 if start == "picard" else 1
    u = _full_grid(dom, vec, cache)
    F = cache.residual(u, rhs)
    fnorm = float(np.max(np.abs(F))) if F.size else 0.0
    scale = 1.0 + float(np.nanmax(np.abs(u)))
    diverged = _runaway(vec, F, scale)

    while not (singular_start or diverged) and iters < cfg.max_iters:
        if fnorm <= tol and iters >= first:
            stop_reason = "tolerance"
            break
        iters += 1
        J = cache.jacobian(u)
        if not np.all(np.isfinite(J.data)):
            diverged = "non-finite Jacobian"
            break
        try:
            delta = linear.solve(J, -F, newton=True)
        except _SINGULAR:
            stop_reason, message = "singular", "singular Jacobian"
            break
        floor = _EPS * float(np.max(abs(J) @ np.abs(vec)))
        if fnorm <= floor and np.max(np.abs(J @ delta)) <= floor:
            stop_reason = "rounding-floor"
            message = f"residual at its rounding floor {floor:.3e}"
            break
        phi0 = float(F @ F)
        t = 1.0
        while t >= _MIN_STEP:
            trial = vec + t * delta
            u_try = _full_grid(dom, trial, cache)
            F_try = cache.residual(u_try, rhs)
            if float(F_try @ F_try) <= (1.0 - 2.0 * _ARMIJO * t) * phi0:
                break
            t *= 0.5
        else:
            damping.append(0.0)
            stop_reason = "stalled"
            message = f"line search rejected the Newton step at max|F| = {fnorm:.3e}"
            break
        vec, u, F = trial, u_try, F_try
        fnorm = float(np.max(np.abs(F)))
        damping.append(t)
        if t < 1.0:
            # the next Newton system is factored directly (module docstring)
            linear.lu = None
        diverged = _runaway(vec, F, scale)

    if diverged:
        stop_reason, message = "diverged", diverged
    elif fnorm <= tol:
        stop_reason = "tolerance"
    converged = stop_reason in ("tolerance", "rounding-floor")
    if stop_reason == "max-iters":
        message = f"no convergence in {cfg.max_iters} iterations"

    sol = raw_grid(dom, u)
    return SolveReport(u=sol, converged=converged, iterations=iters,
                       residual_norm=fnorm, tolerance=tol,
                       damping_history=damping,
                       message=message, runtime=time.perf_counter() - t0,
                       stop_reason=stop_reason, start=start,
                       coarse_iterations=coarse_iterations,
                       factorizations=linear.factorizations,
                       krylov_iterations=linear.krylov_iterations,
                       lu_fill=linear.lu_fill)


# ---------------------------------------------------------------------------
# Exhaustion of unbounded domains by truncation

@dataclass
class ExhaustionReport:
    reports: List[SolveReport]
    cauchy: List[float]        # sup |u_n - u_{n-1}| over the common core, or NaN
    core: List[np.ndarray]     # flat indices of the common core in each lattice, node-aligned


def _common_core(domains: Sequence[GridDomain]) -> List[np.ndarray]:
    """Flat indices, in each domain's lattice, of the nodes that every
    domain of the family carries (see :func:`coincident_nodes`), in the
    node order of the first domain."""
    first = domains[0]
    maps = [coincident_nodes(dom, first).ravel() for dom in domains]
    keep = first.carried().ravel()
    for dom, idx in zip(domains, maps):
        keep &= idx >= 0
        keep[keep] = dom.carried().ravel()[idx[keep]]
    return [idx[keep] for idx in maps]


def exhaustion_solve(model: MetricModel, domains: Sequence[GridDomain], H=None,
                     config: Optional[SolveConfig] = None) -> ExhaustionReport:
    """Solve an increasing family of truncated domains and monitor the
    pointwise change between consecutive solutions.

    The Cauchy monitor is taken over the core common to every domain of the
    family (the smallest truncation, for nested families): a fixed compact
    region, so successive changes measure genuine convergence rather than
    the moving artificial-boundary layers.  An entry is NaN when the core is
    empty, or when either solve of its pair did not converge.  Each
    truncation starts on its own (coarse or Picard), not from the previous
    one: extended by the nearest value, that start took more Newton steps
    than a cold one on clamped strips.
    """
    reports = [solve_dirichlet(model, dom, H=H, config=config) for dom in domains]
    core = _common_core(domains) if domains else []
    cauchy = []
    for k, (prev, cur) in enumerate(zip(reports[:-1], reports[1:])):
        if core[0].size and prev.converged and cur.converged:
            diff = prev.u.values.ravel()[core[k]] - cur.u.values.ravel()[core[k + 1]]
            cauchy.append(float(np.max(np.abs(diff))))
        else:
            cauchy.append(float("nan"))
    return ExhaustionReport(reports=reports, cauchy=cauchy, core=core)


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
