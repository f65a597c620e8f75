"""Damped Newton solver for the Dirichlet problem F(u) = 0.

The Jacobian is the exact derivative of the flux-form residual.  Each
iteration is one Newton step with an Armijo backtracking line search.  A
step the search rejects ends the solve: a retry from the same iterate
would take the same step.

The initial iterate (``SolveReport.start``) comes from one of three places:

- ``given``: the caller's ``init``, such as a full solution carried onto
  its punctured lattice by :meth:`ScalarGrid.transfer`;
- ``coarse``: nested iteration.  A rectangle or an annulus with even
  interval counts (theta has one per node) and at least
  ``2 * _MIN_COARSE_INTERVALS`` intervals a side is first solved on the
  lattice of every other node (recursively), and that converged solution
  is transferred back by the limited cubic of :meth:`ScalarGrid.transfer`,
  wrapped along theta: an interpolation more accurate than the O(h^2)
  scheme, as full-multigrid start-up needs (Trottenberg,
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
LU of the last matrix it factored on its lattice.  Every linear system
takes one path: one cycle of right-preconditioned GMRES on the held LU,
whose step is kept when ``|J delta + F| <= _FORCING |F|`` holds when
recomputed; when no LU is held, or GMRES misses that bound, the matrix is
factored and solved directly, and its LU is held instead.  So a lattice
makes one factorization when GMRES keeps meeting the bound.  The held LU
is dropped whenever the iterate jumps, so the next Newton system is
factored directly: after the Picard start, as a frozen-W LU preconditions
a Newton system poorly, and after an accepted damped step (``0 < t < 1``),
as the iterate has moved far from the held LU's and GMRES on it ran whole
cycles before missing the bound.  Every factorization is SuperLU's, of
the Jacobian in the one numbering its :class:`AssemblyCache` gives the
unknowns, the lattice's nested dissection (:meth:`GridDomain.dissection`;
George, SIAM J. Numer. Anal. 1973).  SuperLU takes a matrix by columns, so
it factors the CSC view of the CSR Jacobian, the structure of ``J.T`` on
J's own index arrays, with its ``NATURAL`` column choice and its default
pivot threshold; every LU solve, GMRES's included, is ``solve(v,
trans="T")``.  Against multiple minimum degree on A^T + A, found anew at
each factorization, this factors square and strip lattices about a third
faster with about 5% less fill.

The factorization is in single precision: only J's values are copied, cast
to float32, so the LU's values take half the bytes, with the same fill.  A direct
solve is one float32 solve and ``_REFINEMENTS`` steps of iterative
refinement, each r = rhs - J delta in double and then delta += M^-1 r
(Langou et al., SC 2006; Carson & Higham, SIAM J. Sci. Comput. 2018).
Inexact Newton asks each step only to meet the forcing bound ``_FORCING``
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982): the first step
meets it, and the second brings the residual down to a float64 LU solve's.
Where the refined residual misses ``_FORCING`` (J too ill-conditioned for
float32), J.T is factored in float64 and solved the same way, that LU is
held instead, and ``lu_fallbacks`` counts it.  A GMRES step is the
combination of the M^-1 v_k that GMRES's solution y is of its basis vectors
v_k, as in flexible GMRES (Saad, SIAM J. Sci. Comput. 1993), so its
residual is the one GMRES reached; M^-1 y itself would add the rounding of
one more float32 solve, and GMRES would stall near 1e-5.

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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .grids import BOUNDARY, EXCLUDED, GridDomain, ScalarGrid, coincident_nodes
from .models import MetricModel
from .operator import AssemblyCache, nodal_rhs, raw_grid


@dataclass
class SolveConfig:
    max_iters: int = 60
    tol_factor: float = 1e-10          # residual tol = tol_factor * (1 + |2 mu H|_inf)


@dataclass
class SolveReport:
    """What one solve returns: the last iterate ``u``, its residual F(u) at
    the interior nodes (NaN elsewhere, as :func:`mean_curvature_residual`
    gives it), why the solve stopped and what it spent."""
    u: ScalarGrid
    residual: ScalarGrid
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
    lu_fallbacks: int = 0      # float64 factorizations after a float32 step missed the forcing bound


# what a singular or non-finite linear system raises
_SINGULAR = (np.linalg.LinAlgError, RuntimeError)

_EPS = float(np.finfo(float).eps)
_ARMIJO = 1e-4              # sufficient decrease of |F|^2 in the line search
_MIN_STEP = 2.0 ** -20      # the line search rejects the step below this t
_RUNAWAY = 1e6              # max|u| past this many times its starting scale is divergence
_MIN_COARSE_INTERVALS = 32  # intervals per side that a coarse lattice keeps at least
_FORCING = 1e-6             # linear relative residual every step must reach
_KRYLOV_MAX = 30            # GMRES iterations (one cycle) before the Jacobian is refactored
_REFINEMENTS = 2            # refinement steps of a direct solve, in float64, on its LU


class _LinearSolves:
    """The linear algebra of one lattice: the LU of the last matrix factored
    on it (until the iterate jumps) and its precision, the count of
    factorizations, float64 fallbacks and GMRES iterations, and the largest
    fill."""

    def __init__(self):
        self.lu = None
        self.lu_dtype = np.float32
        self.factorizations = 0
        self.lu_fallbacks = 0
        self.krylov_iterations = 0
        self.lu_fill = 0

    def solve(self, J, rhs) -> np.ndarray:
        """delta with J delta = rhs: one GMRES cycle on the held LU; when no
        LU is held, or GMRES misses the forcing bound, J is factored in
        float32 and solved directly with its refinement steps, or in float64
        when those miss the bound; the last LU made is held."""
        if self.lu is not None:
            delta = self._krylov(J, rhs)
            if delta is not None:
                return delta
            # dropped before the new factors exist, so one LU is held at a time
            self.lu = None
        # first J's own index arrays with its values cast to float32, the CSC
        # view of the CSR Jacobian that J.T is; then J.T itself
        for dtype in (np.float32, np.float64):
            A = J.T if dtype is np.float64 else type(J.T)(
                (J.data.astype(dtype), J.indices, J.indptr), shape=J.shape)
            # splu raises RuntimeError on an exactly singular factor
            lu = spla.splu(A, permc_spec="NATURAL")
            self.factorizations += 1
            # SuperLU's own count: reading L.nnz + U.nnz would export both factors
            self.lu_fill = max(self.lu_fill, lu.nnz)
            self.lu, self.lu_dtype = lu, dtype
            # one solve, then the refinement steps
            delta, res = np.zeros(J.shape[0]), rhs
            for _ in range(1 + _REFINEMENTS):
                delta += _lu_solve(lu, res, dtype)
                res = rhs - J @ delta
            if _meets_forcing(res, rhs):
                return delta
            if dtype is np.float32:
                self.lu_fallbacks += 1
                self.lu = lu = None
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError("singular Jacobian")
        return delta

    def _krylov(self, J, rhs) -> Optional[np.ndarray]:
        """One cycle of GMRES on J M^-1 y = rhs, with M the held LU; None
        unless the step meets the forcing bound.  The step is the combination
        of the M^-1 v_k that y is of GMRES's orthonormal basis v_k, so its
        residual is the one GMRES minimised, as in flexible GMRES (Saad, SIAM
        J. Sci. Comput. 1993); M^-1 y would add the rounding of one more
        single-precision solve.  gmres's ``info`` is not read: the bound is
        checked on the recomputed residual."""
        lu, dtype = self.lu, self.lu_dtype
        basis, images = [], []      # each v the operator is given, and M^-1 v

        def matvec(v):
            w = _lu_solve(lu, v, dtype)
            basis.append(v.copy())
            images.append(w)
            return J @ w

        op = spla.LinearOperator(J.shape, matvec=matvec, dtype=float)
        residuals = []      # one per GMRES iteration
        y, _ = spla.gmres(op, rhs, rtol=_FORCING, restart=_KRYLOV_MAX, maxiter=1,
                          callback=residuals.append, callback_type="pr_norm")
        k = len(residuals)
        self.krylov_iterations += k
        # the first k vectors are the basis; the last is y, whose residual
        # gmres computes
        coeffs = np.array(basis[:k]).reshape(k, rhs.size) @ y
        delta = coeffs @ np.array(images[:k]).reshape(k, rhs.size)
        return delta if _meets_forcing(rhs - J @ delta, rhs) else None


def _lu_solve(lu, v, dtype) -> np.ndarray:
    """M^-1 v, in ``dtype``, the precision of M's LU ``lu``."""
    return lu.solve(v.astype(dtype, copy=False), trans="T")


def _meets_forcing(res, rhs) -> bool:
    """Whether the residual ``res`` of a step meets |res| <= _FORCING |rhs|
    (never when it is not finite)."""
    return bool(np.linalg.norm(res) <= _FORCING * np.linalg.norm(rhs))


def _full_grid(dom: GridDomain, interior_vec, cache: AssemblyCache) -> np.ndarray:
    u = np.where(dom.status == BOUNDARY, dom.bdata, 0.0)
    u[~dom.carried()] = np.nan
    u.ravel()[cache.flat_unknown] = interior_vec
    return u


def _coarse_domain(dom: GridDomain) -> Optional[GridDomain]:
    """``dom.coarsened()``, or None where nested iteration does not apply: a
    lattice with an excluded node (a mask), an odd interval count, or fewer
    than ``_MIN_COARSE_INTERVALS`` coarse intervals on a side."""
    if np.any(dom.status == EXCLUDED) or min(dom.intervals()) < 2 * _MIN_COARSE_INTERVALS:
        return None
    return dom.coarsened()


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
                    init: Optional[ScalarGrid] = None) -> SolveReport:
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

    The report's ``residual`` is F at the returned iterate ``u``, bit for
    bit what ``mean_curvature_residual(model, report.u, H)`` recomputes;
    ``residual_norm`` is the max of |F| over the unknowns, bridge rows
    included.
    """
    t0 = time.perf_counter()
    cfg = config or SolveConfig()
    cache = AssemblyCache(model, dom)
    start = "picard" if init is None else "given"
    coarse_iterations: List[int] = []
    coarse = _coarse_domain(dom) if init is None else None
    if coarse is not None:
        # called by its module name: each level is a solve_dirichlet call of its own
        crep = solve_dirichlet(model, coarse, H=H, config=cfg)
        coarse_iterations = crep.coarse_iterations + [crep.iterations]
        if crep.converged:
            init, start = crep.u.transfer(dom), "coarse"
    rhs = nodal_rhs(model, dom, H)
    tol = cfg.tol_factor * (1.0 + float(np.max(np.abs(rhs[dom.carried()]))))

    linear = _LinearSolves()
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
                               -cache.residual(zero_grid, rhs, frozen_W=W0))
            # a frozen-W LU preconditions a Newton system poorly
            linear.lu = None
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
            delta = linear.solve(J, -F)
        except _SINGULAR:
            stop_reason, message = "singular", "singular Jacobian"
            break
        # |J| on J's own structure: abs(J) would copy its indices too
        absJ = type(J)((np.abs(J.data), J.indices, J.indptr), shape=J.shape)
        floor = _EPS * float(np.max(absJ @ np.abs(vec)))
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

    return SolveReport(u=raw_grid(dom, u), residual=cache.interior_grid(F),
                       converged=converged, iterations=iters,
                       residual_norm=fnorm, tolerance=tol,
                       damping_history=damping,
                       message=message, runtime=time.perf_counter() - t0,
                       stop_reason=stop_reason, start=start,
                       coarse_iterations=coarse_iterations,
                       factorizations=linear.factorizations,
                       krylov_iterations=linear.krylov_iterations,
                       lu_fill=linear.lu_fill, lu_fallbacks=linear.lu_fallbacks)


# ---------------------------------------------------------------------------
# Exhaustion of unbounded domains by truncation

@dataclass
class ExhaustionReport:
    reports: List[SolveReport]
    cauchy: List[float]        # sup |u_n - u_{n-1}| over the common core, or NaN
    core: List[np.ndarray]     # flat indices of the common core in each lattice, node-aligned


def _common_core(domains: Sequence[GridDomain]) -> List[np.ndarray]:
    """Flat indices, in each domain's lattice, of the nodes that every
    domain of the family carries (see :func:`coincident_nodes`), listed
    as the first domain lists its nodes."""
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
