"""Heisenberg-space utilities: ambient isometries acting on graphs, the
translation-invariant minimal graphs, and the clamped-strip experiment that
supports strip uniqueness numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .fields import ScalarField, callable_field
from .grids import GridDomain, ScalarGrid
from .models import builtin_model
from .solver import SolveConfig, SolveReport, check_max_principle, exhaustion_solve

_KINDS = ("phi1", "phi2", "phi3", "phi4", "phi5")


@dataclass(frozen=True)
class NilIsometry:
    """Generator of the ambient isometry group of the Heisenberg model.

    phi1(c): (x, y, z) -> (x + c, y, z + c tau y)
    phi2(c): (x, y, z) -> (x, y + c, z - c tau x)
    phi3(c): vertical translation by c
    phi4(theta): rotation about the vertical axis
    phi5:    (x, y, z) -> (x, -y, -z)
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown isometry kind {self.kind!r}")


def apply_isometry_to_graph(iso: NilIsometry, u: ScalarGrid, tau: float,
                            target: Optional[GridDomain] = None) -> ScalarGrid:
    """Push the graph of u forward: the result is again a graph, over the
    transformed domain, resampled bilinearly onto ``target`` (defaults to
    the source lattice)."""
    dom = target or u.domain
    X, Y = dom.coords()
    m = dom.carried()
    x, y = X[m], Y[m]
    c = iso.param
    if iso.kind == "phi1":
        vals = u.sample(x - c, y) + c * tau * y
    elif iso.kind == "phi2":
        vals = u.sample(x, y - c) - c * tau * x
    elif iso.kind == "phi3":
        vals = u.sample(x, y) + c
    elif iso.kind == "phi4":
        ct, st = np.cos(c), np.sin(c)
        vals = u.sample(x * ct + y * st, -x * st + y * ct)
    else:
        vals = -u.sample(x, -y)
    if np.any(~np.isfinite(vals)):
        raise ValueError("transformed domain exits the source grid")
    out = np.full(dom.shape, np.nan)
    out[m] = vals
    return ScalarGrid(dom, out)


def invariant_barrier(tau: float, c: float = 0.0, shift: float = 0.0) -> ScalarField:
    """The translated invariant graph u(x, y) = shift + tau x (y - c).

    An exact solution of the minimal-graph equation for every c, shift; used
    as a comparison surface over strips."""
    return callable_field(
        lambda x, y: shift + tau * x * (y - c),
        fx=lambda x, y: tau * (y - c) + 0.0 * x,
        fy=lambda x, y: tau * x + 0.0 * y,
        fxx=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        fxy=lambda x, y: np.full(np.broadcast(x, y).shape, tau),
        fyy=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )


# ---------------------------------------------------------------------------
# Clamped-strip experiment

@dataclass
class StripRun:
    n: float
    K: float
    core_sup: float
    report: SolveReport = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.report.converged


@dataclass
class StripUniquenessReport:
    tau: float
    width: float
    runs: List[StripRun]
    barrier_ok: bool
    note: str = ("finite truncations are supporting evidence for strip "
                 "uniqueness, not a proof; the clamp K stands in for "
                 "data diverging at the truncation arcs")


def strip_truncation_domain(w: float, n: float, h: float, K: float,
                            phi=0.0) -> GridDomain:
    """Rectangle [-n, n] x [-w, w] with data phi on the strip edges and the
    clamp K on the artificial vertical arcs; corner nodes average the two
    one-sided limits."""
    return GridDomain.rectangle(-n, n, -w, w, h, boundary={
        "bottom": phi, "top": phi, "left": K, "right": K,
    })


def strip_uniqueness_experiment(tau: float, w: float, n_list: Sequence[float],
                                K: float, h: float = 1 / 16,
                                config: Optional[SolveConfig] = None) -> StripUniquenessReport:
    """Solve the zero-data strip truncations with clamp K and report the sup
    of |u| over the core |x| <= w, plus a barrier comparison.

    The truncations run through :func:`exhaustion_solve`, and the core is
    the part of its common core with |x| <= w (NaN where that is empty).
    The invariant graph shift + tau x (y + w), shifted up enough to dominate
    the clamped data, is an exact discrete solution; the comparison
    principle then bounds every run from above by it.
    """
    model = builtin_model("nil3", (tau,),
                          chart=None)
    doms = [strip_truncation_domain(w, n, h, K) for n in n_list]
    ex = exhaustion_solve(model, doms, config=config)
    runs: List[StripRun] = []
    barrier_ok = True
    for n, dom, rep, core in zip(n_list, doms, ex.reports, ex.core):
        X, _ = dom.coords()
        core = core[np.abs(X.ravel()[core]) <= w + 1e-12]
        core_sup = float(np.max(np.abs(rep.u.values.ravel()[core]))) if core.size else float("nan")
        runs.append(StripRun(n=n, K=K, core_sup=core_sup, report=rep))

        shift = abs(K) + 2.0 * abs(tau) * n * w
        barrier = invariant_barrier(tau, c=-w, shift=shift)
        bar_grid = ScalarGrid.from_function(dom, barrier.value)
        verdict = check_max_principle(rep, bar_grid)
        barrier_ok = barrier_ok and verdict.passed
    return StripUniquenessReport(tau=tau, width=w, runs=runs, barrier_ok=barrier_ok)
