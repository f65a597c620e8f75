"""Canned numerical experiments built on the solver.

The removable-singularity study solves the same Dirichlet problem twice,
once on the full lattice and once with one interior node punctured (no
equation, no data; its value is bridged by an axis-pair average so the
neighboring stencils stay whole), and reports how far the two solutions
drift apart as the lattice refines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .grids import GridDomain
from .models import MetricModel, builtin_model
from .solver import SolveConfig, solve_dirichlet

_TOL_FACTOR = 1e-13  # default tol_factor of the puncture experiments, API and CLI alike
_HS = (1 / 16, 1 / 32, 1 / 64)  # default lattice steps of the puncture experiments, likewise


@dataclass
class PunctureRun:
    h: float
    node: tuple
    max_difference: float
    full_iterations: int
    punctured_iterations: int
    full_converged: bool
    punctured_converged: bool
    full_stop_reason: str
    punctured_stop_reason: str
    full_start: str
    punctured_start: str
    full_coarse_iterations: List[int]
    punctured_coarse_iterations: List[int]


@dataclass
class RemovableSingularityReport:
    runs: List[PunctureRun]
    monotone_decay: bool


def removable_singularity_experiment(model: MetricModel,
                                     domain_factory: Callable[[float], GridDomain],
                                     puncture_point,
                                     H=None,
                                     hs: Sequence[float] = _HS,
                                     config: Optional[SolveConfig] = None
                                     ) -> RemovableSingularityReport:
    """Max |u_full - u_punctured| over the remaining nodes, per lattice step.

    A tight solver tolerance keeps the Newton stopping error well below the
    puncture effect being measured.  The punctured solve starts from the
    full solution, carried onto the punctured lattice, when that converged.
    A difference is NaN when either solve of its run did not converge, and
    ``monotone_decay`` is then false.
    """
    cfg = config or SolveConfig(tol_factor=_TOL_FACTOR)
    runs: List[PunctureRun] = []
    for h in hs:
        dom = domain_factory(h)
        node = dom.nearest_node(puncture_point)
        dom_p = dom.with_puncture(node)
        rep_full = solve_dirichlet(model, dom, H=H, config=cfg)
        init = rep_full.u.transfer(dom_p) if rep_full.converged else None
        rep_p = solve_dirichlet(model, dom_p, H=H, config=cfg, init=init)
        mask = dom.carried().copy()
        mask[node] = False
        diff = float("nan")
        if rep_full.converged and rep_p.converged:
            diff = float(np.max(np.abs(rep_full.u.values[mask] - rep_p.u.values[mask])))
        runs.append(PunctureRun(h=h, node=node, max_difference=diff,
                                full_iterations=rep_full.iterations,
                                punctured_iterations=rep_p.iterations,
                                full_converged=rep_full.converged,
                                punctured_converged=rep_p.converged,
                                full_stop_reason=rep_full.stop_reason,
                                punctured_stop_reason=rep_p.stop_reason,
                                full_start=rep_full.start, punctured_start=rep_p.start,
                                full_coarse_iterations=rep_full.coarse_iterations,
                                punctured_coarse_iterations=rep_p.coarse_iterations))
    diffs = [r.max_difference for r in runs]
    monotone = (all(np.isfinite(diffs))
                and all(b < a for a, b in zip(diffs[:-1], diffs[1:])))
    return RemovableSingularityReport(runs=runs, monotone_decay=monotone)


# -- canned setups -----------------------------------------------------------

def disk_sin2theta_domain(h: float, radius: float = 1.0) -> GridDomain:
    """Masked unit disk with boundary data sin(2 theta)."""
    return GridDomain.masked(-radius, radius, -radius, radius, h,
                             keep=lambda x, y: x ** 2 + y ** 2 <= radius ** 2 + 1e-12,
                             boundary=lambda x, y: np.sin(2.0 * np.arctan2(y, x)))


def sol3_exact_domain(h: float, half_width: float = 3.0) -> GridDomain:
    """Rectangle [-w, w] x [1.5, 3] with data from the closed-form minimal
    graph 1 - 1/y; wide enough that the O(h^2) wall layers where the lattice
    solution leaves the closed form decay before reaching the puncture."""
    return GridDomain.rectangle(-half_width, half_width, 1.5, 3.0, h,
                                boundary=lambda x, y: 1.0 - 1.0 / y)


# case -> (model preset, domain factory, default puncture point)
_PUNCTURE_CASES = {
    "disk": ("euclidean", disk_sin2theta_domain, (0.25, 0.25)),
    "sol3": ("sol3-halfplane", sol3_exact_domain, (0.0, 2.0)),
}


def _run_puncture_case(case, hs, puncture=None, config=None) -> RemovableSingularityReport:
    preset, factory, point = _PUNCTURE_CASES[case]
    return removable_singularity_experiment(builtin_model(preset), factory,
                                            tuple(point if puncture is None else puncture),
                                            hs=hs, config=config)


def run_disk_puncture(hs=_HS, puncture=None) -> RemovableSingularityReport:
    return _run_puncture_case("disk", hs, puncture)


def run_sol3_puncture(hs=_HS, puncture=None) -> RemovableSingularityReport:
    return _run_puncture_case("sol3", hs, puncture)
