import numpy as np
import pytest

from killing_graphs.experiments import (removable_singularity_experiment,
                                        run_disk_puncture, run_sol3_puncture)
from killing_graphs.grids import BRIDGE, GridDomain
from killing_graphs.models import builtin_model
from killing_graphs.solver import solve_dirichlet


def test_puncture_requires_interior_node():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    with pytest.raises(ValueError, match="interior"):
        dom.with_puncture((0, 0))


def test_puncture_marks_bridge():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    node = dom.nearest_node((0.5, 0.5))
    domp = dom.with_puncture(node)
    assert domp.status[node] == BRIDGE
    assert node in domp.bridges
    assert dom.status[node] != BRIDGE  # original untouched


def test_plane_data_unaffected_by_puncture():
    # planes solve both systems exactly: difference at solver tolerance
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(0, 1, 0, 1, 1 / 8,
                               boundary=lambda x, y: 0.3 * x + 0.7 * y)
    node = dom.nearest_node((0.5, 0.5))
    rep = solve_dirichlet(m, dom)
    rep_p = solve_dirichlet(m, dom.with_puncture(node))
    mask = dom.carried().copy()
    mask[node] = False
    assert np.max(np.abs(rep.u.values[mask] - rep_p.u.values[mask])) <= 1e-10


def test_disk_puncture_decays():
    rep = run_disk_puncture(hs=(1 / 8, 1 / 16, 1 / 32))
    assert rep.monotone_decay
    assert rep.runs[0].max_difference > 1e-6  # genuinely nonzero study
    assert all(r.full_converged and r.punctured_converged for r in rep.runs)


def test_sol3_puncture_invisible():
    rep = run_sol3_puncture(hs=(1 / 16,))
    assert rep.runs[0].max_difference <= 1e-8
    # tol_factor 1e-13 lies under this lattice's rounding floor
    run = rep.runs[0]
    assert run.full_converged and run.punctured_converged
    assert run.full_stop_reason == run.punctured_stop_reason == "rounding-floor"
    assert run.full_start == "picard" and run.punctured_start == "given"


def test_custom_experiment_runner():
    m = builtin_model("euclidean")
    rep = removable_singularity_experiment(
        m, lambda h: GridDomain.rectangle(-1, 1, -1, 1, h,
                                          boundary=lambda x, y: x * y),
        (0.25, 0.25), hs=(1 / 8, 1 / 16))
    assert len(rep.runs) == 2
    assert all(r.max_difference < 1e-2 for r in rep.runs)
