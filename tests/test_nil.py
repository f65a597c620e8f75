import re

import numpy as np
import pytest

from killing_graphs.grids import GridDomain, ScalarGrid
from killing_graphs.models import builtin_model
from killing_graphs.nil import (NilIsometry, apply_isometry_to_graph,
                                invariant_barrier, strip_truncation_domain,
                                strip_uniqueness_experiment)
from killing_graphs.operator import mean_curvature_residual

TAU = 0.5


def graph_of(f, rect=(-2, 2, -2, 2), h=1 / 8):
    dom = GridDomain.rectangle(*rect, h)
    return ScalarGrid.from_function(dom, f)


def target_grid(rect=(-1, 1, -1, 1), h=1 / 8):
    return GridDomain.rectangle(*rect, h)


def test_phi3_shifts_graph():
    u0 = graph_of(lambda x, y: 0.0 * x)
    out = apply_isometry_to_graph(NilIsometry("phi3", 2.0), u0, TAU, target_grid())
    assert np.nanmax(np.abs(out.values - 2.0)) == 0.0


def test_phi1_leaves_invariant_graph_fixed():
    uI = graph_of(lambda x, y: TAU * x * y)
    tg = target_grid()
    out = apply_isometry_to_graph(NilIsometry("phi1", 0.7), uI, TAU, tg)
    exact = ScalarGrid.from_function(tg, lambda x, y: TAU * x * y)
    assert np.nanmax(np.abs(out.values - exact.values)) <= 1e-12


def test_phi5_leaves_invariant_graph_fixed():
    uI = graph_of(lambda x, y: TAU * x * y)
    tg = target_grid()
    out = apply_isometry_to_graph(NilIsometry("phi5"), uI, TAU, tg)
    exact = ScalarGrid.from_function(tg, lambda x, y: TAU * x * y)
    assert np.nanmax(np.abs(out.values - exact.values)) <= 1e-12


def test_phi2_translation_formula():
    u0 = graph_of(lambda x, y: 0.0 * x)
    tg = target_grid()
    out = apply_isometry_to_graph(NilIsometry("phi2", 1.0), u0, TAU, tg)
    X, Y = tg.coords()
    expect = -1.0 * TAU * X
    m = tg.carried()
    assert np.max(np.abs(out.values[m] - expect[m])) <= 1e-12


def test_phi4_rotation_resamples():
    u = graph_of(lambda x, y: x, h=1 / 32)
    tg = target_grid(h=1 / 32)
    out = apply_isometry_to_graph(NilIsometry("phi4", np.pi / 2), u, TAU, tg)
    X, Y = tg.coords()
    m = tg.carried()
    # rotating the graph of x by 90 degrees gives the graph of y
    assert np.max(np.abs(out.values[m] - Y[m])) <= 1e-10


def test_exiting_domain_raises():
    u = graph_of(lambda x, y: x, rect=(-1, 1, -1, 1))
    with pytest.raises(ValueError, match="exits"):
        apply_isometry_to_graph(NilIsometry("phi1", 5.0), u, TAU, target_grid())


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        NilIsometry("phi9", 1.0)


# -- isometry covariance of the residual -----------------------------------------

def test_residual_covariance_under_isometries():
    m = builtin_model("nil3", (TAU,))
    u = graph_of(lambda x, y: 0.3 * np.sin(x) + 0.1 * x * y, h=1 / 16)
    tg = target_grid(h=1 / 16)
    r_direct = mean_curvature_residual(m, ScalarGrid.from_function(
        tg, lambda x, y: 0.3 * np.sin(x) + 0.1 * x * y))
    for iso in (NilIsometry("phi1", 0.5), NilIsometry("phi2", -0.25),
                NilIsometry("phi3", 3.0), NilIsometry("phi5")):
        pushed = apply_isometry_to_graph(iso, u, TAU, tg)
        # pull the residual of the pushed graph back to the source point
        r_pushed = mean_curvature_residual(m, pushed)
        # compare residual magnitudes: both O(h^2)-consistent fields of the
        # same surface; resampling adds O(h^2)
        a = np.nanmax(np.abs(r_direct.values))
        b = np.nanmax(np.abs(r_pushed.values))
        assert b <= max(2.5 * a, 5e-3)


# -- invariant barrier -----------------------------------------------------------

def test_barrier_closed_form():
    bar = invariant_barrier(TAU, c=0.0, shift=0.0)
    assert float(bar.value(2.0, 3.0)) == TAU * 6.0
    bar2 = invariant_barrier(TAU, c=1.0, shift=4.0)
    assert float(bar2.value(2.0, 3.0)) == 4.0 + TAU * 2.0 * 2.0


def test_barrier_shift_is_vertical_translation():
    b0 = invariant_barrier(TAU, c=0.7, shift=0.0)
    b5 = invariant_barrier(TAU, c=0.7, shift=5.0)
    xs = np.linspace(-2, 2, 11)
    assert np.allclose(b5.value(xs, -xs) - b0.value(xs, -xs), 5.0)


def test_barrier_second_partials_by_differences():
    # u_xx = 0, u_xy = tau, u_yy = 0: the field holds no second-partial slot
    bar = invariant_barrier(TAU, c=0.4, shift=1.0)
    for x, y in [(0.3, 0.2), (-1.5, 0.7)]:
        assert np.allclose([float(v) for v in bar.second_partials(x, y)], [0.0, TAU, 0.0],
                           rtol=0.0, atol=1e-8)


def test_barrier_residual_refines_at_second_order():
    m = builtin_model("nil3", (TAU,))
    bar = invariant_barrier(TAU, c=0.4, shift=1.0)
    res = []
    for h in (1 / 16, 1 / 32):
        dom = GridDomain.rectangle(-1, 1, -1, 1, h)
        u = ScalarGrid.from_function(dom, bar.value)
        res.append(np.nanmax(np.abs(mean_curvature_residual(m, u).values)))
    assert res[1] <= 1e-3
    assert res[1] <= res[0] / 3.5 + 1e-12


def test_barrier_residual_tau_sweep():
    for tau in (-2.0, -0.5, 0.0, 1.0, 2.0):
        m = builtin_model("nil3", (tau,))
        bar = invariant_barrier(tau, c=0.1, shift=0.3)
        dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 16)
        u = ScalarGrid.from_function(dom, bar.value)
        assert np.nanmax(np.abs(mean_curvature_residual(m, u).values)) <= 1e-3


# -- strip experiment --------------------------------------------------------------

def test_strip_zero_clamp_trivial():
    rep = strip_uniqueness_experiment(TAU, 1.0, [2, 3], K=0.0, h=1 / 16)
    for run in rep.runs:
        assert run.core_sup <= 1e-5  # O(h^2)-small; exact zero in the continuum


def test_strip_decay_and_barrier():
    rep = strip_uniqueness_experiment(TAU, 1.0, [2, 4, 8], K=5.0, h=1 / 16)
    sups = [r.core_sup for r in rep.runs]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert rep.barrier_ok


@pytest.mark.parametrize("n_list", [[0.5], [1.0, 2.0], [3.0, 2.0], [2.0, 2.0], []],
                         ids=["inside", "at-w", "decreasing", "repeated", "empty"])
def test_strip_n_list_must_increase_from_above_the_half_width(n_list):
    # n_list [0.5] reported core_sup 5.0, the clamp K itself: at n <= w the
    # core reaches the clamped arcs
    message = f"n_list must increase strictly from above the half width 1, got {n_list}"
    with pytest.raises(ValueError, match=re.escape(message)):
        strip_uniqueness_experiment(TAU, 1.0, n_list, K=5.0, h=0.25)


def test_strip_domain_corner_averaging():
    dom = strip_truncation_domain(1.0, 2.0, 0.5, K=4.0)
    # corner nodes average the clamp and the zero edge data
    assert dom.bdata[0, 0] == 2.0
    assert dom.bdata[-1, -1] == 2.0
    assert dom.bdata[0, dom.shape[1] // 2] == 0.0
    assert dom.bdata[dom.shape[0] // 2, 0] == 4.0
